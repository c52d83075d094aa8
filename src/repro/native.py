"""Native tier: the per-ball loops in C, built on first use.

``native.c`` (next to this file) holds these kernels, each bit-identical
to the Python or NumPy path it replaces on the same inputs:

* ``run_rows`` — :func:`repro.core.fast.run_batch` once per row of an
  ``(R, k, d)`` chunk, in int64;
* ``fused_rows`` — one chunk of the plain driver drawn, alias-selected
  and placed in one pass: the draws of
  :meth:`repro.sampling.alias.AliasSampler.sample` and the tie uniforms,
  then ``run_rows``, without the ``(R, k, d)`` arrays (see Draws), and
  ``pcg64_draws``, its draws alone, for the probe;
* ``decide_windows`` (through :class:`WindowKernel`) —
  :func:`repro.core.rounds.stale_windows`: every
  staleness window of one allocation-service hash chunk, each key by
  :func:`~repro.core.rounds.stale_choice`'s rule (the same C helper as
  ``run_rows``' general-d loop);
* ``vose`` — the two-stack table build of
  :class:`~repro.sampling.alias.AliasSampler`.

Build.  The first call that needs the library (a driver run, an alias
table build or a service placer, never ``import repro``) compiles ``native.c`` once with the
system ``cc`` into a per-user cache directory (``$XDG_CACHE_HOME`` or
``~/.cache``, ``repro-native/``, mode 0700, owner checked; a private
``mkdtemp`` when that is not usable), under a name keyed by the source's
sha256 and the compiler's identity.  Each build writes a pid-unique
temporary file and publishes it with :func:`os.replace`, so concurrent
processes (pool and fabric workers) end up sharing one library.  A cached
file that does not load is rebuilt once.  Without a compiler, or when the
build or the load fails, :func:`library` returns ``None``, :func:`status`
names the reason, and every caller runs its Python or NumPy path, which
gives the same numbers.

Guard.  Loads are int64 in C and unbounded in Python: :func:`fits` refuses
a run whose ``(m + 1) * max(capacity)`` could pass 2^62, or whose heights
(``count / capacity`` in double) would not be exact.  The service's window
kernel asks the same of ``m = max(live load) + keys in the chunk``.  The kernels are
private to the drivers; they check every candidate index and raise
:class:`IndexError` on a bad one.

Draws.  ``fused_rows`` steps NumPy's PCG64 in C and makes the draws the
NumPy path makes, in its order: a chunk's ``R * k * d`` bounded ints
(``Generator.integers``: 32-bit Lemire rejection on ``next_uint32``),
then as many alias doubles, then ``R * k`` tie doubles
(``Generator.random``).  The rules that keep it bit-identical:

* PCG64 only.  A generator whose ``bit_generator`` is not exactly
  :class:`numpy.random.PCG64` keeps NumPy's draws (``sampler.sample``
  and ``run_rows``), as do a one-bin range (NumPy draws nothing for it),
  a range past ``2^32 - 1`` and a CDF sampler.
* NumPy's algorithms, not its layout.  The state crosses through the
  generator's public ``bit_generator.state`` dict, read and written back
  under ``bit_generator.lock`` (ctypes drops the GIL during the call), so
  no private struct is read.  What the C code does depend on is NumPy's
  PCG64 step and output, its Lemire bound and its ``next_double``.
* The probe.  When the library loads, :func:`_probe` draws with the C
  code and with ``Generator.integers/random`` on fixed seeds, for
  several ranges and odd counts, and compares the values and the
  generator state after each call.  On any mismatch the fused path stays
  off for the process, :func:`status` names the reason (provenance
  records it; no cache key does), and every run keeps NumPy's draws,
  with the same numbers.
* The buffer rule.  ``next_uint32`` hands out a 64-bit output low half
  first and buffers the high half (``has_uint32``/``uinteger``) across
  calls; doubles leave the buffer alone.  The ties are read from a
  second cursor, the stream jumped past the alias doubles (one step per
  double) by the LCG jump done in C, which keeps the buffer; the stream
  ends at that cursor, buffer included.  (``PCG64.advance`` would clear
  the buffer, so it is not used.)
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["ENABLED", "library", "available", "draws_available", "status",
           "fits"]

#: Test-only switch: ``False`` keeps the library unloaded, so every caller
#: runs its Python or NumPy path, as where the build fails
#: (``equivalence.forced_native`` sets it).
ENABLED = True

#: The C source, shipped as package data.
SOURCE = Path(__file__).with_name("native.c")

#: Compiler flags.  No contraction: every float operation rounds as in
#: Python.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: Must equal ``REPRO_NATIVE_ABI`` in ``native.c``.  2: ``decide_windows``;
#: 3: ``fused_rows`` and ``pcg64_draws``, no ``alias_select``.
ABI = 3

#: ``(m + 1) * max(capacity)`` must stay below this for int64 loads.
LOAD_LIMIT = 1 << 62

#: Counts and capacities below this divide exactly in double.
EXACT_LIMIT = 1 << 53

_MODES = {"max_capacity": 0, "uniform": 1, "min_capacity": 2}

#: Largest range the fused draws take: NumPy draws a range of exactly
#: 2^32 values without the Lemire bound.
MAX_DRAW_RANGE = (1 << 32) - 1

_M64 = (1 << 64) - 1

#: The probe's ``(seed, range)`` cases and per-call ``(ints, doubles,
#: ties)`` counts: odd counts, so the buffered half word crosses calls.
_PROBE_RANGES = ((4, 2), (5, 3), (6, 7), (7, 1000), (8, (1 << 31) - 1),
                 (9, MAX_DRAW_RANGE))
_PROBE_COUNTS = ((5, 5, 3), (33, 33, 11), (1, 1, 1), (7, 21, 3))

#: ``(library or None, status, draws)`` once loaded or refused, per
#: process; *draws* is ``"on"`` or why the fused draws stay off.
_loaded: tuple | None = None
#: Serialises the first load, whose build uses a per-process temp name.
_load_lock = threading.Lock()


def _compiler() -> str | None:
    """Path of the system C compiler, or ``None``."""
    return shutil.which("cc")


def _identity(cc: str) -> str:
    """The compiler's resolved path and version line (part of the cache
    key, so a compiler upgrade rebuilds)."""
    out = subprocess.run([cc, "--version"], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    return f"{os.path.realpath(cc)}\n{out.splitlines()[0] if out else ''}"


def _private_dir() -> str:
    path = tempfile.mkdtemp(prefix="repro-native-")
    atexit.register(shutil.rmtree, path, True)
    return path


def cache_dir() -> str:
    """The per-user build cache, or a private temporary directory when it
    is not usable (unwritable, not ours, or writable by others)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro-native")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.lstat(path)
        if (os.path.isdir(path) and not os.path.islink(path)
                and st.st_uid == os.getuid() and not st.st_mode & 0o022
                and os.access(path, os.W_OK | os.X_OK)):
            return path
    except OSError:
        pass
    return _private_dir()


def _build(cc: str, target: str) -> None:
    """Compile into a pid-unique file, then publish it atomically."""
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True,
                       timeout=300, check=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: str):
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    signatures = {
        "repro_native_abi": ([], i64),
        "run_rows": ([i64, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, i64,
                      ctypes.c_int], ctypes.c_int),
        "decide_windows": ([i64, i64, i64, ptr, ptr, ptr, ptr, ptr, i64, i64,
                            ptr], ctypes.c_int),
        "pcg64_draws": ([ptr, i64, i64, ptr, i64, ptr, i64, ptr], ctypes.c_int),
        "fused_rows": ([i64, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                        i64, ptr, i64, ctypes.c_int], ctypes.c_int),
        "vose": ([i64, ptr, ptr, ptr, ptr, ptr], None),
    }
    lib = ctypes.CDLL(path)
    for name, (args, res) in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = args, res
    if lib.repro_native_abi() != ABI:
        raise OSError(f"{path}: ABI mismatch")
    return lib


def _load() -> tuple:
    """Build (if needed), open and probe the library: ``(lib, "on",
    draws)`` or ``(None, reason, reason)``."""
    lib, reason = _open_library()
    return lib, reason, _probe(lib) if lib is not None else reason


def _open_library() -> tuple:
    """``(lib, "on")`` or ``(None, reason)``."""
    if not SOURCE.is_file():
        return None, "no source"
    cc = _compiler()
    if cc is None:
        return None, "no compiler"
    try:
        key = hashlib.sha256(
            SOURCE.read_bytes() + b"\0" + _identity(cc).encode()
            + b"\0" + " ".join(FLAGS).encode()
        ).hexdigest()[:24]
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"compiler identity failed: {type(exc).__name__}"
    target = os.path.join(cache_dir(), f"repro-native-{key}.so")
    for attempt in range(2):
        try:
            if attempt or not os.path.exists(target):
                _build(cc, target)
            return _open(target), "on"
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            reason = f"build or load failed: {type(exc).__name__}"
            if not attempt:
                try:  # a corrupt cached file: drop it and build once more
                    os.unlink(target)
                except OSError:
                    pass
    return None, reason


def library():
    """The loaded library, or ``None`` (fallback)."""
    global _loaded
    if not ENABLED:
        return None
    if _loaded is None:
        with _load_lock:
            if _loaded is None:
                _loaded = _load()
    return _loaded[0]


def available() -> bool:
    """Whether the native kernels run in this process."""
    return library() is not None


def draws_available() -> bool:
    """Whether the fused draws run in this process (the library loads and
    its probe passed)."""
    return library() is not None and _loaded[2] == "on"


def status() -> str:
    """``"on"``, or why the native tier falls back, or ``"on"`` with why
    the fused draws do (an audit field)."""
    if not ENABLED:
        return "disabled"
    library()
    _, reason, draws = _loaded
    return reason if draws in ("on", reason) else f"{reason}; NumPy draws: {draws}"


def fits(m: int, max_capacity: int, heights: bool = False) -> bool:
    """Whether a run of *m* balls is exact in int64 (and, with *heights*,
    in double): ``(m + 1) * max_capacity < 2^62``."""
    if (m + 1) * int(max_capacity) >= LOAD_LIMIT:
        return False
    return not heights or (m < EXACT_LIMIT and max_capacity < EXACT_LIMIT)


def _mode(tie_break: str) -> int:
    try:
        return _MODES[tie_break]
    except KeyError:
        raise ValueError(
            f"unknown tie_break {tie_break!r}; expected one of {tuple(_MODES)}"
        ) from None


def _raise(code: int) -> None:
    if code == 1:
        raise IndexError("native kernel: candidate index out of range")
    if code:
        raise MemoryError("native kernel: allocation failed")


def _checked(a, dtype, shape, name):
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"{name}: need C-contiguous {np.dtype(dtype)} of shape "
                         f"{shape}, got {a.dtype} {a.shape}")
    return a.ctypes.data


def run_rows(counts, caps, choices, tie_u, tie_break, heights=None) -> None:
    """Run one chunk, every row, in place: ``counts`` ``(R, n)`` int64,
    ``caps`` ``(n,)`` int64, ``choices`` ``(R, k, d)`` int64, ``tie_u``
    ``(R, k)`` float64; ``heights``, when given, an ``(R, k)`` float64 view
    whose rows may be strided."""
    R, n = counts.shape
    _, k, d = choices.shape
    args = [
        _checked(counts, np.int64, (R, n), "counts"),
        _checked(caps, np.int64, (n,), "caps"),
        _checked(choices, np.int64, (R, k, d), "choices"),
        _checked(tie_u, np.float64, (R, k), "tie_u"),
    ]
    h, stride = None, 0
    if heights is not None:
        if (heights.dtype != np.float64 or heights.shape != (R, k)
                or (k and heights.strides[1] != 8)):
            raise ValueError("heights: need float64 (R, k) with unit column stride")
        h, stride = heights.ctypes.data, heights.strides[0] // 8
    _raise(library().run_rows(R, n, k, d, *args, h, stride, _mode(tie_break)))


class WindowKernel:
    """``decide_windows`` for one service placer, on buffers kept across
    calls whose addresses are read once: each ``ndarray.ctypes.data``
    costs about a microsecond, which a chunk of a few keys would pay
    several times over.  ``caps`` is the ``(n,)`` int64 capacities and
    *d* the candidates per key.  Calls share the buffers, so one kernel
    serves one thread (the service's core runs on one)."""

    def __init__(self, caps, d: int):
        n = caps.shape[0]
        self._caps_at = _checked(caps, np.int64, (n,), "caps")
        self._caps = caps
        #: The frozen (row 0) and live (row 1) loads after the last call.
        self.loads = np.empty((2, n), dtype=np.int64)
        self._loads_at = self.loads.ctypes.data
        self._shape = (n, d)
        self._fn = library().decide_windows
        self._reserve(64)

    def _reserve(self, size: int) -> None:
        self._owners = np.empty((size, self._shape[1]), dtype=np.int64)
        self._tie = np.empty(size, dtype=np.float64)
        self._winners = np.empty(size, dtype=np.int64)
        self._at = (self._owners.ctypes.data, self._tie.ctypes.data,
                    self._winners.ctypes.data)

    def __call__(self, owners, tie_u, frozen, live, first, every):
        """Winners (ring indices: an int64 view, valid until the next
        call) of one chunk of staleness windows: ``owners`` ``(W, d)``
        candidate rows, ``tie_u`` their ``W`` tie draws, ``frozen`` and
        ``live`` the ``n`` loads (copied in; :attr:`loads` holds both as
        :func:`repro.core.rounds.stale_windows` leaves its lists); the
        first window holds *first* keys, every later one *every*."""
        W = len(owners)
        if len(tie_u) != W:
            raise ValueError(f"tie_u: need {W} draws, got {len(tie_u)}")
        if not 1 <= first <= every:
            raise ValueError(f"need 1 <= first <= every, got {first}, {every}")
        if W > len(self._tie):
            self._reserve(max(W, 2 * len(self._tie)))
        self._owners[:W] = owners
        self._tie[:W] = tie_u
        self.loads[0] = frozen
        self.loads[1] = live
        n, d = self._shape
        owners_at, tie_at, winners_at = self._at
        _raise(self._fn(W, d, n, owners_at, tie_at, self._loads_at,
                        self._loads_at + 8 * n, self._caps_at, first, every,
                        winners_at))
        return self._winners[:W]


def vose(scaled):
    """``(prob, alias)`` Vose tables for ``scaled = p * n``."""
    n = scaled.shape[0]
    work = np.array(scaled, dtype=np.float64)
    prob = np.empty(n, dtype=np.float64)
    alias = np.empty(n, dtype=np.int64)
    stacks = np.empty((2, n), dtype=np.int64)
    library().vose(n, work.ctypes.data, prob.ctypes.data, alias.ctypes.data,
                   stacks[0].ctypes.data, stacks[1].ctypes.data)
    return prob, alias


def _state_in(bg, st):
    """Copy *bg*'s PCG64 state into the six words *st*; returns the state
    dict for :func:`_state_out`."""
    state = bg.state
    x, inc = state["state"]["state"], state["state"]["inc"]
    st[:] = (x >> 64, x & _M64, inc >> 64, inc & _M64,
             state["has_uint32"], state["uinteger"])
    return state


def _state_out(bg, state, st) -> None:
    """Write the six words *st* back into *bg* (the increment never
    changes)."""
    state["state"]["state"] = (st[0] << 64) | st[1]
    state["has_uint32"], state["uinteger"] = st[4], st[5]
    bg.state = state


def _pcg64_draws(lib, gen, n, nints, ndoubles, nties):
    """``(ints, doubles, ties)`` drawn in C from *gen*, as
    ``gen.integers(0, n, nints)``, ``gen.random(ndoubles)`` and
    ``gen.random(nties)`` would draw them; *gen* advances as they would."""
    ints = np.empty(nints, dtype=np.int64)
    doubles = np.empty(ndoubles, dtype=np.float64)
    ties = np.empty(nties, dtype=np.float64)
    st = (ctypes.c_uint64 * 6)()
    bg = gen.bit_generator
    with bg.lock:
        state = _state_in(bg, st)
        code = lib.pcg64_draws(st, n, nints, ints.ctypes.data, ndoubles,
                               doubles.ctypes.data, nties, ties.ctypes.data)
        if code == 0:
            _state_out(bg, state, st)
    if code:
        raise OSError("native draws unavailable (no 128-bit integers in C)")
    return ints, doubles, ties


def _probe(lib) -> str:
    """``"on"`` when the C draws equal ``Generator.integers/random`` on
    fixed seeds (values and generator state after every call), else why
    not."""
    try:
        for seed, n in _PROBE_RANGES:
            ours = np.random.Generator(np.random.PCG64(seed))
            numpy = np.random.Generator(np.random.PCG64(seed))
            for nints, ndoubles, nties in _PROBE_COUNTS:
                got = _pcg64_draws(lib, ours, n, nints, ndoubles, nties)
                want = (numpy.integers(0, n, size=nints, dtype=np.int64),
                        numpy.random(ndoubles), numpy.random(nties))
                if not all(np.array_equal(a, b) for a, b in zip(got, want)):
                    return f"probe: draws differ from NumPy's (range {n})"
                if ours.bit_generator.state != numpy.bit_generator.state:
                    return f"probe: state differs from NumPy's (range {n})"
    except Exception as exc:  # noqa: BLE001 - any failure keeps NumPy's draws
        return f"probe failed: {type(exc).__name__}: {exc}"
    return "on"


class FusedChunks:
    """The plain driver's fused chunks for one run: each call of
    :meth:`run` draws, selects and places ``k`` balls of every row in
    ``fused_rows``, as ``AliasSampler.sample`` + the tie draw +
    :func:`run_rows` would, and leaves each generator where NumPy's draws
    would.  One generator (blocked mode, or one row) draws the whole
    chunk in one call; otherwise (spawn mode) each row's generator draws
    its row.  Build it with :func:`fused_chunks`.  The arrays' addresses
    are read once here and the arrays kept alive."""

    def __init__(self, gens, prob, alias, counts, caps, d, tie_break,
                 heights, choices, k_max):
        R, n = counts.shape
        m = next((a.shape[1] for a in (heights, choices) if a is not None), None)
        self._gens = list(gens)
        if len(self._gens) not in (1, R):
            raise ValueError(f"need one generator or one per row, got "
                             f"{len(self._gens)} for {R} rows")
        self._rows = R if len(self._gens) == 1 else 1
        self._cols = np.empty(self._rows * k_max * d, dtype=np.uint32)
        self._cols_at = self._cols.ctypes.data
        self._st = (ctypes.c_uint64 * 6)()
        # The arrays stay referenced here, so the addresses stay valid.
        self._arrays = (prob, alias, counts, caps, heights, choices)
        self._prob = _checked(prob, np.float64, (n,), "prob")
        self._alias = _checked(alias, np.int64, (n,), "alias")
        self._counts = _checked(counts, np.int64, (R, n), "counts")
        self._caps = _checked(caps, np.int64, (n,), "caps")
        self._heights = (None if heights is None
                         else _checked(heights, np.float64, (R, m), "heights"))
        self._out = (None if choices is None
                     else _checked(choices, np.int64, (R, m, d), "choices"))
        self._shape = (R, n, m or 0, d)
        self._limits = (k_max, m)
        self._mode = _mode(tie_break)
        self._fn = library().fused_rows

    def run(self, col: int, k: int) -> None:
        """Draw and place balls ``col .. col + k - 1`` of every row
        (``k`` at most the run's ``k_max``)."""
        k_max, m = self._limits
        if not 0 <= k <= k_max or col < 0 or (m is not None and col + k > m):
            raise ValueError(f"balls {col}..{col + k} outside the run "
                             f"(k_max {k_max}, m {m})")
        if self._rows == self._shape[0]:
            self._call(self._gens[0], 0, col, k)
        else:
            for r, gen in enumerate(self._gens):
                self._call(gen, r, col, k)

    def _call(self, gen, row, col, k):
        _, n, m, d = self._shape
        at = row * m + col
        h = self._heights and self._heights + 8 * at
        out = self._out and self._out + 8 * d * at
        st = self._st
        bg = gen.bit_generator
        with bg.lock:
            state = _state_in(bg, st)
            code = self._fn(self._rows, n, k, d, st, self._cols_at,
                            self._prob, self._alias, self._counts + 8 * row * n,
                            self._caps, h, m, out, m * d, self._mode)
            _state_out(bg, state, st)
        _raise(code)


def fused_chunks(gens, prob, alias, counts, caps, d, tie_break, *,
                 heights=None, choices=None, k_max: int):
    """A :class:`FusedChunks` for one plain-driver run over the
    generators *gens* (one, or one per row of *counts*), the alias tables
    ``prob``/``alias`` and the run's int64 ``counts`` ``(R, n)`` and
    ``caps``; ``heights`` ``(R, m)`` float64 and ``choices`` ``(R, m, d)``
    int64, when given, receive every ball's height and selected
    candidates.  ``None`` when the run must keep NumPy's draws: the fused
    draws are off here (:func:`status` says why), a generator is not
    PCG64, or the range is 1 or past :data:`MAX_DRAW_RANGE`."""
    n = counts.shape[1]
    if (not draws_available() or not 2 <= n <= MAX_DRAW_RANGE
            or any(type(g.bit_generator) is not np.random.PCG64 for g in gens)):
        return None
    return FusedChunks(gens, prob, alias, counts, caps, d, tie_break,
                       heights, choices, k_max)
