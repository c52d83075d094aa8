"""Native tier: the per-ball loops in C, built on first use.

``native.c`` (next to this file) holds four kernels, each bit-identical
to the Python or NumPy path it replaces on the same inputs:

* ``run_rows`` — :func:`repro.core.fast.run_batch` once per row of an
  ``(R, k, d)`` chunk, in int64;
* ``decide_windows`` — :func:`repro.core.rounds.stale_windows`: every
  staleness window of one allocation-service hash chunk, each key by
  :func:`~repro.core.rounds.stale_choice`'s rule (the same C helper as
  ``run_rows``' general-d loop);
* ``alias_select`` — the column-or-alias select of
  :meth:`repro.sampling.alias.AliasSampler.sample`, in place;
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

__all__ = ["ENABLED", "library", "available", "status", "fits"]

#: Test-only switch: ``False`` keeps the library unloaded, so every caller
#: runs its Python or NumPy path (``equivalence.forced_axis("native", ...)``
#: sets it).
ENABLED = True

#: The C source, shipped as package data.
SOURCE = Path(__file__).with_name("native.c")

#: Compiler flags.  No contraction: every float operation rounds as in
#: Python.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: Must equal ``REPRO_NATIVE_ABI`` in ``native.c``.  2: ``decide_windows``.
ABI = 2

#: ``(m + 1) * max(capacity)`` must stay below this for int64 loads.
LOAD_LIMIT = 1 << 62

#: Counts and capacities below this divide exactly in double.
EXACT_LIMIT = 1 << 53

_MODES = {"max_capacity": 0, "uniform": 1, "min_capacity": 2}

#: ``(library or None, status)`` once loaded or refused, per process.
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
        "alias_select": ([i64, ptr, ptr, ptr, ptr, i64], ctypes.c_int),
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
    """Build (if needed) and open the library: ``(lib, "on")`` or
    ``(None, reason)``."""
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


def status() -> str:
    """``"on"``, or why the native tier falls back (an audit field)."""
    if not ENABLED:
        return "disabled"
    library()
    return _loaded[1]


def fits(m: int, max_capacity: int, heights: bool = False) -> bool:
    """Whether a run of *m* balls is exact in int64 (and, with *heights*,
    in double): ``(m + 1) * max_capacity < 2^62``."""
    if (m + 1) * int(max_capacity) >= LOAD_LIMIT:
        return False
    return not heights or (m < EXACT_LIMIT and max_capacity < EXACT_LIMIT)


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
    try:
        mode = _MODES[tie_break]
    except KeyError:
        raise ValueError(
            f"unknown tie_break {tie_break!r}; expected one of {tuple(_MODES)}"
        ) from None
    _raise(library().run_rows(R, n, k, d, *args, h, stride, mode))


def decide_windows(owners, tie_u, frozen, live, caps, first, every):
    """Winners (ring indices, int64) of one chunk of staleness windows:
    ``owners`` ``(W, d)`` int64, ``tie_u`` ``(W,)`` float64, ``frozen``
    and ``live`` ``(n,)`` int64 loads (both updated in place, as
    :func:`repro.core.rounds.stale_windows` updates its lists), ``caps``
    ``(n,)`` int64; the first window holds *first* keys, every later one
    *every*."""
    W, d = owners.shape
    n = caps.shape[0]
    if not 1 <= first <= every:
        raise ValueError(f"need 1 <= first <= every, got {first}, {every}")
    winners = np.empty(W, dtype=np.int64)
    _raise(library().decide_windows(
        W, d, n,
        _checked(owners, np.int64, (W, d), "owners"),
        _checked(tie_u, np.float64, (W,), "tie_u"),
        _checked(frozen, np.int64, (n,), "frozen"),
        _checked(live, np.int64, (n,), "live"),
        _checked(caps, np.int64, (n,), "caps"),
        first, every, winners.ctypes.data,
    ))
    return winners


def alias_select(cols, u, prob, alias) -> None:
    """``cols = where(u < prob[cols], cols, alias[cols])``, in place."""
    n = prob.shape[0]
    _raise(library().alias_select(
        cols.size,
        _checked(cols, np.int64, cols.shape, "cols"),
        _checked(u, np.float64, cols.shape, "u"),
        _checked(prob, np.float64, (n,), "prob"),
        _checked(alias, np.int64, (n,), "alias"),
        n,
    ))


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
