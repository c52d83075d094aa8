"""Conflict-free wavefront kernels: commit independent balls in batches.

The greedy protocol is sequential only *through the bins a ball probes*:
ball ``j``'s decision reads nothing but the current counts of its own ``d``
candidate bins, so it depends on balls ``1..j-1`` solely via shared
candidate bins.  Within a window of consecutive balls whose candidate
multisets are pairwise disjoint, every ball observes exactly the counts
from before the window — sequential execution and a single vectorised
"resolve all, then commit all" step are indistinguishable.  This module
exploits that to replace the per-ball loops of :mod:`repro.core.fast` and
:mod:`repro.core.ensemble` with batched commits, bit-identically.

Execution model
---------------
A pre-drawn chunk of ``k`` balls is processed in *tiles* of ``W``
consecutive balls.  Per replication (the engine is *ragged*: every
replication carries its own conflict structure, so lockstep width never
shortens the windows):

1. **Detection** — for every tile, find the balls that share a candidate
   bin with any earlier ball of the same tile and replication.  These are
   the *deferred* balls; the rest are *free*.  Detection is vectorised
   over the whole chunk at once: candidates are packed into
   ``(bin << b) | ball`` sort keys, one in-place row sort per
   ``(replication, tile)`` groups same-bin candidates next to each other,
   and one adjacent-xor pass flags every ball that repeats an earlier
   ball's bin.
2. **Wave commit** — per tile, resolve *all* balls from the pre-tile
   counts in one vectorised comparison, redirect the deferred balls'
   updates to a scratch column (so the single scatter commits only the
   free balls), and commit.  The deferred balls are resolved in further
   *waves*: wave membership is a pure function of the choice matrix (not
   of the counts), so the conflicts among the deferred set are detected
   once, ahead of time, for the whole chunk, and each wave is itself one
   small vectorised commit.

Why this is bit-identical to sequential execution
-------------------------------------------------
Let ``F`` be a tile's free set and ``D_1, D_2, ..`` its deferred waves.

* Every ball in ``F`` shares no bin with *any* earlier ball of the tile,
  so its candidate counts equal the pre-tile counts regardless of what
  the other tile balls do: resolving ``F`` against the pre-tile snapshot
  reproduces the sequential decisions.  Two free balls never share a bin
  (if ``j < j'`` did, ``j'`` would repeat an earlier ball's bin and be
  deferred), so the combined scatter touches each bin at most once per
  replication and equals committing the balls one by one; each free
  ball's height is its pre-tile count plus one.
* A deferred ball shares bins only with other tile balls, and every later
  ball that shares a bin with anything earlier is itself deferred into a
  later wave.  Inductively, when wave ``D_i`` resolves, all earlier balls
  of the tile (free or in earlier waves) have committed and no later ball
  has, so ``D_i``'s candidate reads are again exactly sequential; within
  a wave the same pairwise-disjointness argument applies.
* Ball ``j`` still resolves a surviving tie with ``tie_uniforms[r, j]``
  (position-aligned), so the tie-uniform streams never shift.

The deferred fraction of a tile of width ``W`` is roughly
``d^2 * W * sum(p_i^2) / 2`` per replication (the birthday rate of the
selection distribution ``p``), which is why the tile width is chosen
``~ sqrt(n_eff / R) / d`` and why the scheme only pays off when
``n_eff / (R * d * d)`` is large — see the cost model in
:mod:`repro.core.policy`, whose :func:`~repro.core.policy.dispatch`
decides when the engine drivers run these kernels.  They are the top of
the *NumPy* tier only: a compiled loop has no per-ball call overhead to
amortise, so under the compiled backend the conflict-free tiling would
degenerate to the plain sequential commit order, and dispatch skips it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fast import _MODES
from .policy import tile_width

__all__ = [
    "WavefrontStats",
    "WavefrontWorkspace",
    "validate_lockstep_batch",
    "d2_tie_pref",
    "run_batch_wavefront",
]

#: Wave-splitting budget: conflict chains deeper than this (only seen on
#: degenerate instances with very few effective bins, i.e. with the
#: wavefront tier forced) stop being split into vectorised waves and commit
#: ball-by-ball instead, bounding the worst case at per-ball-kernel cost.
_MAX_EVENT_ROUNDS = 8


# Only perfbench's stamp reads this; it goes with ROADMAP item 8.
def get_mode() -> str:
    return "auto"


@dataclass
class WavefrontStats:
    """Realised wavefront behaviour, for the drivers' runtime guard.

    ``balls`` counts committed ball-slots (``R * k`` per chunk),
    ``deferred`` the ball-slots that missed the first wave, ``waves`` the
    deepest *vectorised* wave count seen (1 = everything committed in the
    first wave; capped at the ``_MAX_EVENT_ROUNDS`` budget — chains deeper
    than that commit ball-by-ball and are counted in ``tail_balls``).
    """

    balls: int = 0
    deferred: int = 0
    waves: int = 1
    tail_balls: int = 0
    chunks: int = 0

    @property
    def free_fraction(self) -> float:
        """Realised analogue of :func:`expected_free_fraction`."""
        if self.balls == 0:
            return 1.0
        return 1.0 - self.deferred / self.balls

    def merge_chunk(self, balls: int, deferred: int, waves: int,
                    tail_balls: int = 0) -> None:
        self.balls += balls
        self.deferred += deferred
        self.waves = max(self.waves, waves)
        self.tail_balls += tail_balls
        self.chunks += 1


@dataclass
class WavefrontWorkspace:
    """Per-run reusable temporaries, hoisted out of the kernel hot loops.

    One instance per driver run keeps the ``(R, n + 1)`` scratch counts,
    the row index/offset vectors, and the per-tile buffers alive across
    chunks instead of reallocating them on every kernel call.  The
    per-ball kernels in :mod:`repro.core.ensemble` share the same object
    (their ``np.arange(R)`` and chunk offsets come from :meth:`rbase` and
    :meth:`row_offsets`), so either engine path reuses one allocation per
    drive.
    """

    R: int = 0
    n: int = 0
    rrow: np.ndarray | None = None
    offsets: np.ndarray | None = None
    scratch: np.ndarray | None = None
    bufs: dict = field(default_factory=dict)

    def prepare(self, R: int, n: int) -> None:
        if self.R != R or self.n != n:
            self.R, self.n = R, n
            self.rrow = np.arange(R, dtype=np.int64)[:, None]
            self.offsets = self.rrow * (n + 1)
            self.scratch = np.empty((R, n + 1), dtype=np.int64)
            self.bufs.clear()

    def rbase(self, R: int) -> np.ndarray:
        """Cached ``np.arange(R)`` (the per-ball kernels' row index)."""
        b = self.bufs.get("rbase")
        if b is None or b.size != R:
            b = np.arange(R)
            self.bufs["rbase"] = b
        return b

    def row_offsets(self, R: int, stride: int) -> np.ndarray:
        """Cached ``(R, 1)`` flat row offsets ``r * stride``."""
        key = ("row_offsets", stride)
        b = self.bufs.get(key)
        if b is None or b.shape[0] != R:
            b = (np.arange(R, dtype=np.int64) * stride)[:, None]
            self.bufs[key] = b
        return b

    def buf(self, name: str, shape, dtype) -> np.ndarray:
        b = self.bufs.get(name)
        if b is None or b.shape != shape or b.dtype != dtype:
            b = np.empty(shape, dtype=dtype)
            self.bufs[name] = b
        return b


def validate_lockstep_batch(counts, capacities, choices, tie_uniforms, tie_break, heights):
    """Shared input validation for the lockstep kernels
    (:func:`run_batch_wavefront` and
    :func:`repro.core.ensemble.run_batch_ensemble`).

    Returns ``(mode, counts, caps, tie_uniforms)`` with *counts* as the
    validated ``(R, n)`` int64 array, *caps* as int64 of shape ``(n,)``
    or ``(R, n)``, and *tie_uniforms* converted to an ndarray.
    """
    try:
        mode = _MODES[tie_break]
    except KeyError:
        raise ValueError(
            f"unknown tie_break {tie_break!r}; expected one of {tuple(_MODES)}"
        ) from None
    counts = np.asarray(counts)
    if counts.ndim != 2:
        raise ValueError(f"counts must have shape (R, n), got {counts.shape}")
    if not counts.flags.c_contiguous:
        # A silent ascontiguousarray copy would break the in-place mutation
        # contract for callers that discard the return value.
        raise ValueError("counts must be C-contiguous (it is mutated in place)")
    if choices.ndim != 3:
        raise ValueError(f"choices must have shape (R, k, d), got {choices.shape}")
    R, n = counts.shape
    if choices.shape[0] != R:
        raise ValueError(
            f"choices first axis {choices.shape[0]} != {R} replications"
        )
    _, k, d = choices.shape
    if d < 1:
        raise ValueError("choices must have at least one candidate per ball")
    tie_uniforms = np.asarray(tie_uniforms)
    if tie_uniforms.shape != (R, k):
        raise ValueError(
            f"tie_uniforms must have shape ({R}, {k}), got {tie_uniforms.shape}"
        )
    if heights is not None and heights.shape != (R, k):
        raise ValueError(
            f"heights must have shape ({R}, {k}), got {heights.shape}"
        )
    caps = np.asarray(capacities, dtype=np.int64)
    return mode, counts, caps, tie_uniforms


def d2_tie_pref(mode: int, cap_a, cap_b, tie_uniforms) -> np.ndarray:
    """Per-ball preference for candidate ``b`` on a surviving d=2 load tie.

    Mirrors the scalar rule exactly: ``max_capacity`` (mode 0) prefers the
    larger capacity, ``min_capacity`` (mode 2) the smaller, and an exact
    capacity tie (or ``uniform`` mode) falls to the fair coin
    ``tie_uniforms >= 0.5``.  Shared by both lockstep kernels so the rule
    lives in one place.
    """
    u = tie_uniforms >= 0.5
    if mode == 0:
        return (cap_b > cap_a) | ((cap_b == cap_a) & u)
    if mode == 2:
        return (cap_b < cap_a) | ((cap_b == cap_a) & u)
    return u


def _detect_tiles(choices: np.ndarray, n: int, width: int, ws: WavefrontWorkspace):
    """Round-1 detection: the deferred balls of every (replication, tile).

    Returns ``(e_r, e_b, nt)`` — replication index and *absolute* ball
    index of every deferred ball, ordered by ``(ball, replication)`` —
    plus the tile count.  A ball is deferred when one of its candidates
    already occurred among an earlier same-tile, same-replication ball's
    candidates.  (A ball whose own candidates repeat — ``a == b`` — may
    also be flagged; the wave commits handle it exactly either way, it
    merely rides a later wave.)
    """
    R, k, d = choices.shape
    nt = (k + width - 1) // width
    ballb = (width - 1).bit_length()
    max_bin = n - 1  # bins are bounded by the counts width
    if (max_bin + 2) << ballb <= np.iinfo(np.int32).max:
        kdtype, udtype = np.int32, np.uint32
    else:
        kdtype, udtype = np.int64, np.uint64
    keys = ws.buf("det_keys", (R, nt, width, d), kdtype)
    full = (nt - 1) * width
    shift = kdtype(1 << ballb)
    np.multiply(
        choices[:, :full].reshape(R, nt - 1, width, d), shift,
        out=keys[:, : nt - 1], casting="unsafe",
    )
    # The tail tile is padded with the dtype maximum: pads sort above every
    # real key (the (max_bin + 2) << ballb headroom keeps even the xor
    # against the largest real key outside the same-bin band) and pad-pad
    # pairs xor to zero, so padding never produces an event.
    keys[:, -1] = np.iinfo(kdtype).max
    np.multiply(
        choices[:, full:], shift, out=keys[:, -1, : k - full], casting="unsafe"
    )
    keys |= np.arange(width, dtype=kdtype)[None, None, :, None]
    keys = keys.reshape(R, nt, width * d)
    keys.sort(axis=-1)
    # Adjacent keys share a bin iff their xor stays below the ball-bit
    # budget; xor 0 (identical keys: the pad run, or a ball repeating its
    # own bin twice at the same slot) wraps to the unsigned maximum.
    x = ws.buf("det_x", (R, nt, width * d - 1), kdtype)
    np.bitwise_xor(keys[..., 1:], keys[..., :-1], out=x)
    x -= kdtype(1)
    conf = ws.buf("det_conf", x.shape, bool)
    np.less(x.view(udtype), udtype((1 << ballb) - 1), out=conf)
    ci = np.flatnonzero(conf.reshape(-1))
    row_len = width * d - 1
    row = ci // row_len
    balls = keys.reshape(R * nt, width * d)[row, ci % row_len + 1]
    balls = balls.astype(np.int64)
    balls &= (1 << ballb) - 1
    t_i = row % nt
    r_i = row // nt
    # Dedupe (a ball may repeat several bins) and order by absolute ball.
    ev = np.unique((t_i * width + balls) * R + r_i)
    return ev % R, ev // R, nt


def _detect_event_rounds(choices, n: int, e_r, e_b, nt: int, width: int):
    """Split the deferred balls into commit waves, ahead of any commit.

    Wave membership depends only on the choice matrix: wave ``i+1`` holds
    the deferred balls that share a bin with an earlier deferred ball of
    the same replication still waiting in wave ``i``.  Returns
    ``(rounds, tail)``: *rounds* is a list of ``(e_r, e_b, tile_bounds)``
    holding the balls *committed* in that round, pre-sliced per tile so
    the commit loop only takes views; *tail* (usually ``None``) carries
    whatever exceeded the :data:`_MAX_EVENT_ROUNDS` chain budget, to be
    committed ball-by-ball.  Conflicts are only meaningful within one
    tile, but a cross-tile flag merely rides one extra round — still
    correct — so the keys omit the tile index.
    """
    rounds = []
    tiles = np.arange(nt + 1, dtype=np.int64) * width
    while e_r.size:
        if len(rounds) >= _MAX_EVENT_ROUNDS:
            return rounds, (e_r, e_b, np.searchsorted(e_b, tiles))
        q = e_r.size
        posb = max(1, (q - 1).bit_length())
        base = (e_r * n)[:, None] + choices[e_r, e_b, :]
        k2 = (base << np.int64(posb)) | np.arange(q, dtype=np.int64)[:, None]
        k2 = k2.reshape(-1)
        k2.sort()
        x = (k2[1:] ^ k2[:-1]) - 1
        c2 = x.view(np.uint64) < np.uint64((1 << posb) - 1)
        if not c2.any():
            rounds.append((e_r, e_b, np.searchsorted(e_b, tiles)))
            break
        defer = np.zeros(q, dtype=bool)
        defer[k2[1:][c2] & np.int64((1 << posb) - 1)] = True
        com = ~defer
        cr, cb = e_r[com], e_b[com]
        rounds.append((cr, cb, np.searchsorted(cb, tiles)))
        e_r, e_b = e_r[defer], e_b[defer]
    return rounds, None


class _D2Committer:
    """Wave commits for d=2 (uniform- and general-capacity variants)."""

    def __init__(self, ws, flat, choices, tie_uniforms, caps, mode, heights, k, width):
        R, n = ws.R, ws.n
        self.ws, self.flat, self.heights = ws, flat, heights
        self.n = n
        self.single = R == 1  # R = 1: row offsets vanish, skip index math
        self.cha = choices[:, :, 0]
        self.chb = choices[:, :, 1]
        self.uniform = caps.ndim == 1 and bool((caps == caps[0]).all())
        pref = ws.buf("pref", (R, k), np.int64)
        if self.uniform:
            self.capacity = float(caps[0])
            np.copyto(pref, tie_uniforms >= 0.5, casting="unsafe")
            self.cap_a = self.cap_b = self.cross_a = self.cross_b = None
        else:
            if caps.ndim == 1:
                cap_a = caps[self.cha]
                cap_b = caps[self.chb]
            else:
                caps_flat = caps.reshape(-1)
                off = ws.rrow * n
                cap_a = caps_flat[self.cha + off]
                cap_b = caps_flat[self.chb + off]
            np.copyto(pref, d2_tie_pref(mode, cap_a, cap_b, tie_uniforms),
                      casting="unsafe")
            self.cap_a, self.cap_b = cap_a, cap_b
            # Doubled cross factors: the integer tie bias subtracted below
            # can never collide with a genuine strict inequality.
            self.cross_a = cap_a * 2
            self.cross_b = cap_b * 2
            self.la = ws.buf("la", (R, width), np.int64)
            self.lb = ws.buf("lb", (R, width), np.int64)
        self.pref = pref
        self.na = ws.buf("na", (R, width), np.int64)
        self.nb = ws.buf("nb", (R, width), np.int64)
        self.ix = ws.buf("ix", (R, width), np.int64)
        self.ch = ws.buf("ch", (R, width), np.int64)
        self.pick = ws.buf("pick", (R, width), bool)

    def tile(self, lo: int, hi: int, dr, db) -> None:
        """First wave: resolve all tile balls from the pre-tile counts and
        commit the free ones (deferred targets go to the scratch column)."""
        ws, flat, n = self.ws, self.flat, self.n
        w = hi - lo
        ca = self.cha[:, lo:hi]
        cb = self.chb[:, lo:hi]
        na = self.na[:, :w]
        nb = self.nb[:, :w]
        ch = self.ch[:, :w]
        pick = self.pick[:, :w]
        if self.single:
            flat.take(ca, out=na, mode="clip")
            flat.take(cb, out=nb, mode="clip")
        else:
            ix = self.ix[:, :w]
            np.add(ca, ws.offsets, out=ix)
            flat.take(ix, out=na, mode="clip")
            np.add(cb, ws.offsets, out=ix)
            flat.take(ix, out=nb, mode="clip")
        if self.uniform:
            # Equal capacities: pick b iff n_b < n_a + pref, i.e. the
            # count difference stays below the tie preference.
            np.subtract(nb, na, out=nb)
            np.less(nb, self.pref[:, lo:hi], out=pick)
            if self.heights is not None:
                # Chosen pre-count + 1 without re-gathering: nb holds the
                # difference, zeroed where a wins.
                np.multiply(nb, pick, out=nb)
                np.add(na, nb, out=na)
                na += 1
                self.heights[:, lo:hi] = na
        else:
            na += 1
            nb += 1
            la = self.la[:, :w]
            lb = self.lb[:, :w]
            np.multiply(na, self.cross_b[:, lo:hi], out=la)
            np.multiply(nb, self.cross_a[:, lo:hi], out=lb)
            lb -= self.pref[:, lo:hi]
            np.less(lb, la, out=pick)
            if self.heights is not None:
                np.multiply(nb, pick, out=lb)
                np.multiply(na, ~pick, out=la)
                la += lb  # chosen post-commit count
                np.multiply(self.cap_b[:, lo:hi], pick, out=lb)
                np.multiply(self.cap_a[:, lo:hi], ~pick, out=nb)
                lb += nb  # chosen capacity
                np.divide(la, lb, out=self.heights[:, lo:hi])
        np.copyto(ch, ca)
        np.copyto(ch, cb, where=pick)
        if dr.size:
            ch[dr, db - lo] = n  # deferred: redirect to the scratch column
        # Free targets are pairwise distinct per replication; the scratch
        # column absorbs every deferred (possibly colliding) update.
        if self.single:
            flat[ch] += 1
        else:
            ix = self.ix[:, :w]
            np.add(ch, ws.offsets, out=ix)
            flat[ix] += 1

    def events(self, rr, bb) -> None:
        """Commit one deferred wave: the (replication, ball) event list is
        pairwise bin-disjoint per replication by construction."""
        flat = self.flat
        a = self.cha[rr, bb]
        b = self.chb[rr, bb]
        if self.single:
            na = flat[a]
            nb = flat[b]
        else:
            off = rr * (self.n + 1)
            a = a + off
            b = b + off
            na = flat[a]
            nb = flat[b]
        if self.uniform:
            pick = (nb - na) < self.pref[rr, bb]
            chosen = np.where(pick, b, a)
            if self.heights is not None:
                self.heights[rr, bb] = np.where(pick, nb, na) + 1
        else:
            na += 1
            nb += 1
            la = na * self.cross_b[rr, bb]
            lb = nb * self.cross_a[rr, bb] - self.pref[rr, bb]
            pick = lb < la
            chosen = np.where(pick, b, a)
            if self.heights is not None:
                self.heights[rr, bb] = (
                    np.where(pick, nb, na)
                    / np.where(pick, self.cap_b[rr, bb], self.cap_a[rr, bb])
                )
        flat[chosen] += 1

    def finish(self) -> None:
        if self.uniform and self.heights is not None:
            self.heights /= self.capacity


class _GeneralCommitter:
    """Wave commits for arbitrary d (and d=1), mirroring the per-ball
    ``_ensemble_general`` arithmetic on whole tiles at once."""

    def __init__(self, ws, flat, choices, tie_uniforms, caps, mode, heights, k, width):
        R, n = ws.R, ws.n
        self.ws, self.flat, self.heights = ws, flat, heights
        self.n = n
        self.choices = choices
        self.tie_u = tie_uniforms
        self.mode = mode
        if caps.ndim == 1:
            self.dens = caps[choices]
        else:
            self.dens = caps.reshape(-1)[choices + (ws.rrow * n)[:, :, None]]

    def _resolve(self, idx, den, num, tie_u):
        """Exact argmin + tie selection on ``(.., d)`` stacks; returns the
        chosen column index along the last axis."""
        d = idx.shape[-1]
        mode = self.mode
        best_num = num[..., 0].copy()
        best_den = den[..., 0].copy()
        for i in range(1, d):
            better = num[..., i] * best_den < best_num * den[..., i]
            np.copyto(best_num, num[..., i], where=better)
            np.copyto(best_den, den[..., i], where=better)
        # Membership: exactly the candidates achieving the minimum...
        mask = num * best_den[..., None] == best_num[..., None] * den
        # ...keeping only each bin's first occurrence (duplicates in the
        # multiset must not inflate the tie set, matching `b not in best`).
        for i in range(1, d):
            dup = idx[..., i] == idx[..., 0]
            for i2 in range(1, i):
                dup |= idx[..., i] == idx[..., i2]
            mask[..., i] &= ~dup
        if mode == 0:
            cmax = np.where(mask, den, -1).max(axis=-1)
            mask &= den == cmax[..., None]
        elif mode == 2:
            cmin = np.where(mask, den, np.iinfo(np.int64).max).min(axis=-1)
            mask &= den == cmin[..., None]
        tied = mask.sum(axis=-1)
        sel = (tie_u * tied).astype(np.int64)
        hit = (mask.cumsum(axis=-1) == (sel + 1)[..., None]) & mask
        return hit.argmax(axis=-1)

    def tile(self, lo: int, hi: int, dr, db) -> None:
        ws, flat, n = self.ws, self.flat, self.n
        idx = self.choices[:, lo:hi, :]
        den = self.dens[:, lo:hi, :]
        num = flat.take(idx + ws.offsets[:, :, None])
        num += 1
        pos = self._resolve(idx, den, num, self.tie_u[:, lo:hi])
        sel = pos[..., None]
        chosen = np.take_along_axis(idx, sel, axis=-1)[..., 0]
        if self.heights is not None:
            np.divide(
                np.take_along_axis(num, sel, axis=-1)[..., 0],
                np.take_along_axis(den, sel, axis=-1)[..., 0],
                out=self.heights[:, lo:hi],
            )
        if dr.size:
            chosen[dr, db - lo] = n
        flat[chosen + ws.offsets] += 1

    def events(self, rr, bb) -> None:
        if rr.size == 0:
            return
        flat = self.flat
        off = rr * (self.n + 1)
        idx = self.choices[rr, bb, :]
        den = self.dens[rr, bb, :]
        num = flat[idx + off[:, None]]
        num += 1
        pos = self._resolve(idx, den, num, self.tie_u[rr, bb])
        ar = np.arange(rr.size)
        chosen = idx[ar, pos]
        if self.heights is not None:
            self.heights[rr, bb] = num[ar, pos] / den[ar, pos]
        flat[chosen + off] += 1

    def finish(self) -> None:
        pass


def run_batch_wavefront(
    counts: np.ndarray,
    capacities,
    choices: np.ndarray,
    tie_uniforms: np.ndarray,
    *,
    tie_break: str = "max_capacity",
    heights: np.ndarray | None = None,
    tile: int | None = None,
    n_eff: float | None = None,
    workspace: WavefrontWorkspace | None = None,
    stats: WavefrontStats | None = None,
) -> np.ndarray:
    """Allocate one batch of balls with the wavefront kernels.

    Drop-in replacement for
    :func:`repro.core.ensemble.run_batch_ensemble` — same parameters,
    same validation, ``counts`` is the ``(R, n)`` int64 state mutated in
    place — that commits conflict-free balls in vectorised waves instead
    of looping ball by ball.  Bit-identical to the per-ball kernels for
    every replication, heights included; see the module docstring for the
    argument and :mod:`repro.core.equivalence` for the enforcement.

    Extra knobs: *tile* overrides the detection window width (tests
    exercise degenerate widths); *n_eff* is the collision-equivalent bin
    count of the selection distribution the width heuristic should use
    (defaults to the raw ``n`` — the drivers pass their ``1 / sum(p^2)``);
    *workspace* reuses per-run buffers across chunks; *stats* accumulates
    realised free fractions for the drivers' runtime guard.
    """
    mode, counts, caps, tie_uniforms = validate_lockstep_batch(
        counts, capacities, choices, tie_uniforms, tie_break, heights
    )
    R, n = counts.shape
    _, k, d = choices.shape
    if k == 0:
        return counts
    if tile is None:
        width = tile_width(n if n_eff is None else n_eff, R, d)
    else:
        width = int(tile)
    width = max(1, min(width, k))

    ws = workspace if workspace is not None else WavefrontWorkspace()
    ws.prepare(R, n)
    # Scratch counts with one extra column per replication absorbing the
    # deferred balls' first-wave scatter targets.
    work = ws.scratch
    work[:, :n] = counts
    flat = work.reshape(-1)

    e_r, e_b, nt = _detect_tiles(choices, n, width, ws)
    defer_bounds = np.searchsorted(
        e_b, np.arange(nt + 1, dtype=np.int64) * width
    )
    rounds, tail = _detect_event_rounds(choices, n, e_r, e_b, nt, width)

    cls = _D2Committer if d == 2 else _GeneralCommitter
    committer = cls(ws, flat, choices, tie_uniforms, caps, mode, heights, k, width)

    for t in range(nt):
        lo = t * width
        hi = min(k, lo + width)
        d0, d1 = defer_bounds[t], defer_bounds[t + 1]
        committer.tile(lo, hi, e_r[d0:d1], e_b[d0:d1])
        for cr, cb, cbounds in rounds:
            j0, j1 = cbounds[t], cbounds[t + 1]
            if j0 < j1:
                committer.events(cr[j0:j1], cb[j0:j1])
        if tail is not None:
            tr, tb, tbounds = tail
            j0, j1 = int(tbounds[t]), int(tbounds[t + 1])
            # Chain-budget overflow: commit strictly in ball order, one
            # ball (all its replications) per step — sequential semantics
            # by construction, per-ball-kernel cost in the worst case.
            start = j0
            while start < j1:
                stop = start + 1
                while stop < j1 and tb[stop] == tb[start]:
                    stop += 1
                committer.events(tr[start:stop], tb[start:stop])
                start = stop
    committer.finish()

    counts[:, :] = work[:, :n]
    if stats is not None:
        stats.merge_chunk(
            R * k, int(e_r.size), len(rounds) + 1,
            tail_balls=0 if tail is None else int(tail[0].size),
        )
    return counts
