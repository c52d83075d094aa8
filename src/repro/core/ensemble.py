"""Lockstep ensemble engine: all Monte-Carlo replications at once.

The greedy protocol is sequential *within* a run — ball ``j`` depends on the
loads left by balls ``1..j-1`` — which is why :mod:`repro.core.fast` keeps a
scalar inner loop.  The *other* axis of parallelism is free: the ``R``
independent replications every experiment averages over share no state, so
they can advance in lockstep.  Here ``counts`` is an ``(R, n)`` array, each
ball's candidates are an ``(R, d)`` slice of a pre-drawn ``(R, k, d)`` batch,
and one vectorised step resolves all ``R`` decisions, turning ``O(R * m)``
Python iterations into ``O(m)`` NumPy steps over ``R``-wide rows.

Equivalence contract
--------------------
Replication ``r`` of :func:`run_batch_ensemble` is *bit-identical* to running
:func:`repro.core.fast.run_batch` (and therefore
:func:`repro.core.protocol.reference_run` with the shared per-ball tie-uniform
convention) on ``counts[r]`` / ``choices[r]`` / ``tie_uniforms[r]``: the same
exact integer cross-multiplication comparison
``(m_a + 1) * c_b < (m_b + 1) * c_a``, the same three tie-break modes, and the
same tie-uniform consumption (ball ``j`` resolves its tie with
``tie_uniforms[r, j]``, consumed or not).

:func:`simulate_ensemble` is the one drive loop of the protocol: it owns
seeding, sampling, snapshots, tier dispatch and the runtime fallback, and
:func:`repro.core.simulation.simulate` is its ``R = 1`` call.  With
``seeds=[s_0, .., s_{R-1}]`` (or the default ``SeedSequence.spawn`` of a
master seed) replication ``r`` reproduces
``simulate(bins, seed=s_r, chunk_size=...)`` exactly, because each
replication's generator draws its choices and tie uniforms in the same
order and chunking as a single run, and every tier resolves them
identically.  ``seed_mode="blocked"`` trades that per-replication stream
match for a single generator drawing ``(R, chunk, d)`` batches at once —
statistically identical, a little faster, but not stream-comparable to
single runs.  At ``R = 1`` the distinction disappears: blocked mode on a
master seed, spawn mode on ``seeds=[s]`` and ``simulate(seed=s)`` draw the
same stream from the same generator, so they return the same numbers.
That is why the scalar engine of the experiments is nothing but the
ensemble engine with one repetition per block
(:func:`repro.experiments.base.one_repetition_per_block`): each block's
master is its repetition's own child seed.

The same single drive loop exists for each protocol variant:
:func:`repro.core.rounds.simulate_batched_ensemble` (stale-view batches),
:func:`repro.core.weighted.simulate_weighted_ensemble` (weighted balls) and
:func:`repro.p2p.workload.allocate_requests_ensemble` (ring allocation),
each with its scalar function as the ``R = 1`` call.  Every driver has
a *row kernel* on Python lists, which beats any array kernel one row
wide: :func:`repro.core.fast.run_batch` (plain and ring),
:func:`repro.core.rounds.stale_choice` (stale views) and the weighted
list loop.  Below a measured crossover in ``(R, d)``
(:func:`repro.core.policy.use_rows`) the plain, ring and weighted drivers
run that kernel once per row on the ``(R, k, d)`` chunk they already
drew (the *rows* tier); above it, and always in the stale-view driver,
they run the lockstep kernels.  ``R = 1`` is the rows tier with one row.

Kernel dispatch
---------------
Five kernel tiers implement the identical decision sequence, and
:func:`simulate_ensemble` asks :func:`repro.core.policy.dispatch` once
per run which one takes its chunks, in priority order **native >
compiled > wavefront > rows > lockstep**: the C row loops of
:mod:`repro.native` whenever the policy is left on ``auto``, the
library loads and the run fits int64 (:func:`repro.native.fits`) —
``fused_rows``, which draws each chunk from the PCG64 stream as NumPy
would, selects and places it in one pass, for an alias sampler over
PCG64 generators (:func:`repro.native.fused_chunks`), else NumPy's draws
and ``run_rows``, every row of a chunk in one call; else
:func:`repro.core.compiled.run_batch_compiled`
when the compiled backend is in force (``REPRO_BACKEND``; ``auto``
selects it exactly when Numba is available), else the conflict-free
wavefront kernels of :mod:`repro.core.wavefront` when the expected
conflict rate is low enough and the shape clears the floor of the
per-ball tier it would replace (``REPRO_WAVEFRONT``, with a
realised-free-fraction runtime fallback to that tier), else
:func:`repro.core.fast.run_batch` once per row while ``R`` is below the
row/lockstep crossover, else the lockstep loops below.  An explicit
``REPRO_BACKEND`` or ``REPRO_WAVEFRONT`` runs the tier it names, never
the native one — except that a run that does not fit int64 (or, with
heights, float64) runs the rows tier in Python ints whatever is forced:
exactness outranks tier choice.  All tiers are *bit-identical* — every kernel consumes
the same pre-drawn choices and tie uniforms, drawn by the same generator
calls, so dispatch can never change a number; the equivalence suite
forces each path and compares exactly.

Shared parameters per block
---------------------------
Lockstep replication requires every replication of a block to play against
the *same* instance — one capacity vector, one ball-size multiset, one ring.
Experiments whose single runs draw such parameters per repetition
(fig08/09, fig16, ``rw_ring``, ``abl_weighted``) therefore use the
**shared-params-per-block** convention:

* the executor partitions the replications into contiguous blocks and hands
  each block its child-seed slice (seed contract in
  :mod:`repro.runtime.executor`);
* the block derives one generator via
  :func:`repro.runtime.executor.block_parameter_rng` (a pure function of the
  block's **first** child seed), draws the block's shared parameters from
  it, and passes the same generator on as the ``seed_mode="blocked"``
  master.

*Why the estimator stays unbiased*: each replication of a block sees
parameters drawn from exactly the per-repetition distribution of a single
run, so every replication-level summary has the single-run expectation;
blocks draw independently (disjoint children of one spawn), so the mean
over all replications is an unbiased estimator of the same quantity the
scalar engine (one repetition, hence one parameter draw, per block)
estimates.  What changes is the *variance decomposition*: parameter
randomness is averaged over ``ceil(R / block_size)`` draws instead of
``R``, which is why these experiments force a small ``block_size``
(typically ``reps // 8``) instead of the executor's width-optimised
default.  Experiments with deterministic instances (fig01–07, fig10–15,
fig17/18, the remaining ablations) need none of this and use default-width
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import native
from ..bins.arrays import BinArray
from ..sampling.alias import AliasSampler
from ..sampling.distributions import probability_model
from ..sampling.rngutils import make_rng, spawn_seed_sequences
from .compiled import run_batch_compiled
from .fast import run_batch
from .policy import (
    RUNTIME_MIN_FREE_FRACTION,
    current_policy,
    dispatch,
    effective_bins,
    use_rows,
)
from .wavefront import (
    WavefrontStats,
    WavefrontWorkspace,
    d2_tie_pref,
    run_batch_wavefront,
    validate_lockstep_batch,
)

__all__ = [
    "run_batch_ensemble",
    "EnsembleSnapshot",
    "EnsembleResult",
    "simulate_ensemble",
    "SEED_MODES",
    "DEFAULT_CHUNK_SIZE",
    "lockstep_streams",
]

#: Recognised seeding modes for :func:`simulate_ensemble`.
SEED_MODES = ("spawn", "blocked")

#: Balls whose choices are drawn per vectorised batch.  Large enough to
#: amortise the array round-trips, small enough to keep the working set in
#: cache.
DEFAULT_CHUNK_SIZE = 1 << 15


def _normalise_snapshot_points(snapshot_at, m: int) -> list[int]:
    if snapshot_at is None:
        return []
    points = sorted({int(s) for s in snapshot_at})
    for s in points:
        if s < 0 or s > m:
            raise ValueError(f"snapshot point {s} outside [0, m={m}]")
    return points


def lockstep_streams(repetitions, seed, seeds, seed_mode):
    """Validate the shared seeding knobs and open the replication streams.

    Every lockstep driver (:func:`simulate_ensemble`,
    :func:`repro.core.rounds.simulate_batched_ensemble`,
    :func:`repro.core.weighted.simulate_weighted_ensemble`,
    :func:`repro.p2p.workload.allocate_requests_ensemble`) accepts the same
    ``(repetitions, seed, seeds, seed_mode)`` contract; this is its single
    implementation.  Returns ``(R, draw, gens)``: ``draw(pick, k, d)``
    yields one chunk's ``(R, k, d)`` candidates, drawn as
    ``pick(shape, generator)``, and its ``(R, k)`` tie uniforms.  In spawn
    mode each replication's generator draws its candidates, then its ties;
    blocked mode draws both arrays whole from the one master generator.
    ``gens`` are the generators ``draw`` reads: the master, or one per
    replication.  At ``R = 1`` the two modes read the same stream.
    """
    if seed_mode not in SEED_MODES:
        raise ValueError(
            f"unknown seed_mode {seed_mode!r}; expected one of {SEED_MODES}"
        )
    if seeds is not None:
        seeds = list(seeds)
        if repetitions is not None and repetitions != len(seeds):
            raise ValueError(
                f"repetitions={repetitions} contradicts len(seeds)={len(seeds)}"
            )
        if seed_mode == "blocked":
            raise ValueError(
                "seeds= implies per-replication streams; it contradicts "
                "seed_mode='blocked' (pass a single master seed instead)"
            )
        repetitions = len(seeds)
    if repetitions is None or repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    R = repetitions

    if seed_mode == "blocked":
        master = make_rng(seed)

        def draw(pick, k, d):
            return pick((R, k, d), master), master.random((R, k))

        return R, draw, [master]

    gens = [make_rng(s) for s in (seeds or spawn_seed_sequences(seed, R))]

    def draw(pick, k, d):
        if R == 1:
            g = gens[0]
            return pick((k, d), g)[None], g.random(k)[None]
        rows = [(pick((k, d), g), g.random(k)) for g in gens]
        return np.stack([c for c, _ in rows]), np.stack([u for _, u in rows])

    return R, draw, gens


#: Upper bound on ``R * k`` elements handled by one kernel call; the driver
#: sub-batches larger chunks so the per-ball working set stays cache-sized
#: without changing RNG consumption (sampling happens per *chunk*, not per
#: kernel call).
_KERNEL_TARGET = 1 << 20


def _ensemble_d2(flat, idx2, cap_cross, cap_own, tie_pref_b, heights, rbase=None):
    """d=2 lockstep loop over ``(k, 2, R)``-packed per-ball slices.

    ``idx2[j]`` stacks both candidates' flattened count indices as a
    ``(2, R)`` block so one ``take``/``multiply`` covers the pair;
    ``cap_cross[j]`` holds *twice* the other candidate's capacity (the
    cross-multiplication factor, pre-doubled for the tie bias below) and
    ``cap_own[j]`` the candidate's own capacity (only needed for heights).

    Tie-breaking is folded into the comparison exactly: with integer loads
    ``2*l_b - pref_b < 2*l_a``  iff  ``l_b < l_a  or  (l_b == l_a and
    pref_b)``, where ``pref_b`` (0/1, from ``tie_pref_b``) encodes the
    tie-break mode's preference for candidate b.  One subtraction and one
    ``less`` replace the less/equal/and/or cascade.
    """
    k = idx2.shape[0]
    R = idx2.shape[2]
    # Plain fancy indexing and ufuncs-with-out are the cheapest numpy entry
    # points at ensemble widths (no python-level np.take/np.choose wrappers);
    # `pick_b` is intp so the winner can be selected by integer indexing.
    if rbase is None:
        rbase = np.arange(R)
    l2 = np.empty((2, R), dtype=np.int64)
    pick_b = np.empty(R, dtype=np.intp)
    record = heights is not None
    for j in range(k):
        i2 = idx2[j]
        n2 = flat[i2]
        n2 += 1
        np.multiply(n2, cap_cross[j], out=l2)
        l2[1] -= tie_pref_b[j]
        np.less(l2[1], l2[0], out=pick_b)
        chosen = i2[pick_b, rbase]
        # Within one ball step every replication owns a distinct flat slot,
        # so the fancy increment is race-free.
        flat[chosen] += 1
        if record:
            heights[:, j] = flat[chosen] / cap_own[j][pick_b, rbase]


def _ensemble_d2_uniform(flat, idx2, tie_pref_b, capacity, heights, rbase=None):
    """d=2 lockstep loop specialised to equal capacities (Figures 1–5).

    With ``c_a == c_b == c`` the exact comparison
    ``(n_b + 1) * c - pref < (n_a + 1) * c``  collapses to the pure integer
    count test ``n_b < n_a + pref`` (``pref`` ∈ {0, 1} encodes the tie
    preference for b), removing the cross-multiplication entirely.
    """
    k = idx2.shape[0]
    R = idx2.shape[2]
    if rbase is None:
        rbase = np.arange(R)
    thresh = np.empty(R, dtype=np.int64)
    pick_b = np.empty(R, dtype=np.intp)
    record = heights is not None
    for j in range(k):
        i2 = idx2[j]
        n2 = flat[i2]
        # n_b < n_a + pref  ⇔  pick b (counts compare directly: equal caps).
        np.add(n2[0], tie_pref_b[j], out=thresh)
        np.less(n2[1], thresh, out=pick_b)
        chosen = i2[pick_b, rbase]
        flat[chosen] += 1
        if record:
            heights[:, j] = flat[chosen] / capacity


def _ensemble_general(flat, counts_idx, dens, tie_u, mode, heights, rbase=None):
    """General-d lockstep loop.

    ``counts_idx`` is ``(R, k, d)`` flattened count indices, ``dens`` the
    matching ``(R, k, d)`` capacities, ``tie_u`` the ``(R, k)`` tie uniforms.
    """
    R, k, d = counts_idx.shape
    rows_r = np.arange(R) if rbase is None else rbase
    record = heights is not None
    for j in range(k):
        idx_row = counts_idx[:, j, :]  # (R, d)
        den = dens[:, j, :]
        num = flat.take(idx_row) + 1
        # Tournament reduction to the exact minimum of num/den per row.
        best_num = num[:, 0].copy()
        best_den = den[:, 0].copy()
        for i in range(1, d):
            better = num[:, i] * best_den < best_num * den[:, i]
            np.copyto(best_num, num[:, i], where=better)
            np.copyto(best_den, den[:, i], where=better)
        # Membership: exactly the candidates achieving the minimum...
        mask = num * best_den[:, None] == best_num[:, None] * den
        # ...keeping only each bin's first occurrence (duplicates in the
        # multiset must not inflate the tie set, matching `b not in best`).
        for i in range(1, d):
            dup = idx_row[:, i] == idx_row[:, 0]
            for i2 in range(1, i):
                dup |= idx_row[:, i] == idx_row[:, i2]
            mask[:, i] &= ~dup
        if mode == 0:
            cmax = np.where(mask, den, -1).max(axis=1)
            mask &= den == cmax[:, None]
        elif mode == 2:
            cmin = np.where(mask, den, np.iinfo(np.int64).max).min(axis=1)
            mask &= den == cmin[:, None]
        tied = mask.sum(axis=1)
        sel = (tie_u[:, j] * tied).astype(np.int64)
        hit = (mask.cumsum(axis=1) == (sel + 1)[:, None]) & mask
        pos = hit.argmax(axis=1)
        idx = idx_row[rows_r, pos]
        flat[idx] += 1
        if record:
            heights[:, j] = flat.take(idx) / den[rows_r, pos]


def run_batch_ensemble(
    counts: np.ndarray,
    capacities,
    choices: np.ndarray,
    tie_uniforms: np.ndarray,
    *,
    tie_break: str = "max_capacity",
    heights: np.ndarray | None = None,
    workspace: WavefrontWorkspace | None = None,
) -> np.ndarray:
    """Allocate one batch of balls across all replications, in lockstep.

    Parameters
    ----------
    counts:
        ``(R, n)`` int64 array of current per-bin counts, mutated in place.
        Must be C-contiguous (the kernel works on the flattened view).
    capacities:
        ``(n,)`` shared capacities, or ``(R, n)`` per-replication capacities.
    choices:
        ``(R, k, d)`` integer array; ``choices[r, j]`` is replication ``r``'s
        candidate multiset for ball ``j``.
    tie_uniforms:
        ``(R, k)`` uniforms in ``[0, 1)``; ball ``j`` of replication ``r``
        resolves a surviving tie with ``tie_uniforms[r, j]`` (position-
        aligned, so unused entries cost nothing and streams never shift).
    tie_break:
        ``"max_capacity"`` (Algorithm 1), ``"uniform"``, ``"min_capacity"``.
    heights:
        Optional ``(R, k)`` float64 array; filled with every ball's height
        (post-allocation load of the receiving bin) when given.
    workspace:
        Optional :class:`~repro.core.wavefront.WavefrontWorkspace` reused
        across calls of one drive, so the row index/offset temporaries are
        allocated once per run instead of once per kernel call.

    Returns ``counts``.  Each replication is bit-identical to
    :func:`repro.core.fast.run_batch` on the matching slices.
    """
    mode, counts, caps, tie_uniforms = validate_lockstep_batch(
        counts, capacities, choices, tie_uniforms, tie_break, heights
    )
    R, n = counts.shape
    _, k, d = choices.shape
    if k == 0:
        return counts

    if workspace is not None:
        offsets = workspace.row_offsets(R, n)
        rbase = workspace.rbase(R)
    else:
        offsets = (np.arange(R, dtype=np.int64) * n)[:, None]
        rbase = None
    flat = counts.reshape(-1)

    if d == 2:
        cha = choices[:, :, 0]
        chb = choices[:, :, 1]
        uniform = caps.ndim == 1 and bool((caps == caps[0]).all())
        if uniform:
            # Equal capacities: every tie-break mode degenerates to the
            # fair coin, and the comparison needs no capacities at all.
            idx2 = np.empty((k, 2, R), dtype=np.int64)
            idx2[:, 0] = (cha + offsets).T
            idx2[:, 1] = (chb + offsets).T
            tie_pref_b = np.ascontiguousarray(
                (tie_uniforms >= 0.5).T.astype(np.int64)
            )
            _ensemble_d2_uniform(
                flat, idx2, tie_pref_b, int(caps[0]), heights, rbase
            )
            return counts
        if caps.ndim == 1:
            cap_a = caps[cha]
            cap_b = caps[chb]
        else:
            caps_flat = caps.reshape(-1)
            cap_a = caps_flat[cha + offsets]
            cap_b = caps_flat[chb + offsets]
        tie_pref_b = d2_tie_pref(mode, cap_a, cap_b, tie_uniforms)
        # Pack to (k, 2, R) so each per-ball slice is one contiguous block
        # covering both candidates; double the cross factors so the integer
        # tie bias (see _ensemble_d2) cannot collide with a genuine strict
        # inequality.
        idx2 = np.empty((k, 2, R), dtype=np.int64)
        idx2[:, 0] = (cha + offsets).T
        idx2[:, 1] = (chb + offsets).T
        cap_cross = np.empty((k, 2, R), dtype=np.int64)
        cap_cross[:, 0] = cap_b.T
        cap_cross[:, 1] = cap_a.T
        cap_cross *= 2
        cap_own = None
        if heights is not None:
            cap_own = np.empty((k, 2, R), dtype=np.int64)
            cap_own[:, 0] = cap_a.T
            cap_own[:, 1] = cap_b.T
        _ensemble_d2(
            flat, idx2, cap_cross, cap_own,
            np.ascontiguousarray(tie_pref_b.T.astype(np.int64)), heights, rbase,
        )
        return counts

    counts_idx = choices + offsets[:, None]
    if caps.ndim == 1:
        dens = caps[choices]
    else:
        dens = caps.reshape(-1)[counts_idx]
    _ensemble_general(flat, counts_idx, dens, tie_uniforms, mode, heights, rbase)
    return counts


@dataclass(frozen=True)
class EnsembleSnapshot:
    """Per-replication load statistics after ``balls_thrown`` balls."""

    balls_thrown: int
    max_loads: np.ndarray
    average_load: float

    @property
    def gaps(self) -> np.ndarray:
        """Per-replication deviation of the maximum from the average load."""
        return self.max_loads - self.average_load


@dataclass
class EnsembleResult:
    """Outcome of ``R`` lockstep replications of one allocation setting.

    ``counts`` has shape ``(R, n)``; in spawn mode row ``r`` is exactly
    the single run :func:`repro.core.simulation.simulate` returns for the
    matching seed.  ``choices`` holds the ``(R, m, d)`` candidate matrix
    when it was kept.
    """

    bins: BinArray
    counts: np.ndarray
    m: int
    d: int
    repetitions: int
    probability: str
    tie_break: str
    seed_mode: str
    snapshots: list[EnsembleSnapshot] = field(default_factory=list)
    heights: np.ndarray | None = None
    choices: np.ndarray | None = None
    _loads: np.ndarray | None = field(default=None, repr=False, compare=False)
    _max_loads: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def loads(self) -> np.ndarray:
        """``(R, n)`` per-bin loads ``m_i / c_i`` (computed once, cached —
        repeated access returns the same array object)."""
        if self._loads is None:
            self._loads = self.counts / self.bins.capacities
        return self._loads

    @property
    def max_loads(self) -> np.ndarray:
        """``(R,)`` per-replication maximum loads (cached like ``loads``)."""
        if self._max_loads is None:
            self._max_loads = self.loads.max(axis=1)
        return self._max_loads

    @property
    def average_load(self) -> float:
        """``m / C`` — shared by every replication."""
        return self.m / self.bins.total_capacity

    @property
    def gaps(self) -> np.ndarray:
        """``(R,)`` per-replication ``ℓ_max − m/C``."""
        return self.max_loads - self.average_load

    def __repr__(self) -> str:
        return (
            f"EnsembleResult(R={self.repetitions}, n={self.bins.n}, "
            f"m={self.m}, d={self.d})"
        )


def simulate_ensemble(
    bins: BinArray,
    repetitions: int | None = None,
    m: int | None = None,
    d: int = 2,
    *,
    probabilities="proportional",
    tie_break: str = "max_capacity",
    seed=None,
    seeds=None,
    seed_mode: str = "spawn",
    snapshot_at=None,
    track_heights: bool = False,
    keep_choices: bool = False,
    sampler_method: str = "alias",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> EnsembleResult:
    """Throw *m* balls into *bins*, ``R`` replications in lockstep.

    This is the one drive loop of the plain protocol:
    :func:`repro.core.simulation.simulate` is its ``R = 1`` call.
    Parameters mirror :func:`~repro.core.simulation.simulate`; the extras:

    repetitions:
        Number of lockstep replications ``R`` (ignored when *seeds* is given).
    seeds:
        Explicit per-replication seeds (ints / ``SeedSequence`` /
        ``Generator``).  Replication ``r`` then reproduces
        ``simulate(bins, seed=seeds[r], ...)`` bit-exactly.  When omitted,
        ``R`` child seeds are spawned from *seed* in ``SeedSequence.spawn``
        order — the same order :func:`repro.runtime.executor.run_ensemble_reduced`
        hands its blocks.
    seed_mode:
        ``"spawn"`` (default): one generator per replication, stream-matched
        to single runs.  ``"blocked"``: a single generator draws whole
        ``(R, chunk, d)`` batches — faster, statistically identical, but not
        comparable stream-for-stream with single runs unless ``R = 1``.
    keep_choices:
        Keep the full ``(R, m, d)`` candidate matrix on the result
        (``R * m * d * 8`` bytes; meant for small analytical runs).
    """
    if not isinstance(bins, BinArray):
        bins = BinArray(bins)
    R, draw, gens = lockstep_streams(repetitions, seed, seeds, seed_mode)
    if m is None:
        m = bins.total_capacity
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")

    model = probability_model(probabilities)
    sampler = model.sampler(bins.capacities, method=sampler_method)
    n = bins.n
    counts = np.zeros((R, n), dtype=np.int64)
    caps_arr = bins.capacities
    total_capacity = bins.total_capacity
    heights = np.empty((R, m), dtype=np.float64) if track_heights else None
    kept = np.empty((R, m, d), dtype=np.int64) if keep_choices else None
    # The rows tier keeps one Python-list row per replication across
    # chunks (a list loop per row beats the lockstep kernel at small R);
    # `counts` is brought up to date from them for snapshots and at the end.
    rows: list[list[int]] | None = None

    snap_points = _normalise_snapshot_points(snapshot_at, m)
    snapshots: list[EnsembleSnapshot] = []
    loads_buf = np.empty((R, n), dtype=np.float64) if snap_points else None

    def take_snapshot(balls_thrown: int) -> None:
        if rows is not None:
            counts[:] = rows
        np.divide(counts, caps_arr, out=loads_buf)
        snapshots.append(
            EnsembleSnapshot(
                balls_thrown=balls_thrown,
                max_loads=loads_buf.max(axis=1),
                average_load=balls_thrown / total_capacity,
            )
        )

    thrown = 0
    pending = list(snap_points)
    while pending and pending[0] == 0:
        take_snapshot(0)
        pending.pop(0)

    # The kernel policy picks the tier once per run: native (the C row
    # loops, whenever the library loads and the run fits int64), compiled,
    # the conflict-free wavefront (keyed on the collision-equivalent bin
    # count of the selection distribution, with a fall back to the
    # per-ball tier for the rest of the run if the realised free fraction
    # disappoints), rows (the list row kernel once per row) or lockstep.
    # Every tier consumes the identical pre-drawn randomness, so no
    # dispatch decision can change the results.  The kernels are called
    # through this module's globals, where a tracer can wrap them.
    workspace = WavefrontWorkspace()
    wf_stats = WavefrontStats()
    p = getattr(sampler, "probabilities", None)
    n_eff = effective_bins(p) if p is not None else float(n)
    policy = current_policy()
    fits = native.fits(m, caps_arr.max(), track_heights)
    tier = dispatch(policy, n_eff, R, d, native_fits=fits, exact=fits)
    # The native tier draws, selects and places each chunk in C where it
    # can make NumPy's draws itself (an alias sampler over PCG64
    # generators); otherwise it takes NumPy's draws and `run_rows`.
    fused = None
    if tier == "native" and type(sampler) is AliasSampler:
        fused = native.fused_chunks(
            gens, sampler._prob, sampler._alias, counts, caps_arr, d,
            tie_break, heights=heights, choices=kept, k_max=min(chunk_size, m),
        )

    kernel_block = max(1, _KERNEL_TARGET // max(R, 1))
    while thrown < m:
        upper = pending[0] if pending else m
        batch = min(chunk_size, upper - thrown)
        if fused is not None:
            fused.run(thrown, batch)
        else:
            choices, tie_u = draw(sampler.sample, batch, d)
            chunk_heights = None if heights is None else heights[:, thrown : thrown + batch]
            if tier == "native":
                native.run_rows(counts, caps_arr, choices, tie_u, tie_break, chunk_heights)
            elif tier == "compiled":
                run_batch_compiled(
                    counts,
                    caps_arr,
                    choices,
                    tie_u,
                    tie_break=tie_break,
                    heights=chunk_heights,
                )
            elif tier == "wavefront":
                run_batch_wavefront(
                    counts,
                    caps_arr,
                    choices,
                    tie_u,
                    tie_break=tie_break,
                    heights=chunk_heights,
                    n_eff=n_eff,
                    workspace=workspace,
                    stats=wf_stats,
                )
                if (policy.wavefront == "auto"
                        and wf_stats.free_fraction < RUNTIME_MIN_FREE_FRACTION):
                    tier = "rows" if use_rows(R, d) else "lockstep"
            elif tier == "rows":
                if rows is None:
                    rows = counts.tolist()
                    caps_list = caps_arr.tolist()
                for r, row in enumerate(rows):
                    row_heights = None if heights is None else []
                    run_batch(row, caps_list, choices[r], tie_u[r],
                              tie_break=tie_break, heights=row_heights)
                    if row_heights is not None:
                        chunk_heights[r] = row_heights
            else:
                # Sub-batch the kernel (not the sampling!) so temporaries stay
                # bounded; RNG consumption is untouched by this split.
                for lo in range(0, batch, kernel_block):
                    hi = min(batch, lo + kernel_block)
                    run_batch_ensemble(
                        counts,
                        caps_arr,
                        choices[:, lo:hi],
                        tie_u[:, lo:hi],
                        tie_break=tie_break,
                        heights=None
                        if chunk_heights is None
                        else chunk_heights[:, lo:hi],
                        workspace=workspace,
                    )
            if kept is not None:
                kept[:, thrown : thrown + batch] = choices
        thrown += batch
        while pending and pending[0] == thrown:
            take_snapshot(thrown)
            pending.pop(0)
    if rows is not None:
        counts[:] = rows

    return EnsembleResult(
        bins=bins,
        counts=counts,
        m=m,
        d=d,
        repetitions=R,
        probability=model.name,
        tie_break=tie_break,
        seed_mode=seed_mode,
        snapshots=snapshots,
        heights=heights,
        choices=kept,
    )
