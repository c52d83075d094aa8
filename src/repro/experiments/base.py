"""Experiment framework: result records, registry, scaling.

Every figure of the paper's Section 4 is one registered experiment.  An
experiment is a function ``run(scale, seed, workers, progress, **overrides)``
returning an :class:`ExperimentResult`: a shared x-grid plus named series —
exactly the data behind one plot.  The registry lets the CLI, the benchmark
harness and EXPERIMENTS.md address experiments by figure id (``"fig06"``).

Scaling
-------
The paper averages most figures over 10,000 repetitions (Figure 17 over
1,000,000).  ``scale`` multiplies the repetition counts (floored at a small
minimum) so that ``scale=1.0`` is paper-scale and the default CLI scale
produces minutes-level runs; the estimators are unchanged, only their
variance grows at small scale.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..io.asciiplot import ascii_plot, ascii_table
from ..io.csvio import write_series_csv
from ..io.jsonio import dump_json
from ..runtime.fabric.launcher import local_execution
from .request import DEFAULT_ENGINE, RunRequest

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "RunRequest",
    "register",
    "get_experiment",
    "list_experiments",
    "scaled_reps",
    "ENGINES",
    "PrecisionNotSupportedError",
    "resolve_engine",
    "one_repetition_per_block",
]


class PrecisionNotSupportedError(ValueError):
    """A precision target was requested where it cannot be honored.

    Raised declaratively by :meth:`ExperimentSpec.request_kwargs` — either
    the experiment has not opted into adaptive precision
    (``register(..., adaptive=True)``), or the request targets the scalar
    engine, which has no block stream for the monitor to ride.
    """

#: Execution engines an experiment can run its repetitions on.  Both run
#: the experiment's one block function through
#: :func:`repro.runtime.executor.run_ensemble_reduced`:
#: ``"ensemble"`` — lockstep replication blocks (the vectorised fast path);
#: ``"scalar"`` — one repetition per block, i.e. one single run per
#: repetition on its own child seed (the reference path; see
#: :func:`one_repetition_per_block`).
ENGINES = ("scalar", "ensemble")


def resolve_engine(engine: str) -> str:
    """Validate an engine name against :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine


def one_repetition_per_block(run: Callable[..., "ExperimentResult"]):
    """Give a runner both engines through its one block path.

    *run* takes ``engine``, ``block_size`` and ``checkpoint`` keywords and
    hands the last two to :func:`~repro.runtime.executor.run_ensemble_reduced`.
    Under ``engine="ensemble"`` they pass through.  ``engine="scalar"`` is
    the same path with one repetition per block: each block is an ``R = 1``
    call of the experiment's lockstep driver on its repetition's own child
    seed, which draws the stream a single run would.  Those blocks take no
    checkpoint slot and are leased to no sweep fabric (per repetition,
    either would cost an fsync or a lease round-trip); they run locally
    over ``workers``, as single runs always have.
    """

    @functools.wraps(run)
    def wrapped(*args, engine: str = DEFAULT_ENGINE, block_size=None,
                checkpoint=None, **kwargs):
        if resolve_engine(engine) == "ensemble":
            return run(*args, engine=engine, block_size=block_size,
                       checkpoint=checkpoint, **kwargs)
        with local_execution():
            return run(*args, engine=engine, block_size=1, checkpoint=None,
                       **kwargs)

    return wrapped


def scaled_reps(paper_reps: int, scale: float, minimum: int = 3) -> int:
    """Repetition count at *scale* (``scale=1`` → the paper's count)."""
    if paper_reps <= 0:
        raise ValueError(f"paper_reps must be positive, got {paper_reps}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return max(minimum, int(round(paper_reps * scale)))


@dataclass
class ExperimentResult:
    """The numeric content of one figure.

    ``series`` maps a curve name to y-values over ``x_values``; curves of
    unequal natural length (e.g. per-class profiles) are NaN-padded to the
    grid.  ``extra`` carries figure-specific scalars (plateaus, fitted
    constants, theory predictions) for EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    x_name: str
    x_values: np.ndarray
    series: dict[str, np.ndarray]
    parameters: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x_values = np.asarray(self.x_values)
        clean = {}
        for name, ys in self.series.items():
            arr = np.asarray(ys, dtype=np.float64)
            if arr.shape != self.x_values.shape:
                raise ValueError(
                    f"series {name!r} has shape {arr.shape}, expected {self.x_values.shape}"
                )
            clean[name] = arr
        self.series = clean

    def save(self, directory) -> tuple[Path, Path]:
        """Persist as ``<id>.csv`` (series) + ``<id>.json`` (provenance).

        Both writes are atomic (tmp file + ``os.replace`` via
        :mod:`repro.io.atomicio`, the same helper the result store uses), so
        concurrent sweep workers targeting one output directory cannot leave
        torn artifacts.
        """
        directory = Path(directory)
        csv_path = write_series_csv(
            directory / f"{self.experiment_id}.csv", self.x_name, self.x_values, self.series
        )
        json_path = dump_json(
            directory / f"{self.experiment_id}.json",
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "x_name": self.x_name,
                "parameters": self.parameters,
                "extra": self.extra,
                "series_names": list(self.series),
            },
        )
        return csv_path, json_path

    def render(self, *, width: int = 72, height: int = 18, max_rows: int = 12) -> str:
        """ASCII plot plus a head/tail table of the series rows."""
        plot = ascii_plot(
            self.x_values,
            self.series,
            width=width,
            height=height,
            title=f"{self.experiment_id}: {self.title}",
            x_label=self.x_name,
        )
        headers = [self.x_name, *self.series.keys()]
        n = self.x_values.size
        if n <= max_rows:
            idx = range(n)
        else:
            half = max_rows // 2
            idx = [*range(half), *range(n - half, n)]
        rows = []
        prev = -1
        for i in idx:
            if prev >= 0 and i != prev + 1:
                rows.append(["..."] * len(headers))
            rows.append(
                [float(self.x_values[i]), *(float(self.series[s][i]) for s in self.series)]
            )
            prev = i
        return plot + "\n\n" + ascii_table(headers, rows)

    def summary_rows(self) -> list[tuple]:
        """(series, min, max, first, last) rows for quick textual summaries."""
        out = []
        for name, ys in self.series.items():
            finite = ys[np.isfinite(ys)]
            if finite.size == 0:
                out.append((name, float("nan"),) * 4)
                continue
            out.append(
                (name, float(finite.min()), float(finite.max()), float(finite[0]), float(finite[-1]))
            )
        return out


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: metadata plus the run callable.

    ``version`` feeds :meth:`repro.experiments.request.RunRequest.cache_key`
    — bump it in :func:`register` whenever the experiment's semantics change
    (the same events that move golden tests), so stale store entries can
    never be mistaken for the new behaviour.  Every experiment runs on
    both repetition engines (:func:`one_repetition_per_block`).
    ``adaptive`` declares that the runner honors a ``precision=`` target
    (CI-driven early stopping over its ensemble block stream); requests
    carrying a target for a non-adaptive experiment raise the documented
    :class:`PrecisionNotSupportedError` instead of silently running the
    full budget.
    """

    experiment_id: str
    title: str
    figure: str
    description: str
    run: Callable[..., ExperimentResult]
    version: int = 1
    adaptive: bool = False

    def request_kwargs(self, request: RunRequest) -> dict:
        """Translate a :class:`RunRequest` into ``run()`` keyword arguments
        (an unknown engine name raises ``ValueError``)."""
        if request.experiment_id != self.experiment_id:
            raise ValueError(
                f"request for {request.experiment_id!r} handed to spec "
                f"{self.experiment_id!r}"
            )
        kwargs = request.overrides_dict()
        if request.scale is not None:
            kwargs["scale"] = request.scale
        if request.seed is not None:
            kwargs["seed"] = request.seed
        if request.engine is not None:
            kwargs["engine"] = resolve_engine(request.engine)
        if request.block_size is not None:
            kwargs["block_size"] = request.block_size
        if request.precision is not None:
            if not self.adaptive:
                raise PrecisionNotSupportedError(
                    f"experiment {self.experiment_id!r} does not support "
                    f"adaptive precision targets (its runner was registered "
                    f"without adaptive=True)"
                )
            if request.effective_engine() != "ensemble":
                raise PrecisionNotSupportedError(
                    "adaptive precision rides the ensemble block stream; "
                    f"request engine='ensemble' for {self.experiment_id!r} "
                    f"(got {request.effective_engine()!r})"
                )
            kwargs["precision"] = request.precision_target()
        kwargs["workers"] = request.workers
        return kwargs

    def execute(
        self, request: RunRequest, *, progress=None, checkpoint=None
    ) -> ExperimentResult:
        """Run this experiment as described by *request*.

        ``checkpoint`` (a :class:`repro.io.store.Checkpointer`, usually
        handed out by the runner from the result store) lets the ensemble
        executor persist merged-so-far reducer state at block boundaries so
        an interrupted run resumes instead of recomputing.

        Adaptive provenance: a run executed under a precision target must
        report replications-used and achieved half-widths in
        ``result.extra["adaptive"]`` (the runner's
        :class:`~repro.analysis.precision.AdaptiveRecorder` writes it); a
        runner that accepted the target but reported nothing is a bug and
        fails loudly here rather than impersonating a fixed-budget result.
        """
        result = self.run(
            progress=progress, checkpoint=checkpoint, **self.request_kwargs(request)
        )
        if request.precision is not None and "adaptive" not in result.extra:
            raise RuntimeError(
                f"experiment {self.experiment_id!r} accepted a precision "
                f"target but reported no adaptive provenance in result.extra"
            )
        return result


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(
    experiment_id: str,
    title: str,
    figure: str,
    description: str,
    *,
    version: int = 1,
    adaptive: bool = False,
):
    """Decorator registering a ``run``-style function under *experiment_id*.

    ``version`` is the cache-key bump field (see :class:`ExperimentSpec`);
    ``adaptive`` declares that the runner honors a ``precision=`` early-stop target.
    The registered (and returned) function is *func* wrapped by
    :func:`one_repetition_per_block`.
    """

    def wrap(func: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        if experiment_id in _REGISTRY:
            raise ValueError(f"experiment id {experiment_id!r} registered twice")
        func = one_repetition_per_block(func)
        _REGISTRY[experiment_id] = ExperimentSpec(
            experiment_id=experiment_id,
            title=title,
            figure=figure,
            description=description,
            run=func,
            version=version,
            adaptive=adaptive,
        )
        return func

    return wrap


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up a registered experiment (raises ``KeyError`` with guidance)."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known experiments: {known}"
        ) from None


def list_experiments() -> list[ExperimentSpec]:
    """All registered experiments, sorted by id."""
    _ensure_loaded()
    return [
        _REGISTRY[k] for k in sorted(_REGISTRY)
    ]


def _ensure_loaded() -> None:
    """Import the figure modules so their registrations run."""
    from . import (  # noqa: F401
        ablations,
        fig01_uniform_profiles,
        fig02_05_small_heavy,
        fig06_07_two_class,
        fig08_09_random_caps,
        fig10_13_mixed_profiles,
        fig14_15_growth,
        fig16_heavy,
        fig17_18_exponent,
        related_work,
    )
