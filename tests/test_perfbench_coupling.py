"""The repository benchmark (``perfbench/``) reaches into the program by
name: its environment stamp reads the dispatch getters, and its traced
mode patches functions and methods with ``getattr``.  A rename or a
deletion there breaks ``perfbench/run.py`` only at run time, so these
tests load the two coupling modules (read-only, by file path) and check
both against the program.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core.policy import HAVE_NUMBA

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def common():
    return _load("common")


@pytest.fixture(scope="module")
def instrument():
    return _load("instrument")


def test_stamp_dispatch_fields(common, tmp_path, monkeypatch):
    """With the dispatch variables unset (as ``run.py`` leaves them), the
    stamp reads the values every committed benchmark result carries, so
    ``compare.py`` keeps accepting parent against change."""
    for var in common.DISPATCH_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    stamp = common.stamp(tmp_path)
    assert {key: stamp[key] for key in
            ("backend", "backend_mode", "threads", "worker_threads",
             "wavefront_mode")} == {
        "backend": "compiled" if HAVE_NUMBA else "numpy",
        "backend_mode": "auto",
        "threads": "auto",
        "worker_threads": "1",
        "wavefront_mode": "auto",
    }


class RecordingTracer:
    """Stands in for ``spans.Tracer``: records each ``patch`` call and
    looks the attribute up the way the real one does, changing nothing."""

    def __init__(self):
        self.patched = []
        self.missing = []

    def patch(self, owner, attr, name, count=None):
        where = owner.__dict__ if isinstance(owner, type) else vars(owner)
        label = f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        (self.patched if attr in where else self.missing).append(label)


def test_every_traced_attribute_exists(instrument):
    """Every ``install_*`` group patches only attributes that exist where
    it looks them up (a class's own ``__dict__``, a module's namespace)."""
    installers = [getattr(instrument, name) for name in sorted(dir(instrument))
                  if name.startswith("install_")]
    assert len(installers) >= 4
    tracer = RecordingTracer()
    for install in installers:
        install(tracer)
    assert tracer.missing == []
    assert len(tracer.patched) >= 20
