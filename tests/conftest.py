"""Shared test fixtures.

Also makes the suite runnable without an installed package by falling back
to the in-tree ``src`` layout (useful on machines where ``pip install -e .``
is unavailable, e.g. fully offline environments without the ``wheel``
package).
"""

import sys
from pathlib import Path

try:  # pragma: no cover - trivial import guard
    import repro  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest


@pytest.fixture(scope="session")
def unforced_runs():
    """Unforced experiment runs shared by the per-tier identity checks, so
    that each experiment runs unforced once per engine however many
    classes force a tier against it (see ``check_dispatch_identity``)."""
    return {}


@pytest.fixture
def rng():
    """A deterministic generator for tests that need ad-hoc randomness."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_mixed_bins():
    """A tiny heterogeneous array used across suites: capacities 1,1,2,4."""
    from repro.bins import BinArray

    return BinArray([1, 1, 2, 4])


@pytest.fixture
def two_class_1000():
    """The paper's Figure 6 style array at reduced size: 50x1 + 50x10."""
    from repro.bins import two_class_bins

    return two_class_bins(50, 50, 1, 10)


@pytest.fixture
def matches_per_ball():
    """Assert that a lockstep kernel reproduces the per-ball ensemble kernel
    on one batch, counts and (when *heights*) heights; extra keywords go to
    the kernel only."""
    from repro.core.ensemble import run_batch_ensemble

    def check(run, caps, choices, tie_u, tie_break="max_capacity",
              heights=True, **knobs):
        (R, m), n = tie_u.shape, np.shape(caps)[-1]
        out = []
        for kernel, extra in ((run_batch_ensemble, {}), (run, knobs)):
            counts = np.zeros((R, n), dtype=np.int64)
            h = np.empty((R, m)) if heights else None
            kernel(counts, caps, choices, tie_u, tie_break=tie_break,
                   heights=h, **extra)
            out.append((counts, h))
        (base, base_h), (got, got_h) = out
        np.testing.assert_array_equal(got, base, err_msg=f"{knobs}")
        np.testing.assert_array_equal(got_h, base_h, err_msg=f"{knobs}")

    return check
