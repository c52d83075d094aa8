"""Kernel policy suite: one env parser, one override, one dispatch."""

import pytest

from repro.core import compiled, wavefront
from repro.core.policy import (
    CHOICES,
    ENV_VARS,
    HAVE_NUMBA,
    KernelPolicy,
    current_policy,
    forced_policy,
)

#: Per field: valid raw values with what they parse to, then invalid ones.
_VALUES = {
    "backend": ({v: v for v in CHOICES["backend"]}, ("fortran",)),
    "wavefront": ({v: v for v in CHOICES["wavefront"]}, ("sometimes",)),
    "threads": ({"auto": "auto", "1": 1, "7": 7}, ("many", "0", "-3")),
}


@pytest.fixture
def clean_env(monkeypatch):
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("field", sorted(ENV_VARS))
def test_env_var(monkeypatch, field):
    """Valid values are honoured from the env and from forced_policy; an
    invalid env value reads as auto (a knob degrades, it never crashes a
    run), an invalid forced one raises."""
    valid, invalid = _VALUES[field]
    for raw, parsed in valid.items():
        monkeypatch.setenv(ENV_VARS[field], raw)
        assert getattr(current_policy(), field) == parsed
        with forced_policy(**{field: raw}) as policy:
            assert getattr(policy, field) == parsed
    for raw in invalid:
        monkeypatch.setenv(ENV_VARS[field], raw)
        assert getattr(current_policy(), field) == "auto"
        with pytest.raises(ValueError), forced_policy(**{field: raw}):
            pass


def test_forced_policy_restores_on_raise(clean_env):
    with forced_policy(backend="numpy"):
        with pytest.raises(RuntimeError):
            with forced_policy(backend="compiled", wavefront="off", threads=3):
                raise RuntimeError("boom")
        assert current_policy() == KernelPolicy(backend="numpy")
    assert current_policy() == KernelPolicy()


def test_stamp_getters_default(clean_env):
    """The benchmark stamp's five reads: numpy (without numba), auto,
    auto, 1, auto."""
    assert compiled.use_compiled() is HAVE_NUMBA
    assert compiled.get_backend() == "auto"
    assert str(compiled.get_threads()) == "auto"
    assert compiled.worker_thread_budget() == "1"
    assert wavefront.get_mode() == "auto"

