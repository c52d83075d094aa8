"""Tests for the declarative RunRequest and its cache key."""

import numpy as np
import pytest

from repro.experiments import RunRequest
from repro.experiments.base import (
    ENGINES,
    ExperimentResult,
    ExperimentSpec,
    get_experiment,
    list_experiments,
)
from repro.experiments.request import OverrideError


def key(req, version=1):
    return req.cache_key(version=version)


class TestCanonicalization:
    def test_override_order_is_irrelevant(self):
        a = RunRequest("fig02", overrides={"n": 32, "repetitions": 5})
        b = RunRequest("fig02", overrides={"repetitions": 5, "n": 32})
        assert a == b
        assert key(a) == key(b)

    def test_numpy_scalars_collapse_to_python(self):
        a = RunRequest("fig02", overrides={"repetitions": np.int64(5)})
        b = RunRequest("fig02", overrides={"repetitions": 5})
        assert a == b
        assert key(a) == key(b)

    def test_tuples_and_lists_and_arrays_agree(self):
        a = RunRequest("fig01", overrides={"capacities": (1, 2, 8)})
        b = RunRequest("fig01", overrides={"capacities": [1, 2, 8]})
        c = RunRequest("fig01", overrides={"capacities": np.array([1, 2, 8])})
        assert key(a) == key(b) == key(c)

    def test_scale_and_seed_normalised(self):
        assert RunRequest("fig02", scale=1, seed=np.int64(3)) == RunRequest(
            "fig02", scale=1.0, seed=3
        )

    def test_overrides_dict_round_trip(self):
        req = RunRequest("fig02", overrides={"n": 32, "d": 2})
        assert req.overrides_dict() == {"n": 32, "d": 2}

    def test_unserialisable_override_rejected(self):
        with pytest.raises(OverrideError, match="probabilities"):
            RunRequest("fig18", overrides={"probabilities": object()})

    def test_payload_round_trip(self):
        req = RunRequest(
            "fig06", scale=0.01, seed=7, engine="ensemble", workers=4,
            block_size=16, overrides={"step_pct": 10},
        )
        assert RunRequest.from_payload(req.to_payload()) == req
        assert key(RunRequest.from_payload(req.to_payload())) == key(req)


class TestCacheKey:
    def test_stable_known_value(self):
        """The key is a pure function of the payload — pin one digest so an
        accidental encoding change (which would orphan every existing store
        entry) fails loudly.  Regenerate with:
        ``RunRequest('fig02', seed=1).cache_key(version=1)``."""
        assert key(RunRequest("fig02", seed=1)) == (
            "ddf16555395972c7421a29cd0077ec52b618c74231ac2338079db1bf5ba4aa32"
        )

    @pytest.mark.parametrize("field, value", [
        ("experiment_id", "fig03"),
        ("scale", 0.5),
        ("seed", 123),
        ("engine", "ensemble"),
    ])
    def test_key_changes_on_each_identity_field(self, field, value):
        base = RunRequest("fig02", scale=0.1, seed=1)
        changed = RunRequest(**{**base.to_payload(), field: value, "overrides": {}})
        assert key(base) != key(changed)

    def test_key_changes_on_override_value(self):
        assert key(RunRequest("fig02", overrides={"repetitions": 5})) != key(
            RunRequest("fig02", overrides={"repetitions": 6})
        )

    def test_version_bump_changes_key(self):
        req = RunRequest("fig02", seed=1)
        assert key(req, version=1) != key(req, version=2)

    def test_workers_do_not_change_key(self):
        """The executor's seed contract makes results independent of the
        pool size, so parallelism never fragments the cache."""
        assert key(RunRequest("fig02", seed=1, workers=1)) == key(
            RunRequest("fig02", seed=1, workers=8)
        )

    def test_unset_engine_equals_explicit_scalar(self):
        assert key(RunRequest("fig02", seed=1)) == key(
            RunRequest("fig02", seed=1, engine="scalar")
        )

    def test_block_size_only_keys_under_ensemble(self):
        scalar_a = RunRequest("fig02", seed=1, block_size=8)
        scalar_b = RunRequest("fig02", seed=1, block_size=32)
        assert key(scalar_a) == key(scalar_b)
        ens_a = RunRequest("fig02", seed=1, engine="ensemble", block_size=8)
        ens_b = RunRequest("fig02", seed=1, engine="ensemble", block_size=32)
        assert key(ens_a) != key(ens_b)


class TestPrecisionField:
    def base(self, **precision):
        return RunRequest(
            "fig02", seed=1, engine="ensemble",
            precision=precision or {"rel": 0.02},
        )

    def test_precision_participates_in_key(self):
        plain = RunRequest("fig02", seed=1, engine="ensemble")
        assert key(self.base()) != key(plain)
        assert key(self.base(rel=0.02)) != key(self.base(rel=0.01))
        assert key(self.base(rel=0.02)) != key(
            self.base(rel=0.02, min_blocks=16)
        )

    def test_absent_precision_keeps_pre_adaptive_keys(self):
        """The key payload gains the ``precision`` member only when set, so
        every store entry written before the adaptive layer keeps its
        address — the pinned digest above is the same proof."""
        assert "precision" not in RunRequest("fig02", seed=1).key_payload(version=1)

    def test_canonical_forms_agree(self):
        from repro.analysis.precision import PrecisionTarget

        target = PrecisionTarget(rel=0.02)
        via_target = RunRequest("fig02", engine="ensemble", precision=target)
        via_dict = RunRequest(
            "fig02", engine="ensemble", precision={"rel": 0.02}
        )
        via_pairs = RunRequest(
            "fig02", engine="ensemble", precision=via_target.precision
        )
        assert via_target == via_dict == via_pairs
        assert key(via_target) == key(via_dict) == key(via_pairs)
        assert via_target.precision_target() == target

    def test_payload_round_trip_with_precision(self):
        req = self.base(rel=0.01, conf=0.9)
        back = RunRequest.from_payload(req.to_payload())
        assert back == req and key(back) == key(req)

    def test_invalid_precision_rejected_at_request_time(self):
        from repro.analysis.precision import PrecisionError

        with pytest.raises(PrecisionError):
            RunRequest("fig02", precision={"rel": -1.0})
        with pytest.raises(PrecisionError):
            RunRequest("fig02", precision={"bogus": 1})

    def test_request_kwargs_passes_target_to_adaptive_spec(self):
        from repro.analysis.precision import PrecisionTarget

        spec = get_experiment("fig02")
        assert spec.adaptive
        kwargs = spec.request_kwargs(self.base(rel=0.02))
        assert kwargs["precision"] == PrecisionTarget(rel=0.02)

    def test_non_adaptive_spec_rejects_precision(self):
        from repro.experiments.base import PrecisionNotSupportedError

        spec = get_experiment("fig06")
        assert not spec.adaptive
        with pytest.raises(PrecisionNotSupportedError, match="fig06"):
            spec.request_kwargs(
                RunRequest("fig06", engine="ensemble", precision={"rel": 0.1})
            )

    def test_scalar_engine_rejects_precision(self):
        from repro.experiments.base import PrecisionNotSupportedError

        spec = get_experiment("fig02")
        with pytest.raises(PrecisionNotSupportedError, match="ensemble"):
            spec.request_kwargs(RunRequest("fig02", precision={"rel": 0.1}))


class TestSpecIntegration:
    def test_every_spec_takes_both_engines(self):
        for spec in list_experiments():
            for engine in ENGINES:
                request = RunRequest(spec.experiment_id, engine=engine)
                assert spec.request_kwargs(request)["engine"] == engine
        assert get_experiment("fig02").version == 1

    def test_request_kwargs_builds_run_arguments(self):
        spec = get_experiment("fig02")
        req = RunRequest(
            "fig02", scale=0.01, seed=3, engine="ensemble", workers=2,
            block_size=4, overrides={"repetitions": 5},
        )
        kwargs = spec.request_kwargs(req)
        assert kwargs == {
            "repetitions": 5, "scale": 0.01, "seed": 3, "engine": "ensemble",
            "block_size": 4, "workers": 2,
        }

    def test_request_for_other_experiment_rejected(self):
        with pytest.raises(ValueError, match="handed to spec"):
            get_experiment("fig02").request_kwargs(RunRequest("fig03"))

    def test_scalar_request_passes_through(self):
        captured = {}

        def fake_run(*, progress=None, checkpoint=None, **kwargs):
            captured.update(kwargs)
            return ExperimentResult(
                experiment_id="future_exp", title="", x_name="x",
                x_values=np.array([0.0]), series={"s": np.array([1.0])},
            )

        spec = ExperimentSpec(
            experiment_id="future_exp", title="t", figure="f", description="d",
            run=fake_run,
        )
        spec.execute(RunRequest("future_exp", engine="scalar", seed=1))
        assert captured["engine"] == "scalar"
        assert captured["seed"] == 1
