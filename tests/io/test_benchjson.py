"""Schema tests for the machine-readable benchmark records."""

import json
from pathlib import Path

import pytest

from repro.io.benchjson import (
    BENCH_SCHEMA,
    LEGACY_BENCH_SCHEMAS,
    load_bench_json,
    validate_bench_payload,
    write_bench_json,
)

ROW = {"config": "fig01_large", "R": 64, "engine": "ensemble",
       "wavefront": "on", "seconds": 0.0123, "threads": 1, "cpu_count": 4}
LEGACY_ROW = {"config": "fig01_large", "R": 64, "engine": "ensemble",
              "wavefront": "on", "seconds": 0.0123}
SPEEDUP = {"config": "fig01_large", "R": 64, "kind": "wavefront_over_per_ball",
           "ratio": 1.9, "floor": 1.4}


class TestRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "BENCH_ensemble.json"
        payload = write_bench_json(path, quick=True, rows=[ROW], speedups=[SPEEDUP])
        assert payload["schema"] == BENCH_SCHEMA
        loaded = load_bench_json(path)
        assert loaded == payload
        # the document is plain JSON, newline-terminated
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["rows"] == [ROW]

    def test_empty_lists_are_valid(self, tmp_path):
        path = tmp_path / "b.json"
        write_bench_json(path, quick=False, rows=[], speedups=[])
        assert load_bench_json(path)["rows"] == []


class TestValidation:
    def test_schema_mismatch(self):
        with pytest.raises(ValueError, match="schema mismatch"):
            validate_bench_payload({"schema": "nope", "quick": True,
                                    "rows": [], "speedups": []})

    def test_missing_row_field(self):
        bad = dict(ROW)
        del bad["seconds"]
        with pytest.raises(ValueError, match=r"rows\[0\]: missing"):
            validate_bench_payload({"schema": BENCH_SCHEMA, "quick": True,
                                    "rows": [bad], "speedups": []})

    def test_unknown_row_field(self):
        bad = dict(ROW, extra=1)
        with pytest.raises(ValueError, match=r"rows\[0\]: unknown"):
            validate_bench_payload({"schema": BENCH_SCHEMA, "quick": True,
                                    "rows": [bad], "speedups": []})

    def test_bad_types_and_values(self):
        for mutation, pattern in [
            (dict(ROW, R="64"), r"rows\[0\]\.R"),
            (dict(ROW, seconds=-1.0), r"rows\[0\]\.seconds"),
            (dict(ROW, wavefront="sometimes"), r"rows\[0\]\.wavefront"),
            (dict(ROW, threads=0), r"rows\[0\]\.threads"),
            (dict(ROW, threads="2"), r"rows\[0\]\.threads"),
            (dict(ROW, cpu_count=0), r"rows\[0\]\.cpu_count"),
        ]:
            with pytest.raises(ValueError, match=pattern):
                validate_bench_payload({"schema": BENCH_SCHEMA, "quick": True,
                                        "rows": [mutation], "speedups": []})
        with pytest.raises(ValueError, match=r"speedups\[0\]"):
            validate_bench_payload({"schema": BENCH_SCHEMA, "quick": True,
                                    "rows": [], "speedups": [dict(SPEEDUP, floor=0)]})

    def test_quick_must_be_bool(self):
        with pytest.raises(ValueError, match="quick"):
            validate_bench_payload({"schema": BENCH_SCHEMA, "quick": "yes",
                                    "rows": [], "speedups": []})


class TestLegacySchema:
    """The /1 read path: PR-over-PR diffing must still open the previous
    PR's committed document after the /2 bump."""

    def _write_legacy(self, path):
        payload = {"schema": LEGACY_BENCH_SCHEMAS[0], "quick": True,
                   "rows": [dict(LEGACY_ROW)], "speedups": [SPEEDUP]}
        path.write_text(json.dumps(payload) + "\n")
        return payload

    def test_legacy_document_loads_and_normalises(self, tmp_path):
        path = tmp_path / "old.json"
        self._write_legacy(path)
        loaded = load_bench_json(path)
        assert loaded["schema"] == LEGACY_BENCH_SCHEMAS[0]  # preserved
        row = loaded["rows"][0]
        assert row["threads"] == 1  # pre-/2 timings were all serial
        assert row["cpu_count"] is None  # unrecorded, not guessed
        assert row["seconds"] == LEGACY_ROW["seconds"]

    def test_legacy_rows_must_not_carry_new_fields(self):
        """A /1 document with /2 fields is malformed, not 'early'."""
        with pytest.raises(ValueError, match=r"rows\[0\]: unknown"):
            validate_bench_payload({"schema": LEGACY_BENCH_SCHEMAS[0],
                                    "quick": True, "rows": [dict(ROW)],
                                    "speedups": []})

    def test_current_rows_must_carry_new_fields(self):
        """A /2 document without threads/cpu_count is malformed."""
        with pytest.raises(ValueError, match=r"rows\[0\]: missing"):
            validate_bench_payload({"schema": BENCH_SCHEMA, "quick": True,
                                    "rows": [dict(LEGACY_ROW)],
                                    "speedups": []})

    def test_writes_are_always_current_schema(self, tmp_path):
        path = tmp_path / "new.json"
        payload = write_bench_json(path, quick=True, rows=[ROW],
                                   speedups=[SPEEDUP])
        assert payload["schema"] == BENCH_SCHEMA
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA


class TestRepoArtifact:
    """Validate the committed ``BENCH_ensemble.json`` when present.

    ``make check`` regenerates the file via the quick-mode benchmark run;
    this test keeps whatever is checked in (or left by a previous bench
    run) structurally honest."""

    def test_repo_root_file_is_valid(self):
        path = Path(__file__).resolve().parents[2] / "BENCH_ensemble.json"
        if not path.exists():
            pytest.skip("no BENCH_ensemble.json at the repo root (run make check)")
        payload = load_bench_json(path)
        kinds = {s["kind"] for s in payload["speedups"]}
        assert {"wavefront_over_per_ball", "wavefront_over_fast"} <= kinds


SERVICE_TRACE = {"requests": 4000, "objects": 10000, "users": 100000,
                 "rate": 2000.0, "seed": 1, "digest": "ab" * 32}
SERVICE_ROW = {"d": 2, "refresh_every": 64, "peers": 16, "max_load": 700,
               "mean_load": 250.0, "max_over_mean": 2.1,
               "max_over_mean_raw": 2.8, "p50_ms": 0.01,
               "p99_ms": 0.04, "seconds": 0.05, "placement_digest": "cd" * 32}
SERVICE_COMPARISON = {"d": 2, "max_load_ratio_vs_d1": 0.51}


class TestServiceBenchSchema:
    def _write(self, tmp_path, **overrides):
        from repro.io.benchjson import write_service_bench_json

        kw = dict(quick=True, trace=SERVICE_TRACE, rows=[SERVICE_ROW],
                  comparisons=[SERVICE_COMPARISON])
        kw.update(overrides)
        return write_service_bench_json(tmp_path / "BENCH_service.json", **kw)

    def test_round_trip(self, tmp_path):
        from repro.io.benchjson import (
            SERVICE_BENCH_SCHEMA,
            load_service_bench_json,
        )

        payload = self._write(tmp_path)
        assert payload["schema"] == SERVICE_BENCH_SCHEMA
        loaded = load_service_bench_json(tmp_path / "BENCH_service.json")
        assert loaded == payload
        assert (tmp_path / "BENCH_service.json").read_text().endswith("\n")

    def test_rejects_empty_rows(self, tmp_path):
        with pytest.raises(ValueError, match="rows: must not be empty"):
            self._write(tmp_path, rows=[])

    def test_rejects_missing_trace_field(self, tmp_path):
        trace = dict(SERVICE_TRACE)
        del trace["digest"]
        with pytest.raises(ValueError, match="trace: missing"):
            self._write(tmp_path, trace=trace)

    def test_rejects_unknown_row_field(self, tmp_path):
        row = dict(SERVICE_ROW, surprise=1)
        with pytest.raises(ValueError, match="unknown fields"):
            self._write(tmp_path, rows=[row])

    def test_rejects_inverted_percentiles(self, tmp_path):
        row = dict(SERVICE_ROW, p50_ms=1.0, p99_ms=0.5)
        with pytest.raises(ValueError, match="p50_ms <= p99_ms"):
            self._write(tmp_path, rows=[row])

    def test_rejects_sub_one_imbalance(self, tmp_path):
        row = dict(SERVICE_ROW, max_over_mean=0.5)
        with pytest.raises(ValueError, match="max_over_mean"):
            self._write(tmp_path, rows=[row])

    def test_rejects_sub_one_raw_imbalance(self, tmp_path):
        row = dict(SERVICE_ROW, max_over_mean_raw=0.5)
        with pytest.raises(ValueError, match="max_over_mean_raw"):
            self._write(tmp_path, rows=[row])

    def test_rejects_nonpositive_ratio(self, tmp_path):
        cmp_ = dict(SERVICE_COMPARISON, max_load_ratio_vs_d1=0.0)
        with pytest.raises(ValueError, match="must be positive"):
            self._write(tmp_path, comparisons=[cmp_])

    def test_rejects_wrong_schema(self):
        from repro.io.benchjson import validate_service_bench_payload

        with pytest.raises(ValueError, match="schema mismatch"):
            validate_service_bench_payload({"schema": "repro.bench_ensemble/2"})

    def test_repo_root_service_file_is_valid(self):
        from repro.io.benchjson import load_service_bench_json

        path = Path(__file__).resolve().parents[2] / "BENCH_service.json"
        if not path.exists():
            pytest.skip("no BENCH_service.json at the repo root (run make check)")
        payload = load_service_bench_json(path)
        assert any(r["d"] == 1 for r in payload["rows"])
        assert all(c["max_load_ratio_vs_d1"] < 1.0
                   for c in payload["comparisons"])
