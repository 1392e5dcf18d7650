"""Tests for the unified telemetry subsystem.

Pins down the contracts the observability layer promises:

* the registry's pay-for-use guarantee (disabled == shared no-op
  singleton, no registration, near-zero overhead);
* deterministic snapshot/absorb merging (bit-identical metrics for any
  ``--jobs`` count);
* span nesting and the JSONL trace schema round-trip;
* trajectory/CostView consistency across rollbacks, and the acceptance
  criterion that a ``synth --trace`` run's final trajectory snapshot
  carries exactly the R/S the CLI prints.
"""

import io
import json
import re
import time

import pytest

from repro.telemetry import (
    KNOWN_METRICS,
    NOOP_METRIC,
    NOOP_SPAN,
    SCHEMA_VERSION,
    MetricsRegistry,
    TelemetryError,
    Tracer,
    TraceWriter,
    TrajectoryRecorder,
    canonical_profile,
    install_tracer,
    isolated_registry,
    load_trace,
    metrics,
    publish_profile,
    render_profile,
    span,
    trajectory_recording,
    use_registry,
    validate_metric_names,
    validate_record,
    validate_trace,
)


class TestRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("mig.strash_hits").inc(3)
        reg.counter("mig.strash_hits").inc()
        reg.gauge("obs.gate_seconds").set(1.5)
        hist = reg.histogram("rram.plim.instructions")
        hist.observe(10)
        hist.observe(4)
        snap = reg.snapshot()
        assert snap == {
            "mig.strash_hits": 4,
            "obs.gate_seconds": 1.5,
            "rram.plim.instructions.count": 2,
            "rram.plim.instructions.max": 10,
            "rram.plim.instructions.min": 4,
            "rram.plim.instructions.total": 14,
        }
        assert list(snap) == sorted(snap)

    def test_empty_histogram_omitted(self):
        reg = MetricsRegistry()
        reg.histogram("rram.plim.devices")
        assert reg.snapshot() == {}

    def test_timer_observes_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("fuzz.stage_seconds.generate"):
            pass
        snap = reg.snapshot()
        assert snap["fuzz.stage_seconds.generate.count"] == 1
        assert snap["fuzz.stage_seconds.generate.total"] >= 0

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.counter("Bad Name")
        with pytest.raises(TelemetryError):
            reg.counter("trailing.dot.")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("mig.tx_rollbacks")
        with pytest.raises(TelemetryError):
            reg.gauge("mig.tx_rollbacks")

    def test_absorb_is_commutative(self):
        a = {"x.count": 2, "x.total": 5, "x.min": 1, "x.max": 4, "c": 7}
        b = {"x.count": 1, "x.total": 9, "x.min": 0.5, "x.max": 9, "c": 3}
        first = MetricsRegistry()
        first.absorb(a)
        first.absorb(b)
        second = MetricsRegistry()
        second.absorb(b)
        second.absorb(a)
        merged = first.snapshot()
        assert merged == second.snapshot()
        assert merged == {
            "c": 10, "x.count": 3, "x.total": 14, "x.min": 0.5, "x.max": 9,
        }

    def test_absorb_merges_with_live_histogram(self):
        reg = MetricsRegistry()
        reg.histogram("rram.compile.measured_steps").observe(6)
        reg.absorb({
            "rram.compile.measured_steps.count": 1,
            "rram.compile.measured_steps.total": 2,
            "rram.compile.measured_steps.min": 2,
            "rram.compile.measured_steps.max": 2,
        })
        snap = reg.snapshot()
        assert snap["rram.compile.measured_steps.count"] == 2
        assert snap["rram.compile.measured_steps.min"] == 2
        assert snap["rram.compile.measured_steps.max"] == 6


class TestDisabledRegistry:
    def test_noop_singleton_identity(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a.b") is NOOP_METRIC
        assert reg.gauge("c.d") is NOOP_METRIC
        assert reg.histogram("e.f") is NOOP_METRIC
        assert reg.timer("g.h") is NOOP_METRIC
        # Nothing registers, nothing validates, snapshot stays empty.
        reg.counter("NOT A VALID NAME").inc(100)
        assert reg.snapshot() == {}
        reg.absorb({"x": 1})
        assert reg.snapshot() == {}

    def test_noop_overhead_guard(self):
        """A disabled-registry increment must stay cheap: no allocation,
        no locking, no dict lookups per call beyond the handle fetch."""
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("hot.loop")
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            counter.inc()
        noop_seconds = time.perf_counter() - start
        # Generous absolute bound: ~100x slack over a plain method call
        # loop on any plausible CI machine; catches accidental per-call
        # allocation or registration creeping into the no-op path.
        assert noop_seconds < 1.0

    def test_noop_span_when_no_tracer(self):
        previous = install_tracer(None)
        try:
            assert span("anything", attr=1) is NOOP_SPAN
        finally:
            install_tracer(previous)


class TestRegistryScoping:
    def test_use_registry_scopes_current(self):
        fresh = MetricsRegistry()
        with use_registry(fresh):
            assert metrics() is fresh
            metrics().counter("optimizer.moves_tried").inc()
        assert metrics() is not fresh
        assert fresh.snapshot() == {"optimizer.moves_tried": 1}

    def test_isolated_registry_inherits_enabled_flag(self):
        with use_registry(MetricsRegistry(enabled=False)):
            with isolated_registry() as inner:
                assert not inner.enabled
        with use_registry(MetricsRegistry(enabled=True)):
            with isolated_registry() as inner:
                assert inner.enabled
                inner.counter("optimizer.moves_tried").inc(2)
                snap = inner.snapshot()
            assert snap == {"optimizer.moves_tried": 2}
            # The isolated work never leaked into the parent registry.
            assert metrics().snapshot() == {}


class TestTracing:
    @staticmethod
    def _trace_records(body):
        buffer = io.StringIO()
        writer = TraceWriter(buffer, close_handle=False)
        previous = install_tracer(Tracer(writer))
        try:
            body()
        finally:
            install_tracer(previous)
        return [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
        ]

    def test_span_nesting_and_ordering(self):
        def body():
            with span("outer", effort=4):
                with span("inner.first"):
                    pass
                with span("inner.second"):
                    pass

        records = self._trace_records(body)
        # Children close before parents (Chrome-trace style).
        assert [r["name"] for r in records] == [
            "inner.first", "inner.second", "outer",
        ]
        outer = records[2]
        assert outer["parent_id"] is None
        assert outer["attrs"] == {"effort": 4}
        for child in records[:2]:
            assert child["parent_id"] == outer["span_id"]
            assert child["dur_s"] >= 0
        for record in records:
            assert validate_record(record) == []

    def test_span_set_attaches_attrs(self):
        def body():
            with span("measured") as live:
                live.set(outcome="accepted")

        (record,) = self._trace_records(body)
        assert record["attrs"] == {"outcome": "accepted"}


class TestSchema:
    def test_record_round_trip(self):
        records = [
            {"type": "meta", "schema_version": SCHEMA_VERSION,
             "command": "synth", "args": {"effort": 6}},
            {"type": "span", "name": "pass.reshape", "span_id": 2,
             "parent_id": 1, "start_s": 0.1, "dur_s": 0.01},
            {"type": "trajectory", "iteration": 0, "rule": "initial",
             "accepted": True, "r": 48, "s": 89, "depth": 11, "size": 37,
             "complemented_edges": 5, "realization": "maj"},
            {"type": "metrics",
             "metrics": {"costview.cache_hits": 12}},
        ]
        for record in records:
            rebuilt = json.loads(json.dumps(record))
            assert validate_record(rebuilt) == [], record["type"]

    def test_missing_field_reported(self):
        errors = validate_record({"type": "span", "name": "x"})
        assert errors
        assert any("span_id" in err for err in errors)

    def test_unknown_type_reported(self):
        assert validate_record({"type": "mystery"})

    def test_validate_trace_rejects_unknown_metric_names(self):
        records = [
            {"type": "metrics", "metrics": {"costview.cache_hits": 1}},
            {"type": "metrics", "metrics": {"rogue.counter": 1}},
        ]
        errors = validate_trace(records)
        assert len(errors) == 1
        assert "record 2" in errors[0] and "rogue.counter" in errors[0]

    def test_metric_name_catalog(self):
        every_known = {name: 1 for name in KNOWN_METRICS}
        assert validate_metric_names(every_known) == []
        assert validate_metric_names(
            {"fuzz.stage_seconds.generate": 0.5}
        ) == []
        assert validate_metric_names(
            {"rram.plim.instructions.count": 3}
        ) == []
        errors = validate_metric_names({"made.up.metric": 1})
        assert errors and "made.up.metric" in errors[0]
        assert validate_metric_names({"costview.cache_hits": True})

    def test_canonical_profile_maps_legacy_names(self):
        canon = canonical_profile({"full_recomputes": 2, "tx_rollbacks": 1})
        assert canon["costview.full_recomputes"] == 2
        assert canon["mig.tx_rollbacks"] == 1

    def test_publish_profile_absorbs_once(self):
        with use_registry(MetricsRegistry()):
            publish_profile({"cache_hits": 5})
            publish_profile(None)  # a no-op, not an error
            assert metrics().snapshot() == {"costview.cache_hits": 5}


class TestWorkerMerging:
    NAMES = ["x2", "misex1"]

    def _run(self, jobs):
        from repro.flows.experiments import run_table2

        with use_registry(MetricsRegistry()) as registry:
            run_table2(self.NAMES, effort=4, jobs=jobs)
            return registry.snapshot()

    def test_jobs_1_vs_2_bit_identical(self):
        sequential = self._run(1)
        parallel = self._run(2)
        assert sequential  # the flow actually produced metrics
        assert json.dumps(sequential, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_merged_names_all_known(self):
        snapshot = self._run(1)
        assert validate_metric_names(snapshot) == []


class TestTrajectory:
    @pytest.mark.parametrize("realization_name", ["imp", "maj"])
    def test_validate_mode_through_optimizer(self, realization_name):
        """Running a whole optimization under ``validate=True`` proves
        every view-supplied snapshot matches from-scratch statistics —
        including after rollbacks."""
        from repro.benchmarks import load_mig
        from repro.mig import Realization, optimize_steps
        from repro.mig.views import level_stats

        realization = Realization(realization_name)
        mig = load_mig("xor5_d")
        recorder = TrajectoryRecorder(realization, validate=True)
        with trajectory_recording(recorder):
            recorder.record_state(mig, None, rule="initial", accepted=True)
            optimize_steps(mig, realization, 6)
            final = recorder.record_final(mig)
        reference = level_stats(mig)
        assert final["r"] == reference.rram_count(realization)
        assert final["s"] == reference.step_count(realization)
        assert final["size"] == mig.num_gates()
        assert recorder.final is final
        assert recorder.accepted_count() >= 1
        iterations = [snap["iteration"] for snap in recorder.snapshots]
        assert iterations == list(range(len(iterations)))

    def test_inactive_recording_is_free(self):
        from repro.telemetry import active_trajectory

        assert active_trajectory() is None
        with trajectory_recording(None):
            assert active_trajectory() is None


class TestCliAcceptance:
    def test_synth_trace_final_matches_printed(self, tmp_path, capsys):
        """Acceptance criterion: the final trajectory snapshot of a
        ``synth --trace`` run carries exactly the R/S printed by the
        CLI, for both realizations."""
        from repro.cli import main

        for realization in ("imp", "maj"):
            trace = tmp_path / f"synth_{realization}.jsonl"
            assert main([
                "synth", "xor5_d", "--algorithm", "steps", "--effort", "6",
                "--realization", realization, "--trace", str(trace),
            ]) == 0
            out = capsys.readouterr().out
            match = re.search(r"optimized\s+:.* R=(\d+) S=(\d+)", out)
            assert match, out
            records = load_trace(str(trace))
            assert validate_trace(records) == []
            finals = [
                r for r in records
                if r["type"] == "trajectory" and r["rule"] == "final"
            ]
            assert len(finals) == 1
            assert finals[0]["r"] == int(match.group(1))
            assert finals[0]["s"] == int(match.group(2))
            assert finals[0]["realization"] == realization

    def test_trace_report_renders_and_validates(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        metrics_file = tmp_path / "m.json"
        assert main([
            "synth", "xor5_d", "--algorithm", "steps", "--effort", "4",
            "--trace", str(trace), "--metrics", str(metrics_file),
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "schema       : OK" in out
        assert "trajectory" in out
        # The --metrics sidecar holds only catalogued names.
        snapshot = json.loads(metrics_file.read_text())
        assert validate_metric_names(snapshot) == []

    def test_trace_report_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span", "name": "orphan"}\n')
        assert main(["trace-report", str(bad), "--validate"]) == 1
        assert capsys.readouterr().err


class TestRenderProfile:
    def test_empty_profile_message(self):
        out = render_profile({}, title="cost-view counters")
        assert out == "profile      : (no cost-view counters recorded)"

    def test_rows_sorted_and_aligned(self):
        out = render_profile(
            {"b_counter": 2, "a_counter": 1}, title="t", canonicalize=False
        )
        lines = out.splitlines()
        assert lines[0] == "profile      : t"
        assert lines[1].strip().startswith("a_counter")
        assert lines[2].strip().startswith("b_counter")
