"""Ledger baseline math and observatory gate/report logic.

Property-based coverage (Hypothesis) for the statistics the wall tier
trusts — median, MAD, noise-band monotonicity — plus example-based
coverage of baseline-key selection ("latest wins"), deterministic
counter-drift classification, byte-identical dedupe, schema-version
validation, gate verdicts over synthetic ledgers, and the report
renderers.
"""

from __future__ import annotations

import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    ACCEPTED_BENCH_SCHEMA_VERSIONS,
    BENCH_SCHEMA_VERSION,
    BaselineKey,
    Ledger,
    LedgerError,
    counter_drift,
    dedupe_entries,
    load_ledger,
    noise_band,
    validate_bench_ledger,
)
from repro.telemetry.ledger import MAD_K, MAD_SIGMA, mad, median
from repro.telemetry.observatory import (
    build_report,
    render_report,
    render_report_html,
    scale_cell_seconds,
    sparkline,
)

finite_seconds = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# Robust statistics (property-based)
# ----------------------------------------------------------------------


class TestRobustStats:
    @given(st.lists(finite_seconds, min_size=1, max_size=50))
    def test_median_matches_statistics_module(self, values):
        assert median(values) == pytest.approx(
            statistics.median(values), abs=1e-9
        )

    @given(st.lists(finite_seconds, min_size=1, max_size=50))
    def test_median_bounded_by_extremes(self, values):
        assert min(values) <= median(values) <= max(values)

    @given(st.lists(finite_seconds, min_size=1, max_size=50))
    def test_mad_nonnegative(self, values):
        assert mad(values) >= 0.0

    @given(
        st.lists(finite_seconds, min_size=1, max_size=50),
        finite_seconds,
    )
    def test_translation_invariance(self, values, shift):
        """median commutes with translation; MAD is invariant."""
        shifted = [value + shift for value in values]
        assert median(shifted) == pytest.approx(
            median(values) + shift, rel=1e-9, abs=1e-6
        )
        assert mad(shifted) == pytest.approx(mad(values), rel=1e-9, abs=1e-6)

    @given(finite_seconds, st.integers(min_value=1, max_value=20))
    def test_constant_series_has_zero_mad(self, value, count):
        band = noise_band([value] * count)
        assert band is not None
        assert band.mad == 0.0
        assert band.median == pytest.approx(value)

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            mad([])


class TestNoiseBand:
    @given(st.lists(finite_seconds, min_size=1, max_size=50))
    def test_upper_at_least_median(self, values):
        band = noise_band(values)
        assert band.upper() >= band.median

    @given(
        st.lists(
            st.floats(
                min_value=0.001,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_slack_floor_dominates_sparse_history(self, values):
        """With slack 2.0 the limit is always >= 3x the median."""
        band = noise_band(values)
        assert band.upper(2.0) >= 3.0 * band.median or band.median == 0

    def test_mad_term_engages_on_noisy_history(self):
        values = [10.0, 11.0, 100.0, 9.0, 95.0, 12.0, 90.0, 10.5]
        band = noise_band(values, window=8)
        assert band.upper(0.0) == pytest.approx(
            band.median + MAD_K * MAD_SIGMA * band.mad
        )
        assert band.classify(band.upper() + 1.0) == "slow"
        assert band.classify(band.median) == "ok"

    def test_window_keeps_only_the_tail(self):
        band = noise_band([1000.0] * 10 + [1.0, 2.0, 3.0], window=3)
        assert band.count == 3
        assert band.median == 2.0

    def test_empty_series_is_none(self):
        assert noise_band([]) is None


# ----------------------------------------------------------------------
# Baseline selection
# ----------------------------------------------------------------------


def _ledger(entries, path="synthetic.json"):
    deduped, dropped = dedupe_entries(entries)
    return Ledger(
        path=path,
        data={"entries": entries},
        entries=deduped,
        duplicates_dropped=dropped,
    )


class TestBaselineSelection:
    entries = [
        {"kind": "table2", "effort": 10, "jobs": 1,
         "seconds": 50.0, "profile": {"moves_tried": 1}},
        {"kind": "table2", "effort": 10, "jobs": 4,
         "seconds": 60.0, "profile": {"moves_tried": 2}},
        {"kind": "table2", "effort": 10, "jobs": 4,
         "seconds": 61.0, "profile": {"moves_tried": 3}},
        {"kind": "scale", "effort": 10, "seconds": 70.0},
    ]

    def test_latest_matching_entry_wins(self):
        ledger = _ledger(self.entries)
        key = BaselineKey("table2", effort=10, jobs=4)
        assert ledger.baseline(key)["profile"]["moves_tried"] == 3
        key = BaselineKey("table2", effort=10, jobs=1)
        assert ledger.baseline(key)["profile"]["moves_tried"] == 1

    def test_kind_always_filters(self):
        ledger = _ledger(self.entries)
        assert len(ledger.query(BaselineKey("table2"))) == 3
        assert len(ledger.query(BaselineKey("scale"))) == 1
        assert ledger.baseline(BaselineKey("nope")) is None

    def test_any_fields_do_not_filter(self):
        ledger = _ledger(self.entries)
        assert ledger.baseline(BaselineKey("table2"))["seconds"] == 61.0

    def test_concrete_none_is_a_real_filter(self):
        ledger = _ledger(
            [
                {"kind": "fuzz-smoke", "effort": None, "seconds": 1.0},
                {"kind": "fuzz-smoke", "effort": 5, "seconds": 2.0},
            ]
        )
        assert (
            ledger.baseline(BaselineKey("fuzz-smoke", effort=None))["seconds"]
            == 1.0
        )

    def test_seconds_series_skips_non_numeric(self):
        ledger = _ledger(
            [
                {"kind": "k", "seconds": 1.0},
                {"kind": "k", "seconds": "broken"},
                {"kind": "k", "seconds": True},
                {"kind": "k", "seconds": 3.0},
            ]
        )
        assert ledger.seconds_series(BaselineKey("k")) == [1.0, 3.0]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["x86_64", "arm64"]),
                st.integers(min_value=1, max_value=3),
                finite_seconds,
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_baseline_is_last_match_property(self, rows):
        entries = [
            {"kind": "bench", "machine": machine, "effort": effort,
             "seconds": seconds, "index": index}
            for index, (machine, effort, seconds) in enumerate(rows)
        ]
        ledger = _ledger(entries)
        for machine in ("x86_64", "arm64"):
            key = BaselineKey("bench", machine=machine)
            expected = [e for e in ledger.entries
                        if e["machine"] == machine]
            baseline = ledger.baseline(key)
            if expected:
                assert baseline is expected[-1]
            else:
                assert baseline is None


# ----------------------------------------------------------------------
# Counter drift
# ----------------------------------------------------------------------


class TestCounterDrift:
    def test_identical_profiles_have_no_drift(self):
        profile = {"moves_tried": 100, "strash_hits": 5, "unwatched": 9}
        assert counter_drift(profile, dict(profile)) == []

    def test_any_change_is_drift(self):
        drifts = counter_drift(
            {"moves_tried": 100, "predicted_skips": 1},
            {"moves_tried": 100, "predicted_skips": 0},
        )
        assert [d.name for d in drifts] == ["predicted_skips"]
        assert drifts[0].baseline == 1 and drifts[0].current == 0
        assert "predicted_skips" in drifts[0].describe()

    def test_missing_current_key_is_drift(self):
        drifts = counter_drift({"strash_hits": 7}, {})
        assert [(d.name, d.current) for d in drifts] == [
            ("strash_hits", "<missing>")
        ]

    def test_keys_missing_from_baseline_are_ignored(self):
        assert counter_drift({}, {"moves_tried": 5}) == []

    def test_unwatched_keys_are_ignored(self):
        assert (
            counter_drift({"wall_seconds": 1.0}, {"wall_seconds": 9.0}) == []
        )

    @given(
        st.dictionaries(
            st.sampled_from(
                ["moves_tried", "events_replayed", "strash_hits",
                 "predicted_skips"]
            ),
            st.integers(min_value=0, max_value=10**9),
            max_size=4,
        ),
        st.sampled_from(
            ["moves_tried", "events_replayed", "strash_hits",
             "predicted_skips"]
        ),
        st.integers(min_value=1, max_value=100),
    )
    def test_single_perturbation_is_always_caught(
        self, profile, key, delta
    ):
        if key not in profile:
            profile = {**profile, key: 0}
        drifted = {**profile, key: profile[key] + delta}
        names = [d.name for d in counter_drift(profile, drifted)]
        assert names == [key]


# ----------------------------------------------------------------------
# Dedupe + schema versions
# ----------------------------------------------------------------------


class TestDedupeAndSchema:
    def test_byte_identical_entries_collapse(self):
        entry = {"kind": "table2", "seconds": 1.0, "effort": 10}
        kept, dropped = dedupe_entries([entry, dict(entry), dict(entry)])
        assert len(kept) == 1 and dropped == 2

    def test_key_order_does_not_defeat_dedupe(self):
        kept, dropped = dedupe_entries(
            [{"a": 1, "b": 2}, {"b": 2, "a": 1}]
        )
        assert len(kept) == 1 and dropped == 1

    def test_distinct_entries_survive_in_order(self):
        entries = [{"kind": "k", "seconds": float(i)} for i in range(5)]
        kept, dropped = dedupe_entries(entries)
        assert kept == entries and dropped == 0

    def test_load_ledger_collapses_duplicates(self, tmp_path):
        entry = {"kind": "table2", "seconds": 2.0, "effort": 10}
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"entries": [entry, dict(entry)]}))
        ledger = load_ledger(str(path))
        assert len(ledger.entries) == 1
        assert ledger.duplicates_dropped == 1

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "no such ledger file"),
            ("", "empty ledger file"),
            ("{not json", "not valid JSON"),
            ("[1, 2]", "not a bench ledger"),
            ('{"entries": 5}', "not a bench ledger"),
        ],
    )
    def test_load_ledger_rejects_unusable_files(
        self, tmp_path, content, message
    ):
        path = tmp_path / "ledger.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(LedgerError, match=message):
            load_ledger(str(path))

    def test_both_schema_versions_validate(self):
        base = {"kind": "k", "seconds": 1.0, "effort": None}
        versioned = {**base, "schema_version": BENCH_SCHEMA_VERSION}
        data = {"entries": [base, versioned]}
        assert validate_bench_ledger(data) == []

    def test_unknown_schema_version_rejected(self):
        entry = {"kind": "k", "seconds": 1.0, "effort": None,
                 "schema_version": 99}
        errors = validate_bench_ledger({"entries": [entry]})
        assert any("schema_version" in error for error in errors)
        assert 99 not in ACCEPTED_BENCH_SCHEMA_VERSIONS

    def test_new_entries_carry_current_version(self):
        from repro.flows.bench import _entry_common

        assert _entry_common(10)["schema_version"] == BENCH_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Observatory report
# ----------------------------------------------------------------------


SCALE_CELL = {
    "gates": 1000,
    "build_seconds": 1.0,
    "imp": {"optimize_seconds": 2.0, "rrams": 10, "steps": 20,
            "counters": {"predicted_skips": 1}},
    "maj": {"optimize_seconds": 3.0, "rrams": 11, "steps": 21,
            "counters": {"predicted_skips": 1}},
}


class TestReport:
    def test_scale_cell_seconds_sums_phases(self):
        assert scale_cell_seconds(SCALE_CELL) == pytest.approx(6.0)

    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        spark = sparkline([1.0, 2.0, 3.0, 8.0])
        assert len(spark) == 4
        assert spark[0] == "▁" and spark[-1] == "█"

    @given(st.lists(finite_seconds, min_size=1, max_size=30))
    def test_sparkline_length_always_matches(self, values):
        assert len(sparkline(values)) == len(values)

    def _report(self):
        entries = [
            {"kind": "table2", "effort": 10,
             "seconds": 60.0 + i,
             "profile": {"nodes_allocated": 100, "compactions": 3}}
            for i in range(4)
        ] + [
            {"kind": "scale", "effort": 10,
             "seconds": 10.0, "benchmarks": {"rca1536": SCALE_CELL}},
        ]
        return build_report(_ledger(entries))

    def test_report_groups_series_and_gauges(self):
        report = self._report()
        keys = [(row.kind, row.effort) for row in report.series]
        assert ("table2", 10) in keys
        table2 = next(r for r in report.series if r.kind == "table2")
        assert len(table2.seconds) == 4
        # Band excludes the latest point.
        assert table2.band.count == 3
        assert report.allocation == {
            "kind": "table2", "nodes_allocated": 100, "compactions": 3,
        }
        assert report.scale_cells["rca1536"]["seconds"] == pytest.approx(6.0)

    def test_renderers_cover_every_section(self):
        report = self._report()
        text = render_report(report)
        assert "table2/effort=10" in text
        assert "node allocation" in text
        assert "rca1536" in text
        html = render_report_html(report)
        assert html.startswith("<!DOCTYPE html>")
        assert "rca1536" in html and "nodes_allocated" in html


# ----------------------------------------------------------------------
# Gate verdict plumbing (synthetic, no real flows)
# ----------------------------------------------------------------------


class TestGateFindings:
    def test_wall_finding_inside_and_outside_band(self):
        from repro.telemetry.observatory import _wall_finding

        band = noise_band([10.0, 10.5, 11.0])
        ok = _wall_finding("x", 11.0, band, slack=2.0, strict=False)
        assert ok.ok
        slow = _wall_finding(
            "x", band.upper(2.0) + 1.0, band, slack=2.0, strict=False
        )
        assert not slow.ok and "limit" in slow.message

    def test_missing_band_warns_unless_strict(self):
        from repro.telemetry.observatory import _wall_finding

        assert _wall_finding("x", 1.0, None, slack=2.0, strict=False).ok
        assert not _wall_finding("x", 1.0, None, slack=2.0, strict=True).ok

    def test_gate_outcome_verdict_and_render(self):
        from repro.telemetry.observatory import (
            Finding,
            GateOutcome,
            gate_entry,
            render_gate,
        )

        outcome = GateOutcome(what="scale")
        outcome.findings.append(Finding("counter", "a", True, "fine"))
        outcome.findings.append(
            Finding("counter", "b", False,
                    "predicted_skips: baseline 1 -> 0")
        )
        assert not outcome.passed
        assert len(outcome.failures) == 1
        rendered = render_gate([outcome])
        assert "drifting counters:" in rendered
        assert "predicted_skips" in rendered
        assert rendered.endswith("obs gate FAIL")
        entry = gate_entry([outcome], seconds=1.0, effort=10)
        assert entry["kind"] == "obs-gate"
        assert entry["passed"] is False
        assert entry["gates"]["scale"]["failures"]
