"""CLI contract of the observatory surface.

Covers the exit-code and text contracts of ``trace-report`` on broken
inputs (exit 2 with one clear message, never a traceback),
``trace-report --compare`` (exit 0 on identical deterministic state,
exit 1 on divergence), and ``repro-synth obs report`` / ``obs gate``
plumbing on synthetic ledgers (the real gate runs live in CI; the
tests here pin the cheap paths).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def _synth_trace(tmp_path, name, effort, benchmark="xor5_d"):
    from repro.telemetry import isolated_registry

    trace = tmp_path / f"{name}.jsonl"
    # Each CLI invocation is its own process in real usage; isolate the
    # registry so one in-process run's counters don't leak into the
    # next trace's final metrics record.
    with isolated_registry():
        assert main([
            "synth", benchmark, "--algorithm", "steps",
            "--effort", str(effort), "--trace", str(trace),
        ]) == 0
    return trace


class TestTraceReportErrors:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace-report", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "no such trace file" in err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-report", str(empty)]) == 2
        assert "empty trace file" in capsys.readouterr().err

    def test_whitespace_only_file_exits_2(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n  \n")
        assert main(["trace-report", str(blank)]) == 2
        assert "empty trace file" in capsys.readouterr().err

    def test_truncated_record_exits_2(self, tmp_path, capsys):
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            '{"type": "meta", "schema_version": 1, "command": "synth"}\n'
            '{"type": "span", "name": "optimize", "span_id": 1, "par'
        )
        assert main(["trace-report", str(truncated)]) == 2
        err = capsys.readouterr().err
        assert "malformed trace" in err
        assert "truncated.jsonl:2" in err

    def test_compare_propagates_load_errors(self, tmp_path, capsys):
        good = _synth_trace(tmp_path, "good", 4)
        capsys.readouterr()
        missing = tmp_path / "gone.jsonl"
        assert main([
            "trace-report", str(good), "--compare", str(missing),
        ]) == 2
        assert "no such trace file" in capsys.readouterr().err


class TestTraceCompare:
    def test_identical_runs_compare_identical(self, tmp_path, capsys):
        a = _synth_trace(tmp_path, "a", 4)
        b = _synth_trace(tmp_path, "b", 4)
        capsys.readouterr()
        assert main(["trace-report", str(a), "--compare", str(b)]) == 0
        out = capsys.readouterr().out
        assert "deterministic counters: identical" in out
        assert "verdict      : IDENTICAL" in out

    def test_different_runs_diverge(self, tmp_path, capsys):
        a = _synth_trace(tmp_path, "a", 4)
        b = _synth_trace(tmp_path, "b", 4, benchmark="misex1")
        capsys.readouterr()
        assert main(["trace-report", str(a), "--compare", str(b)]) == 1
        out = capsys.readouterr().out
        assert "verdict      : DIVERGED" in out
        # The divergence must name deterministic state, with values.
        assert "optimizer.moves_tried" in out


@pytest.fixture
def synthetic_ledger(tmp_path):
    entries = [
        {
            "kind": "table2", "effort": 10,
            "seconds": 60.0 + i, "jobs": 1,
            "schema_version": 2,
            "profile": {"moves_tried": 1000, "nodes_allocated": 500,
                        "compactions": 2},
        }
        for i in range(3)
    ]
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"entries": entries}))
    return path


class TestObsReport:
    def test_text_report(self, synthetic_ledger, capsys):
        assert main(["obs", "report", "--ledger",
                     str(synthetic_ledger)]) == 0
        out = capsys.readouterr().out
        assert "table2/effort=10" in out
        assert "node allocation" in out

    def test_html_report(self, synthetic_ledger, tmp_path, capsys):
        html = tmp_path / "report.html"
        assert main(["obs", "report", "--ledger", str(synthetic_ledger),
                     "--html", str(html)]) == 0
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "table2/effort=10" in text

    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main(["obs", "report", "--ledger",
                     str(tmp_path / "gone.json")]) == 2
        assert "no such ledger file" in capsys.readouterr().err

    def test_duplicate_entries_surface_in_report(self, tmp_path, capsys):
        entry = {"kind": "table2", "effort": 10,
                 "seconds": 60.0}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"entries": [entry, dict(entry)]}))
        assert main(["obs", "report", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 byte-identical duplicates collapsed" in out


class TestObsGateErrors:
    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        assert main(["obs", "gate", "--ledger",
                     str(tmp_path / "gone.json")]) == 2
        assert "no such ledger file" in capsys.readouterr().err

    def test_non_ledger_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        assert main(["obs", "gate", "--ledger", str(path)]) == 2
        assert "not a bench ledger" in capsys.readouterr().err


class TestLedgerValidateCli:
    def test_validate_accepts_both_schema_versions(self, tmp_path, capsys):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"entries": [
            {"kind": "a", "seconds": 1.0, "effort": None},
            {"kind": "b", "seconds": 1.0, "effort": 2, "schema_version": 2},
        ]}))
        assert main(["trace-report", str(path), "--validate"]) == 0
        assert "schema       : OK" in capsys.readouterr().out

    def test_validate_rejects_unknown_schema_version(
        self, tmp_path, capsys
    ):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"entries": [
            {"kind": "a", "seconds": 1.0, "effort": None,
             "schema_version": 99},
        ]}))
        assert main(["trace-report", str(path), "--validate"]) == 1
        assert "unsupported schema_version 99" in capsys.readouterr().err
