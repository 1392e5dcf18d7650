"""Golden-output tests for the CLI surface.

These lock down the *text contract*: the exact formats ``bench-list``,
``convert``, and ``report`` print, and the exit codes malformed inputs
produce.  Downstream scripts parse this output, so changes here should
be deliberate.
"""

import re

import pytest

from repro.benchmarks import ALL_BENCHMARKS, large_names, small_names
from repro.cli import main
from repro.io import read_blif


class TestBenchList:
    def test_lists_every_benchmark_once(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_BENCHMARKS:
            assert re.search(rf"^  {re.escape(name)}\s", out, re.M), name

    def test_golden_format(self, capsys):
        main(["bench-list"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "large (Tables II / III-left):"
        assert "small (Table III-right):" in lines
        split = lines.index("small (Table III-right):")
        # One formatted row per benchmark, grouped by suite.
        row = re.compile(r"^  \S+\s+\d+ in\s+\d+ out  \[\w+\] .*$")
        large_rows = lines[1:split]
        small_rows = lines[split + 1 :]
        assert len(large_rows) == len(large_names())
        assert len(small_rows) == len(small_names())
        for line in large_rows + small_rows:
            assert row.match(line), line


class TestConvert:
    def test_golden_blif_output(self, tmp_path, capsys):
        target = tmp_path / "xor5.blif"
        assert main(["convert", "xor5_d", str(target)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"wrote {target} (")
        text = target.read_text()
        assert text.splitlines()[0] == ".model xor5_d"
        assert ".inputs x0 x1 x2 x3 x4" in text
        assert text.rstrip().endswith(".end")

    def test_convert_is_deterministic(self, tmp_path):
        first = tmp_path / "a.blif"
        second = tmp_path / "b.blif"
        main(["convert", "misex1", str(first)])
        main(["convert", "misex1", str(second)])
        assert first.read_text() == second.read_text()

    def test_unknown_target_format(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["convert", "xor5_d", str(tmp_path / "out.xyz")])

    def test_pla_export_input_limit(self, tmp_path):
        with pytest.raises(SystemExit, match="16 inputs"):
            main(["convert", "apex1", str(tmp_path / "apex1.pla")])


class TestMalformedInputs:
    def test_malformed_blif_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "broken.blif"
        bad.write_text(".model broken\n.names a b\n11 1\n")  # undeclared nets
        code = main(["synth", str(bad), "--effort", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "repro-synth: error:" in captured.err

    def test_malformed_bench_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "broken.bench"
        bad.write_text("INPUT(a)\nOUTPUT(f)\nf = FROB(a)\n")
        assert main(["synth", str(bad)]) == 2
        assert "repro-synth: error:" in capsys.readouterr().err

    def test_malformed_pla_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "broken.pla"
        bad.write_text(".i 2\n.o 1\n11x 1\n.e\n")  # row wider than .i
        assert main(["convert", str(bad), str(bad.with_suffix(".blif"))]) == 2
        assert "repro-synth: error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "nope.blif")]) == 2
        assert "repro-synth: error:" in capsys.readouterr().err

    def test_unknown_benchmark_raises(self):
        with pytest.raises(SystemExit):
            main(["synth", "not-a-benchmark"])


class TestMap:
    def test_golden_map_output(self, capsys):
        assert main(["map", "xor5_d"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "circuit      : xor5_d"
        assert lines[1] == "realization  : MAJ"
        assert re.match(r"^devices      : \d+$", lines[2])
        assert re.match(r"^array        : \d+x\d+ \(auto-fitted\)$", lines[3])
        assert re.match(
            r"^utilization  : 0\.\d\d \(\d+ wordlines occupied\)$", lines[4]
        )
        assert re.match(r"^sequential S : \d+$", lines[5])
        assert re.match(
            r"^parallel     : \d+ steps \(ratio [01]\.\d\d\)$", lines[6]
        )

    def test_map_verify_prints_pass(self, capsys):
        assert main(["map", "con1f1", "--realization", "imp", "--verify"]) == 0
        assert "identity     : PASS" in capsys.readouterr().out

    def test_map_parallel_never_exceeds_sequential(self, capsys):
        main(["map", "rd53f2"])
        out = capsys.readouterr().out
        sequential = int(re.search(r"sequential S : (\d+)", out).group(1))
        parallel = int(re.search(r"parallel     : (\d+) steps", out).group(1))
        assert parallel <= sequential

    def test_requested_geometry_is_echoed(self, capsys):
        assert main(["map", "xor5_d", "--crossbar", "32x32"]) == 0
        assert "array        : 32x32 (requested)" in capsys.readouterr().out

    def test_map_is_deterministic(self, capsys):
        main(["map", "misex1", "--algorithm", "steps", "--effort", "4"])
        first = capsys.readouterr().out
        main(["map", "misex1", "--algorithm", "steps", "--effort", "4"])
        assert capsys.readouterr().out == first

    def test_infeasible_geometry_exit_code(self, capsys):
        assert main(["map", "xor5_d", "--crossbar", "2x2"]) == 2
        assert "repro-synth: error:" in capsys.readouterr().err

    def test_malformed_geometry_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map", "xor5_d", "--crossbar", "not-a-size"])
        assert exc.value.code == 2
        assert "bad array geometry" in capsys.readouterr().err


class TestReport:
    def test_golden_report_files(self, tmp_path, monkeypatch, capsys):
        import repro.flows.experiments as experiments

        monkeypatch.setattr(experiments, "large_names", lambda: ["misex1"])
        monkeypatch.setattr(experiments, "small_names", lambda: ["xor5_d"])
        out_dir = tmp_path / "results"
        assert main(
            ["report", "--output", str(out_dir), "--effort", "4"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "running Table II" in stdout
        assert f"wrote {out_dir}/table2_full.txt" in stdout
        table2 = (out_dir / "table2_full.txt").read_text()
        assert "misex1" in table2
        assert "SUM" in table2
        table3 = (out_dir / "table3_full.txt").read_text()
        assert "largest-function ratio" in table3
