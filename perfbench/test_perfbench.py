"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the
repository root."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cells  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.benchmarks import benchmark  # noqa: E402
from repro.mig import algorithms, build, signal_not  # noqa: E402


def _catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def _fingerprint(workload):
    return workload.circuits, workload.cells


def test_same_seed_gives_the_same_draw():
    for name in workloads.WORKLOADS:
        assert _fingerprint(workloads.draw(name, 7)) == _fingerprint(
            workloads.draw(name, 7)
        )


def test_different_seed_gives_a_different_draw():
    for name in workloads.WORKLOADS:
        assert _fingerprint(workloads.draw(name, 7)) != _fingerprint(
            workloads.draw(name, 8)
        )


def test_table2_draw_spans_every_size_stratum():
    for seed in range(20):
        gates = [
            workloads.TABLE2_FACTS[c][0]
            for c in workloads.draw("table2", seed).circuits
        ]
        assert min(gates) < 300 and any(300 <= g < 1500 for g in gates)
        assert max(gates) >= 1500


def test_injected_wrong_result_fails_the_cell():
    netlist = benchmark("clip").builder()
    cell = cells.Cell("clip", "step_maj", workloads.PAPER_EFFORT)
    mig = build.mig_from_netlist(netlist)
    algorithms.optimize_steps(mig, cells.FLOWS["step_maj"][1], cell.effort)

    honest = cells.CellResult(cell)
    cells.check_outputs(netlist, mig, cell, honest, tracer.NullTracer())
    assert honest.ok

    wrong = mig.clone()
    wrong.set_po(0, signal_not(wrong.pos[0]))
    result = cells.CellResult(cell)
    cells.check_outputs(netlist, wrong, cell, result, tracer.NullTracer())
    assert not result.ok
    assert "differs from the source netlist" in result.failures[0]


def test_flow_that_accepts_no_move_fails_when_moves_are_required():
    netlist = benchmark("cm150a").builder()
    cell = cells.Cell("cm150a", "step_maj", workloads.PAPER_EFFORT, need_moves=True)
    result = cells.run_cell(netlist, cell, tracer.NullTracer())
    assert result.failures == ["flow accepted no move"]


def test_every_printed_metric_is_declared():
    end_to_end, per_layer, workload_names = _catalog()
    assert workload_names == list(workloads.WORKLOADS)
    netlist = benchmark("clip").builder()
    tiny = [
        cells.Cell("clip", "rram_imp", workloads.PAPER_EFFORT),
        cells.Cell("clip", "step_maj", workloads.PAPER_EFFORT, map=True),
    ]
    inputs = {"clip": netlist}
    passes = cells.timed_passes(tiny, inputs, 0.0)
    printed = run.end_to_end(cells, passes, setup_s=0.1)
    assert {n: m["unit"] for n, m in printed.items()} == end_to_end

    original = algorithms.push_up
    untraced, traced, used = cells.paired_passes(tiny, inputs)
    printed = tracer.layer_metrics(used, traced, untraced, gen_s=0.1, drift_cells=0)
    assert {n: m["unit"] for n, m in printed.items()} == per_layer
    assert printed["crossbar.map_program.calls"]["value"] == 1
    assert printed["opt.rram.busy_s"]["value"] > 0
    assert algorithms.push_up is original  # the wrappers are gone again
