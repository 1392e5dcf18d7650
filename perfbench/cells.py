"""One benchmark cell: one circuit through one flow, end to end.

netlist → ``mig_from_netlist`` → optimizer → equivalence checks →
``rram_costs`` → ``compile_mig`` (→ ``map_program`` and the row-parallel
identity check when the cell maps).  Every call goes through a module
attribute of the public API, so the tracer's wrappers see it; the
program itself is not instrumented.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crossbar import mapping
from repro.flows import experiments
from repro.mig import algorithms, build, equivalence, views
from repro.mig.views import Realization
from repro.rram import compiler, verify
from tracer import NullTracer, Tracer, install

#: flow name → (optimizer attribute of ``repro.mig.algorithms``,
#: realization, whether the optimizer takes the realization).  The six
#: Table II configurations, in the column order of
#: ``results/table2_full.txt``.
FLOWS: Dict[str, tuple] = {
    "area_imp": ("optimize_area", Realization.IMP, False),
    "depth_imp": ("optimize_depth", Realization.IMP, False),
    "rram_imp": ("optimize_rram", Realization.IMP, True),
    "rram_maj": ("optimize_rram", Realization.MAJ, True),
    "step_imp": ("optimize_steps", Realization.IMP, True),
    "step_maj": ("optimize_steps", Realization.MAJ, True),
}

ALG3 = "optimize_rram"
ALG4 = "optimize_steps"


@dataclass(frozen=True)
class Cell:
    """One circuit × one flow."""

    circuit: str
    flow: str
    effort: int
    map: bool = False  # also crossbar-map the compiled program
    need_moves: bool = False  # a flow that accepts no move fails the cell

    @property
    def optimizer(self) -> str:
        return FLOWS[self.flow][0]

    @property
    def name(self) -> str:
        return f"{self.circuit}/{self.flow}"


@dataclass
class CellResult:
    """What one cell measured and whether its outputs were correct."""

    cell: Cell
    seconds: float = 0.0
    failures: List[str] = field(default_factory=list)
    rrams: int = 0
    steps: int = 0
    parallel_steps: int = 0
    devices: int = 0
    program_steps: int = 0
    built_gates: int = 0
    cycles: int = 0
    exhaustive_checks: int = 0
    profile: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_outputs(netlist, mig, cell: Cell, result: CellResult, tracer) -> None:
    """Cost, compile and check an optimized ``mig``; record failures.

    The checks: the MIG against the source netlist, the compiled
    program against the MIG on the device-level executor, the emitted
    step count against Table I's S, and for mapping cells the
    row-parallel schedule against the sequential program.
    """
    realization = FLOWS[cell.flow][1]
    if not tracer.span(
        "verify.netlist", equivalence.mig_matches_netlist, mig, netlist
    ):
        result.failures.append("optimized MIG differs from the source netlist")
    num_pis = mig.num_pis
    result.exhaustive_checks += num_pis <= getattr(equivalence, "EXHAUSTIVE_LIMIT", 0)
    costs = tracer.span("views.rram_costs", views.rram_costs, mig, realization)
    result.rrams, result.steps = costs.rrams, costs.steps
    report = tracer.span("compile", compiler.compile_mig, mig, realization)
    result.devices = report.measured_devices
    result.program_steps = report.measured_steps
    if tracer.span(
        "verify.program", verify.find_first_mismatch, mig, report
    ) is not None:
        result.failures.append("compiled program differs from the MIG")
    result.exhaustive_checks += num_pis <= getattr(verify, "EXHAUSTIVE_LIMIT", 0)
    if not report.steps_match_model:
        result.failures.append(
            f"emitted {report.measured_steps} steps, Table I gives {costs.steps}"
        )
    if cell.map:
        program = report.program
        placed = tracer.span("crossbar.map_program", mapping.map_program, program)
        result.parallel_steps = placed.num_parallel_steps
        if placed.num_parallel_steps > program.num_steps:
            result.failures.append("row-parallel schedule longer than sequential")
        if not tracer.span(
            "sim.placed_identical", experiments.placed_identical, program, placed
        ):
            result.failures.append("mapped program differs from sequential")


def run_cell(netlist, cell: Cell, tracer) -> CellResult:
    """Run ``cell`` on ``netlist``; an exception fails the cell only."""
    result = CellResult(cell)
    start = time.perf_counter()
    try:
        mig = tracer.span("build", build.mig_from_netlist, netlist)
        tracer.saw_mig(mig)
        result.built_gates = mig.num_gates()
        optimizer_name, realization, takes_realization = FLOWS[cell.flow]
        optimizer = getattr(algorithms, optimizer_name)
        if takes_realization:
            outcome = optimizer(mig, realization, cell.effort)
        else:
            outcome = optimizer(mig, cell.effort)
        result.cycles = outcome.cycles_run
        result.profile = dict(outcome.profile or {})
        if cell.need_moves and not result.profile.get("moves_accepted"):
            result.failures.append("flow accepted no move")
        check_outputs(netlist, mig, cell, result, tracer)
    except Exception:  # a raising cell is a failed cell; the run goes on
        result.failures.append(traceback.format_exc(limit=3).strip())
    result.seconds = time.perf_counter() - start
    return result


def run_pass(inputs: Dict[str, object], cells: List[Cell], tracer) -> tuple:
    """Run every cell once, in order; return (results, elapsed seconds)."""
    start = time.perf_counter()
    results = [run_cell(inputs[cell.circuit], cell, tracer) for cell in cells]
    return results, time.perf_counter() - start


def timed_passes(cells: List[Cell], inputs: Dict[str, object], seconds: float) -> list:
    """Untraced passes, repeated while another fits in ``seconds``;
    returns [(results, wall seconds)], at least one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(inputs, cells, NullTracer()))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1][1] > seconds:
            return passes


def paired_passes(cells: List[Cell], inputs: Dict[str, object]) -> tuple:
    """Each cell once untraced and once traced, alternating which runs
    first, so warm-up and slow drifts fall on both sides; returns the
    untraced and the traced pass and the tracer."""
    tracer = Tracer()
    untraced, traced = [], []
    for index, cell in enumerate(cells):
        netlist = inputs[cell.circuit]
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(run_cell(netlist, cell, NullTracer()))
                continue
            install(tracer)
            try:
                traced.append(run_cell(netlist, cell, tracer))
            finally:
                tracer.uninstall()
    return (
        (untraced, sum(r.seconds for r in untraced)),
        (traced, sum(r.seconds for r in traced)),
        tracer,
    )


def reference_rows(path: str) -> Optional[Dict[str, Dict[str, tuple]]]:
    """(R, S) per circuit and flow from a rendered Table II, or None
    when the file is absent."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        return None
    rows: Dict[str, Dict[str, tuple]] = {}
    for line in lines:
        parts = [part.split() for part in line.split("|")]
        if len(parts) != len(FLOWS) + 1 or len(parts[0]) != 1:
            continue
        try:
            pairs = [(int(r), int(s)) for r, s in parts[1:]]
        except ValueError:
            continue  # the header row
        rows[parts[0][0]] = dict(zip(FLOWS, pairs))
    return rows


def drifted(results: List[CellResult], reference) -> List[str]:
    """Cells whose (R, S) differ from the reference table."""
    names = []
    for result in results:
        want = (reference or {}).get(result.cell.circuit, {}).get(result.cell.flow)
        if want is not None and want != (result.rrams, result.steps):
            names.append(
                f"{result.cell.name} (R, S)=({result.rrams}, {result.steps}),"
                f" recorded {want}"
            )
    return names
