"""One-call reproduction of the paper's experiments.

``run_table2`` reproduces Table II (six algorithm/realization
configurations over the large benchmark set), ``run_table3_bdd`` and
``run_table3_aig`` the two halves of Table III, and ``summarize_*``
compute the aggregate percentages and ratios the paper quotes in
Sec. IV.  Every run can verify functional equivalence of the optimized
graphs against the original circuits.

Whole-set runs shard per ``(benchmark, configuration)`` cell across
worker processes (``jobs > 1``) through the deterministic scheduler in
:mod:`repro.parallel`: every cell is a pure function of its payload,
results aggregate in submission order, and worker-side CostView
profiling counters are summed into the result — so the rendered tables
are byte-identical for any job count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..parallel import merged_counters, run_ordered
from ..parallel.workers import crossbar_task, table2_task, table3_task
from ..telemetry import metrics, publish_profile, span

from ..aig import aig_from_netlist, aig_rram_costs
from ..bdd import BddOverflowError, bdd_rram_costs, build_best_order
from ..mig import (
    EquivalenceGuard,
    Mig,
    Realization,
    mig_from_netlist,
    optimize_area,
    optimize_depth,
    optimize_rram,
    optimize_steps,
    rram_costs,
)
from ..benchmarks import large_names, load_netlist, small_names

#: The six Table II configurations: name → (optimizer, cost realization).
TABLE2_CONFIGS: Dict[str, Tuple[Callable[..., object], Realization]] = {
    "area_imp": (lambda mig, effort: optimize_area(mig, effort), Realization.IMP),
    "depth_imp": (lambda mig, effort: optimize_depth(mig, effort), Realization.IMP),
    "rram_imp": (
        lambda mig, effort: optimize_rram(mig, Realization.IMP, effort),
        Realization.IMP,
    ),
    "rram_maj": (
        lambda mig, effort: optimize_rram(mig, Realization.MAJ, effort),
        Realization.MAJ,
    ),
    "step_imp": (
        lambda mig, effort: optimize_steps(mig, Realization.IMP, effort),
        Realization.IMP,
    ),
    "step_maj": (
        lambda mig, effort: optimize_steps(mig, Realization.MAJ, effort),
        Realization.MAJ,
    ),
}

DEFAULT_EFFORT = 40


@dataclass
class ConfigResult:
    """Measured (R, S) of one benchmark under one configuration."""

    rrams: int
    steps: int
    depth: int
    size: int
    runtime_seconds: float
    verified: Optional[bool] = None
    #: CostView counters of the optimizer run (None when the result
    #: carries none); summed across cells/workers by
    #: :meth:`Table2Result.merged_profile`.
    profile: Optional[Dict[str, int]] = None

    def as_row(self) -> Tuple[int, int]:
        """``(R, S)`` — the two columns the paper tables report."""
        return (self.rrams, self.steps)


@dataclass
class Table2Result:
    """All configurations over the selected benchmarks."""

    rows: Dict[str, Dict[str, ConfigResult]] = field(default_factory=dict)
    effort: int = DEFAULT_EFFORT

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """Σ row: per configuration, (ΣR, ΣS) over the benchmarks run."""
        sums: Dict[str, Tuple[int, int]] = {}
        for config in TABLE2_CONFIGS:
            r_total = sum(row[config].rrams for row in self.rows.values())
            s_total = sum(row[config].steps for row in self.rows.values())
            sums[config] = (r_total, s_total)
        return sums

    def benchmark_names(self) -> List[str]:
        """Benchmarks included in this run, in table order."""
        return list(self.rows)

    def merged_profile(self) -> Dict[str, int]:
        """CostView counters summed over every cell (and thus every
        worker when the run was sharded)."""
        return merged_counters(
            [
                cell.profile
                for row in self.rows.values()
                for cell in row.values()
            ]
        )

    def total_runtime(self) -> float:
        """Σ optimizer wall-clock over all cells (CPU-seconds, not
        elapsed time — the sum is job-count independent)."""
        return sum(
            cell.runtime_seconds
            for row in self.rows.values()
            for cell in row.values()
        )


def _verify_guard(mig: Mig) -> EquivalenceGuard:
    return EquivalenceGuard(mig, num_vectors=512)


def table2_cell(
    name: str, config: str, effort: int, verify: bool
) -> ConfigResult:
    """Compute one Table II cell — pure in its arguments.

    Both the inline path and the pool workers call exactly this
    function, which is what makes ``jobs=N`` bit-identical to
    ``jobs=1``.
    """
    netlist = load_netlist(name)
    optimizer, realization = TABLE2_CONFIGS[config]
    mig = mig_from_netlist(netlist)
    guard = _verify_guard(mig) if verify else None
    start = time.perf_counter()
    with span("table2.cell", benchmark=name, config=config):
        opt_result = optimizer(mig, effort)
    elapsed = time.perf_counter() - start
    verified = guard.verify() if guard is not None else None
    if verified is False:
        raise AssertionError(
            f"{name}/{config}: optimization changed the function"
        )
    publish_profile(getattr(opt_result, "profile", None))
    costs = rram_costs(mig, realization)
    return ConfigResult(
        rrams=costs.rrams,
        steps=costs.steps,
        depth=costs.depth,
        size=costs.size,
        runtime_seconds=elapsed,
        verified=verified,
        profile=getattr(opt_result, "profile", None),
    )


def run_table2(
    names: Optional[Sequence[str]] = None,
    *,
    effort: int = DEFAULT_EFFORT,
    verify: bool = True,
    configs: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> Table2Result:
    """Reproduce Table II over ``names`` (default: all 25 large).

    ``jobs > 1`` shards the (benchmark × configuration) cells across
    worker processes; the result is bit-identical to ``jobs=1``.
    """
    result = Table2Result(effort=effort)
    selected_configs = list(configs or TABLE2_CONFIGS)
    selected_names = list(names or large_names())
    payloads = [
        (name, config, effort, verify)
        for name in selected_names
        for config in selected_configs
    ]
    registry = metrics()
    cells = run_ordered(table2_task, payloads, jobs=jobs)
    for name, config, cell, snapshot in cells:
        result.rows.setdefault(name, {})[config] = cell
        registry.absorb(snapshot)
    return result


@dataclass
class BaselineRow:
    """One benchmark in a Table III comparison."""

    baseline_rrams: Optional[int]
    baseline_steps: int
    mig_imp: Tuple[int, int]
    mig_maj: Tuple[int, int]
    note: str = ""


@dataclass
class Table3Result:
    """One half of Table III (BDD or AIG baseline vs the MIG flow)."""

    baseline: str
    rows: Dict[str, BaselineRow] = field(default_factory=dict)

    def totals(self) -> Dict[str, int]:
        """Σ row: aggregate step/RRAM counts over the benchmarks run."""
        steps_baseline = sum(r.baseline_steps for r in self.rows.values())
        return {
            "baseline_steps": steps_baseline,
            "mig_imp_steps": sum(r.mig_imp[1] for r in self.rows.values()),
            "mig_maj_steps": sum(r.mig_maj[1] for r in self.rows.values()),
            "mig_imp_rrams": sum(r.mig_imp[0] for r in self.rows.values()),
            "mig_maj_rrams": sum(r.mig_maj[0] for r in self.rows.values()),
        }

    def step_ratios(self) -> Tuple[float, float]:
        """(baseline/MIG-MAJ, baseline/MIG-IMP) aggregate step ratios."""
        totals = self.totals()
        return (
            totals["baseline_steps"] / max(1, totals["mig_maj_steps"]),
            totals["baseline_steps"] / max(1, totals["mig_imp_steps"]),
        )


def _mig_pair(
    netlist, realization: Realization, effort: int, verify: bool
) -> Tuple[int, int]:
    mig = mig_from_netlist(netlist)
    guard = _verify_guard(mig) if verify else None
    opt_result = optimize_rram(mig, realization, effort)
    if guard is not None and not guard.verify():
        raise AssertionError(f"{netlist.name}: optimization changed the function")
    publish_profile(getattr(opt_result, "profile", None))
    costs = rram_costs(mig, realization)
    return costs.as_row()


def table3_row(
    baseline: str,
    name: str,
    effort: int,
    verify: bool,
    *,
    node_limit: int = 600_000,
    sift: bool = False,
    sift_size_limit: int = 4000,
) -> BaselineRow:
    """Compute one Table III row — pure in its arguments (the unit the
    parallel scheduler shards per benchmark)."""
    netlist = load_netlist(name)
    note = ""
    if baseline == "bdd":
        from .experiments_sift import maybe_sift

        try:
            manager, roots, _order = build_best_order(
                netlist, candidates=2, node_limit=node_limit
            )
            if sift:
                manager, roots = maybe_sift(
                    manager, roots, size_limit=sift_size_limit
                )
            costs = bdd_rram_costs(manager, roots)
            baseline_rrams: Optional[int] = costs.rrams
            baseline_steps = costs.steps
        except BddOverflowError:
            baseline_rrams = None
            baseline_steps = 0
            note = f"BDD exceeded {node_limit} nodes"
    elif baseline == "aig":
        aig = aig_from_netlist(netlist)
        costs = aig_rram_costs(aig)
        baseline_rrams = costs.rrams
        baseline_steps = costs.steps
    else:
        raise ValueError(f"unknown baseline {baseline!r}")
    return BaselineRow(
        baseline_rrams=baseline_rrams,
        baseline_steps=baseline_steps,
        mig_imp=_mig_pair(netlist, Realization.IMP, effort, verify),
        mig_maj=_mig_pair(netlist, Realization.MAJ, effort, verify),
        note=note,
    )


def _run_table3(
    baseline: str,
    names: Sequence[str],
    effort: int,
    verify: bool,
    jobs: int,
    opts: Optional[Dict[str, object]] = None,
) -> Table3Result:
    result = Table3Result(baseline=baseline)
    payloads = [
        (baseline, name, effort, verify, dict(opts or {})) for name in names
    ]
    registry = metrics()
    for name, row, snapshot in run_ordered(table3_task, payloads, jobs=jobs):
        result.rows[name] = row
        registry.absorb(snapshot)
    return result


def run_table3_bdd(
    names: Optional[Sequence[str]] = None,
    *,
    effort: int = DEFAULT_EFFORT,
    verify: bool = True,
    node_limit: int = 600_000,
    sift: bool = False,
    sift_size_limit: int = 4000,
    jobs: int = 1,
) -> Table3Result:
    """Table III (left): BDD baseline [11] vs the multi-objective flow.

    ``sift=True`` additionally runs dynamic reordering on BDDs of up to
    ``sift_size_limit`` nodes, giving the baseline the best variable
    order we can find (the comparison is conservative either way: the
    default best-of-N static order is what [11]-era flows used).
    """
    return _run_table3(
        "bdd",
        list(names or large_names()),
        effort,
        verify,
        jobs,
        {
            "node_limit": node_limit,
            "sift": sift,
            "sift_size_limit": sift_size_limit,
        },
    )


def run_table3_aig(
    names: Optional[Sequence[str]] = None,
    *,
    effort: int = DEFAULT_EFFORT,
    verify: bool = True,
    jobs: int = 1,
) -> Table3Result:
    """Table III (right): AIG baseline [12] vs the multi-objective flow."""
    return _run_table3(
        "aig", list(names or small_names()), effort, verify, jobs
    )


@dataclass
class SummaryStatistics:
    """The Sec. IV-B aggregate claims, measured on our runs."""

    rram_imp_steps_vs_area: float
    rram_imp_steps_vs_depth: float
    rram_maj_rrams_vs_step: float
    rram_maj_steps_penalty_vs_step: float

    def as_dict(self) -> Dict[str, float]:
        """The four aggregate ratios, keyed like ``PAPER_CLAIMS``."""
        return {
            "rram_imp_steps_vs_area": self.rram_imp_steps_vs_area,
            "rram_imp_steps_vs_depth": self.rram_imp_steps_vs_depth,
            "rram_maj_rrams_vs_step": self.rram_maj_rrams_vs_step,
            "rram_maj_steps_penalty_vs_step": self.rram_maj_steps_penalty_vs_step,
        }


def summarize_table2(result: Table2Result) -> SummaryStatistics:
    """Compute the paper's Sec. IV-B percentages from a Table II run."""
    totals = result.totals()
    area_steps = totals["area_imp"][1]
    depth_steps = totals["depth_imp"][1]
    rram_imp_steps = totals["rram_imp"][1]
    rram_maj_rrams = totals["rram_maj"][0]
    rram_maj_steps = totals["rram_maj"][1]
    step_maj_rrams = totals["step_maj"][0]
    step_maj_steps = totals["step_maj"][1]
    return SummaryStatistics(
        rram_imp_steps_vs_area=1 - rram_imp_steps / max(1, area_steps),
        rram_imp_steps_vs_depth=1 - rram_imp_steps / max(1, depth_steps),
        rram_maj_rrams_vs_step=1 - rram_maj_rrams / max(1, step_maj_rrams),
        rram_maj_steps_penalty_vs_step=rram_maj_steps / max(1, step_maj_steps) - 1,
    )


@dataclass
class CrossbarCell:
    """One benchmark × realization mapped onto a crossbar array."""

    devices: int
    sequential_steps: int
    parallel_steps: int
    width: int
    height: int
    utilization: float
    step_ratio: float
    runtime_seconds: float
    #: Packed-kernel bit-identity of the mapped vs sequential schedule
    #: (``None`` when the cell ran without verification).
    identical: Optional[bool] = None


@dataclass
class CrossbarResult:
    """Crossbar mapping of the step-optimized flow over a benchmark set."""

    rows: Dict[str, Dict[str, CrossbarCell]] = field(default_factory=dict)
    effort: int = DEFAULT_EFFORT
    width: Optional[int] = None
    height: Optional[int] = None

    def benchmark_names(self) -> List[str]:
        return list(self.rows)

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """Per realization, (Σ sequential, Σ parallel) step counts."""
        sums: Dict[str, Tuple[int, int]] = {}
        for realization in ("imp", "maj"):
            cells = [
                row[realization]
                for row in self.rows.values()
                if realization in row
            ]
            sums[realization] = (
                sum(cell.sequential_steps for cell in cells),
                sum(cell.parallel_steps for cell in cells),
            )
        return sums


def placed_identical(program, placed, *, seed: int = 7) -> bool:
    """Packed-kernel bit-identity of a placed schedule vs its source.

    Exhaustive over narrow interfaces, seeded 512-vector sampling over
    wide ones — both through :func:`repro.sim.execute_program_slices`,
    which executes the parallel schedule via
    :meth:`~repro.rram.isa.PlacedProgram.as_program` with the identical
    step semantics as the sequential program.
    """
    from ..sim import (
        execute_program_slices,
        iter_assignment_chunks,
        random_slices,
    )

    parallel = placed.as_program()
    num_inputs = program.num_inputs
    if num_inputs <= 10:
        for chunk in iter_assignment_chunks(num_inputs):
            seq = execute_program_slices(program, chunk.slices, chunk.mask)
            par = execute_program_slices(parallel, chunk.slices, chunk.mask)
            if seq != par:
                return False
        return True
    num_vectors = 512
    slices = random_slices(num_inputs, num_vectors, seed)
    mask = (1 << num_vectors) - 1
    seq = execute_program_slices(program, slices, mask)
    par = execute_program_slices(parallel, slices, mask)
    return seq == par


def crossbar_cell(
    name: str,
    realization_name: str,
    effort: int,
    verify: bool,
    width: Optional[int] = None,
    height: Optional[int] = None,
) -> CrossbarCell:
    """Map one benchmark under one realization — pure in its arguments.

    Runs the paper's step-optimized flow, compiles, maps onto the
    crossbar (auto-fitted unless ``width``/``height`` pin the array),
    and optionally proves the row-parallel schedule bit-identical to
    the sequential program through the packed kernels.
    """
    from ..crossbar import map_program
    from ..rram import compile_mig

    netlist = load_netlist(name)
    realization = Realization(realization_name)
    mig = mig_from_netlist(netlist)
    optimize_steps(mig, realization, effort)
    report = compile_mig(mig, realization)
    program = report.program
    start = time.perf_counter()
    with span("crossbar.cell", benchmark=name, realization=realization_name):
        placed = map_program(program, width, height)
    elapsed = time.perf_counter() - start
    if placed.num_parallel_steps > program.num_steps:
        raise AssertionError(
            f"{name}/{realization_name}: parallel schedule "
            f"({placed.num_parallel_steps}) exceeds sequential "
            f"({program.num_steps})"
        )
    identical = placed_identical(program, placed) if verify else None
    if identical is False:
        raise AssertionError(
            f"{name}/{realization_name}: mapped execution diverges from "
            "the sequential program"
        )
    return CrossbarCell(
        devices=program.num_devices,
        sequential_steps=program.num_steps,
        parallel_steps=placed.num_parallel_steps,
        width=placed.width,
        height=placed.height,
        utilization=placed.utilization,
        step_ratio=placed.step_ratio,
        runtime_seconds=elapsed,
        identical=identical,
    )


def run_crossbar(
    names: Optional[Sequence[str]] = None,
    *,
    effort: int = DEFAULT_EFFORT,
    verify: bool = True,
    jobs: int = 1,
    width: Optional[int] = None,
    height: Optional[int] = None,
) -> CrossbarResult:
    """Crossbar-map the step-optimized flow over ``names``.

    ``jobs > 1`` shards (benchmark × realization) cells across worker
    processes; results aggregate in submission order, so the rendered
    report is bit-identical for any job count.
    """
    result = CrossbarResult(effort=effort, width=width, height=height)
    selected_names = list(names or large_names())
    payloads = [
        (name, realization, effort, verify, width, height)
        for name in selected_names
        for realization in ("imp", "maj")
    ]
    registry = metrics()
    for name, realization, cell, snapshot in run_ordered(
        crossbar_task, payloads, jobs=jobs
    ):
        result.rows.setdefault(name, {})[realization] = cell
        registry.absorb(snapshot)
    return result


def largest_function_ratio(result: Table3Result, names: Sequence[str] = ("apex6", "x3")) -> float:
    """The paper's 26.5× claim: BDD/MIG-MAJ step ratio on the two
    135-input functions."""
    baseline = sum(result.rows[n].baseline_steps for n in names if n in result.rows)
    mig = sum(result.rows[n].mig_maj[1] for n in names if n in result.rows)
    return baseline / max(1, mig)
