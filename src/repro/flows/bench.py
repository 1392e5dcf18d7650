"""Machine-readable runtime benchmarking behind ``repro-synth bench``.

Four measurements, each appended to ``BENCH_runtime.json`` as entries
under an ``"entries"`` list (existing keys in the file are preserved,
so historical records like ``baseline_pre_costview`` survive):

* **table2** — wall-clock of the whole-set Table II flow at a given
  effort and job count, with the CostView profile counters merged
  across every (benchmark, config) cell.
* **fuzz-smoke** — the packed-kernel speedup claim: functional
  verification of compiled programs over the fuzz smoke corpus, timed
  once through the bit-packed engine (:func:`repro.rram.verify_window`)
  and once through the per-assignment scalar device simulator
  (:func:`repro.rram.run_program`), asserting identical verdicts and
  recording the ratio.
* **crossbar** — the crossbar mapping claim: the step-optimized flow
  mapped onto auto-fitted arrays (:func:`repro.flows.experiments.run_crossbar`),
  recording per-benchmark array geometry, utilization, and the
  parallel-steps/S ratio, with every cell asserted bit-identical to
  its sequential program.
* **scale** — the EPFL-class large-circuit tier: generated ripple
  adders / Wallace multipliers up to >100k MIG gates, each built and
  run through the Ω.I inverter-propagation flow with Table I R/S, wall
  time, and the optimizer counters (``moves_tried``/``predicted_skips``)
  recorded per realization (:func:`bench_scale`).

Every entry records ``seconds`` and ``effort`` — ``trace-report
--validate`` enforces this schema on the ledger — and the file is written with
sorted keys so diffs stay reviewable.  Entries are plain dicts so
downstream tooling (CI trend checks, EXPERIMENTS.md tables) can consume
them without importing this module.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

DEFAULT_BENCH_PATH = "BENCH_runtime.json"


def _observe_flow_seconds(seconds: float) -> None:
    """Feed a flow wall-clock into the telemetry histogram."""
    from ..telemetry import metrics

    metrics().histogram("bench.flow_seconds").observe(round(seconds, 4))


def _machine_info() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _entry_common(effort: Optional[int]) -> Dict[str, object]:
    """Fields every ledger entry must carry so diffs are comparable:
    the effort knob (None where the flow has no such knob) and the
    entry schema version (historical entries without the marker are
    implicitly version 1; ``repro.telemetry.ledger`` documents the
    versions)."""
    from ..telemetry import BENCH_SCHEMA_VERSION

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "effort": effort,
        **_machine_info(),
    }


def bench_table2(
    names: Optional[Sequence[str]] = None,
    *,
    effort: int = 10,
    jobs: int = 1,
    verify: bool = False,
) -> Dict[str, object]:
    """Time the whole-set Table II flow; returns one bench entry."""
    from .experiments import run_table2

    start = time.perf_counter()
    result = run_table2(list(names) if names else None, effort=effort,
                        verify=verify, jobs=jobs)
    seconds = time.perf_counter() - start
    _observe_flow_seconds(seconds)
    return {
        "kind": "table2",
        "seconds": round(seconds, 3),
        "jobs": jobs,
        "benchmarks": len(result.rows),
        "profile": result.merged_profile(),
        **_entry_common(effort),
    }


def _scalar_mismatch(program, mig) -> int:
    """Reference per-assignment sweep: first mismatch or -1.

    Deliberately the pre-packing implementation shape — one device-level
    :func:`repro.rram.run_program` replay per assignment — kept here so
    the speedup of the packed engine is measured against the real
    former hot path, and so ``bench`` re-checks verdict agreement
    between the two executors on every run.
    """
    from ..rram import run_program

    num_inputs = mig.num_pis
    for assignment in range(1 << num_inputs):
        vector = [bool((assignment >> i) & 1) for i in range(num_inputs)]
        words = [1 if bit else 0 for bit in vector]
        expected = [bool(w & 1) for w in mig.simulate_words(words, 1)]
        if run_program(program, vector) != expected:
            return assignment
    return -1


def bench_fuzz_smoke(*, jobs: int = 1) -> Dict[str, object]:
    """Measure packed-vs-scalar verification speedup on the fuzz corpus.

    Compiles every smoke-corpus benchmark for both realizations, then
    verifies each program exhaustively twice — packed engine vs scalar
    device simulator — requiring identical verdicts.  Returns one bench
    entry with both wall-clocks and the speedup ratio.
    """
    from ..benchmarks import fuzz_corpus_names, load_netlist
    from ..mig import Realization, mig_from_netlist
    from ..rram import compile_mig, find_first_mismatch

    compiled: List = []
    for name in fuzz_corpus_names():
        netlist = load_netlist(name)
        mig = mig_from_netlist(netlist)
        for realization in (Realization.IMP, Realization.MAJ):
            compiled.append((name, mig, compile_mig(mig, realization)))

    start = time.perf_counter()
    packed_verdicts = [
        find_first_mismatch(mig, report, jobs=jobs) is None
        for _name, mig, report in compiled
    ]
    packed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar_verdicts = [
        _scalar_mismatch(report.program, mig) < 0
        for _name, mig, report in compiled
    ]
    scalar_seconds = time.perf_counter() - start

    if packed_verdicts != scalar_verdicts:
        raise AssertionError(
            "packed and scalar verification disagree on the smoke corpus"
        )
    _observe_flow_seconds(packed_seconds)
    speedup = scalar_seconds / packed_seconds if packed_seconds > 0 else 0.0
    return {
        "kind": "fuzz-smoke",
        "seconds": round(packed_seconds + scalar_seconds, 4),
        "programs": len(compiled),
        "verdicts_all_pass": all(packed_verdicts),
        "packed_seconds": round(packed_seconds, 4),
        "scalar_seconds": round(scalar_seconds, 4),
        "speedup": round(speedup, 2),
        "jobs": jobs,
        **_entry_common(None),
    }


def bench_crossbar(
    names: Optional[Sequence[str]] = None,
    *,
    effort: int = 10,
    jobs: int = 1,
) -> Dict[str, object]:
    """Measure crossbar mapping over the Table II set; one bench entry.

    Records, per benchmark and realization, the array geometry, cell
    utilization, and parallel-steps/S ratio, asserting on every cell
    that the row-parallel schedule never exceeds the sequential step
    count and is bit-identical to the sequential program under the
    packed kernels (``verify=True`` in the flow).
    """
    from .experiments import run_crossbar

    start = time.perf_counter()
    result = run_crossbar(
        list(names) if names else None, effort=effort, verify=True,
        jobs=jobs,
    )
    seconds = time.perf_counter() - start
    _observe_flow_seconds(seconds)
    benchmarks: Dict[str, object] = {}
    for name, row in result.rows.items():
        benchmarks[name] = {
            realization: {
                "array": f"{cell.width}x{cell.height}",
                "utilization": round(cell.utilization, 4),
                "sequential_steps": cell.sequential_steps,
                "parallel_steps": cell.parallel_steps,
                "parallel_over_s": round(cell.step_ratio, 4),
                "identical": cell.identical,
            }
            for realization, cell in row.items()
        }
    totals = result.totals()
    aggregate = {
        realization: {
            "sequential_steps": seq_total,
            "parallel_steps": par_total,
            "parallel_over_s": round(par_total / max(1, seq_total), 4),
        }
        for realization, (seq_total, par_total) in totals.items()
    }
    return {
        "kind": "crossbar",
        "seconds": round(seconds, 3),
        "jobs": jobs,
        "benchmarks": benchmarks,
        "totals": aggregate,
        **_entry_common(effort),
    }


def bench_scale(
    names: Optional[Sequence[str]] = None, *, effort: int = 2
) -> Dict[str, object]:
    """Time a synthesis flow over the EPFL-class *scale* tier.

    For each generated large circuit (``repro.benchmarks.scale`` —
    ripple adders and Wallace multipliers up to >100k MIG gates): build
    the MIG, then for each realization run the Ω.I inverter-propagation
    pass (``effort`` bounds its rounds) against an attached CostView and
    record Table I R/S before and after plus per-phase wall-clocks.
    Alg. 3/4 on this tier are timed by ``benchmarks/scale_alg34.py``
    and the ``perfbench`` ``scale`` workload (see PERFORMANCE.md).
    """
    from ..benchmarks.scale import load_scale_mig, scale_names
    from ..mig import CostView, Realization
    from ..mig.algorithms import inverter_propagation_pass

    corpus = list(names) if names else scale_names()
    benchmarks: Dict[str, object] = {}
    total_seconds = 0.0
    for name in corpus:
        build_start = time.perf_counter()
        base = load_scale_mig(name)
        build_seconds = time.perf_counter() - build_start
        cell: Dict[str, object] = {
            "gates": base.num_gates(),
            "build_seconds": round(build_seconds, 3),
        }
        for realization in (Realization.IMP, Realization.MAJ):
            mig = base.clone()
            view = CostView(mig)
            before = view.costs(realization)
            opt_start = time.perf_counter()
            inverter_propagation_pass(
                mig,
                realization,
                max_rounds=max(1, effort),
                view=view,
            )
            opt_seconds = time.perf_counter() - opt_start
            after = view.costs(realization)
            counters = view.counters.as_dict()
            cell[realization.value] = {
                "rrams_before": before.rrams,
                "steps_before": before.steps,
                "rrams": after.rrams,
                "steps": after.steps,
                "depth": after.depth,
                "optimize_seconds": round(opt_seconds, 3),
                # Whether the pass did any work must show in the perf
                # trajectory, not just wall time (see docs/PERFORMANCE.md).
                "counters": {
                    key: counters[key]
                    for key in ("moves_tried", "predicted_skips")
                },
            }
            total_seconds += opt_seconds
        total_seconds += build_seconds
        benchmarks[name] = cell
        _observe_flow_seconds(build_seconds)
    return {
        "kind": "scale",
        "seconds": round(total_seconds, 3),
        "benchmarks": benchmarks,
        **_entry_common(effort),
    }


def append_bench_entry(
    entry: Dict[str, object], path: str = DEFAULT_BENCH_PATH
) -> Dict[str, object]:
    """Append one entry to the bench file, preserving existing keys."""
    data: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    entries = data.setdefault("entries", [])
    if not isinstance(entries, list):  # defensive: never clobber data
        raise ValueError(f"{path}: 'entries' exists but is not a list")
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data
