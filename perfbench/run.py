"""Benchmark of the synthesis flow: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes;
``--trace 1`` runs every cell once untraced and once traced and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Progress
and every failed, drifting or non-deterministic item go to standard
error.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(HERE, ".state")

#: Input generation repeats per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: name → unit of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "alg3_s": "s",
    "alg4_s": "s",
    "steps_total": "steps",
    "rrams_total": "devices",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_digest() -> str:
    """Digest of the program's and the benchmark's Python source: the
    determinism record compares runs of one commit only."""
    digest = hashlib.sha256()
    for top in (SOURCE, HERE):
        for folder, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def deterministic_values(results) -> dict:
    """The exact values of one pass (quality totals and work counts)."""
    return {
        "steps_total": sum(r.steps for r in results),
        "rrams_total": sum(r.rrams for r in results),
        **{f"cell.{r.cell.name}": [r.rrams, r.steps, r.parallel_steps, r.cycles,
                                   r.profile.get("moves_tried", 0),
                                   r.profile.get("moves_accepted", 0)]
           for r in results},
    }


def check_determinism(key: str, values: dict) -> list:
    """Compare ``values`` with what earlier runs recorded under ``key``
    and record the union; returns the names that differ."""
    path = os.path.join(STATE_DIR, "determinism.json")
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        record = {}
    seen = record.setdefault(key, {})
    differ = sorted(n for n, v in values.items() if n in seen and seen[n] != v)
    seen.update(values)
    os.makedirs(STATE_DIR, exist_ok=True)
    scratch = f"{path}.{os.getpid()}"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)
    os.replace(scratch, path)
    return differ


def end_to_end(cells, passes, setup_s: float) -> dict:
    """Every end-to-end metric of the untraced passes, with its unit."""
    first = passes[0][0]

    def algorithm_s(optimizer: str) -> float:
        return statistics.median(
            sum(r.seconds for r in results if r.cell.optimizer == optimizer)
            for results, _ in passes
        )

    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall for _, wall in passes),
        "alg3_s": algorithm_s(cells.ALG3),
        "alg4_s": algorithm_s(cells.ALG4),
        "steps_total": sum(r.steps for r in first),
        "rrams_total": sum(r.rrams for r in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        log(f"no program source under {SOURCE}; run from a repository checkout")
        return 2
    sys.path.insert(0, SOURCE)
    import cells
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"expected one of {', '.join(workloads.WORKLOADS)}")
        return 2
    import_s = time.perf_counter() - _START

    workload = workloads.draw(args.workload, args.seed)
    gen_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.make_inputs()
        gen_times.append(time.perf_counter() - start)
    gen_s = statistics.median(gen_times)
    log(f"{workload.name} seed {workload.seed}: {', '.join(workload.circuits)}; "
        f"{len(workload.cells)} cells per pass")

    if args.trace:
        untraced, traced, tracer = cells.paired_passes(workload.cells, inputs)
        passes = [untraced, traced]
    else:
        passes = cells.timed_passes(workload.cells, inputs, args.seconds)

    failed = 0
    for results, _ in passes:
        for result in results:
            if not result.ok:
                failed += 1
                log(f"FAILED {result.cell.name}: {'; '.join(result.failures)}")

    values = deterministic_values(passes[0][0])
    unsteady = sorted({
        name
        for results, _ in passes[1:]
        for name, value in deterministic_values(results).items()
        if values[name] != value
    })
    if args.trace:
        values.update(tracing.layer_counts(tracer, traced[0]))
    key = f"{workload.name}:{workload.seed}:{source_digest()}"
    unsteady += check_determinism(key, values)
    for name in unsteady:
        log(f"NON-DETERMINISTIC {name}")

    drift = []
    if workload.name == "table2":
        reference = cells.reference_rows(
            os.path.join(ROOT, "results", "table2_full.txt")
        )
        drift = cells.drifted(passes[0][0], reference)
        for line in drift:
            log(f"drift from results/table2_full.txt: {line}")

    if args.trace:
        metrics = tracing.layer_metrics(
            tracer, traced, untraced, gen_s=gen_s, drift_cells=len(drift)
        )
        log(f"tracing overhead {traced[1] - untraced[1]:+.3f} s on "
            f"{untraced[1]:.3f} s of untraced cell time")
    else:
        metrics = end_to_end(cells, passes, import_s + gen_s)
        log(f"{len(passes)} pass(es) of {len(workload.cells)} cells")

    print(json.dumps({
        "correct": failed == 0 and not unsteady,
        "attempted": sum(len(results) for results, _ in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
