"""Smoke-time Alg. 3 and Alg. 4 (MAJ, effort 1) on scale-tier circuits.

For each named circuit (default ``wallace128``) this builds the MIG,
runs ``optimize_rram`` and ``optimize_steps`` with the MAJ realization
at effort 1 on a fresh copy each, and prints one line per run with its
seconds, R/S and move counts.  A run fails when it accepts no move or
when the optimized MIG no longer matches the source netlist; the
script then exits 1.

    PYTHONPATH=src python benchmarks/scale_alg34.py [name ...]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.benchmarks.scale import load_scale_netlist, scale_names
from repro.mig import Realization, rram_costs
from repro.mig.algorithms import optimize_rram, optimize_steps
from repro.mig.build import mig_from_netlist
from repro.mig.equivalence import mig_matches_netlist

FLOWS = (("alg3", optimize_rram), ("alg4", optimize_steps))
EFFORT = 1


def run(name: str) -> bool:
    """Run both flows on ``name``; True when every run passes."""
    netlist = load_scale_netlist(name)
    base = mig_from_netlist(netlist)
    ok = True
    for label, optimizer in FLOWS:
        mig = base.clone()
        start = time.perf_counter()
        outcome = optimizer(mig, Realization.MAJ, EFFORT)
        seconds = time.perf_counter() - start
        profile = outcome.profile or {}
        costs = rram_costs(mig, Realization.MAJ)
        problems = []
        if not profile.get("moves_accepted"):
            problems.append("accepted no move")
        if not mig_matches_netlist(mig, netlist):
            problems.append("differs from the netlist")
        ok = ok and not problems
        print(
            f"{name:<11s} {label} maj effort={EFFORT} "
            f"seconds={seconds:.2f} R={costs.rrams} S={costs.steps} "
            f"moves_tried={profile.get('moves_tried', 0)} "
            f"moves_accepted={profile.get('moves_accepted', 0)}"
            + (f" FAIL: {', '.join(problems)}" if problems else ""),
            flush=True,
        )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "names",
        nargs="*",
        default=["wallace128"],
        help=f"scale circuits (from: {', '.join(scale_names())})",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in scale_names()]
    if unknown:
        parser.error(f"unknown scale circuit(s): {', '.join(unknown)}")
    results = [run(name) for name in args.names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
