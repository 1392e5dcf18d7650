"""Ablation studies on the design choices DESIGN.md calls out.

Not part of the paper's tables, but they justify its algorithmic
choices quantitatively:

* **Ω.I tier ablation** — step counts with (a) push-up only, (b) the
  paper's case-restricted Ω.I extension (Sec. III-C3), (c) the full
  Alg. 4 machinery (unrestricted base rule + case extension +
  coordinated level clearing), and (d) tier (c) plus simulated-annealing
  complement placement, isolating how much of the step reduction comes
  from complement management vs pure depth optimization — and how close
  the greedy schedule already is to an annealed global search.
  ``parity`` is included as the control: XOR-tree complements are
  structurally irreducible, so no tier may beat the baseline there.
* **effort sweep** — how the step count converges with the cycle budget
  (the paper fixes effort = 40; we show where convergence happens).

Run:  pytest benchmarks/bench_ablation.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.benchmarks import load_mig
from repro.mig import (
    CostView,
    Realization,
    inverter_propagation_pass,
    optimize_steps,
    push_up,
    rram_costs,
)
from repro.mig import anneal_complements
from repro.mig.algorithms import clear_complemented_levels

CIRCUITS = ["x2", "cm162a", "sao2f1", "apex7", "cordic", "parity"]
CONTROL = "parity"  # XOR complements are irreducible


def _steps_with_tier(name: str, tier: str) -> int:
    mig = load_mig(name)
    view = CostView(mig)
    push_up(mig, use_relevance=False, view=view)
    if tier in ("cases", "full", "anneal"):
        if tier in ("full", "anneal"):
            inverter_propagation_pass(
                mig, Realization.MAJ, cases=None,
                steps_weight=8, rram_weight=1, view=view,
            )
        inverter_propagation_pass(
            mig, Realization.MAJ, cases=(1, 2, 3),
            steps_weight=8, rram_weight=1, view=view,
        )
        if tier in ("full", "anneal"):
            clear_complemented_levels(mig, Realization.MAJ, view=view)
        if tier == "anneal":
            anneal_complements(mig, Realization.MAJ, iterations=2500)
    push_up(mig, use_relevance=False, view=view)
    return rram_costs(mig, Realization.MAJ).steps


def test_inverter_tier_ablation(benchmark, capsys):
    """Steps with no Ω.I, case-restricted Ω.I, and the full machinery."""

    def sweep():
        return {
            name: (
                _steps_with_tier(name, "none"),
                _steps_with_tier(name, "cases"),
                _steps_with_tier(name, "full"),
                _steps_with_tier(name, "anneal"),
            )
            for name in CIRCUITS
        }

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print("Ω.I ablation (steps, MAJ realization)")
        print(
            f"{'circuit':<10s} {'no Ω.I':>8s} {'cases 1-3':>10s} "
            f"{'full':>8s} {'+anneal':>8s}"
        )
        for name, (none, cases, full, annealed) in rows.items():
            print(
                f"{name:<10s} {none:>8d} {cases:>10d} {full:>8d} "
                f"{annealed:>8d}"
            )

    for name, (none, cases, full, annealed) in rows.items():
        assert cases <= none, name
        assert full <= cases, name
        assert annealed <= full, name
    # Complement management must win somewhere, or Alg. 4's extra
    # machinery over plain depth optimization would be pointless.
    assert any(
        full < none for name, (none, _c, full, _a) in rows.items()
        if name != CONTROL
    )
    # ... and the control shows the structural limit: parity's XOR
    # complements cannot be eliminated, only relocated.
    control_none, _cases, control_full, control_annealed = rows[CONTROL]
    assert control_full == control_none
    assert control_annealed == control_none


def test_effort_sweep(benchmark, capsys):
    """Convergence of Alg. 4 with the cycle budget."""
    efforts = [1, 2, 4, 8, 16, 40]

    def sweep():
        table = {}
        for name in CIRCUITS:
            row = []
            for effort in efforts:
                mig = load_mig(name)
                optimize_steps(mig, Realization.MAJ, effort)
                row.append(rram_costs(mig, Realization.MAJ).steps)
            table[name] = row
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print("effort sweep (steps, Alg. 4, MAJ realization)")
        header = f"{'circuit':<10s}" + "".join(f" e={e:<4d}" for e in efforts)
        print(header)
        for name, row in table.items():
            print(f"{name:<10s}" + "".join(f" {s:<6d}" for s in row))

    for name, row in table.items():
        # Monotone non-increasing in effort, and converged by 40.
        assert all(a >= b for a, b in zip(row, row[1:])), name
        assert row[-1] == row[-2], name
