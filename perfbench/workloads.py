"""The three workloads and their seeded inputs.

Every draw is a pure function of the workload name and the seed.  The
circuit facts used to stratify and balance draws are fixed tables in
this file, measured once on the current code (see README.md), so a
change to the program never changes which inputs a seed selects.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from cells import FLOWS, Cell

WORKLOADS = ("table2", "scale", "crossbar")

#: The paper's setting (Sec. IV); flows converge in about three cycles.
PAPER_EFFORT = 40
#: Scale cells run one optimizer cycle: on 5–17k-gate graphs that is
#: already 1.5–9 s per cell and 6k–11k tried moves.
SCALE_EFFORT = 1

#: The scale tier's random-logic circuit (about 5.8k MIG gates); only
#: its seed comes from the workload seed.
SYNTHETIC_SHAPE = dict(num_inputs=128, num_outputs=64, num_gates=4000,
                       bandwidth=5.0, target_depth=16)

# Table II circuits: MIG gates after ``mig_from_netlist``, and per
# circuit over the six flows at effort 40: Alg. 3 cell seconds, Alg. 4
# cell seconds, all-cell seconds, ΣR and ΣS.
TABLE2_FACTS: Dict[str, Tuple[int, float, float, float, int, int]] = {
    "t481": (29, 0.02, 0.01, 0.04, 384, 340),
    "parity": (45, 0.03, 0.02, 0.06, 512, 392),
    "cm150a": (46, 0.08, 0.03, 0.15, 539, 438),
    "clip": (60, 0.09, 0.04, 0.17, 391, 215),
    "5xp1": (74, 0.33, 0.14, 0.54, 484, 994),
    "x2": (113, 0.23, 0.09, 0.39, 462, 741),
    "cm162a": (124, 0.33, 0.22, 0.65, 595, 858),
    "cm163a": (129, 0.37, 0.13, 0.59, 639, 723),
    "alu4": (168, 0.37, 0.17, 0.68, 1053, 777),
    "misex1": (170, 0.45, 0.15, 0.71, 688, 1024),
    "b9": (346, 1.18, 0.65, 2.08, 850, 1182),
    "cordic": (466, 1.05, 0.41, 1.72, 2239, 1216),
    "apex7": (604, 1.78, 0.87, 3.22, 1220, 1405),
    "too_large": (643, 1.44, 0.55, 2.39, 3191, 1101),
    "apex2": (779, 2.36, 0.8, 3.76, 3690, 1243),
    "x1": (892, 2.78, 1.19, 4.66, 2164, 1417),
    "x4": (1348, 5.23, 2.54, 9.34, 2972, 1454),
    "x3": (1599, 5.9, 1.98, 9.16, 3070, 1525),
    "misex3": (1637, 3.71, 2.13, 7.05, 5481, 1379),
    "apex5": (1763, 4.31, 1.66, 7.2, 4070, 1420),
    "apex6": (1793, 5.07, 2.08, 8.53, 3626, 1555),
    "apex1": (1840, 7.02, 2.64, 11.44, 4386, 1532),
    "table5": (1854, 5.47, 2.25, 9.11, 6008, 1526),
    "apex4": (1961, 5.82, 2.09, 9.54, 7240, 1363),
    "seq": (2501, 6.5, 2.81, 10.93, 7831, 1432),
}

#: Gate-count strata of the Table II draw and how many circuits each
#: contributes; every draw spans small, mid-size and ≥1.5k-gate circuits.
TABLE2_STRATA: Sequence[Tuple[int, int, int]] = (
    (0, 300, 3),
    (300, 1500, 2),
    (1500, 10**9, 2),
)

# Crossbar circuits: layout blocks of the Alg. 4 IMP program (the
# refine cutover compares this with 600), and per circuit over the
# three mapped flows: all-cell seconds, ΣR, ΣS and Σ parallel steps.
CROSSBAR_FACTS: Dict[str, Tuple[int, float, int, int, int]] = {
    "t481": (30, 0.15, 168, 121, 84),
    "clip": (42, 0.24, 184, 70, 56),
    "parity": (46, 0.24, 224, 140, 102),
    "cm150a": (47, 0.29, 248, 156, 105),
    "x2": (124, 1.2, 204, 264, 174),
    "5xp1": (135, 1.13, 206, 349, 224),
    "cm163a": (164, 1.87, 291, 255, 177),
    "cm162a": (173, 2.32, 264, 303, 205),
    "alu4": (196, 3.15, 467, 276, 183),
    "misex1": (208, 3.3, 328, 337, 230),
    "b9": (409, 11.33, 365, 418, 281),
    "apex7": (685, 5.75, 530, 504, 324),
}

#: The crossbar draw: two fixed circuits on either side of the
#: 600-block refine cutover, and five seeded small refined programs.
#: The other mid-size candidates (cordic 533 blocks, too_large 736,
#: apex2 969, x1 1047) differ from these two by up to 2x in mapping
#: time and 3x in devices, which no balanced draw of one pass absorbs;
#: circuits above 1,300 blocks take 20–50 s each to map.
CROSSBAR_FIXED = ("b9", "apex7")
CROSSBAR_STRATA: Sequence[Tuple[int, int, int]] = ((0, 300, 5),)

CROSSBAR_FLOWS = ("step_imp", "step_maj", "rram_maj")
SCALE_FLOWS = ("step_maj", "rram_maj")


@dataclass
class Workload:
    """A drawn workload: its cells and how to build their inputs."""

    name: str
    seed: int
    circuits: List[str]  # for the log line
    cells: List[Cell]
    make_inputs: Callable[[], Dict[str, object]]


def balanced_draw(
    rng: random.Random,
    facts: Dict[str, tuple],
    strata: Sequence[Tuple[int, int, int]],
    tolerance: float,
    fixed: Sequence[str] = (),
) -> List[str]:
    """Draw ``count`` circuits from each stratum of ``facts`` (keyed on
    column 0 in ``[low, high)``) next to the ``fixed`` ones, redrawing
    until every other column sums to within ``tolerance`` of its
    stratified mean, so every draw carries about the same work and cost.

    The tolerance doubles every 10,000 rejections, so a draw always ends.
    """
    groups = [
        (sorted(n for n, row in facts.items() if low <= row[0] < high), count)
        for low, high, count in strata
    ]
    balance = range(1, len(next(iter(facts.values()))))
    targets = [
        sum(facts[name][column] for name in fixed)
        + sum(
            count * statistics.fmean(facts[name][column] for name in names)
            for names, count in groups
        )
        for column in balance
    ]
    attempt = 0
    while True:
        chosen = [*fixed] + [
            name for names, count in groups for name in sorted(rng.sample(names, count))
        ]
        limit = tolerance * 2 ** (attempt // 10000)
        if all(
            abs(sum(facts[name][column] for name in chosen) / target - 1) <= limit
            for column, target in zip(balance, targets)
        ):
            return chosen
        attempt += 1


def _corpus_inputs(names: Sequence[str]) -> Callable[[], Dict[str, object]]:
    def make() -> Dict[str, object]:
        from repro.benchmarks import benchmark

        return {name: benchmark(name).builder() for name in names}

    return make


def _scale_inputs(synthetic_seed: int) -> Callable[[], Dict[str, object]]:
    def make() -> Dict[str, object]:
        from repro.benchmarks import SyntheticSpec, wallace_multiplier_netlist
        from repro.benchmarks.builders import adder_netlist

        spec = SyntheticSpec("synthetic", seed=synthetic_seed, **SYNTHETIC_SHAPE)
        return {
            "wallace32": wallace_multiplier_netlist(32, name="wallace32"),
            "rca768": adder_netlist(768, name="rca768"),
            "synthetic": spec.build(),
        }

    return make


def draw(name: str, seed: int) -> Workload:
    """The workload ``name`` drawn with ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "table2":
        circuits = balanced_draw(rng, TABLE2_FACTS, TABLE2_STRATA, 0.03)
        cells = [
            Cell(circuit, flow, PAPER_EFFORT)
            for circuit in circuits
            for flow in FLOWS
        ]
        return Workload(name, seed, circuits, cells, _corpus_inputs(circuits))
    if name == "crossbar":
        circuits = balanced_draw(
            rng, CROSSBAR_FACTS, CROSSBAR_STRATA, 0.04, CROSSBAR_FIXED
        )
        cells = [
            Cell(circuit, flow, PAPER_EFFORT, map=True)
            for circuit in circuits
            for flow in CROSSBAR_FLOWS
        ]
        return Workload(name, seed, circuits, cells, _corpus_inputs(circuits))
    if name == "scale":
        synthetic_seed = rng.getrandbits(32)
        cells = [
            Cell(circuit, flow, SCALE_EFFORT, need_moves=True)
            for circuit in ("wallace32", "rca768", "synthetic")
            for flow in SCALE_FLOWS
        ]
        circuits = ["wallace32", "rca768", f"synthetic(seed={synthetic_seed})"]
        return Workload(name, seed, circuits, cells, _scale_inputs(synthetic_seed))
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
