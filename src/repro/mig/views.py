"""Level and cost views over an MIG.

Implements the cost model of paper Table I:

* ``R = max_i (K_R * N_i + C_i)`` — number of RRAM devices, where
  ``N_i`` is the number of gate nodes in level *i* and ``C_i`` the
  number of ingoing complemented edges of level *i*;
* ``S = K_S * D + L`` — number of sequential computational steps, where
  ``D`` is the MIG depth and ``L`` the number of levels that have at
  least one ingoing complemented edge;
* IMP realization: ``K_R = 6``, ``K_S = 10``;
  MAJ realization: ``K_R = 4``, ``K_S = 3``.

Conventions (documented in DESIGN.md §5):

* complemented edges to the *constant* node do not count toward ``C``
  (loading a 1 instead of a 0 is free at data-load time; ``OR`` gates
  would otherwise be charged a phantom inverter);
* complemented edges from primary inputs *do* count (the paper's
  MAJ-gadget spends step 2 inverting an input);
* complemented primary-output edges form a virtual level above the
  graph: they contribute one extra entry to ``L`` and a ``C``-only
  term to the ``R`` maximization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .graph import Mig, signal_is_complemented, signal_node


class Realization(enum.Enum):
    """RRAM realization style of a majority gate (paper Sec. III-A)."""

    IMP = "imp"
    MAJ = "maj"

    @property
    def rrams_per_gate(self) -> int:
        """``K_R``: RRAM devices per majority gate."""
        return 6 if self is Realization.IMP else 4

    @property
    def steps_per_level(self) -> int:
        """``K_S``: computational steps per MIG level."""
        return 10 if self is Realization.IMP else 3


@dataclass(frozen=True)
class LevelStats:
    """Structural statistics of one MIG, grouped by level."""

    depth: int
    size: int
    nodes_per_level: Tuple[int, ...]  # index 1..depth (index 0 unused)
    complements_per_level: Tuple[int, ...]  # same indexing
    po_complements: int  # complemented primary-output edges
    node_levels: Dict[int, int] = field(hash=False, compare=False, default_factory=dict)

    @property
    def levels_with_complements(self) -> int:
        """``L``: levels with at least one ingoing complemented edge."""
        count = sum(1 for c in self.complements_per_level[1:] if c > 0)
        if self.po_complements > 0:
            count += 1
        return count

    def rram_count(self, realization: Realization) -> int:
        """``R = max_i (K_R * N_i + C_i)`` over all levels (Table I)."""
        k = realization.rrams_per_gate
        best = 0
        for level in range(1, self.depth + 1):
            best = max(
                best,
                k * self.nodes_per_level[level]
                + self.complements_per_level[level],
            )
        best = max(best, self.po_complements)
        return best

    def step_count(self, realization: Realization) -> int:
        """``S = K_S * D + L`` (Table I)."""
        return realization.steps_per_level * self.depth + self.levels_with_complements

    def critical_level(self, realization: Realization) -> int:
        """The level index achieving the ``R`` maximum."""
        k = realization.rrams_per_gate
        best_level, best_value = 0, -1
        for level in range(1, self.depth + 1):
            value = (
                k * self.nodes_per_level[level]
                + self.complements_per_level[level]
            )
            if value > best_value:
                best_level, best_value = level, value
        return best_level


@dataclass(frozen=True)
class RramCosts:
    """The two paper cost metrics for one realization, plus context."""

    realization: Realization
    rrams: int
    steps: int
    depth: int
    size: int
    levels_with_complements: int

    def as_row(self) -> Tuple[int, int]:
        """``(R, S)`` — the two columns the paper tables report."""
        return (self.rrams, self.steps)


def node_levels(mig: Mig) -> Dict[int, int]:
    """Map every live gate node to its level (PIs/constant are level 0)."""
    levels: Dict[int, int] = {0: 0}
    for pi in mig.pis:
        levels[pi] = 0
    for node in mig.reachable_nodes():
        levels[node] = 1 + max(
            levels[signal_node(s)] for s in mig.children(node)
        )
    return levels


def level_stats(mig: Mig) -> LevelStats:
    """Compute the per-level statistics that drive the Table I model."""
    levels: Dict[int, int] = {0: 0}
    for pi in mig.pis:
        levels[pi] = 0
    live = mig.reachable_nodes()
    for node in live:
        levels[node] = 1 + max(
            levels[signal_node(s)] for s in mig.children(node)
        )
    depth = 0
    for po in mig.pos:
        depth = max(depth, levels.get(signal_node(po), 0))
    nodes_per_level = [0] * (depth + 1)
    complements_per_level = [0] * (depth + 1)
    for node in live:
        level = levels[node]
        nodes_per_level[level] += 1
        for child in mig.children(node):
            if signal_is_complemented(child) and signal_node(child) != 0:
                complements_per_level[level] += 1
    po_complements = sum(
        1
        for po in mig.pos
        if signal_is_complemented(po) and signal_node(po) != 0
    )
    return LevelStats(
        depth=depth,
        size=len(live),
        nodes_per_level=tuple(nodes_per_level),
        complements_per_level=tuple(complements_per_level),
        po_complements=po_complements,
        node_levels=levels,
    )


def rram_costs(mig: Mig, realization: Realization) -> RramCosts:
    """Evaluate the full Table I cost model for one realization."""
    stats = level_stats(mig)
    return RramCosts(
        realization=realization,
        rrams=stats.rram_count(realization),
        steps=stats.step_count(realization),
        depth=stats.depth,
        size=stats.size,
        levels_with_complements=stats.levels_with_complements,
    )


def node_heights(mig: Mig) -> Dict[int, int]:
    """Map every live gate node to its height (distance to a PO driver).

    A node directly driving a PO has height 0; heights grow toward the
    inputs.  ``level + height == depth`` identifies critical-path nodes.
    """
    heights: Dict[int, int] = {}
    order = mig.reachable_nodes()
    for node in order:
        heights[node] = 0
    for node in reversed(order):
        h = heights[node]
        for child in mig.children(node):
            child_node = signal_node(child)
            if child_node in heights and heights[child_node] < h + 1:
                heights[child_node] = h + 1
    return heights


def critical_nodes(mig: Mig) -> List[int]:
    """Live gate nodes lying on at least one longest PI→PO path."""
    levels = node_levels(mig)
    heights = node_heights(mig)
    depth = 0
    for po in mig.pos:
        depth = max(depth, levels.get(signal_node(po), 0))
    return [
        node
        for node in mig.reachable_nodes()
        if levels[node] + heights[node] == depth
    ]
