"""The graph walks that decide on a region stay exact.

``Mig._in_cone`` prunes by topological rank, ``Mig.po_refs`` reads a
reverse index and ``Mig.cone_nodes`` stops at a size limit.  Each is
checked here against the unpruned whole-graph walk it replaces, kept
in this file only, over random MIGs driven through random axiom
rewrites, substitutions, PO redirections and nested
checkpoint/rollback/commit/compact.
"""

import random
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mig import Mig, MigError, node_levels, signal_node, signal_not
from repro.mig.rewrite import (
    apply_associativity,
    apply_complementary_associativity,
    apply_distributivity_lr,
    apply_distributivity_rl,
    apply_inverter_propagation,
    apply_relevance,
)


def random_mig(seed: int, num_pis: int = 5, num_gates: int = 16) -> Mig:
    rng = random.Random(seed)
    mig = Mig(f"prim{seed}")
    signals = [mig.add_pi() for _ in range(num_pis)] + [0]
    for _ in range(num_gates):
        picks = []
        while len(picks) < 3:
            s = signals[rng.randrange(len(signals))]
            if rng.random() < 0.4:
                s = signal_not(s)
            picks.append(s)
        signals.append(mig.make_maj(*picks))
    for _ in range(4):
        s = signals[rng.randrange(len(signals) // 2, len(signals))]
        if rng.random() < 0.3:
            s = signal_not(s)
        mig.add_po(s)
    return mig


# ----------------------------------------------------------------------
# Unpruned references
# ----------------------------------------------------------------------


def reference_in_cone(mig: Mig, node: int, target: int) -> bool:
    """Whole-cone DFS with no rank pruning."""
    if node == target:
        return True
    stack = [node]
    seen = {node}
    while stack:
        triple = mig._children[stack.pop()]
        if triple is None:
            continue
        for s in triple:
            child = signal_node(s)
            if child == target:
                return True
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def reference_cone(mig: Mig, signal: int) -> List[int]:
    """Whole-cone post-order DFS with no size limit."""
    root = signal_node(signal)
    if not mig.is_gate(root):
        return []
    visited = set()
    order: List[int] = []
    stack = [(root, 0)]
    while stack:
        node, child_index = stack.pop()
        if node in visited:
            continue
        triple = mig.children(node)
        for i in range(child_index, 3):
            child = signal_node(triple[i])
            if child not in visited and mig.is_gate(child):
                stack.append((node, i + 1))
                stack.append((child, 0))
                break
        else:
            visited.add(node)
            order.append(node)
    return order


def po_scan(mig: Mig, node: int) -> List[int]:
    return [i for i, s in enumerate(mig.pos) if signal_node(s) == node]


# ----------------------------------------------------------------------
# Random mutation driver
# ----------------------------------------------------------------------


REWRITES = [
    lambda mig, node, levels: apply_distributivity_rl(mig, node, force=True),
    apply_distributivity_lr,
    lambda mig, node, levels: apply_associativity(
        mig, node, levels, allow_neutral=True
    ),
    apply_complementary_associativity,
    lambda mig, node, levels: apply_inverter_propagation(mig, node),
    apply_relevance,
]


def mutate(mig: Mig, rng: random.Random) -> None:
    """One random edit: an axiom rewrite, a (function-changing but
    legal) substitution, a PO redirection or a fresh gate."""
    nodes = mig.reachable_nodes()
    choice = rng.randrange(5)
    if choice <= 1 and nodes:
        node = nodes[rng.randrange(len(nodes))]
        REWRITES[rng.randrange(len(REWRITES))](mig, node, node_levels(mig))
    elif choice == 2 and nodes:
        node = nodes[rng.randrange(len(nodes))]
        child = mig.children(node)[rng.randrange(3)]
        mig.substitute(node, child)
    elif choice == 3:
        pool = [p << 1 for p in mig.pis] + [n << 1 for n in nodes] + [0]
        s = pool[rng.randrange(len(pool))]
        mig.set_po(rng.randrange(mig.num_pos), s ^ rng.randrange(2))
    else:
        pool = [p << 1 for p in mig.pis] + [n << 1 for n in nodes]
        picks = [pool[rng.randrange(len(pool))] ^ rng.randrange(2)
                 for _ in range(3)]
        mig.make_maj(*picks)


def check_walks(mig: Mig, rng: random.Random) -> None:
    """Every walk agrees with its unpruned reference."""
    mig.check_invariants()
    allocated = range(mig.num_nodes_allocated)
    gates = [n for n in allocated if mig.is_gate(n)]
    for node in gates:
        for target in allocated:
            assert mig._in_cone(node, target) == reference_in_cone(
                mig, node, target
            ), (node, target)
    for node in allocated:
        assert mig.po_refs(node) == po_scan(mig, node)
    for node in allocated:
        full = reference_cone(mig, node << 1)
        assert mig.cone_nodes(node << 1) == full
        limit = rng.randrange(0, len(full) + 3)
        bounded: Optional[List[int]] = mig.cone_nodes(node << 1, limit)
        if len(full) > limit:
            assert bounded is None, (node, limit, full)
        else:
            assert bounded == full, (node, limit)


class TestWalksMatchReferences:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_under_rewrites_and_nested_transactions(self, seed, edit_seed):
        mig = random_mig(seed)
        rng = random.Random(edit_seed)
        tokens: List[int] = []
        for _ in range(14):
            action = rng.random()
            if action < 0.2 and len(tokens) < 3:
                tokens.append(mig.checkpoint())
            elif action < 0.35 and tokens:
                mig.rollback(tokens.pop())
                if rng.random() < 0.5:
                    mig.compact()
            elif action < 0.45 and tokens:
                mig.commit(tokens.pop())
            elif action < 0.5:
                mig.compact()
            else:
                try:
                    mutate(mig, rng)
                except MigError:
                    pass  # a refused edit leaves the graph as it was
            check_walks(mig, rng)
        while tokens:
            mig.rollback(tokens.pop())
            check_walks(mig, rng)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_clone_and_copy_from_rebuild_ranks_and_index(self, seed):
        mig = random_mig(seed)
        rng = random.Random(seed)
        for _ in range(6):
            try:
                mutate(mig, rng)
            except MigError:
                pass
        copy = mig.clone()
        check_walks(copy, rng)
        token = mig.checkpoint()
        mig.copy_from(copy)
        check_walks(mig, rng)
        mig.rollback(token)
        check_walks(mig, rng)


class TestCyclesStillRaise:
    def build(self):
        mig = Mig("cyc")
        x, y, z, w = (mig.add_pi() for _ in range(4))
        low = mig.make_maj(x, y, z)
        high = mig.make_maj(low, x, w)
        mig.add_po(high)
        return mig, (x, y, z, w), low, high

    def test_substitute_by_own_fanout_raises(self):
        mig, _pis, low, high = self.build()
        with pytest.raises(MigError):
            mig.substitute(signal_node(low), high)
        mig.check_invariants()

    def test_replace_children_with_own_fanout_raises(self):
        mig, (x, y, _z, _w), low, high = self.build()
        with pytest.raises(MigError):
            mig.replace_node_children(signal_node(low), (high, x, y))
        mig.check_invariants()

    def test_cycle_found_when_ids_are_not_topological(self):
        """A low-id gate re-pointed at a newer gate ranks above it; the
        pruned check must still see the cycle through it."""
        mig, (x, y, z, w), low, high = self.build()
        newer = mig.make_maj(x, signal_not(y), w)
        top = mig.make_maj(low, newer, z)
        mig.add_po(top)
        # ``low`` (old id) now sits above ``newer`` (new id).
        assert mig.replace_node_children(
            signal_node(low), (newer, y, z)
        ) is None
        mig.check_invariants()
        assert mig._in_cone(signal_node(low), signal_node(newer))
        with pytest.raises(MigError):
            mig.substitute(signal_node(newer), low)
        with pytest.raises(MigError):
            mig.replace_node_children(signal_node(newer), (low, x, w))
        mig.check_invariants()


class TestRanksAfterRollback:
    def test_reattached_parent_rises_above_a_raised_child(self):
        """Rollback keeps ranks raised inside the transaction, so a
        parent it re-attaches must be raised above them again."""
        mig = Mig("rank")
        x, y, z, w = (mig.add_pi() for _ in range(4))
        a = mig.make_maj(x, y, z)
        parent = mig.make_maj(a, x, w)
        b = mig.make_maj(x, y, w)
        q = mig.make_maj(b, x, z)
        mig.add_po(parent)
        mig.add_po(q)
        token = mig.checkpoint()
        assert mig.replace_node_children(
            signal_node(parent), (x, signal_not(y), w)
        ) is None
        assert mig.replace_node_children(signal_node(a), (q, y, w)) is None
        mig.rollback(token)
        mig.check_invariants()
        assert mig.children(signal_node(parent)) == tuple(sorted((a, x, w)))
        rng = random.Random(0)
        check_walks(mig, rng)


class TestConeLimit:
    def test_limit_edges(self):
        mig = random_mig(3)
        root = mig.pos[0]
        full = mig.cone_nodes(root)
        assert mig.cone_nodes(root, len(full)) == full
        if full:
            assert mig.cone_nodes(root, len(full) - 1) is None
            assert mig.cone_nodes(root, 0) is None
        assert mig.cone_nodes(mig.pis[0] << 1, 0) == []
