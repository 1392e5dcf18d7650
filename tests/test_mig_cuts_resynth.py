"""Tests for cut enumeration, MFFC, resynthesis, and cut rewriting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mig import (
    EquivalenceGuard,
    Mig,
    cut_function,
    cut_rewrite,
    enumerate_cuts,
    mffc_size,
    mig_from_truth_tables,
    optimize_area_plus,
    signal_node,
    signal_not,
    synthesize_table,
)
from repro.truth import TruthTable, table_mask, ternary_majority


def chain_mig():
    """f = M(M(M(a,b,c), d, e), a, b) — a 3-node chain."""
    mig = Mig("chain")
    a, b, c, d, e = (mig.add_pi(n) for n in "abcde")
    n1 = mig.make_maj(a, b, c)
    n2 = mig.make_maj(n1, d, e)
    n3 = mig.make_maj(n2, a, b)
    mig.add_po(n3)
    return mig, (n1, n2, n3)


class TestCutEnumeration:
    def test_trivial_cut_first(self):
        mig, (n1, n2, n3) = chain_mig()
        cuts = enumerate_cuts(mig)
        for node in (n1, n2, n3):
            assert cuts[signal_node(node)][0] == frozenset(
                (signal_node(node),)
            )

    def test_leaf_cut_present(self):
        mig, (n1, n2, n3) = chain_mig()
        cuts = enumerate_cuts(mig, cut_size=5)
        pis = set(mig.pis)
        # The PI cut of the root covers all five inputs.
        assert any(cut <= pis and len(cut) == 5 for cut in cuts[signal_node(n3)])

    def test_cut_size_respected(self):
        mig, (_n1, _n2, n3) = chain_mig()
        for k in (2, 3, 4):
            cuts = enumerate_cuts(mig, cut_size=k)
            assert all(
                len(cut) <= k or cut == frozenset((signal_node(n3),))
                for cut in cuts[signal_node(n3)]
            )

    def test_dominated_cuts_pruned(self):
        mig, (_n1, _n2, n3) = chain_mig()
        cuts = enumerate_cuts(mig)
        node_cuts = cuts[signal_node(n3)]
        for i, cut_a in enumerate(node_cuts):
            for cut_b in node_cuts[i + 1 :]:
                assert not (cut_a < cut_b), "dominated cut survived"


class TestCutFunction:
    def test_single_gate(self, maj3_mig):
        (node,) = maj3_mig.reachable_nodes()
        leaves = sorted(maj3_mig.pis)
        table = cut_function(maj3_mig, node, leaves)
        a, b, c = (TruthTable.variable(3, i) for i in range(3))
        assert table == ternary_majority(a, b, c)

    def test_complemented_edges(self):
        mig = Mig()
        a, b = mig.add_pi(), mig.add_pi()
        f = mig.make_and(signal_not(a), b)
        mig.add_po(f)
        table = cut_function(mig, signal_node(f), sorted(mig.pis))
        va, vb = TruthTable.variable(2, 0), TruthTable.variable(2, 1)
        assert table == (~va & vb)

    def test_escaping_cone_rejected(self):
        mig, (n1, _n2, n3) = chain_mig()
        with pytest.raises(ValueError):
            # Cut excludes part of the cone.
            cut_function(mig, signal_node(n3), [signal_node(n1)])


class TestMffc:
    def test_chain_mffc_is_whole_cone(self):
        mig, (n1, n2, n3) = chain_mig()
        assert mffc_size(mig, signal_node(n3), mig.pis) == 3

    def test_shared_node_excluded(self):
        mig = Mig()
        a, b, c, d = (mig.add_pi() for _ in range(4))
        shared = mig.make_maj(a, b, c)
        top = mig.make_maj(shared, d, a)
        other = mig.make_maj(shared, b, d)  # second fanout of `shared`
        mig.add_po(top)
        mig.add_po(other)
        assert mffc_size(mig, signal_node(top), mig.pis) == 1

    def test_po_reference_excluded(self):
        mig, (n1, n2, n3) = chain_mig()
        mig.add_po(n2)  # n2 now observable: only n3 dies
        assert mffc_size(mig, signal_node(n3), mig.pis) == 1


class TestResynthesis:
    @given(st.integers(0, table_mask(4)))
    @settings(max_examples=120, deadline=None)
    def test_synthesizes_any_4var_function(self, bits):
        table = TruthTable(4, bits)
        mig = Mig()
        leaves = [mig.add_pi() for _ in range(4)]
        root = synthesize_table(mig, table, leaves)
        mig.add_po(root)
        assert mig.truth_tables() == [table]

    def test_majority_recognized_natively(self):
        table = TruthTable.from_function(3, lambda i: sum(i) >= 2)
        mig = Mig()
        leaves = [mig.add_pi() for _ in range(3)]
        mig.add_po(synthesize_table(mig, table, leaves))
        assert mig.num_gates() == 1  # a single M node, not a mux tree

    def test_xor_recognized(self):
        table = TruthTable.from_function(3, lambda i: sum(i) % 2 == 1)
        mig = Mig()
        leaves = [mig.add_pi() for _ in range(3)]
        mig.add_po(synthesize_table(mig, table, leaves))
        assert mig.num_gates() <= 6  # two XORs at 3 nodes each

    def test_mixed_polarity_majority(self):
        table = TruthTable.from_function(
            3, lambda i: (i[0] and not i[1]) or (i[0] and i[2])
            or (not i[1] and i[2])
        )  # M(x, !y, z)
        mig = Mig()
        leaves = [mig.add_pi() for _ in range(3)]
        mig.add_po(synthesize_table(mig, table, leaves))
        assert mig.num_gates() == 1

    def test_leaf_arity_checked(self):
        mig = Mig()
        a = mig.add_pi()
        with pytest.raises(ValueError):
            synthesize_table(mig, TruthTable.constant(2, True), [a])

    def test_complemented_leaves(self):
        table = TruthTable.from_function(2, lambda i: i[0] and i[1])
        mig = Mig()
        a, b = mig.add_pi(), mig.add_pi()
        root = synthesize_table(mig, table, [signal_not(a), b])
        mig.add_po(root)
        va, vb = TruthTable.variable(2, 0), TruthTable.variable(2, 1)
        assert mig.truth_tables() == [~va & vb]


class TestCutRewrite:
    def test_preserves_function(self):
        from repro.truth import nine_sym_function

        mig = mig_from_truth_tables(nine_sym_function(), "9sym")
        guard = EquivalenceGuard(mig)
        cut_rewrite(mig)
        guard.verify_or_raise()
        mig.check_invariants()

    def test_rewrites_redundant_mux_tree(self):
        # A mux tree computing plain majority must collapse to 1 node.
        mig = Mig()
        a, b, c = (mig.add_pi() for _ in range(3))
        root = mig.make_mux(a, mig.make_or(b, c), mig.make_and(b, c))
        mig.add_po(root)
        assert mig.num_gates() == 5  # or, and, two and-legs, final or
        assert cut_rewrite(mig)
        assert mig.num_gates() == 1

    def test_never_grows(self):
        random_gen = random.Random(7)
        for seed in range(6):
            mig = Mig()
            signals = [mig.add_pi() for _ in range(5)] + [0]
            for _ in range(15):
                picks = [
                    signals[random_gen.randrange(len(signals))] ^ (
                        1 if random_gen.random() < 0.4 else 0
                    )
                    for _ in range(3)
                ]
                signals.append(mig.make_maj(*picks))
            mig.add_po(signals[-1])
            mig.add_po(signals[-3])
            before = mig.num_gates()
            guard = EquivalenceGuard(mig)
            cut_rewrite(mig)
            guard.verify_or_raise()
            assert mig.num_gates() <= before

    def test_optimize_area_plus_never_worse(self):
        from repro.benchmarks import load_mig

        mig = load_mig("misex1")
        guard = EquivalenceGuard(mig, num_vectors=256)
        result = optimize_area_plus(mig, 4)
        guard.verify_or_raise()
        assert result.final_size <= result.initial_size


class TestSweepDead:
    def test_sweep_removes_rejected_candidates(self, maj3_mig):
        a = maj3_mig.pis[0] << 1
        b = maj3_mig.pis[1] << 1
        dead = maj3_mig.make_maj(signal_not(a), signal_not(b), 1)
        dead_node = signal_node(dead)
        assert maj3_mig.is_gate(dead_node)
        swept = maj3_mig.sweep_dead()
        assert swept == 1
        assert not maj3_mig.is_gate(dead_node)
        assert maj3_mig.num_gates() == 1

    def test_sweep_keeps_live(self, maj3_mig):
        assert maj3_mig.sweep_dead() == 0
        assert maj3_mig.num_gates() == 1
        maj3_mig.check_invariants()


class TestSubstituteCascadeRegression:
    def test_redirection_chains_resolve(self):
        """Regression: a cascade that merges the *target* of an earlier
        redirection must not leave live parents pointing at detached
        nodes (found by cut rewriting on apex7)."""
        random_gen = random.Random(0xBEEF)
        for seed in range(12):
            mig = Mig()
            signals = [mig.add_pi() for _ in range(5)] + [0, 1]
            for _ in range(18):
                picks = [
                    signals[random_gen.randrange(len(signals))]
                    ^ (1 if random_gen.random() < 0.5 else 0)
                    for _ in range(3)
                ]
                signals.append(mig.make_maj(*picks))
            for s in signals[-4:]:
                mig.add_po(s)
            guard = EquivalenceGuard(mig)
            cut_rewrite(mig, allow_zero_gain=True, max_rounds=3)
            guard.verify_or_raise()
            # Every live node's children must be alive.
            for node in mig.reachable_nodes():
                for child in mig.children(node):
                    child_node = signal_node(child)
                    assert (
                        child_node == 0
                        or mig.is_pi(child_node)
                        or mig.is_gate(child_node)
                    ), f"dangling child {child_node}"


class TestOptimizeRramPlus:
    def test_preserves_function_and_contract(self):
        from repro.benchmarks import load_mig
        from repro.mig import (
            Realization,
            optimize_rram_plus,
            optimize_steps,
            rram_costs,
        )

        probe = load_mig("misex1")
        optimize_steps(probe, Realization.MAJ, 16)
        star = rram_costs(probe, Realization.MAJ)

        mig = load_mig("misex1")
        guard = EquivalenceGuard(mig, num_vectors=256)
        optimize_rram_plus(mig, Realization.MAJ, 6)
        guard.verify_or_raise()
        after = rram_costs(mig, Realization.MAJ)
        assert after.rrams <= star.rrams
        assert after.steps <= int(star.steps * 1.45) + 1

    def test_reports_the_input_and_counts_the_probe(self):
        """On clip the step probe beats the input, so the run starts
        from the probe; the result must still report the input's size
        and depth and count the probe's cycles, as ``optimize_rram``
        does."""
        from repro.benchmarks import load_mig
        from repro.mig import (
            Realization,
            level_stats,
            optimize_rram,
            optimize_rram_plus,
            optimize_steps,
        )

        before = level_stats(load_mig("clip"))
        probe = optimize_steps(load_mig("clip"), Realization.MAJ, 2)
        plus = optimize_rram_plus(load_mig("clip"), Realization.MAJ, 2)
        assert (plus.initial_size, plus.initial_depth) == (
            before.size,
            before.depth,
        )
        assert plus.cycles_run == len(plus.history) + probe.cycles_run
        rram = optimize_rram(
            load_mig("clip"), Realization.MAJ, 2, step_budget_factor=1.45
        )
        assert (rram.initial_size, rram.initial_depth) == (
            plus.initial_size,
            plus.initial_depth,
        )
