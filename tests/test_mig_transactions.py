"""Transactional mutation engine tests.

The undo journal must restore graph content *exactly* (children,
fanout, strash, POs) under arbitrary interleavings of mutations with
nested checkpoint/commit/rollback, keep an attached CostView
consistent, and — audited against whole-graph snapshots by the fuzz
oracle's ``tx_audit`` — restore every checkpoint the optimizers roll
back to.  The NPN recipe cache behind
``synthesize_table`` is pinned to the packed simulation kernels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mig import (
    CostView,
    Mig,
    MigError,
    Realization,
    optimize_area,
    optimize_depth,
    optimize_rram,
    optimize_steps,
    signal_not,
    synthesize_table,
)
from repro.fuzz.oracle import graph_content as capture
from repro.fuzz.oracle import tx_audit
from repro.mig.rewrite import apply_inverter_propagation
from repro.sim import iter_assignment_chunks, simulate_mig_slices
from repro.truth import TruthTable


def build_random_mig(seed: int, num_pis: int = 4, num_gates: int = 10) -> Mig:
    rng = random.Random(seed)
    mig = Mig(f"tx{seed}")
    signals = [mig.add_pi() for _ in range(num_pis)] + [0]
    for _ in range(num_gates):
        picks = []
        while len(picks) < 3:
            s = signals[rng.randrange(len(signals))]
            if rng.random() < 0.4:
                s = signal_not(s)
            picks.append(s)
        signals.append(mig.make_maj(*picks))
    for _ in range(3):
        s = signals[rng.randrange(len(signals) // 2, len(signals))]
        if rng.random() < 0.3:
            s = signal_not(s)
        mig.add_po(s)
    return mig


def random_mutation(mig: Mig, rng: random.Random) -> None:
    choice = rng.randrange(5)
    gates = [n for n in range(len(mig._children)) if mig.is_gate(n)]
    pool = [p << 1 for p in mig._pis] + [g << 1 for g in gates] + [0]
    if choice <= 1:
        picks = []
        while len(picks) < 3:
            s = pool[rng.randrange(len(pool))]
            if rng.random() < 0.4:
                s = signal_not(s)
            picks.append(s)
        mig.make_maj(*picks)
    elif choice == 2 and gates:
        apply_inverter_propagation(mig, gates[rng.randrange(len(gates))])
    elif choice == 3 and mig.num_pos:
        index = rng.randrange(mig.num_pos)
        s = pool[rng.randrange(len(pool))]
        if rng.random() < 0.4:
            s = signal_not(s)
        mig.set_po(index, s)
    else:
        mig.sweep_dead()


class TestUndoJournal:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_transactions_restore_state_exactly(self, seed):
        rng = random.Random(seed)
        mig = build_random_mig(rng.randrange(10_000))
        view = CostView(mig)
        view.stats()
        stack = []
        for _ in range(rng.randrange(10, 40)):
            action = rng.random()
            if action < 0.25 and len(stack) < 4:
                stack.append((mig.checkpoint(), capture(mig)))
            elif action < 0.40 and stack:
                token, reference = stack.pop()
                mig.rollback(token)
                assert capture(mig) == reference
                view.assert_consistent()
            elif action < 0.50 and stack:
                token, _reference = stack.pop()
                mig.commit(token)
            else:
                random_mutation(mig, rng)
                if rng.random() < 0.3:
                    # Mid-transaction sync: forces the view to consume
                    # forward events whose nodes a later rollback pops.
                    view.stats()
        while stack:
            token, reference = stack.pop()
            mig.rollback(token)
            assert capture(mig) == reference
        view.assert_consistent()
        mig.check_invariants()

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rollback_preserves_function(self, seed):
        rng = random.Random(seed)
        mig = build_random_mig(rng.randrange(10_000))
        tables_before = mig.truth_tables()
        token = mig.checkpoint()
        for _ in range(rng.randrange(1, 15)):
            random_mutation(mig, rng)
        mig.rollback(token)
        assert mig.truth_tables() == tables_before

    def test_nested_rollback_to_outer_checkpoint(self):
        mig = build_random_mig(3)
        outer_ref = capture(mig)
        outer = mig.checkpoint()
        mig.make_maj(mig._pis[0] << 1, mig._pis[1] << 1, 1)
        inner_ref = capture(mig)
        inner = mig.checkpoint()
        mig.make_maj(mig._pis[2] << 1, mig._pis[0] << 1, 0)
        mig.rollback(inner)
        assert capture(mig) == inner_ref
        mig.rollback(outer)
        assert capture(mig) == outer_ref
        assert not mig.in_transaction

    def test_commit_keeps_mutations(self):
        mig = build_random_mig(4)
        token = mig.checkpoint()
        s = mig.make_maj(mig._pis[0] << 1, mig._pis[1] << 1, 1)
        mig.set_po(0, s)
        mig.commit(token)
        assert mig.pos[0] == s
        assert not mig.in_transaction

    def test_wholesale_copy_rolls_back(self):
        mig = build_random_mig(5)
        reference = capture(mig)
        token = mig.checkpoint()
        mig.make_maj(mig._pis[0] << 1, mig._pis[1] << 1, 1)
        mig.compact()  # wholesale array swap inside the transaction
        random_mutation(mig, random.Random(9))
        mig.rollback(token)
        assert capture(mig) == reference

    def test_token_discipline(self):
        mig = build_random_mig(6)
        outer = mig.checkpoint()
        inner = mig.checkpoint()
        with pytest.raises(MigError):
            mig.rollback(outer)  # not innermost
        with pytest.raises(MigError):
            mig.commit(outer)
        mig.commit(inner)
        mig.commit(outer)
        with pytest.raises(MigError):
            mig.rollback(0)  # nothing open

    def test_interface_frozen_during_transaction(self):
        mig = build_random_mig(7)
        token = mig.checkpoint()
        with pytest.raises(MigError):
            mig.add_pi("late")
        with pytest.raises(MigError):
            mig.add_po(0, "late")
        mig.rollback(token)
        mig.add_pi("ok")  # allowed again once closed

    def test_counters_accumulate(self):
        mig = build_random_mig(8)
        assert mig.tx_checkpoints == 0
        token = mig.checkpoint()
        mig.make_maj(mig._pis[0] << 1, mig._pis[1] << 1, 0)
        mig.rollback(token)
        assert mig.tx_checkpoints == 1
        assert mig.tx_rollbacks == 1
        assert mig.tx_undo_replayed > 0


class TestCompact:
    def test_matches_legacy_clone_idiom(self):
        legacy = build_random_mig(11, num_gates=14)
        fresh = build_random_mig(11, num_gates=14)
        legacy.copy_from(legacy.clone())
        fresh.compact()
        assert legacy._children == fresh._children
        assert legacy._pos == fresh._pos
        assert legacy._strash == fresh._strash
        assert legacy._fanout == fresh._fanout

    def test_idempotent(self):
        mig = build_random_mig(12, num_gates=14)
        mig.compact()
        reference = capture(mig)
        mig.compact()
        assert capture(mig) == reference

    def test_drops_dead_nodes(self):
        mig = build_random_mig(13)
        mig.make_maj(mig._pis[0] << 1, mig._pis[1] << 1, 1)  # dead
        live = len(set(mig.reachable_nodes()))
        mig.compact()
        assert mig.num_gates() == live
        assert len(mig._children) == 1 + mig.num_pis + live

    def test_preserves_function(self):
        mig = build_random_mig(14)
        tables = mig.truth_tables()
        mig.compact()
        assert mig.truth_tables() == tables


_OPTIMIZERS = {
    "area": lambda mig, realization: optimize_area(mig, effort=4),
    "depth": lambda mig, realization: optimize_depth(mig, effort=4),
    "rram": lambda mig, realization: optimize_rram(mig, realization, 4),
    "steps": lambda mig, realization: optimize_steps(mig, realization, 4),
}


class TestEngineEquivalence:
    """The undo journal against its whole-graph-copy reference."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from(sorted(_OPTIMIZERS)),
        st.sampled_from(list(Realization)),
    )
    @settings(max_examples=16, deadline=None)
    def test_optimizers_under_tx_audit(self, seed, flow, realization):
        """Every rollback an optimizer makes restores its checkpoint
        exactly (``tx_audit`` raises otherwise), and the result keeps
        the function and the structural invariants."""
        mig = build_random_mig(seed, num_pis=5, num_gates=14)
        tables = mig.truth_tables()
        with tx_audit():
            _OPTIMIZERS[flow](mig, realization)
        assert not mig.in_transaction
        mig.check_invariants()
        assert mig.truth_tables() == tables

    def test_tx_audit_restores_the_methods(self):
        methods = (Mig.checkpoint, Mig.commit, Mig.rollback)
        with tx_audit():
            assert Mig.rollback is not methods[2]
        assert (Mig.checkpoint, Mig.commit, Mig.rollback) == methods

    def test_profile_reports_transaction_counters(self):
        mig = build_random_mig(21, num_pis=5, num_gates=14)
        result = optimize_steps(mig, Realization.MAJ, effort=4)
        assert result.profile is not None
        for key in (
            "tx_checkpoints",
            "tx_rollbacks",
            "tx_undo_replayed",
            "strash_hits",
            "strash_misses",
        ):
            assert key in result.profile
        assert result.profile["tx_checkpoints"] > 0


class TestStrashAndNpnCache:
    def test_strash_dedupes_isomorphic_gates(self):
        mig = Mig()
        a = mig.add_pi()
        b = mig.add_pi()
        c = mig.add_pi()
        first = mig.make_maj(a, b, c)
        misses = mig.strash_misses
        again = mig.make_maj(c, a, b)  # same triple, different order
        assert again == first
        assert mig.strash_hits >= 1
        assert mig.strash_misses == misses

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=100, deadline=None)
    def test_npn4_synthesis_matches_packed_kernels(self, bits):
        table = TruthTable(4, bits)
        mig = Mig()
        leaves = [mig.add_pi(f"x{i}") for i in range(4)]
        root = synthesize_table(mig, table, leaves)
        mig.add_po(root, "f")
        for chunk in iter_assignment_chunks(4):
            word = simulate_mig_slices(mig, chunk.slices, chunk.mask)[0]
            expected = (table.bits >> chunk.start) & chunk.mask
            assert word == expected

    def test_npn4_recipe_cache_hits(self):
        from repro.mig import resynth

        table = TruthTable(4, 0x1EE1)
        mig = Mig()
        leaves = [mig.add_pi(f"x{i}") for i in range(4)]
        first = synthesize_table(mig, table, leaves)
        size = len(resynth._NPN4_RECIPES)
        assert size > 0
        # Second build replays the cached recipe; strash folds it onto
        # the first construction entirely.
        misses = mig.strash_misses
        again = synthesize_table(mig, table, leaves)
        assert again == first
        assert mig.strash_misses == misses
        assert len(resynth._NPN4_RECIPES) == size
