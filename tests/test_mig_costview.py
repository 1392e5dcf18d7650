"""Tests for the incremental cost view (:mod:`repro.mig.costview`).

The CostView promises *exact* agreement with the from-scratch
:func:`repro.mig.views.level_stats` after any mutation sequence, plus
exact speculative scoring for Ω.I flip groups.  These tests hammer both
promises with random mutation storms, and pin the optimizer-facing
contract: identical results to the from-scratch reference and
preserved Boolean functions.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mig import (
    CostView,
    EquivalenceGuard,
    Mig,
    Realization,
    level_stats,
    mig_from_truth_tables,
    optimize_rram,
    optimize_steps,
    signal_node,
    signal_not,
)
from repro.mig.algorithms import (
    _level_clear_plan,
    _try_clear_level,
    _try_clear_po_level,
    clear_complemented_levels,
)
from repro.mig.rewrite import (
    apply_associativity,
    apply_distributivity_lr,
    apply_distributivity_rl,
    apply_inverter_propagation,
)
from repro.truth import nine_sym_function, parity_function


def random_mig(seed: int, num_pis: int = 5, num_gates: int = 14) -> Mig:
    rng = random.Random(seed)
    mig = Mig(f"cv{seed}")
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


def mutate_once(mig: Mig, rng: random.Random) -> None:
    """One random structural mutation drawn from the optimizer moves."""
    nodes = mig.reachable_nodes()
    if not nodes:
        return
    node = nodes[rng.randrange(len(nodes))]
    move = rng.randrange(6)
    levels = {n: lvl for n, lvl in level_stats(mig).node_levels.items()}
    if move == 0:
        apply_inverter_propagation(mig, node)
    elif move == 1:
        apply_distributivity_rl(mig, node, force=rng.random() < 0.5)
    elif move == 2:
        apply_distributivity_lr(mig, node, levels)
    elif move == 3:
        apply_associativity(mig, node, levels, allow_neutral=True)
    elif move == 4:
        # Redirect a PO to a random live signal (exercises EVENT_PO).
        index = rng.randrange(mig.num_pos)
        target = nodes[rng.randrange(len(nodes))]
        signal = (target << 1) | (1 if rng.random() < 0.5 else 0)
        mig.set_po(index, signal)
    else:
        # Substitute a node by one of its children (function-changing,
        # but the view must track *any* legal mutation).
        child = mig.children(node)[rng.randrange(3)]
        if signal_node(child) != node:
            mig.substitute(node, child)


class TestViewConsistency:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_mutations_stay_consistent(self, seed, mutation_seed):
        mig = random_mig(seed)
        view = CostView(mig)
        rng = random.Random(mutation_seed)
        for _ in range(12):
            mutate_once(mig, rng)
            view.assert_consistent()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_every_quantity_matches_level_stats(self, seed):
        mig = random_mig(seed)
        view = CostView(mig)
        rng = random.Random(seed ^ 0xBEEF)
        for _ in range(6):
            mutate_once(mig, rng)
        reference = level_stats(mig)
        assert view.size_depth() == (reference.size, reference.depth)
        assert view.levels() == reference.node_levels
        stats = view.stats()
        assert stats.nodes_per_level == reference.nodes_per_level
        assert (
            stats.complements_per_level == reference.complements_per_level
        )
        assert stats.po_complements == reference.po_complements
        for realization in (Realization.MAJ, Realization.IMP):
            costs = view.costs(realization)
            assert costs.rrams == reference.rram_count(realization)
            assert costs.steps == reference.step_count(realization)

    def test_copy_from_forces_full_recompute(self):
        mig = random_mig(3)
        view = CostView(mig)
        view.stats()
        full_before = view.counters.full_recomputes
        mig.copy_from(mig.clone())
        view.stats()
        assert view.counters.full_recomputes == full_before + 1
        view.assert_consistent()

    def test_generation_cache_hit_counted(self):
        mig = random_mig(4)
        view = CostView(mig)
        view.stats()
        hits = view.counters.cache_hits
        view.stats()
        assert view.counters.cache_hits > hits


class TestPredictFlipGroup:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_prediction_matches_measurement(self, seed, flip_seed):
        mig = random_mig(seed)
        view = CostView(mig)
        rng = random.Random(flip_seed)
        nodes = mig.reachable_nodes()
        if not nodes:
            return
        flips = [
            nodes[rng.randrange(len(nodes))]
            for _ in range(rng.randrange(1, 5))
        ]
        flips = list(dict.fromkeys(flips))
        for realization in (Realization.MAJ, Realization.IMP):
            predicted = view.predict_flip_group(flips, realization)
            trial = copy.deepcopy(mig)
            trial._track_events = False
            for node in flips:
                if trial.is_gate(node):
                    apply_inverter_propagation(trial, node)
            stats = level_stats(trial)
            measured = (
                stats.step_count(realization),
                stats.rram_count(realization),
            )
            # None means "collision possible, measure instead" — always
            # allowed; a returned value must be exact.
            if predicted is not None:
                assert tuple(predicted) == measured

    def test_rewritten_parent_collision_is_not_predicted(self):
        """Flipping 6 rewrites its parents; flipping 11 afterwards makes
        a rewritten triple equal another one, and the two merge.  The
        prediction must not claim the merge-free (S, R) = (9, 11)."""
        mig = random_mig(706)
        view = CostView(mig)
        flips = [6, 11, 10]
        trial = copy.deepcopy(mig)
        trial._track_events = False
        for node in flips:
            if trial.is_gate(node):
                apply_inverter_propagation(trial, node)
        stats = level_stats(trial)
        measured = (
            stats.step_count(Realization.MAJ),
            stats.rram_count(Realization.MAJ),
        )
        assert measured == (9, 6)
        predicted = view.predict_flip_group(flips, Realization.MAJ)
        assert predicted is None or tuple(predicted) == measured

    def test_prediction_skips_nothing_on_fresh_nodes(self):
        # A chain graph has no strash collisions on flip, so prediction
        # must return a value (not bail to the measured path).
        mig = Mig("chain")
        a, b, c = (mig.add_pi() for _ in range(3))
        g1 = mig.make_maj(a, b, c)
        g2 = mig.make_maj(g1, signal_not(a), b)
        mig.add_po(g2)
        view = CostView(mig)
        predicted = view.predict_flip_group(
            [signal_node(g2)], Realization.MAJ
        )
        assert predicted is not None


def reference_clear_complemented_levels(mig, realization, max_rounds=16):
    """The pre-CostView implementation: clone/apply/measure/rollback for
    every candidate.  Kept here as the oracle for the incremental one."""
    changed_any = False
    for _round in range(max_rounds):
        stats = level_stats(mig)
        before = (
            stats.step_count(realization),
            stats.rram_count(realization),
        )
        candidates = sorted(
            (count, lvl)
            for lvl, count in enumerate(stats.complements_per_level)
            if count > 0
        )
        if stats.po_complements > 0:
            candidates.append((stats.po_complements, -1))
        improved = False
        node_level_map = dict(stats.node_levels)
        for _count, level in candidates:
            if (
                level != -1
                and _level_clear_plan(mig, level, node_level_map) is None
            ):
                continue
            snapshot = mig.clone()
            if level == -1:
                ok = _try_clear_po_level(mig)
            else:
                ok = _try_clear_level(mig, level, node_level_map)
            if not ok:
                mig.copy_from(snapshot)
                continue
            new_stats = level_stats(mig)
            after = (
                new_stats.step_count(realization),
                new_stats.rram_count(realization),
            )
            if after < before:
                improved = True
                changed_any = True
                break
            mig.copy_from(snapshot)
        if not improved:
            break
    return changed_any


def graph_state(mig):
    return (mig._children, mig._is_pi, mig._pis, mig._pos, mig._strash)


class TestClearLevelsIdentity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_view_path_is_bit_identical_to_reference(self, seed):
        """The predicted/fixpoint-compacted path must reproduce the
        reference implementation's result *including node ids* (the
        stale level-map semantics make behavior id-sensitive)."""
        for realization in (Realization.MAJ, Realization.IMP):
            reference = random_mig(seed, num_pis=4, num_gates=18)
            incremental = reference.clone()
            reference.copy_from(incremental)  # identical starting ids
            assert graph_state(reference) == graph_state(incremental)
            changed_ref = reference_clear_complemented_levels(
                reference, realization
            )
            view = CostView(incremental)
            changed_inc = clear_complemented_levels(
                incremental, realization, view=view
            )
            assert changed_ref == changed_inc
            assert graph_state(reference) == graph_state(incremental)


class TestOptimizersWithView:
    @pytest.mark.parametrize(
        "tables_fn",
        [lambda: parity_function(6), nine_sym_function],
        ids=["parity6", "nine_sym"],
    )
    def test_optimize_steps_preserves_function(self, tables_fn):
        mig = mig_from_truth_tables(tables_fn(), "t")
        guard = EquivalenceGuard(mig)
        result = optimize_steps(mig, Realization.MAJ, 6)
        guard.verify_or_raise()
        assert result.profile is not None
        assert result.profile["full_recomputes"] >= 1

    def test_optimize_rram_preserves_function_and_counts(self):
        mig = mig_from_truth_tables(nine_sym_function(), "t")
        guard = EquivalenceGuard(mig)
        result = optimize_rram(mig, Realization.IMP, 6)
        guard.verify_or_raise()
        profile = result.profile
        assert profile is not None
        assert profile["moves_tried"] >= profile["moves_accepted"]
        assert set(profile) >= {
            "full_recomputes",
            "delta_updates",
            "cache_hits",
            "events_replayed",
            "moves_tried",
            "moves_accepted",
            "predicted_skips",
        }
