"""Property-based tests: random MIGs hammered with random rewrites.

Every transformation in :mod:`repro.mig.rewrite` and every optimization
pass must preserve the Boolean function and the structural invariants,
whatever graph they are applied to.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mig import (
    CostView,
    EquivalenceGuard,
    Mig,
    Realization,
    eliminate,
    inverter_propagation_pass,
    node_levels,
    optimize_area,
    optimize_depth,
    optimize_rram,
    optimize_steps,
    push_up,
    reshape,
    signal_node,
    signal_not,
)
from repro.mig.rewrite import (
    apply_associativity,
    apply_complementary_associativity,
    apply_distributivity_lr,
    apply_distributivity_rl,
    apply_inverter_propagation,
    apply_relevance,
)


def random_mig(seed: int, num_pis: int = 5, num_gates: int = 12) -> Mig:
    """A deterministic random MIG with complemented edges and fanout."""
    rng = random.Random(seed)
    mig = Mig(f"rand{seed}")
    signals = [mig.add_pi() for _ in range(num_pis)] + [0]
    for _ in range(num_gates):
        picks = []
        while len(picks) < 3:
            s = signals[rng.randrange(len(signals))]
            if rng.random() < 0.4:
                s = signal_not(s)
            picks.append(s)
        signals.append(mig.make_maj(*picks))
    # Outputs: a few of the most recent signals.
    for _ in range(3):
        s = signals[rng.randrange(len(signals) // 2, len(signals))]
        if rng.random() < 0.3:
            s = signal_not(s)
        mig.add_po(s)
    return mig


REWRITES = [
    lambda mig, node, levels: apply_distributivity_rl(mig, node),
    lambda mig, node, levels: apply_distributivity_rl(mig, node, force=True),
    apply_distributivity_lr,
    apply_associativity,
    lambda mig, node, levels: apply_associativity(
        mig, node, levels, allow_neutral=True
    ),
    apply_complementary_associativity,
    lambda mig, node, levels: apply_inverter_propagation(mig, node),
    apply_relevance,
]


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_random_rewrites_preserve_function(seed, rewrite_seed):
    mig = random_mig(seed)
    guard = EquivalenceGuard(mig)
    rng = random.Random(rewrite_seed)
    for _ in range(12):
        nodes = mig.reachable_nodes()
        if not nodes:
            break
        node = nodes[rng.randrange(len(nodes))]
        rewrite = REWRITES[rng.randrange(len(REWRITES))]
        levels = node_levels(mig)
        rewrite(mig, node, levels)
    guard.verify_or_raise()
    mig.check_invariants()


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_eliminate_never_grows(seed):
    mig = random_mig(seed, num_gates=16)
    guard = EquivalenceGuard(mig)
    before = mig.num_gates()
    eliminate(mig, view=CostView(mig))
    guard.verify_or_raise()
    assert mig.num_gates() <= before


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_push_up_never_deepens(seed):
    from repro.mig import level_stats

    mig = random_mig(seed, num_gates=16)
    guard = EquivalenceGuard(mig)
    before = level_stats(mig).depth
    push_up(mig, view=CostView(mig))
    guard.verify_or_raise()
    assert level_stats(mig).depth <= before


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_reshape_preserves_function(seed):
    mig = random_mig(seed, num_gates=16)
    guard = EquivalenceGuard(mig)
    reshape(mig, variant=seed % 2, view=CostView(mig))
    guard.verify_or_raise()
    mig.check_invariants()


@given(st.integers(0, 10_000), st.sampled_from(list(Realization)))
@settings(max_examples=15, deadline=None)
def test_inverter_pass_preserves_function(seed, realization):
    mig = random_mig(seed, num_gates=16)
    guard = EquivalenceGuard(mig)
    inverter_propagation_pass(mig, realization, view=CostView(mig))
    guard.verify_or_raise()
    mig.check_invariants()


@given(
    st.integers(0, 2_000),
    st.sampled_from(["area", "depth", "rram", "steps"]),
)
@settings(max_examples=16, deadline=None)
def test_full_algorithms_preserve_function(seed, algorithm):
    from repro.mig import ALGORITHMS

    mig = random_mig(seed, num_gates=14)
    guard = EquivalenceGuard(mig)
    optimizer = ALGORITHMS[algorithm]
    if algorithm in ("rram", "steps"):
        optimizer(mig, Realization.MAJ, 6)
    else:
        optimizer(mig, 6)
    guard.verify_or_raise()
    mig.check_invariants()


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_clone_equivalence(seed):
    mig = random_mig(seed)
    clone = mig.clone()
    assert clone.truth_tables() == mig.truth_tables()
