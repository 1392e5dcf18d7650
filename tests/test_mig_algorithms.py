"""Tests for the four optimization algorithms (paper Alg. 1–4)."""

import pytest

from repro.mig import (
    ALGORITHMS,
    CostView,
    EquivalenceGuard,
    Realization,
    eliminate,
    level_stats,
    mig_from_truth_tables,
    optimize_area,
    optimize_depth,
    optimize_rram,
    optimize_steps,
    push_up,
    rram_costs,
)
from repro.truth import count_ones_function, nine_sym_function, parity_function


@pytest.fixture(scope="module")
def sym9_tables():
    return nine_sym_function()


def fresh(tables, name="t"):
    return mig_from_truth_tables(tables, name)


class TestOptimizeArea:
    def test_preserves_function(self, sym9_tables):
        mig = fresh(sym9_tables)
        guard = EquivalenceGuard(mig)
        optimize_area(mig, effort=8)
        guard.verify_or_raise()

    def test_never_grows(self, sym9_tables):
        mig = fresh(sym9_tables)
        result = optimize_area(mig, effort=8)
        assert result.final_size <= result.initial_size
        assert mig.num_gates() == result.final_size

    def test_result_bookkeeping(self, sym9_tables):
        mig = fresh(sym9_tables)
        result = optimize_area(mig, effort=5)
        assert result.algorithm == "area"
        assert 1 <= result.cycles_run <= 5
        assert len(result.history) == result.cycles_run
        assert result.size_reduction == result.initial_size - result.final_size

    def test_zero_effort_is_identity_except_trailing_eliminate(
        self, sym9_tables
    ):
        mig = fresh(sym9_tables)
        before = mig.num_gates()
        result = optimize_area(mig, effort=0)
        assert result.cycles_run == 0
        assert mig.num_gates() <= before


class TestOptimizeDepth:
    def test_preserves_function(self, sym9_tables):
        mig = fresh(sym9_tables)
        guard = EquivalenceGuard(mig)
        optimize_depth(mig, effort=8)
        guard.verify_or_raise()

    def test_never_deepens(self, sym9_tables):
        mig = fresh(sym9_tables)
        result = optimize_depth(mig, effort=8)
        assert result.final_depth <= result.initial_depth

    def test_reduces_depth_on_skewed_input(self):
        # A linear AND chain has massive slack: depth must drop.
        from repro.mig import Mig

        mig = Mig("chain")
        signals = [mig.add_pi() for _ in range(8)]
        acc = signals[0]
        for s in signals[1:]:
            acc = mig.make_and(acc, s)
        mig.add_po(acc)
        guard = EquivalenceGuard(mig)
        result = optimize_depth(mig, effort=12)
        guard.verify_or_raise()
        assert result.final_depth < result.initial_depth


class TestOptimizeRram:
    @pytest.mark.parametrize("realization", list(Realization))
    def test_preserves_function(self, sym9_tables, realization):
        mig = fresh(sym9_tables)
        guard = EquivalenceGuard(mig)
        optimize_rram(mig, realization, effort=8)
        guard.verify_or_raise()

    def test_budgeted_trade_off_contract(self, sym9_tables):
        """Alg. 3 guarantees: no more RRAMs than the step optimizer,
        and steps within the realization's budget factor of it."""
        probe = fresh(sym9_tables)
        optimize_steps(probe, Realization.MAJ, effort=16)
        star = rram_costs(probe, Realization.MAJ)
        mig = fresh(sym9_tables)
        optimize_rram(mig, Realization.MAJ, effort=16)
        after = rram_costs(mig, Realization.MAJ)
        assert after.rrams <= star.rrams
        assert after.steps <= int(star.steps * 1.45) + 1


class TestOptimizeSteps:
    @pytest.mark.parametrize("realization", list(Realization))
    def test_preserves_function(self, sym9_tables, realization):
        mig = fresh(sym9_tables)
        guard = EquivalenceGuard(mig)
        optimize_steps(mig, realization, effort=8)
        guard.verify_or_raise()

    def test_steps_never_increase(self, sym9_tables):
        for realization in Realization:
            mig = fresh(sym9_tables)
            before = rram_costs(mig, realization).steps
            optimize_steps(mig, realization, effort=8)
            assert rram_costs(mig, realization).steps <= before

    def test_improves_steps_on_symmetric_function(self, sym9_tables):
        mig = fresh(sym9_tables)
        before = rram_costs(mig, Realization.MAJ).steps
        optimize_steps(mig, Realization.MAJ, effort=10)
        assert rram_costs(mig, Realization.MAJ).steps < before


class TestCrossAlgorithmShape:
    """The orderings the paper's Table II establishes."""

    @pytest.fixture(scope="class")
    def results(self, sym9_tables):
        outcome = {}
        for algorithm in ("area", "depth", "rram", "steps"):
            mig = fresh(sym9_tables)
            optimizer = ALGORITHMS[algorithm]
            if algorithm in ("rram", "steps"):
                optimizer(mig, Realization.MAJ, 10)
            else:
                optimizer(mig, 10)
            outcome[algorithm] = {
                real: rram_costs(mig, real) for real in Realization
            }
        return outcome

    def test_maj_always_cheaper_than_imp(self, results):
        for algorithm, costs in results.items():
            assert costs[Realization.MAJ].steps < costs[Realization.IMP].steps
            assert costs[Realization.MAJ].rrams <= costs[Realization.IMP].rrams

    def test_step_opt_minimizes_steps(self, results):
        steps = {
            algorithm: costs[Realization.MAJ].steps
            for algorithm, costs in results.items()
        }
        assert steps["steps"] <= steps["area"]
        assert steps["steps"] <= steps["depth"]

    def test_depth_opt_minimizes_depth(self, results):
        depths = {
            algorithm: costs[Realization.MAJ].depth
            for algorithm, costs in results.items()
        }
        assert depths["depth"] <= depths["area"]


class TestPasses:
    def test_eliminate_merges_distributivity_redex(self):
        from repro.mig import Mig

        mig = Mig()
        x, y, u, v, z = (mig.add_pi() for _ in range(5))
        top = mig.make_maj(mig.make_maj(x, y, u), mig.make_maj(x, y, v), z)
        mig.add_po(top)
        assert mig.num_gates() == 3
        guard = EquivalenceGuard(mig)
        assert eliminate(mig, view=CostView(mig))
        guard.verify_or_raise()
        assert mig.num_gates() == 2

    def test_push_up_balances_chain(self):
        from repro.mig import Mig

        mig = Mig("chain")
        signals = [mig.add_pi() for _ in range(8)]
        acc = signals[0]
        for s in signals[1:]:
            acc = mig.make_or(acc, s)
        mig.add_po(acc)
        before = level_stats(mig).depth
        push_up(mig, view=CostView(mig))
        assert level_stats(mig).depth < before

    def test_algorithms_registry(self):
        assert set(ALGORITHMS) == {"area", "depth", "rram", "steps"}


class TestParityBenchmark:
    def test_parity_optimization_all_algorithms(self):
        tables = parity_function(8)
        for algorithm, optimizer in ALGORITHMS.items():
            mig = fresh(tables, f"parity-{algorithm}")
            guard = EquivalenceGuard(mig)
            if algorithm in ("rram", "steps"):
                optimizer(mig, Realization.MAJ, 6)
            else:
                optimizer(mig, 6)
            guard.verify_or_raise()

    def test_rd53_multi_output(self):
        tables = count_ones_function(5, 3)
        mig = fresh(tables, "rd53")
        guard = EquivalenceGuard(mig)
        optimize_steps(mig, Realization.MAJ, 8)
        guard.verify_or_raise()
