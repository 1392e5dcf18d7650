"""The differential oracle: clean circuits pass, planted bugs trip it."""

import pytest

from repro.fuzz import CHECKS, OracleFailure, case_circuit, check_case
from repro.fuzz.oracle import _check_costview_differential
from repro.mig import CostView, Mig, mig_from_netlist, signal_not
from repro.network import GateType, Netlist


def _xor_netlist():
    netlist = Netlist("t")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    netlist.add_gate("f", GateType.XOR, [a, b])
    netlist.set_output("f")
    return netlist


class TestCleanCases:
    @pytest.mark.parametrize("kind", ("mig", "table", "gates"))
    def test_generated_cases_pass(self, kind):
        netlist, mig = case_circuit(kind, 42)
        assert check_case(netlist, mig, effort=3) is None

    def test_trivial_netlist_passes(self):
        assert check_case(_xor_netlist()) is None

    def test_mig_with_dead_nodes_passes(self):
        netlist, mig = case_circuit("mig", 4207)
        assert mig is not None
        assert check_case(netlist, mig, effort=3) is None


class TestPlantedBugs:
    def test_wrong_mig_is_caught(self):
        # Hand the oracle a MIG computing a *different* function than
        # the netlist: the very first cross-representation check, or at
        # the latest a flow check, must fire.
        netlist = _xor_netlist()
        wrong = Mig("t")
        a = wrong.add_pi("a")
        b = wrong.add_pi("b")
        wrong.add_po(wrong.make_and(a, b), "f")  # AND, not XOR
        failure = check_case(netlist, wrong)
        assert failure is not None
        assert isinstance(failure, OracleFailure)

    def test_failure_names_a_known_check(self):
        # An XNOR MIG against the XOR netlist: one complemented output.
        netlist = _xor_netlist()
        reference = mig_from_netlist(netlist)
        wrong = Mig("t")
        a = wrong.add_pi("a")
        b = wrong.add_pi("b")
        wrong.add_po(signal_not(wrong.make_xor(a, b)), "f")
        assert wrong.truth_tables() != reference.truth_tables()
        failure = check_case(netlist, wrong)
        assert failure is not None
        assert any(
            failure.check == c or failure.check.startswith(c.split("-")[0])
            for c in CHECKS
        )
        assert failure.describe()["detail"]


class TestTxAudit:
    def test_rollback_skipping_an_undo_record_is_caught(self, monkeypatch):
        """A rollback that forgets one undo record must trip the
        ``tx-audit`` check, which names the state it left wrong."""
        rollback = Mig.rollback

        def skipping_rollback(mig, token):
            # Drop the newest PO write or attach/detach of a node that
            # existed before the checkpoint (dropping records of nodes
            # allocated inside it would crash the replay instead).
            mark = mig._tx_stack[token]
            fresh = {r[1] for r in mig._undo[mark:] if r[0] == "n"}
            for i in range(len(mig._undo) - 1, mark - 1, -1):
                record = mig._undo[i]
                if record[0] == "p" or (
                    record[0] in ("a", "d") and record[1] not in fresh
                ):
                    del mig._undo[i]
                    break
            rollback(mig, token)

        monkeypatch.setattr(Mig, "rollback", skipping_rollback)
        netlist, mig = case_circuit("gates", 7)
        failure = check_case(netlist, mig, effort=3, checks=["tx-audit"])
        assert failure is not None
        assert failure.check == "tx-audit"
        assert "rollback of checkpoint" in failure.detail
        assert "different from the checkpoint" in failure.detail

    def test_checks_registered(self):
        assert "tx-audit" in CHECKS


class TestCostViewDifferential:
    def test_off_by_one_cost_view_is_caught(self, monkeypatch):
        """A CostView whose node heights are one too high finds no
        critical path, so ``push_up`` stops moving; the from-scratch
        reference still moves, and ``costview-diff`` names the pass.
        ``assert_consistent`` does not check heights, so only the
        differential against the reference can catch this."""
        netlist, _ = case_circuit("gates", 7)
        base = mig_from_netlist(netlist)
        assert _check_costview_differential(base, netlist) is None
        heights = CostView.heights

        def off_by_one(view):
            return {node: h + 1 for node, h in heights(view).items()}

        monkeypatch.setattr(CostView, "heights", off_by_one)
        failure = _check_costview_differential(base, netlist)
        assert failure is not None
        assert failure.check == "costview-diff"
        assert "pass push_up" in failure.detail


class TestCrossbarChecks:
    def test_crossbar_checks_registered(self):
        assert "crossbar-imp" in CHECKS
        assert "crossbar-maj" in CHECKS

    @pytest.mark.parametrize("kind", ("mig", "table", "gates"))
    def test_generated_cases_pass_crossbar_only(self, kind):
        netlist, mig = case_circuit(kind, 1337)
        failure = check_case(
            netlist, mig, effort=3, checks=["crossbar-imp", "crossbar-maj"]
        )
        assert failure is None

    def test_trivial_netlist_passes_crossbar(self):
        assert (
            check_case(_xor_netlist(), checks=["crossbar-imp", "crossbar-maj"])
            is None
        )

    def test_wide_netlists_skip_the_exhaustive_sweep(self):
        # The crossbar differential is exhaustive, so it is gated to
        # <= 8 inputs; a wider circuit must sail through untested
        # rather than hang.
        netlist = Netlist("wide")
        inputs = [netlist.add_input(f"x{i}") for i in range(10)]
        netlist.add_gate("f", GateType.AND, inputs)
        netlist.set_output("f")
        assert (
            check_case(netlist, checks=["crossbar-imp", "crossbar-maj"])
            is None
        )


class TestCheckFiltering:
    def test_subset_runs_only_requested_checks(self):
        netlist, mig = case_circuit("mig", 99)
        # A wrong MIG passes when only an unrelated check is enabled...
        wrong = Mig("w")
        a = wrong.add_pi("x0")
        wrong.add_po(a, "f0")
        assert (
            check_case(_xor_netlist(), checks=["plim-exec"]) is None
        )
        # ...and still fails when its own check is enabled.
        assert check_case(netlist, mig, checks=["xrep-mig"]) is None

    def test_prefix_matching_for_guarded_groups(self):
        # A crash inside the representation block is attributed to
        # "xrep"; re-running with the specific sub-check enabled must
        # still execute the block (prefix-tolerant matching).
        netlist = _xor_netlist()
        assert check_case(netlist, checks=["xrep-bdd"]) is None
        assert check_case(netlist, checks=["xrep"]) is None
