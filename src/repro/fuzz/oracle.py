"""The differential oracle: every representation against every other.

For one generated circuit the oracle asserts, in order:

1. **Cross-representation equivalence** — the MIG, AIG, and BDD
   lowerings all compute the netlist's reference function.
2. **Flow preservation** — every optimizer flow (the paper's
   Algorithms 1–4, complement annealing, cut rewriting) leaves the
   function intact and the structural invariants unbroken, and the
   incremental :class:`~repro.mig.costview.CostView` agrees with the
   from-scratch ``rram_costs`` on the result.
3. **CostView differential** — each building-block pass run twice on
   identical clones, once reading a CostView and once reading the
   from-scratch :class:`ScratchView`, must produce identical outcomes
   (the incremental invalidation protocol's core claim, here checked
   on adversarial inputs instead of the benchmark set).
4. **Transaction audit** — every optimizer flow runs once under
   :func:`tx_audit`, which snapshots the graph content at every
   ``checkpoint()`` and asserts that every ``rollback()`` restores it
   exactly (the contract of the checkpoint/rollback/commit journal,
   checked on adversarial inputs against a whole-graph copy).
5. **Compile cost triangle** — for both realizations, the analytic
   ``S = K_S·D + L`` equals the CostView's incremental answer equals
   the compiler's measured step count, and the compiled program
   replayed on the device-level array simulator matches the MIG.
6. **PLiM backend** — the serial RM3 stream computes the same function.
7. **Crossbar mapping** — both realizations placed onto an auto-fitted
   W×H array and rescheduled into row-parallel steps must stay within
   the sequential step count, survive the full legality audit, and be
   bit-identical to the sequential program over the whole assignment
   space (sequential-vs-placed differential).

Any violation is returned as an :class:`OracleFailure` naming the check
that tripped; ``None`` means the case is clean.  Checks run on clones,
so a failure leaves the original circuit available for shrinking.
"""

from __future__ import annotations

import traceback
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..aig import aig_from_netlist
from ..bdd import build_bdd_from_netlist, dfs_variable_order
from ..mig import (
    CostView,
    CostViewCounters,
    Mig,
    Realization,
    anneal_complements,
    mig_from_netlist,
    mig_matches_netlist,
    optimize_area,
    optimize_area_plus,
    optimize_depth,
    optimize_rram,
    optimize_steps,
    rram_costs,
)
from ..mig.algorithms import (
    clear_complemented_levels,
    eliminate,
    inverter_propagation_pass,
    push_up,
)
from ..mig.views import (
    LevelStats,
    RramCosts,
    level_stats,
    node_heights,
    node_levels,
)
from ..network import Netlist
from ..rram import compile_mig, compile_plim, verify_compiled
from ..sim import (
    evaluate_bdd_slices,
    execute_program_slices,
    first_difference,
    iter_assignment_chunks,
)

#: Check identifiers, in the order the oracle runs them.
CHECKS: Tuple[str, ...] = (
    "xrep-mig",
    "xrep-aig",
    "xrep-bdd",
    "flow-area",
    "flow-depth",
    "flow-rram",
    "flow-steps",
    "flow-anneal",
    "flow-rewrite",
    "costview-diff",
    "tx-audit",
    "compile-imp",
    "compile-maj",
    "plim-exec",
    "crossbar-imp",
    "crossbar-maj",
)


@dataclass
class OracleFailure:
    """One oracle violation, attributable to a specific check."""

    check: str
    detail: str
    #: Filled in by the harness: generator kind and case seed.
    case: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> Dict[str, object]:
        return {"check": self.check, "detail": self.detail, **self.case}


def _guarded(check: str, fn: Callable[[], Optional[OracleFailure]]):
    """Run one check, converting an unexpected crash into a failure —
    a pass that *raises* on a legal circuit is as much a bug as one
    that corrupts it."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - the whole point is catching bugs
        trace = traceback.format_exc(limit=6)
        return OracleFailure(check, f"unexpected exception:\n{trace}")


def _check_representations(netlist: Netlist) -> Optional[OracleFailure]:
    reference = netlist.truth_tables()
    mig_tables = mig_from_netlist(netlist).truth_tables()
    if mig_tables != reference:
        return OracleFailure("xrep-mig", "MIG truth tables diverge from netlist")
    aig_tables = aig_from_netlist(netlist).truth_tables()
    if aig_tables != reference:
        return OracleFailure("xrep-aig", "AIG truth tables diverge from netlist")
    num_inputs = len(netlist.inputs)
    if num_inputs <= 8:
        manager, roots = build_bdd_from_netlist(netlist)
        order = dfs_variable_order(netlist)
        position = {name: i for i, name in enumerate(netlist.inputs)}
        for chunk in iter_assignment_chunks(num_inputs):
            # chunk.slices pack the circuit inputs; the BDD kernel wants
            # them in manager level order.
            var_slices = [chunk.slices[position[name]] for name in order]
            bdd_words = evaluate_bdd_slices(
                manager, roots, var_slices, chunk.mask
            )
            for word, table in zip(bdd_words, reference):
                expected = (table.bits >> chunk.start) & chunk.mask
                mismatch = first_difference(word, expected)
                if mismatch >= 0:
                    assignment = chunk.start + mismatch
                    return OracleFailure(
                        "xrep-bdd",
                        f"BDD disagrees on assignment {assignment:0{num_inputs}b}",
                    )
    return None


_FLOWS: Tuple[Tuple[str, Callable[[Mig, int], object]], ...] = (
    ("flow-area", lambda mig, effort: optimize_area(mig, effort)),
    ("flow-depth", lambda mig, effort: optimize_depth(mig, effort)),
    (
        "flow-rram",
        lambda mig, effort: optimize_rram(mig, Realization.MAJ, effort),
    ),
    (
        "flow-steps",
        lambda mig, effort: optimize_steps(mig, Realization.IMP, effort),
    ),
    (
        "flow-anneal",
        lambda mig, effort: anneal_complements(
            mig, Realization.MAJ, iterations=60 * effort, seed=0x5A
        ),
    ),
    (
        "flow-rewrite",
        lambda mig, effort: optimize_area_plus(mig, max(2, effort // 2)),
    ),
)


def _check_flow(
    name: str,
    runner: Callable[[Mig, int], object],
    base: Mig,
    netlist: Netlist,
    effort: int,
) -> Optional[OracleFailure]:
    mig = base.clone()
    runner(mig, effort)
    mig.check_invariants()
    if not mig_matches_netlist(mig, netlist):
        return OracleFailure(name, "optimized MIG no longer matches reference")
    for realization in (Realization.IMP, Realization.MAJ):
        scratch = rram_costs(mig, realization)
        view_costs = CostView(mig).costs(realization)
        if scratch != view_costs:
            return OracleFailure(
                name,
                f"CostView {realization.value} costs {view_costs.as_row()} "
                f"!= from-scratch {scratch.as_row()} on optimized MIG",
            )
    return None


class ScratchView:
    """The from-scratch reference for the ``costview-diff`` check.

    Answers the :class:`CostView` accessors the optimizer passes read
    by recomputing them from :mod:`repro.mig.views` on every call, and
    never predicts an Ω.I flip group, so ``clear_complemented_levels``
    measures every candidate.
    """

    def __init__(self, mig: Mig) -> None:
        self.mig = mig
        self.counters = CostViewCounters()

    def size_depth(self) -> Tuple[int, int]:
        stats = level_stats(self.mig)
        return stats.size, stats.depth

    def levels(self) -> Dict[int, int]:
        return node_levels(self.mig)

    def stats(self) -> LevelStats:
        return level_stats(self.mig)

    def costs(self, realization: Realization) -> RramCosts:
        return rram_costs(self.mig, realization)

    def reachable(self) -> List[int]:
        return self.mig.reachable_nodes()

    def heights(self) -> Dict[int, int]:
        return node_heights(self.mig)

    def predict_flip_group(self, flips, realization) -> None:
        return None


_PASSES: Tuple[Tuple[str, Callable[[Mig, Any], object]], ...] = (
    ("eliminate", lambda mig, view: eliminate(mig, view=view)),
    ("push_up", lambda mig, view: push_up(mig, view=view)),
    (
        "invprop-maj",
        lambda mig, view: inverter_propagation_pass(
            mig, Realization.MAJ, view=view
        ),
    ),
    (
        "invprop-imp",
        lambda mig, view: inverter_propagation_pass(
            mig, Realization.IMP, cases=None, view=view
        ),
    ),
    (
        "clear-levels-maj",
        lambda mig, view: clear_complemented_levels(
            mig, Realization.MAJ, view=view
        ),
    ),
    (
        "clear-levels-imp",
        lambda mig, view: clear_complemented_levels(
            mig, Realization.IMP, view=view
        ),
    ),
)


def _check_costview_differential(
    base: Mig, netlist: Netlist
) -> Optional[OracleFailure]:
    """Each pass must be result-identical reading a CostView and
    reading the from-scratch :class:`ScratchView`."""
    for pass_name, runner in _PASSES:
        with_view = base.clone()
        without_view = base.clone()
        view = CostView(with_view)
        changed_with = runner(with_view, view)
        changed_without = runner(without_view, ScratchView(without_view))
        view.assert_consistent()
        if bool(changed_with) != bool(changed_without):
            return OracleFailure(
                "costview-diff",
                f"pass {pass_name}: changed={bool(changed_with)} with view, "
                f"{bool(changed_without)} without",
            )
        for realization in (Realization.IMP, Realization.MAJ):
            costs_with = rram_costs(with_view, realization)
            costs_without = rram_costs(without_view, realization)
            if costs_with != costs_without:
                return OracleFailure(
                    "costview-diff",
                    f"pass {pass_name}: {realization.value} costs diverge "
                    f"{costs_with.as_row()} (view) vs "
                    f"{costs_without.as_row()} (scratch)",
                )
        if not mig_matches_netlist(with_view, netlist):
            return OracleFailure(
                "costview-diff",
                f"pass {pass_name} with view broke the function",
            )
        if not mig_matches_netlist(without_view, netlist):
            return OracleFailure(
                "costview-diff",
                f"pass {pass_name} without view broke the function",
            )
    return None


#: Names of the :func:`graph_content` fields, for audit messages.
CONTENT_FIELDS: Tuple[str, ...] = (
    "children",
    "is_pi",
    "fanout",
    "pis",
    "pi_names",
    "pos",
    "po_names",
    "strash",
    "po_index",
)


def graph_content(mig: Mig) -> tuple:
    """A copy of every piece of mutable graph state, in
    :data:`CONTENT_FIELDS` order.

    Fanout, strash and the PO reverse index are compared as dicts:
    content, not insertion order.  Rollback restores content only, and
    nothing that decides a result reads their order (``clone``
    included).  Node ranks are left out: they only ever rise, and
    rollback keeps them (``Mig.check_invariants`` checks their order)."""
    return (
        list(mig._children),
        list(mig._is_pi),
        [dict(counts) for counts in mig._fanout],
        list(mig._pis),
        list(mig._pi_names),
        list(mig._pos),
        list(mig._po_names),
        dict(mig._strash),
        {node: list(refs) for node, refs in mig._po_index.items()},
    )


class TxAuditError(AssertionError):
    """A rollback left graph content different from its checkpoint.

    An ``AssertionError``, not a ``MigError``: the rewrite passes catch
    ``MigError``/``ValueError`` from rejected moves and must not swallow
    an audit failure."""


@contextmanager
def tx_audit() -> Iterator[None]:
    """Check every rollback of every :class:`Mig` against a snapshot.

    Inside the block, each ``checkpoint()`` copies the graph content
    (:func:`graph_content`) and each ``rollback()`` compares the
    restored graph with the copy taken at its checkpoint, raising
    :class:`TxAuditError` that names the differing fields.  This is the
    whole-graph-copy reference for the undo journal; it wraps whatever
    ``Mig.checkpoint``/``commit``/``rollback`` are current on entry.
    """
    checkpoint, commit, rollback = Mig.checkpoint, Mig.commit, Mig.rollback
    # Per graph: (token, content at checkpoint) for every checkpoint
    # opened inside the block, innermost last.
    snapshots: "weakref.WeakKeyDictionary[Mig, List[tuple]]" = (
        weakref.WeakKeyDictionary()
    )

    def audited_checkpoint(mig: Mig) -> int:
        content = graph_content(mig)
        token = checkpoint(mig)
        snapshots.setdefault(mig, []).append((token, content))
        return token

    def resolved(mig: Mig, token: int) -> Optional[tuple]:
        stack = snapshots.get(mig)
        if stack and stack[-1][0] == token:
            return stack.pop()[1]
        return None  # opened before the block: nothing to compare

    def audited_commit(mig: Mig, token: int) -> None:
        commit(mig, token)
        resolved(mig, token)

    def audited_rollback(mig: Mig, token: int) -> None:
        rollback(mig, token)
        expected = resolved(mig, token)
        if expected is None:
            return
        actual = graph_content(mig)
        if actual != expected:
            fields = [
                name
                for name, want, got in zip(CONTENT_FIELDS, expected, actual)
                if want != got
            ]
            raise TxAuditError(
                f"rollback of checkpoint {token} left "
                f"{', '.join(fields)} different from the checkpoint"
            )

    Mig.checkpoint = audited_checkpoint  # type: ignore[method-assign]
    Mig.commit = audited_commit  # type: ignore[method-assign]
    Mig.rollback = audited_rollback  # type: ignore[method-assign]
    try:
        yield
    finally:
        Mig.checkpoint = checkpoint  # type: ignore[method-assign]
        Mig.commit = commit  # type: ignore[method-assign]
        Mig.rollback = rollback  # type: ignore[method-assign]


def _check_tx_audit(
    base: Mig, netlist: Netlist, effort: int
) -> Optional[OracleFailure]:
    """Every optimizer flow's rollbacks must restore their checkpoints.

    Each flow runs once under :func:`tx_audit`; the result must then
    pass the structural invariants and match the netlist.
    """
    for name, runner in _FLOWS:
        mig = base.clone()
        try:
            with tx_audit():
                runner(mig, effort)
        except TxAuditError as error:
            return OracleFailure("tx-audit", f"flow {name}: {error}")
        mig.check_invariants()
        if not mig_matches_netlist(mig, netlist):
            return OracleFailure(
                "tx-audit", f"flow {name} under audit broke the function"
            )
    return None


def _check_compile(
    base: Mig, netlist: Netlist, realization: Realization, effort: int
) -> Optional[OracleFailure]:
    check = f"compile-{realization.value}"
    mig = base.clone()
    optimize_steps(mig, realization, effort)
    report = compile_mig(mig, realization)
    analytic = rram_costs(mig, realization)
    view_costs = CostView(mig).costs(realization)
    if report.analytic != analytic:
        return OracleFailure(
            check,
            f"compiler analytic {report.analytic.as_row()} != "
            f"rram_costs {analytic.as_row()}",
        )
    if view_costs != analytic:
        return OracleFailure(
            check,
            f"CostView {view_costs.as_row()} != analytic {analytic.as_row()}",
        )
    if not report.steps_match_model:
        return OracleFailure(
            check,
            f"measured steps {report.measured_steps} != model "
            f"S={analytic.steps} (depth {analytic.depth})",
        )
    if not verify_compiled(mig, report):
        return OracleFailure(
            check, "compiled program disagrees with the MIG on the array"
        )
    if not mig_matches_netlist(mig, netlist):
        return OracleFailure(check, "optimize_steps broke the function")
    return None


def _check_plim(base: Mig, netlist: Netlist) -> Optional[OracleFailure]:
    mig = base.clone()
    plim = compile_plim(mig)
    num_inputs = mig.num_pis
    plim.program.validate()
    for chunk in iter_assignment_chunks(num_inputs):
        expected = mig.simulate_words(chunk.slices, chunk.mask)
        actual = execute_program_slices(
            plim.program, chunk.slices, chunk.mask, validate=False
        )
        for expected_word, actual_word in zip(expected, actual):
            mismatch = first_difference(expected_word, actual_word)
            if mismatch >= 0:
                assignment = chunk.start + mismatch
                return OracleFailure(
                    "plim-exec",
                    f"PLiM stream wrong on assignment "
                    f"{assignment:0{num_inputs}b}",
                )
    return None


def _check_crossbar(
    base: Mig, realization: Realization
) -> Optional[OracleFailure]:
    """Sequential-vs-placed differential for one realization."""
    from ..crossbar import MappingError, check_placed, map_program

    check = f"crossbar-{realization.value}"
    mig = base.clone()
    report = compile_mig(mig, realization)
    program = report.program
    try:
        placed = map_program(program)
    except MappingError as error:
        return OracleFailure(
            check, f"auto-fit mapping refused a compilable program: {error}"
        )
    if placed.num_parallel_steps > program.num_steps:
        return OracleFailure(
            check,
            f"parallel schedule ({placed.num_parallel_steps} steps) "
            f"exceeds sequential S={program.num_steps}",
        )
    try:
        check_placed(placed)
    except MappingError as error:
        return OracleFailure(check, f"legality audit failed: {error}")
    parallel = placed.as_program()
    num_inputs = program.num_inputs
    for chunk in iter_assignment_chunks(num_inputs):
        sequential_words = execute_program_slices(
            program, chunk.slices, chunk.mask, validate=False
        )
        parallel_words = execute_program_slices(
            parallel, chunk.slices, chunk.mask, validate=False
        )
        for sequential_word, parallel_word in zip(
            sequential_words, parallel_words
        ):
            mismatch = first_difference(sequential_word, parallel_word)
            if mismatch >= 0:
                assignment = chunk.start + mismatch
                return OracleFailure(
                    check,
                    f"placed schedule diverges on assignment "
                    f"{assignment:0{num_inputs}b}",
                )
    return None


def check_case(
    netlist: Netlist,
    mig: Optional[Mig] = None,
    *,
    effort: int = 4,
    checks: Optional[List[str]] = None,
) -> Optional[OracleFailure]:
    """Run the full differential oracle on one circuit.

    ``mig`` optionally supplies the structured MIG the netlist was
    exported from (it may carry dead nodes the netlist cannot express).
    ``checks`` restricts to a subset of :data:`CHECKS` — the shrinker
    uses this to re-test only the check that originally failed.
    """
    enabled = set(checks) if checks is not None else None

    def on(check: str) -> bool:
        # Prefix-tolerant: a crash inside the representation block is
        # attributed to "xrep", which must still match "xrep-bdd" when
        # the shrinker re-runs only the originally failing check.
        if enabled is None:
            return True
        return any(
            check.startswith(c) or c.startswith(check) for c in enabled
        )

    if on("xrep"):
        failure = _guarded("xrep", lambda: _check_representations(netlist))
        if failure is not None:
            return failure

    base = mig if mig is not None else mig_from_netlist(netlist)

    for name, runner in _FLOWS:
        if not on(name):
            continue
        failure = _guarded(
            name, lambda: _check_flow(name, runner, base, netlist, effort)
        )
        if failure is not None:
            return failure

    if on("costview-diff"):
        failure = _guarded(
            "costview-diff",
            lambda: _check_costview_differential(base, netlist),
        )
        if failure is not None:
            return failure

    if on("tx-audit"):
        failure = _guarded(
            "tx-audit", lambda: _check_tx_audit(base, netlist, effort)
        )
        if failure is not None:
            return failure

    for realization in (Realization.IMP, Realization.MAJ):
        check = f"compile-{realization.value}"
        if not on(check):
            continue
        failure = _guarded(
            check,
            lambda: _check_compile(base, netlist, realization, effort),
        )
        if failure is not None:
            return failure

    if on("plim-exec") and len(netlist.inputs) <= 8:
        failure = _guarded("plim-exec", lambda: _check_plim(base, netlist))
        if failure is not None:
            return failure

    if len(netlist.inputs) <= 8:
        for realization in (Realization.IMP, Realization.MAJ):
            check = f"crossbar-{realization.value}"
            if not on(check):
                continue
            failure = _guarded(
                check, lambda: _check_crossbar(base, realization)
            )
            if failure is not None:
                return failure

    return None
