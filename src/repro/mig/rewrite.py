"""MIG axiom implementations (paper Sec. II-B and III-C).

Every public function here is a *function-preserving* local rewrite:
it derives a replacement signal from one of the MIG axioms and installs
it with :meth:`Mig.substitute`, so graph consistency (structural
hashing, Ω.M irredundancy) is maintained automatically.

Axioms implemented:

* ``Ω.M``  — majority rule (enforced structurally at all times);
* ``Ω.D``  — distributivity, both directions
  (``M(x,y,M(u,v,z)) ↔ M(M(x,y,u),M(x,y,v),z)``);
* ``Ω.A``  — associativity (``M(x,u,M(y,u,z)) = M(z,u,M(y,u,x))``);
* ``Ψ.C``  — complementary associativity
  (``M(x,u,M(y,!u,z)) = M(x,u,M(y,x,z))``);
* ``Ω.I``  — inverter propagation (``M(x,y,z) = !M(!x,!y,!z)``), with
  the paper's three RRAM-oriented cases keyed on the number of
  complemented ingoing edges and the polarity of the fanout;
* ``Ψ.R``  — relevance (``M(x,y,z) = M(x,y,z_{x/!y})``).

Complemented edges *into* a gate child are handled uniformly through
*effective children*: an edge ``!M(a,b,c)`` is treated as the gate
``M(!a,!b,!c)`` (one application of Ω.I), which lets every pattern
matcher see through edge polarities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Mig, MigError, Signal, signal_is_complemented, signal_node, signal_not

_SLOT_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def signal_level(levels: Optional[Dict[int, int]], signal: Signal) -> int:
    """Level of the node behind ``signal``.

    PIs, constants, and nodes absent from the map (or a ``None`` map)
    are level 0 — the shared convention of every level-aware rewrite.
    """
    if levels is None:
        return 0
    return levels.get(signal >> 1, 0)


def effective_children(mig: Mig, edge: Signal) -> Optional[Tuple[Signal, Signal, Signal]]:
    """Children of the gate behind ``edge``, seen through its polarity.

    Returns None when the edge does not point at a gate node.
    ``M(edge) == M(effective children)`` with no edge complement left.
    """
    node = signal_node(edge)
    if not mig.is_gate(node):
        return None
    children = mig.children(node)
    if signal_is_complemented(edge):
        return tuple(signal_not(c) for c in children)  # type: ignore[return-value]
    return children


def _multiset_common(
    first: Sequence[Signal], second: Sequence[Signal]
) -> Tuple[List[Signal], List[Signal], List[Signal]]:
    """Split two child triples into (common, rest_first, rest_second)."""
    rest_second = list(second)
    common: List[Signal] = []
    rest_first: List[Signal] = []
    for signal in first:
        if signal in rest_second:
            rest_second.remove(signal)
            common.append(signal)
        else:
            rest_first.append(signal)
    return common, rest_first, rest_second


def _is_single_use(mig: Mig, edge: Signal) -> bool:
    """True iff the gate behind ``edge`` has exactly one reference."""
    node = signal_node(edge)
    return mig.fanout_size(node) == 1 and not mig.po_refs(node)


# ----------------------------------------------------------------------
# Ω.D right-to-left (node merging, used by `eliminate`)
# ----------------------------------------------------------------------


def apply_distributivity_rl(mig: Mig, node: int, *, force: bool = False) -> bool:
    """``M(M(x,y,u), M(x,y,v), z) → M(x,y, M(u,v,z))`` at ``node``.

    Matches through edge polarities.  By default only fires when it is
    guaranteed not to increase the node count (both inner gates are
    single-use, so the rewrite nets at least one node); ``force=True``
    applies any match (used by reshaping passes).
    """
    if not mig.is_gate(node):
        return False
    children = mig.children(node)
    for i, j, k in _SLOT_PAIRS:
        ec_i = effective_children(mig, children[i])
        ec_j = effective_children(mig, children[j])
        if ec_i is None or ec_j is None:
            continue
        if signal_node(children[i]) == signal_node(children[j]):
            continue
        common, rest_i, rest_j = _multiset_common(ec_i, ec_j)
        if len(common) == 3:
            # The two gates compute the same function: Ω.M collapses n.
            equivalent = children[i]
            mig.substitute(node, equivalent)
            return True
        if len(common) < 2:
            continue
        if not force and not (
            _is_single_use(mig, children[i]) and _is_single_use(mig, children[j])
        ):
            continue
        x, y = common[0], common[1]
        u = rest_i[0]
        v = rest_j[0]
        z = children[k]
        inner = mig.make_maj(u, v, z)
        replacement = mig.make_maj(x, y, inner)
        if signal_node(replacement) == node:
            continue
        mig.substitute(node, replacement)
        return True
    return False


# ----------------------------------------------------------------------
# Ω.D left-to-right (depth reduction, used by push-up)
# ----------------------------------------------------------------------


def apply_distributivity_lr(
    mig: Mig, node: int, levels: Dict[int, int]
) -> bool:
    """``M(x,y,M(u,v,z)) → M(M(x,y,u),M(x,y,v),z)`` when it lowers
    the level of ``node``.

    The deepest effective child of the inner gate is hoisted (paper
    Sec. III-C2: beneficial exactly when the critical variable is the
    inner gate's own critical operand).
    """
    if not mig.is_gate(node):
        return False
    children = mig.children(node)
    old_level = 1 + max(levels.get(signal_node(s), 0) for s in children)

    best: Optional[Tuple[int, Tuple[Signal, ...], Signal]] = None
    for i, j, k in _SLOT_PAIRS:
        inner = effective_children(mig, children[k])
        if inner is None:
            continue
        x, y = children[i], children[j]
        outer_level = max(signal_level(levels, x), signal_level(levels, y))
        for hoist_index in range(3):
            z = inner[hoist_index]
            u, v = (inner[m] for m in range(3) if m != hoist_index)
            new_level = 1 + max(
                signal_level(levels, z),
                1 + max(outer_level, signal_level(levels, u)),
                1 + max(outer_level, signal_level(levels, v)),
            )
            if new_level < old_level and (best is None or new_level < best[0]):
                best = (new_level, (x, y, u, v), z)
    if best is None:
        return False
    _new_level, (x, y, u, v), z = best
    left = mig.make_maj(x, y, u)
    right = mig.make_maj(x, y, v)
    replacement = mig.make_maj(left, right, z)
    if signal_node(replacement) == node:
        return False
    mig.substitute(node, replacement)
    return True


# ----------------------------------------------------------------------
# Ω.A associativity
# ----------------------------------------------------------------------


def apply_associativity(
    mig: Mig,
    node: int,
    levels: Dict[int, int],
    *,
    allow_neutral: bool = False,
) -> bool:
    """``M(x,u,M(y,u,z)) → M(z,u,M(y,u,x))`` when the swap lowers the
    level of ``node`` (or keeps it, with ``allow_neutral=True``, for
    reshaping).
    """
    if not mig.is_gate(node):
        return False
    children = mig.children(node)
    old_level = 1 + max(signal_level(levels, s) for s in children)

    for i, j, k in _SLOT_PAIRS:
        inner = effective_children(mig, children[k])
        if inner is None:
            continue
        for u_slot, x_slot in ((i, j), (j, i)):
            u = children[u_slot]
            x = children[x_slot]
            for z_index in range(3):
                if inner[z_index] != u:
                    continue
                # inner = M(y, u, z) with u shared; try swapping x with
                # each remaining inner operand.  The candidate inner is
                # built to measure its *actual* level: Ω.M collapses and
                # strash hits often make it cheaper than the worst-case
                # estimate (this is the paper's depth example
                # M(x,u,M(y,u,M(p,q,r)))).
                others = [inner[m] for m in range(3) if m != z_index]
                for swap_index in range(2):
                    z = others[swap_index]
                    y = others[1 - swap_index]
                    if z == x:
                        continue
                    new_inner = mig.make_maj(y, u, x)
                    new_level = 1 + max(
                        signal_level(levels, z),
                        signal_level(levels, u),
                        _local_level(mig, signal_node(new_inner), levels),
                    )
                    if new_level > old_level:
                        continue
                    if new_level == old_level and not allow_neutral:
                        continue
                    replacement = mig.make_maj(z, u, new_inner)
                    if signal_node(replacement) == node:
                        continue
                    if new_level == old_level and signal_node(
                        replacement
                    ) == signal_node(children[k]):
                        continue
                    try:
                        mig.substitute(node, replacement)
                    except MigError:
                        continue
                    return True
    return False


# ----------------------------------------------------------------------
# Ψ.C complementary associativity
# ----------------------------------------------------------------------


def apply_complementary_associativity(
    mig: Mig, node: int, levels: Optional[Dict[int, int]] = None
) -> bool:
    """``M(x,u,M(y,!u,z)) → M(x,u,M(y,x,z))``.

    Fires when the rewrite does not increase the node's level and
    removes at least one complemented reference (its purpose in the
    paper's algorithms is complement reduction).
    """
    if not mig.is_gate(node):
        return False
    children = mig.children(node)
    old_level = (
        1 + max(signal_level(levels, s) for s in children) if levels else None
    )

    for i, j, k in _SLOT_PAIRS:
        inner = effective_children(mig, children[k])
        if inner is None:
            continue
        for u_slot, x_slot in ((i, j), (j, i)):
            u = children[u_slot]
            x = children[x_slot]
            not_u = signal_not(u)
            for hit in range(3):
                if inner[hit] != not_u:
                    continue
                y, z = (inner[m] for m in range(3) if m != hit)
                # Only beneficial when x is a "cheaper" reference than
                # !u: fewer complements, no deeper level.
                if signal_is_complemented(x) and signal_node(x) != 0:
                    continue
                if levels is not None and signal_level(
                    levels, x
                ) > signal_level(levels, not_u):
                    continue
                new_inner = mig.make_maj(y, x, z)
                replacement = mig.make_maj(x, u, new_inner)
                if signal_node(replacement) == node:
                    continue
                if old_level is not None:
                    new_level = 1 + max(
                        signal_level(levels, x),
                        signal_level(levels, u),
                        1 + max(
                            signal_level(levels, y),
                            signal_level(levels, x),
                            signal_level(levels, z),
                        ),
                    )
                    if new_level > old_level:
                        continue
                mig.substitute(node, replacement)
                return True
    return False


# ----------------------------------------------------------------------
# Ω.I inverter propagation (paper Sec. III-C3, Fig. 4)
# ----------------------------------------------------------------------


def complemented_fanin_count(mig: Mig, node: int) -> int:
    """Number of complemented ingoing edges (constant edges excluded)."""
    return sum(
        1
        for s in mig.children(node)
        if signal_is_complemented(s) and signal_node(s) != 0
    )


def fanout_all_complemented(mig: Mig, node: int) -> bool:
    """True iff every reference to ``node`` carries a complement.

    This is the precondition of the paper's case (2): pushing the
    complement up then *cancels* on every fanout edge, so no level
    gains a complemented edge.
    """
    refs = 0
    for parent in mig.fanout_counts(node):
        for s in mig.children(parent):
            if signal_node(s) == node:
                refs += 1
                if not signal_is_complemented(s):
                    return False
    for po_index in mig.po_refs(node):
        refs += 1
        if not signal_is_complemented(mig.pos[po_index]):
            return False
    return refs > 0


def inverter_propagation_case(mig: Mig, node: int) -> Optional[int]:
    """Classify ``node`` for the paper's Ω.I extension.

    Returns 1, 2 or 3 per Sec. III-C3 (or None when fewer than two
    ingoing complemented edges):

    * case 1 — all three ingoing edges complemented;
    * case 2 — two complemented *and* all fanout references
      complemented (the moved complement cancels everywhere);
    * case 3 — two complemented, fanout not uniformly complemented.
    """
    if not mig.is_gate(node):
        return None
    count = complemented_fanin_count(mig, node)
    if count == 3:
        return 1
    if count == 2:
        return 2 if fanout_all_complemented(mig, node) else 3
    return None


def apply_inverter_propagation(mig: Mig, node: int) -> bool:
    """Flip ``node``: ``M(x,y,z) → !M(!x,!y,!z)`` installed via
    substitution, so every fanout/PO edge polarity toggles."""
    if not mig.is_gate(node):
        return False
    children = mig.children(node)
    flipped = mig.make_maj(*(signal_not(s) for s in children))
    replacement = signal_not(flipped)
    if signal_node(replacement) == node:
        return False
    try:
        mig.substitute(node, replacement)
    except MigError:
        return False
    return True


# ----------------------------------------------------------------------
# Ψ.R relevance
# ----------------------------------------------------------------------


def rebuild_with_replacement(
    mig: Mig,
    root: Signal,
    target: Signal,
    replacement: Signal,
    *,
    size_limit: int = 256,
) -> Optional[Signal]:
    """Rebuild the cone of ``root`` with ``target`` replaced.

    Both polarities are handled (``!target`` becomes ``!replacement``).
    Returns the rebuilt signal, ``root`` itself when nothing matched,
    or None when the cone exceeds ``size_limit``.
    """
    target_node = signal_node(target)
    node_replacement = replacement ^ (target & 1)

    cone = mig.cone_nodes(root, size_limit)
    if cone is None:
        return None

    mapping: Dict[int, Signal] = {target_node: node_replacement}

    def mapped(signal: Signal) -> Signal:
        node = signal_node(signal)
        if node in mapping:
            return mapping[node] ^ (signal & 1)
        return signal

    changed = False
    for node in cone:
        if node == target_node:
            changed = True
            continue
        children = mig.children(node)
        new_children = tuple(mapped(s) for s in children)
        if new_children != children:
            mapping[node] = mig.make_maj(*new_children)
            changed = True
    if not changed:
        return root
    return mapped(root)


def apply_relevance(
    mig: Mig,
    node: int,
    levels: Dict[int, int],
    *,
    size_limit: int = 256,
) -> bool:
    """``M(x,y,z) → M(x,y, z_{x/!y})`` when the substitution shrinks
    the level of ``node`` (z chosen as the deepest child; both (x,y)
    orderings tried)."""
    if not mig.is_gate(node):
        return False
    children = mig.children(node)
    old_level = 1 + max(signal_level(levels, s) for s in children)

    order = sorted(
        range(3),
        key=lambda i: signal_level(levels, children[i]),
        reverse=True,
    )
    z = children[order[0]]
    if not mig.is_gate(signal_node(z)):
        return False
    for x_slot, y_slot in ((order[1], order[2]), (order[2], order[1])):
        x = children[x_slot]
        y = children[y_slot]
        if signal_node(x) == 0:
            continue
        rebuilt = rebuild_with_replacement(
            mig, z, x, signal_not(y), size_limit=size_limit
        )
        if rebuilt is None or rebuilt == z:
            continue
        replacement = mig.make_maj(x, y, rebuilt)
        if signal_node(replacement) == node:
            continue
        # Accept only if the node's level strictly improves.
        new_level = _local_level(mig, signal_node(replacement), levels)
        if new_level >= old_level:
            continue
        try:
            mig.substitute(node, replacement)
        except MigError:
            continue
        return True
    return False


def _local_level(mig: Mig, node: int, levels: Dict[int, int]) -> int:
    """Level of ``node``, computing fresh nodes not present in ``levels``."""
    if node in levels or not mig.is_gate(node):
        return levels.get(node, 0)
    stack = [(node, 0)]
    while stack:
        current, child_index = stack.pop()
        if current in levels:
            continue
        children = mig.children(current)
        pushed = False
        for i in range(child_index, 3):
            child = signal_node(children[i])
            if child not in levels and mig.is_gate(child):
                stack.append((current, i + 1))
                stack.append((child, 0))
                pushed = True
                break
        if not pushed:
            levels[current] = 1 + max(
                levels.get(signal_node(s), 0) for s in children
            )
    return levels[node]
