"""Majority-Inverter Graph core data structure.

An MIG [13] is a DAG whose internal nodes are three-input majority
gates ``M(x, y, z) = xy + xz + yz`` and whose edges may carry a
complement (inversion) attribute.  Constants and regular AND/OR gates
are special cases (``AND(a, b) = M(a, b, 0)``, ``OR(a, b) = M(a, b, 1)``).

Signals
-------
A *signal* is an integer ``(node_index << 1) | complement`` (the AIGER
convention).  Signal 0 is constant false, signal 1 constant true.
Negation is ``signal ^ 1``.

Invariants maintained at all times:

* node 0 is the constant-0 node; primary inputs have no children;
* every gate node's child triple is sorted ascending (Ω.C is thus
  implicit) and irredundant under the majority rule Ω.M (no two equal
  or complementary children) — enforced by :meth:`Mig.make_maj` and by
  :meth:`Mig.substitute`;
* the structural-hash table maps each live sorted triple to exactly one
  node (no duplicate gates among live nodes);
* every node has a topological *rank* with ``rank[child] < rank[parent]``
  on every edge of an attached gate (which makes the graph acyclic);
* the PO reverse index maps each node to the ascending indices of the
  primary outputs that point at it.

Complement *placement* is deliberately **not** canonicalized: the
optimization algorithms of the paper (Sec. III-C/D) explicitly move
complements around with the Ω.I axiom, so the graph must faithfully
keep them where the algorithms put them.  (This is also why the strash
keys raw sorted triples rather than complement-normalized ones: a
normalized table would silently merge ``M(x,y,z)`` with its Ω.I image
and make the complement-placement algorithms no-ops.  NPN-level
canonization lives one layer up, in the resynthesis recipe cache of
:mod:`repro.mig.resynth`.)

Transactions
------------
Every mutating primitive appends an inverse record to an undo journal
while a transaction is open (:meth:`Mig.checkpoint`), so a rejected
speculative edit is undone in O(touched nodes) by
:meth:`Mig.rollback` instead of an O(graph) snapshot copy.  Rollback
replays inverse *events* through the normal event log as well, so an
attached :class:`repro.mig.costview.CostView` rolls its cost state back
in lockstep without a full recompute.  :meth:`Mig.commit` discards the
journal suffix.  ``generation`` stays monotone across rollbacks (a
restored state is a *new* version — caches keyed by generation must
never alias across a rollback).
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..truth import TruthTable, table_mask

Signal = int

# Structural-event kinds recorded in the mutation log consumed by
# :class:`repro.mig.costview.CostView` for delta updates.
EVENT_DETACH = 0  # (EVENT_DETACH, node, old_children)
EVENT_ATTACH = 1  # (EVENT_ATTACH, node, new_children)
EVENT_PO = 2  # (EVENT_PO, index, old_signal_or_None, new_signal)

CONST0: Signal = 0
CONST1: Signal = 1

def make_signal(node: int, complement: bool = False) -> Signal:
    """Build a signal from a node index and a complement flag."""
    return (node << 1) | (1 if complement else 0)


def signal_node(signal: Signal) -> int:
    """Return the node index a signal points at."""
    return signal >> 1


def signal_is_complemented(signal: Signal) -> bool:
    """Return True iff the signal carries the complement attribute."""
    return bool(signal & 1)


def signal_not(signal: Signal) -> Signal:
    """Return the negation of a signal (toggle the complement bit)."""
    return signal ^ 1


class MigError(ValueError):
    """Raised on invalid MIG operations."""


def _reduce_majority(children: Tuple[Signal, Signal, Signal]) -> Optional[Signal]:
    """Apply the majority axiom Ω.M to a *sorted* child triple.

    Returns the reduced signal if the triple is degenerate, else None.
    Sorting guarantees equal signals and complementary pairs (2k, 2k+1)
    are adjacent, so only adjacent pairs need checking.
    """
    a, b, c = children
    if a == b or b == c:
        return b
    if a ^ 1 == b:
        return c
    if b ^ 1 == c:
        return a
    return None


class Mig:
    """A mutable, structurally hashed Majority-Inverter Graph."""

    def __init__(self, name: str = "mig") -> None:
        self.name = name
        # Node 0 is the constant-0 node.
        self._children: List[Optional[Tuple[Signal, Signal, Signal]]] = [None]
        self._is_pi: List[bool] = [False]
        # fanout[n] maps parent node -> number of child slots referencing n.
        self._fanout: List[Dict[int, int]] = [{}]
        self._pis: List[int] = []
        self._pi_names: List[str] = []
        self._pos: List[Signal] = []
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[Signal, Signal, Signal], int] = {}
        # Topological rank per node: rank[child] < rank[parent] on every
        # attached edge.  Ranks only ever rise (see _order_rank), so a
        # rank that was valid before a rollback stays valid after it
        # and the journal never records them.
        self._rank: List[int] = [0]
        # PO reverse index: node -> ascending indices of the POs that
        # point at it (nodes without POs have no entry).
        self._po_index: Dict[int, List[int]] = {}
        self._generation = 0  # bumped on every structural change
        # Structural-event log (see module constants).  Disabled until a
        # CostView calls :meth:`enable_event_log`; clones therefore pay
        # zero logging overhead.  Cursors are absolute positions
        # ``_events_base + index``; wholesale rewrites (copy_from, log
        # overflow) jump ``_events_base`` past every live cursor, which
        # consumers detect and answer with a full recompute.
        self._events: List[tuple] = []
        self._events_base = 0
        self._track_events = False
        # Transactional undo journal: inverse records appended by the
        # mutation primitives while a checkpoint is open.  Records (LIFO
        # on rollback): ``("n", node)`` node allocation, ``("a", node,
        # prev_strash_owner)`` attach, ``("d", node, triple, owned)``
        # detach, ``("p", index, old_signal)`` PO write, and ``("w",
        # arrays)`` wholesale array replacement (copy_from/compact) that
        # also carries the rank array and the PO index.
        # Nested checkpoints share the journal through a mark stack.
        self._undo: List[tuple] = []
        self._tx_stack: List[int] = []
        # Per-generation memo of :meth:`reachable_nodes` — the single
        # hottest traversal (cloning, simulation, level/cost rebuilds
        # all start from it).  Every mutating primitive bumps
        # ``_generation`` before the next traversal, so keying the memo
        # on the generation is exact.
        self._order_cache: Optional[List[int]] = None
        self._order_cache_gen = -1
        # Monotone profiling counters (surfaced via CostView.profile()).
        self.tx_checkpoints = 0
        self.tx_rollbacks = 0
        self.tx_undo_replayed = 0
        self.strash_hits = 0
        self.strash_misses = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotone counter bumped on every structural mutation.

        Views cache against this to know when to recompute.
        """
        return self._generation

    def enable_event_log(self) -> int:
        """Start recording structural events for incremental views.

        Every ``_attach``/``_detach``/PO edit from now on appends an
        event tuple; returns the current (absolute) event cursor.
        Idempotent — multiple views may share the log.
        """
        self._track_events = True
        return self._events_base + len(self._events)

    def event_cursor(self) -> int:
        """Absolute position just past the last recorded event."""
        return self._events_base + len(self._events)

    def events_since(self, cursor: int) -> Optional[List[tuple]]:
        """Events recorded since ``cursor``, or None if the prefix was
        discarded (the caller must fall back to a full recompute)."""
        start = cursor - self._events_base
        if start < 0:
            return None
        return self._events[start:]

    def discard_events_upto(self, cursor: int) -> None:
        """Drop the event prefix before ``cursor`` (a consumed delta).

        Any other consumer whose cursor is older detects the jump in
        ``_events_base`` and recomputes from scratch.
        """
        drop = cursor - self._events_base
        if drop > 0:
            del self._events[:drop]
            self._events_base = cursor

    def _log_event(self, event: tuple) -> None:
        self._events.append(event)
        if len(self._events) > (1 << 20):  # bound memory; forces full
            self._events_base += len(self._events)  # recompute downstream
            self._events.clear()

    def _log_events_bulk(self, batch: List[tuple]) -> None:
        """Append many events with one ``extend`` when the memory bound
        allows; otherwise fall back to per-event :meth:`_log_event` so
        the overflow (base jump + clear) fires at exactly the same
        event as a sequential append would."""
        if len(self._events) + len(batch) <= (1 << 20):
            self._events.extend(batch)
        else:
            for event in batch:
                self._log_event(event)

    @property
    def num_nodes_allocated(self) -> int:
        """Total node slots ever allocated (including dead nodes)."""
        return len(self._children)

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def pis(self) -> List[int]:
        """Primary-input node indices, in declaration order."""
        return list(self._pis)

    @property
    def pos(self) -> List[Signal]:
        """Primary-output signals, in declaration order."""
        return list(self._pos)

    @property
    def pi_names(self) -> List[str]:
        """Primary-input names."""
        return list(self._pi_names)

    @property
    def po_names(self) -> List[str]:
        """Primary-output names."""
        return list(self._po_names)

    def is_pi(self, node: int) -> bool:
        """True iff ``node`` is a primary input."""
        return self._is_pi[node]

    def is_constant(self, node: int) -> bool:
        """True iff ``node`` is the constant node."""
        return node == 0

    def is_gate(self, node: int) -> bool:
        """True iff ``node`` is a majority gate."""
        return self._children[node] is not None

    def children(self, node: int) -> Tuple[Signal, Signal, Signal]:
        """Return the (sorted) child signal triple of a gate node."""
        triple = self._children[node]
        if triple is None:
            raise MigError(f"node {node} is not a gate")
        return triple

    def fanout_counts(self, node: int) -> Dict[int, int]:
        """Return parent node → number of referencing child slots."""
        return dict(self._fanout[node])

    def fanout_size(self, node: int) -> int:
        """Total gate references to ``node`` (PO references excluded)."""
        return sum(self._fanout[node].values())

    def po_refs(self, node: int) -> List[int]:
        """Return PO indices whose signal points at ``node`` (ascending)."""
        return list(self._po_index.get(node, ()))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> Signal:
        """Create a primary input; returns its (positive) signal."""
        if self._tx_stack:
            raise MigError("cannot add a primary input inside a transaction")
        node = self._new_node(None, is_pi=True)
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"x{len(self._pis) - 1}")
        return make_signal(node)

    def add_po(self, signal: Signal, name: Optional[str] = None) -> int:
        """Register a primary output; returns the output index."""
        if self._tx_stack:
            raise MigError("cannot add a primary output inside a transaction")
        self._check_signal(signal)
        node = signal_node(signal)
        self._pos.append(signal)
        self._po_names.append(name if name is not None else f"f{len(self._pos) - 1}")
        self._po_index.setdefault(node, []).append(len(self._pos) - 1)
        self._generation += 1
        if self._track_events:
            self._log_event((EVENT_PO, len(self._pos) - 1, None, signal))
        return len(self._pos) - 1

    def set_po(self, index: int, signal: Signal) -> None:
        """Redirect an existing primary output to a new signal."""
        self._check_signal(signal)
        old = self._pos[index]
        if self._tx_stack:
            self._undo.append(("p", index, old))
        self._pos[index] = signal
        self._repoint_po(index, signal_node(old), signal_node(signal))
        self._generation += 1
        if self._track_events and old != signal:
            self._log_event((EVENT_PO, index, old, signal))

    def make_maj(self, a: Signal, b: Signal, c: Signal) -> Signal:
        """Return the signal of ``M(a, b, c)``, creating a node if needed.

        Applies Ω.M reduction and structural hashing; Ω.C is implicit
        in the sorted child order.
        """
        for signal in (a, b, c):
            self._check_signal(signal)
        children = tuple(sorted((a, b, c)))
        reduced = _reduce_majority(children)  # type: ignore[arg-type]
        if reduced is not None:
            return reduced
        existing = self._strash.get(children)  # type: ignore[arg-type]
        if existing is not None:
            self.strash_hits += 1
            return make_signal(existing)
        self.strash_misses += 1
        node = self._new_node(children)  # type: ignore[arg-type]
        return make_signal(node)

    def make_and(self, a: Signal, b: Signal) -> Signal:
        """``a AND b`` as ``M(a, b, 0)``."""
        return self.make_maj(a, b, CONST0)

    def make_or(self, a: Signal, b: Signal) -> Signal:
        """``a OR b`` as ``M(a, b, 1)``."""
        return self.make_maj(a, b, CONST1)

    def make_xor(self, a: Signal, b: Signal) -> Signal:
        """``a XOR b`` as ``AND(OR(a, b), NAND(a, b))`` (3 nodes)."""
        return self.make_and(self.make_or(a, b), signal_not(self.make_and(a, b)))

    def make_mux(self, sel: Signal, then: Signal, other: Signal) -> Signal:
        """``sel ? then : other`` as ``OR(AND(sel, then), AND(!sel, other))``."""
        return self.make_or(
            self.make_and(sel, then), self.make_and(signal_not(sel), other)
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def substitute(self, node: int, replacement: Signal) -> None:
        """Replace every reference to ``node`` by ``replacement``.

        ``replacement`` must be functionally equivalent to ``node`` for
        the graph to stay correct; the caller is responsible for that
        (all the axiom implementations in :mod:`repro.mig.rewrite`
        guarantee it).  Structural hashing is repaired transitively:
        parents whose rewritten triples collide with existing nodes are
        merged, and parents that become degenerate under Ω.M are
        reduced, cascading upward.
        """
        self._check_signal(replacement)
        if signal_node(replacement) == node:
            if replacement == make_signal(node):
                return
            raise MigError("cannot substitute a node by its own complement")
        if self._in_cone(signal_node(replacement), node):
            raise MigError(f"substitution of node {node} would create a cycle")
        # Cascaded merges can replace a node that is itself the target
        # of a pending (or already processed) redirection; the
        # resolution map keeps every redirection pointing at the final
        # live node (complements compose along the chain).
        resolution: Dict[int, Signal] = {}

        def resolve(signal: Signal) -> Signal:
            complement = signal & 1
            target = signal_node(signal)
            while target in resolution:
                step = resolution[target]
                complement ^= step & 1
                target = signal_node(step)
            return (target << 1) | complement

        worklist: List[Tuple[int, Signal]] = [(node, replacement)]
        while worklist:
            old, new = worklist.pop()
            new = resolve(new)
            if signal_node(new) == old:
                continue  # chain already collapsed onto this node
            resolution[old] = new
            # Redirect primary outputs, in ascending index order.
            moved = self._po_index.pop(old, None)
            if moved is not None:
                for i in moved:
                    po = self._pos[i]
                    redirected = new ^ (po & 1)
                    if self._tx_stack:
                        self._undo.append(("p", i, po))
                    self._pos[i] = redirected
                    if self._track_events:
                        self._log_event((EVENT_PO, i, po, redirected))
                refs = self._po_index.setdefault(signal_node(new), [])
                refs.extend(moved)
                refs.sort()
            # Redirect parents (snapshot: _rebuild_parent mutates fanout).
            for parent in list(self._fanout[old].keys()):
                merged = self._rebuild_parent(parent, old, new)
                if merged is not None:
                    worklist.append(merged)
        self._generation += 1

    def _rebuild_parent(
        self, parent: int, old: int, new: Signal
    ) -> Optional[Tuple[int, Signal]]:
        """Rewrite ``parent``'s children, replacing node ``old``.

        Returns a follow-up (node, replacement) pair if the parent
        itself reduced or merged into another node, else None.
        """
        triple = self._children[parent]
        if triple is None:
            return None
        new_children = tuple(
            sorted(
                (new ^ (s & 1)) if signal_node(s) == old else s for s in triple
            )
        )
        self._detach(parent)
        reduced = _reduce_majority(new_children)  # type: ignore[arg-type]
        if reduced is not None:
            return (parent, reduced)
        existing = self._strash.get(new_children)  # type: ignore[arg-type]
        if existing is not None and existing != parent:
            return (parent, make_signal(existing))
        self._attach(parent, new_children)  # type: ignore[arg-type]
        return None

    def replace_node_children(
        self, node: int, children: Tuple[Signal, Signal, Signal]
    ) -> Optional[Signal]:
        """Give ``node`` a new child triple (caller asserts equivalence).

        Returns None on success; if the new triple reduces (Ω.M) or
        collides with an existing node, the graph is left unchanged and
        the signal the node *would* equal is returned so the caller can
        decide to :meth:`substitute` instead.
        """
        for signal in children:
            self._check_signal(signal)
            if self._in_cone(signal_node(signal), node):
                raise MigError("new children would create a cycle")
        new_children = tuple(sorted(children))
        reduced = _reduce_majority(new_children)  # type: ignore[arg-type]
        if reduced is not None:
            return reduced
        existing = self._strash.get(new_children)  # type: ignore[arg-type]
        if existing is not None and existing != node:
            return make_signal(existing)
        if existing == node:
            return None
        self._detach(node)
        self._attach(node, new_children)  # type: ignore[arg-type]
        self._generation += 1
        return None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def reachable_nodes(self) -> List[int]:
        """Gate nodes reachable from the POs, in topological order.

        Memoized per generation (every mutating primitive bumps
        ``_generation`` before control returns to a caller that could
        traverse); returns a fresh list the caller may mutate.
        """
        return list(self._reachable_cached())

    def _reachable_cached(self) -> List[int]:
        """The shared per-generation topological order — do NOT mutate.

        In-package consumers (CostView, clone, simulation, the cost
        kernels) read this directly to skip both the DFS and the
        defensive copy.
        """
        if self._order_cache_gen != self._generation or self._order_cache is None:
            self._order_cache = self._compute_reachable()
            self._order_cache_gen = self._generation
        return self._order_cache

    def _compute_reachable(self) -> List[int]:
        children_arr = self._children
        visited: Set[int] = set()
        order: List[int] = []
        stack: List[Tuple[int, int]] = []
        for po in self._pos:
            root = po >> 1
            if root in visited or children_arr[root] is None:
                continue
            stack.append((root, 0))
            while stack:
                node, child_index = stack.pop()
                if node in visited:
                    continue
                triple = children_arr[node]
                pushed = False
                for i in range(child_index, 3):
                    child = triple[i] >> 1  # type: ignore[index]
                    if child not in visited and children_arr[child] is not None:
                        stack.append((node, i + 1))
                        stack.append((child, 0))
                        pushed = True
                        break
                if not pushed:
                    visited.add(node)
                    order.append(node)
        return order

    def num_gates(self) -> int:
        """Number of live (PO-reachable) gate nodes — the MIG *size*."""
        return len(self._reachable_cached())

    def cone_nodes(
        self, signal: Signal, limit: Optional[int] = None
    ) -> Optional[List[int]]:
        """Gate nodes in the transitive fan-in cone of ``signal`` (topo order).

        With ``limit``, returns None as soon as the walk discovers more
        than ``limit`` nodes, so deciding that a cone is too large costs
        O(limit), not O(cone).
        """
        children_arr = self._children
        root = signal_node(signal)
        if children_arr[root] is None:
            return []
        if limit is not None and limit < 1:
            return None
        visited: Set[int] = set()
        order: List[int] = []
        # The stack holds exactly the current DFS path, so every gate is
        # pushed once and ``discovered`` counts distinct cone nodes.
        stack: List[Tuple[int, int]] = [(root, 0)]
        discovered = 1
        while stack:
            node, child_index = stack.pop()
            triple = children_arr[node]
            pushed = False
            for i in range(child_index, 3):
                child = triple[i] >> 1  # type: ignore[index]
                if child not in visited and children_arr[child] is not None:
                    discovered += 1
                    if limit is not None and discovered > limit:
                        return None
                    stack.append((node, i + 1))
                    stack.append((child, 0))
                    pushed = True
                    break
            if not pushed:
                visited.add(node)
                order.append(node)
        return order

    def _in_cone(self, node: int, target: int) -> bool:
        """True iff ``target`` is in the fan-in cone of ``node`` (or equal).

        Exact, and proportional to the part of the cone ranked above
        ``target``: a node other than ``target`` with ``rank <=
        rank[target]`` cannot have ``target`` below it, so the walk
        never enters it.
        """
        if node == target:
            return True
        rank = self._rank
        floor = rank[target]
        if rank[node] <= floor:
            return False
        children_arr = self._children
        stack = [node]
        seen = {node}
        while stack:
            triple = children_arr[stack.pop()]
            if triple is None:
                continue
            for s in triple:
                child = s >> 1
                if child == target:
                    return True
                if rank[child] > floor and child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate_words(
        self, input_words: Sequence[int], mask: int
    ) -> List[int]:
        """Bit-parallel simulation over arbitrary-width words.

        ``input_words[i]`` holds the test vectors of the *i*-th primary
        input; bit *v* of every word is test vector *v*.  Returns one
        word per primary output.
        """
        if len(input_words) != len(self._pis):
            raise MigError(
                f"expected {len(self._pis)} input words, got {len(input_words)}"
            )
        values: Dict[int, int] = {0: 0}
        for node, word in zip(self._pis, input_words):
            values[node] = word & mask

        def signal_word(signal: Signal) -> int:
            word = values[signal_node(signal)]
            return word ^ mask if signal & 1 else word

        for node in self._reachable_cached():
            a, b, c = (signal_word(s) for s in self.children(node))
            values[node] = (a & b) | (a & c) | (b & c)
        return [signal_word(po) for po in self._pos]

    def truth_tables(self) -> List[TruthTable]:
        """Exhaustive per-output truth tables (guarded to 20 inputs)."""
        num_vars = len(self._pis)
        if num_vars > 20:
            raise MigError(f"refusing exhaustive simulation of {num_vars} inputs")
        mask = table_mask(num_vars)
        words = [
            TruthTable.variable(num_vars, i).bits for i in range(num_vars)
        ]
        return [
            TruthTable(num_vars, word)
            for word in self.simulate_words(words, mask)
        ]

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------

    def clone(self) -> "Mig":
        """Deep-copy the live part of the graph (dead nodes dropped).

        Built by direct array construction: the node remapping is
        injective on signals, so mapped triples can neither Ω.M-reduce
        nor collide in the strash, and the result is identical to the
        (much slower) make_maj-based rebuild it replaces.
        """
        copy = type(self)(self.name)
        children_arr = self._children
        mapping = [-1] * len(children_arr)  # node -> signal in copy
        mapping[0] = CONST0
        c_children = copy._children
        c_is_pi = copy._is_pi
        c_fanout = copy._fanout
        c_strash = copy._strash
        c_rank = copy._rank
        for node, name in zip(self._pis, self._pi_names):
            idx = len(c_children)
            c_children.append(None)
            c_is_pi.append(True)
            c_fanout.append({})
            c_rank.append(0)
            copy._pis.append(idx)
            copy._pi_names.append(name)
            mapping[node] = idx << 1

        def copy_gate(node: int) -> None:
            sa, sb, sc = children_arr[node]  # type: ignore[misc]
            a = mapping[sa >> 1] ^ (sa & 1)
            b = mapping[sb >> 1] ^ (sb & 1)
            c = mapping[sc >> 1] ^ (sc & 1)
            if b < a:
                a, b = b, a
            if c < b:
                b, c = c, b
                if b < a:
                    a, b = b, a
            triple = (a, b, c)
            idx = len(c_children)
            c_children.append(triple)
            c_is_pi.append(False)
            c_fanout.append({})
            rank = c_rank[a >> 1]
            if c_rank[b >> 1] > rank:
                rank = c_rank[b >> 1]
            if c_rank[c >> 1] > rank:
                rank = c_rank[c >> 1]
            c_rank.append(rank + 1)
            c_strash[triple] = idx
            for s in triple:
                fo = c_fanout[s >> 1]
                fo[idx] = fo.get(idx, 0) + 1
            mapping[node] = idx << 1

        for node in self._reachable_cached():
            copy_gate(node)
        for po, name in zip(self._pos, self._po_names):
            driver = signal_node(po)
            if mapping[driver] == -1:
                # PO on an unreachable-from-other-POs node: copy its cone.
                for node in self.cone_nodes(po):
                    if mapping[node] == -1:
                        copy_gate(node)
                if mapping[driver] == -1:
                    raise MigError(f"PO references detached node {driver}")
            copy._po_index.setdefault(mapping[driver] >> 1, []).append(
                len(copy._pos)
            )
            copy._pos.append(mapping[driver] ^ (po & 1))
            copy._po_names.append(name)
        copy._generation = len(c_children) - 1 + len(copy._pos)
        return copy

    def sweep_dead(self) -> int:
        """Detach all gate nodes unreachable from the POs.

        Rewriting passes construct candidate structures speculatively;
        rejected candidates stay allocated but dead.  Sweeping detaches
        them (clearing their strash/fanout entries) so fanout-based
        analyses (single-use checks, MFFC sizes) see only live logic.
        Node ids remain stable; returns the number of nodes detached.
        """
        live = set(self._reachable_cached())
        detached = 0
        for node in range(len(self._children)):
            if self._children[node] is not None and node not in live:
                self._detach(node)
                detached += 1
        if detached:
            self._generation += 1
        return detached

    def copy_from(self, other: "Mig") -> None:
        """Overwrite this graph with a deep copy of ``other``.

        Used by the optimization drivers to roll back to the best
        snapshot seen during iterative exploration.  PI/PO counts and
        names must match (they always do for snapshots of the same
        function).
        """
        if other.num_pis != self.num_pis or other.num_pos != self.num_pos:
            raise MigError("copy_from requires matching interfaces")
        source = other.clone()
        if self._tx_stack:
            # Wholesale record: the replaced arrays are captured by
            # reference (O(1)) — nothing mutates them once swapped out,
            # and rollback swaps them straight back.
            self._undo.append((
                "w",
                (
                    self._children,
                    self._is_pi,
                    self._fanout,
                    self._pis,
                    self._pi_names,
                    self._pos,
                    self._po_names,
                    self._strash,
                    self._rank,
                    self._po_index,
                ),
            ))
        self._children = source._children
        self._is_pi = source._is_pi
        self._fanout = source._fanout
        self._pis = source._pis
        self._pi_names = source._pi_names
        self._pos = source._pos
        self._po_names = source._po_names
        self._strash = source._strash
        self._rank = source._rank
        self._po_index = source._po_index
        self._generation += 1
        # The graph changed wholesale without per-mutation events: jump
        # the event base past every live cursor so views full-recompute.
        self._events_base += len(self._events) + 1
        self._events.clear()

    def compact(self) -> None:
        """Renumber to the canonical clone-fixpoint id space, dropping
        dead nodes.

        Equivalent to the historical ``mig.copy_from(mig.clone())``
        idiom: the result is ``clone(clone(self))``.  A single clone
        would *not* do — renumbering re-sorts child triples, which
        reorders the next PO-driven traversal — but the double image is
        a fixpoint, so ``compact`` is idempotent on content.  The
        optimizers call this after every rejecting :meth:`rollback`, so
        the restored state is the same as a snapshot restore by
        ``copy_from`` would give.
        """
        self.compactions += 1
        self.copy_from(self.clone())

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while at least one checkpoint is open."""
        return bool(self._tx_stack)

    def checkpoint(self) -> int:
        """Open a transaction; returns a token for commit/rollback.

        Transactions nest: each checkpoint marks a position in the
        shared undo journal, and tokens must be resolved innermost
        first.  While any transaction is open, ``add_pi``/``add_po``
        raise (the optimizers never extend the interface mid-run, and
        interface edits are not journaled).
        """
        self._tx_stack.append(len(self._undo))
        self.tx_checkpoints += 1
        return len(self._tx_stack) - 1

    def commit(self, token: int) -> None:
        """Close the innermost transaction, keeping its mutations."""
        if token != len(self._tx_stack) - 1:
            raise MigError(
                f"commit token {token} is not the innermost transaction"
            )
        self._tx_stack.pop()
        if not self._tx_stack:
            self._undo.clear()

    def rollback(self, token: int) -> None:
        """Undo every mutation since the matching :meth:`checkpoint`.

        Replays the journal suffix in reverse: each inverse operation
        restores ``_children``/``_fanout``/``_strash``/``_pos`` exactly
        and logs the inverse structural event, so attached views
        delta-update instead of recomputing.  Dict *insertion order*
        (fanout, strash) is not restored — only content — which is why
        the optimizer call sites follow a rollback with :meth:`compact`
        (``clone`` never reads those dicts, so the compacted result is
        bit-identical to a snapshot restore).  ``generation`` keeps
        rising.
        """
        if token != len(self._tx_stack) - 1:
            raise MigError(
                f"rollback token {token} is not the innermost transaction"
            )
        mark = self._tx_stack.pop()
        undo = self._undo
        children_arr = self._children
        fanout = self._fanout
        strash = self._strash
        track = self._track_events
        replayed = 0
        # Inverse events are buffered and flushed with one extend (same
        # order, same overflow point — see _log_events_bulk); runs of
        # consecutive allocation records pop the tail with one truncate.
        pending: List[tuple] = []
        i = len(undo) - 1
        while i >= mark:
            record = undo[i]
            kind = record[0]
            if kind == "a":
                _kind, node, prev = record
                triple = children_arr[node]
                children_arr[node] = None
                if prev is None:
                    del strash[triple]
                else:
                    strash[triple] = prev
                for s in triple:  # type: ignore[union-attr]
                    counts = fanout[s >> 1]
                    counts[node] -= 1
                    if not counts[node]:
                        del counts[node]
                if track:
                    pending.append((EVENT_DETACH, node, triple))
            elif kind == "d":
                _kind, node, triple, owned = record
                children_arr[node] = triple
                if owned:
                    strash[triple] = node
                for s in triple:
                    counts = fanout[s >> 1]
                    counts[node] = counts.get(node, 0) + 1
                self._order_rank(node, triple)
                if track:
                    pending.append((EVENT_ATTACH, node, triple))
            elif kind == "n":
                # Allocations journal in ascending node order, so a
                # reverse-replay run of "n" records pops a contiguous
                # tail — validate the whole run, then truncate once.
                top = len(children_arr) - 1
                run = 0
                while i - run >= mark and undo[i - run][0] == "n":
                    node = undo[i - run][1]
                    if node != top - run or children_arr[node] is not None:
                        raise MigError("undo journal corrupt: bad node pop")
                    run += 1
                del children_arr[top - run + 1 :]
                del self._is_pi[top - run + 1 :]
                del fanout[top - run + 1 :]
                del self._rank[top - run + 1 :]
                replayed += run
                i -= run
                continue
            elif kind == "p":
                _kind, index, old = record
                current = self._pos[index]
                self._pos[index] = old
                self._repoint_po(index, current >> 1, old >> 1)
                if track and current != old:
                    pending.append((EVENT_PO, index, current, old))
            else:  # "w" — wholesale array swap (copy_from/compact)
                # Flush buffered events first: the base jump below
                # depends on the live event count.
                if pending:
                    self._log_events_bulk(pending)
                    pending = []
                (
                    self._children,
                    self._is_pi,
                    self._fanout,
                    self._pis,
                    self._pi_names,
                    self._pos,
                    self._po_names,
                    self._strash,
                    self._rank,
                    self._po_index,
                ) = record[1]
                children_arr = self._children
                fanout = self._fanout
                strash = self._strash
                # Same contract as the forward wholesale op: no
                # per-mutation events exist, force a full recompute.
                self._events_base += len(self._events) + 1
                self._events.clear()
            replayed += 1
            i -= 1
        if pending:
            self._log_events_bulk(pending)
        del undo[mark:]
        self.tx_rollbacks += 1
        self.tx_undo_replayed += replayed
        self._generation += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_signal(self, signal: Signal) -> None:
        node = signal_node(signal)
        if not 0 <= node < len(self._children):
            raise MigError(f"signal {signal} references unknown node {node}")

    def _new_node(
        self,
        children: Optional[Tuple[Signal, Signal, Signal]],
        is_pi: bool = False,
    ) -> int:
        node = len(self._children)
        self._children.append(None)
        self._is_pi.append(is_pi)
        self._fanout.append({})
        self._rank.append(0)
        if self._tx_stack:
            self._undo.append(("n", node))
        if children is not None:
            self._attach(node, children)
        self._generation += 1
        return node

    def _attach(self, node: int, children: Tuple[Signal, Signal, Signal]) -> None:
        """Install a sorted child triple and register fanout + strash."""
        self._children[node] = children
        if self._tx_stack:
            # The previous strash owner (a dead duplicate gate, usually
            # None) must be reinstated on rollback.
            self._undo.append(("a", node, self._strash.get(children)))
        self._strash[children] = node
        for s in children:
            child = signal_node(s)
            self._fanout[child][node] = self._fanout[child].get(node, 0) + 1
        self._order_rank(node, children)
        if self._track_events:
            self._log_event((EVENT_ATTACH, node, children))

    def _order_rank(
        self, node: int, children: Tuple[Signal, Signal, Signal]
    ) -> None:
        """Restore ``rank[child] < rank[parent]`` after ``node`` gained
        ``children``: raise its rank if needed and push the raise up
        through fanout only while the order is violated.

        Terminates because the attached edges form a DAG (every caller
        rules out cycles first)."""
        rank = self._rank
        a, b, c = children
        needed = rank[a >> 1]
        if rank[b >> 1] > needed:
            needed = rank[b >> 1]
        if rank[c >> 1] > needed:
            needed = rank[c >> 1]
        needed += 1
        if needed <= rank[node]:
            return
        rank[node] = needed
        fanout = self._fanout
        if not fanout[node]:
            return
        stack = [node]
        while stack:
            current = stack.pop()
            above = rank[current] + 1
            for parent in fanout[current]:
                if rank[parent] < above:
                    rank[parent] = above
                    stack.append(parent)

    def _repoint_po(self, index: int, old_node: int, new_node: int) -> None:
        """Move PO ``index`` from ``old_node`` to ``new_node`` in the
        reverse index, keeping each entry ascending."""
        if old_node == new_node:
            return
        index_map = self._po_index
        refs = index_map[old_node]
        if len(refs) == 1:
            del index_map[old_node]
        else:
            refs.remove(index)
        insort(index_map.setdefault(new_node, []), index)

    def _detach(self, node: int) -> None:
        """Remove a gate's children from fanout tables and the strash."""
        triple = self._children[node]
        if triple is None:
            return
        owned = self._strash.get(triple) == node
        if self._tx_stack:
            self._undo.append(("d", node, triple, owned))
        if owned:
            del self._strash[triple]
        for s in triple:
            child = signal_node(s)
            counts = self._fanout[child]
            counts[node] -= 1
            if counts[node] == 0:
                del counts[node]
        self._children[node] = None
        if self._track_events:
            self._log_event((EVENT_DETACH, node, triple))

    def check_invariants(self) -> None:
        """Assert the structural invariants (used by the test-suite).

        The rank order on every attached edge also proves acyclicity.
        """
        if len(self._rank) != len(self._children):
            raise MigError("rank array out of step with the node arrays")
        live = set(self._reachable_cached())
        rank = self._rank
        for node, triple in enumerate(self._children):
            if triple is None:
                continue
            if list(triple) != sorted(triple):
                raise MigError(f"node {node} has unsorted children {triple}")
            if _reduce_majority(triple) is not None:
                raise MigError(f"node {node} is Ω.M-reducible: {triple}")
            if self._strash.get(triple) != node and node in live:
                # A dead duplicate is tolerated only if it is unreachable.
                raise MigError(f"live node {node} missing from strash")
            for s in triple:
                child = signal_node(s)
                if rank[child] >= rank[node]:
                    raise MigError(
                        f"rank order violated on edge {child} -> {node}"
                    )
        scanned: Dict[int, List[int]] = {}
        for index, po in enumerate(self._pos):
            scanned.setdefault(signal_node(po), []).append(index)
        if scanned != self._po_index:
            raise MigError("PO reverse index differs from a full PO scan")

    def __repr__(self) -> str:
        return (
            f"Mig({self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"gates={self.num_gates()})"
        )

