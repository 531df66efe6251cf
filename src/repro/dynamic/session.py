"""Dynamic linked lists: a pointer arena with a maintained matching.

The static tier computes a maximal matching of a frozen list; this
module keeps one *alive* while the list mutates.  A
:class:`DynamicList` owns an arena of nodes — a forest of disjoint
paths, since edits like :meth:`~DynamicList.split` and
:meth:`~DynamicList.splice_out` legitimately leave several components —
plus a ``chosen`` bit per node: ``chosen[v]`` means the pointer leaving
``v`` is in the matching (the same tails-of-chosen-pointers convention
the static :class:`~repro.core.matching.Matching` uses).

Every edit repairs the matching *locally*.  The repair is a worklist
confined to the radius-1 neighborhood of the edited pointers: a node is
re-examined only when an incident pointer appeared/vanished or a
neighbor's bit flipped.  Because an added pointer's endpoints were both
uncovered (so adding never uncovers anyone) and drops happen only at
edit-inflicted conflicts, the cascade cannot leave the edit
neighborhood — each edit costs O(1) *moves* (bit flips) in the
move-complexity yardstick of the self-stabilization literature
(Cohen/Pilard/Sohier et al., arXiv:1709.04811; arXiv:1611.05616).
The :class:`RepairLedger` counts those moves, plus the nodes the
worklist examined ("touched"), per operation kind.

For arbitrary corruption (fault injection flipping ``chosen`` bits at
random), :meth:`DynamicList.stabilize` delegates to the batch
self-stabilizer :func:`repro.resilience.repair_matching` per component
— the dynamic tier's convergence guarantee is inherited from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from .._util import next_power_of_two
from ..errors import InvalidParameterError, VerificationError
from ..lists.linked_list import NIL, LinkedList
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, event as telemetry_event

__all__ = [
    "ComponentSnapshot",
    "DynamicList",
    "RepairLedger",
    "StabilizeReport",
]

#: Operations the ledger accounts separately.
EDIT_OPS = (
    "add_node",
    "insert_after",
    "delete",
    "split",
    "concat",
    "splice_out",
    "splice_in",
)


@dataclass
class RepairLedger:
    """Move/touched-node accounting for incremental repair.

    ``moves`` is the Cohen/Pilard/Sohier yardstick — one move per
    ``chosen``-bit flip; ``touched`` counts worklist pops (nodes whose
    neighborhood was examined).  ``max_moves_per_edit`` is the quantity
    the O(1)-neighborhood bound constrains.
    """

    edits: int = 0
    moves: int = 0
    touched: int = 0
    recomputes: int = 0
    stabilizations: int = 0
    suppressed: int = 0
    maintenance_moves: int = 0
    max_moves_per_edit: int = 0
    max_touched_per_edit: int = 0
    per_op: dict[str, dict[str, int]] = field(default_factory=dict)

    def _bump(self, op: str, moves: int, touched: int) -> None:
        slot = self.per_op.setdefault(
            op, {"edits": 0, "moves": 0, "touched": 0})
        slot["edits"] += 1
        slot["moves"] += int(moves)
        slot["touched"] += int(touched)
        if telemetry_enabled():
            METRICS.counter(f"dynamic.op.{op}").inc()
            if moves:
                METRICS.counter("dynamic.repair.moves").inc(int(moves))
            if touched:
                METRICS.counter("dynamic.repair.touched").inc(int(touched))
            telemetry_event("dynamic.repair", op=op, moves=int(moves),
                            touched=int(touched))

    def record(self, op: str, moves: int, touched: int) -> None:
        """Account one *edit* (contributes to the per-edit move bound)."""
        self.edits += 1
        self.moves += int(moves)
        self.touched += int(touched)
        self.max_moves_per_edit = max(self.max_moves_per_edit, int(moves))
        self.max_touched_per_edit = max(self.max_touched_per_edit,
                                        int(touched))
        if telemetry_enabled():
            METRICS.counter("dynamic.edits").inc()
        self._bump(op, moves, touched)

    def record_maintenance(self, op: str, moves: int, touched: int) -> None:
        """Account a bulk pass (recompute/stabilize) — not an edit, so
        it is kept out of the per-edit maxima and amortized averages."""
        self.maintenance_moves += int(moves)
        self._bump(op, moves, touched)

    def amortized_moves(self) -> float:
        """Average moves per edit (0.0 before any edit)."""
        return self.moves / self.edits if self.edits else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "edits": self.edits,
            "moves": self.moves,
            "touched": self.touched,
            "recomputes": self.recomputes,
            "stabilizations": self.stabilizations,
            "suppressed": self.suppressed,
            "maintenance_moves": self.maintenance_moves,
            "max_moves_per_edit": self.max_moves_per_edit,
            "max_touched_per_edit": self.max_touched_per_edit,
            "amortized_moves": self.amortized_moves(),
            "per_op": {k: dict(v) for k, v in sorted(self.per_op.items())},
        }


@dataclass(frozen=True)
class ComponentSnapshot:
    """One component frozen to the static tier's vocabulary.

    ``nodes[i]`` is the arena address of local address ``i``; local
    addresses preserve the arena's address order, so the snapshot keeps
    whatever scatter churn produced (the numpy backend then exercises
    the same gather patterns it would on a generator layout).
    """

    lst: LinkedList
    tails: np.ndarray
    nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.lst.n


@dataclass(frozen=True)
class StabilizeReport:
    """What one :meth:`DynamicList.stabilize` pass did."""

    components: int
    moves: int
    touched: int
    rounds: int
    dead_bits_cleared: int


class DynamicList:
    """A mutable forest of paths with a maintained maximal matching.

    Nodes live at stable arena addresses; deleting a node frees its
    slot for reuse.  All six edit operations relink pointers in O(1)
    and then run the local repair worklist; per-edit repair cost is
    recorded in :attr:`ledger`.

    Parameters
    ----------
    maintain:
        When false, edits keep the matching *valid* (bits on vanished
        pointers are dropped) but skip the maximality-restoring repair
        — the "recompute" maintenance strategy, where a periodic
        :meth:`recompute` restores maximality in bulk.
    """

    def __init__(self, *, capacity: int = 8, maintain: bool = True) -> None:
        capacity = max(8, next_power_of_two(max(1, capacity)))
        self._next = np.full(capacity, NIL, dtype=np.int64)
        self._pred = np.full(capacity, NIL, dtype=np.int64)
        self._values = np.zeros(capacity, dtype=np.int64)
        self._chosen = np.zeros(capacity, dtype=bool)
        self._live = np.zeros(capacity, dtype=bool)
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._n_live = 0
        self._value_seq = 0
        self.maintain = bool(maintain)
        self._suppress_next = False
        self.ledger = RepairLedger()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_list(
        cls,
        lst: LinkedList,
        *,
        tails: Sequence[int] | np.ndarray | None = None,
        algorithm: str = "match4",
        backend: str = "reference",
        p: int = 1,
        maintain: bool = True,
    ) -> "DynamicList":
        """Adopt a static list and its matching (computed if not given).

        ``tails`` lets a caller seed the session with a matching some
        other engine produced (e.g. the batch driver); otherwise one is
        computed via :func:`repro.maximal_matching` with the given
        algorithm/backend.
        """
        dyn = cls(capacity=lst.n, maintain=maintain)
        if tails is None:
            from ..core.maximal_matching import maximal_matching
            result = maximal_matching(
                lst, algorithm=algorithm, backend=backend, p=p)
            tails = result.matching.tails
        tails = np.asarray(tails, dtype=np.int64)
        n = lst.n
        dyn._next[:n] = lst.next
        dyn._pred[:n] = lst.pred
        dyn._values[:n] = lst.values
        dyn._live[:n] = True
        dyn._chosen[tails] = True
        dyn._free = [s for s in range(dyn.capacity - 1, -1, -1) if s >= n]
        dyn._n_live = n
        dyn._value_seq = int(lst.values.max()) + 1 if n else 0
        return dyn

    # -- basic accessors ---------------------------------------------------

    @property
    def capacity(self) -> int:
        return int(self._next.size)

    def __len__(self) -> int:
        return self._n_live

    @property
    def n_live(self) -> int:
        """Number of live nodes across all components."""
        return self._n_live

    def has_node(self, v: int) -> bool:
        return 0 <= v < self.capacity and bool(self._live[v])

    def next_of(self, v: int) -> int:
        self._require_live(v)
        return int(self._next[v])

    def pred_of(self, v: int) -> int:
        self._require_live(v)
        return int(self._pred[v])

    def value_of(self, v: int) -> int:
        self._require_live(v)
        return int(self._values[v])

    def is_matched_tail(self, v: int) -> bool:
        """Whether the pointer leaving ``v`` is in the matching."""
        self._require_live(v)
        return bool(self._chosen[v])

    def nodes(self) -> np.ndarray:
        """Live arena addresses, ascending."""
        return np.flatnonzero(self._live)

    def tails(self) -> np.ndarray:
        """Arena addresses whose outgoing pointer is matched, ascending."""
        return np.flatnonzero(self._chosen)

    def chosen_mask(self) -> np.ndarray:
        """Copy of the per-slot matched bit (the "matching array")."""
        return self._chosen.copy()

    def heads(self) -> np.ndarray:
        """Component heads (live nodes with no predecessor), ascending."""
        return np.flatnonzero(self._live & (self._pred == NIL))

    def component_tails(self) -> np.ndarray:
        """Component tails (live nodes with no successor), ascending."""
        return np.flatnonzero(self._live & (self._next == NIL))

    def walk(self, head: int) -> Iterator[int]:
        """Iterate a component's addresses from ``head`` in list order."""
        self._require_live(head)
        v = head
        steps = 0
        while v != NIL:
            yield int(v)
            v = int(self._next[v])
            steps += 1
            if steps > self._n_live:
                raise VerificationError(
                    f"walk from {head} exceeded {self._n_live} live nodes: "
                    f"the arena contains a cycle")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DynamicList(n_live={self._n_live}, "
                f"components={self.heads().size}, "
                f"matched={int(self._chosen.sum())})")

    # -- internal plumbing -------------------------------------------------

    def _require_live(self, v: int) -> None:
        if not isinstance(v, (int, np.integer)) or not self.has_node(int(v)):
            raise InvalidParameterError(
                f"node {v!r} is not a live arena address")

    def _alloc(self, value: int | None) -> int:
        if not self._free:
            self._grow(self.capacity * 2)
        slot = self._free.pop()
        if value is None:
            value = self._value_seq
            self._value_seq += 1
        self._next[slot] = NIL
        self._pred[slot] = NIL
        self._values[slot] = int(value)
        self._chosen[slot] = False
        self._live[slot] = True
        self._n_live += 1
        return slot

    def _release(self, v: int) -> None:
        # NOTE: deliberately leaves ``chosen[v]`` alone — the caller
        # drops it through the accounted path (or, under an injected
        # dropped write, leaves the dead bit as the corruption).
        self._live[v] = False
        self._next[v] = NIL
        self._pred[v] = NIL
        self._free.append(v)
        self._n_live -= 1

    def _grow(self, capacity: int) -> None:
        old = self.capacity
        capacity = next_power_of_two(max(capacity, old + 1))

        def wide(arr: np.ndarray, fill: Any) -> np.ndarray:
            out = np.full(capacity, fill, dtype=arr.dtype)
            out[:old] = arr
            return out

        self._next = wide(self._next, NIL)
        self._pred = wide(self._pred, NIL)
        self._values = wide(self._values, 0)
        self._chosen = wide(self._chosen, False)
        self._live = wide(self._live, False)
        self._free.extend(range(capacity - 1, old - 1, -1))

    def corrupt_bit(self, addr: int) -> None:
        """Flip one bit of the matching array (fault injection).

        Addresses wrap modulo the arena capacity, mirroring how
        :class:`~repro.pram.faults.BitFlip` targets a memory cell.  The
        arena is left possibly *invalid*; :meth:`stabilize` recovers.
        """
        addr = int(addr) % self.capacity
        self._chosen[addr] = not self._chosen[addr]
        if telemetry_enabled():
            METRICS.counter("dynamic.faults.bit_flips").inc()

    def suppress_next_maintenance(self) -> None:
        """Drop the *next* edit's matching writes (fault injection).

        Models a lost write to the matching array: the structural edit
        lands, but neither the edit's bit drops nor its repair do.  The
        matching may be left stale or corrupt; :meth:`stabilize`
        recovers.
        """
        self._suppress_next = True

    def _finish_edit(self, op: str, drops: list[int], seeds: list[int],
                     extra_moves: int = 0) -> None:
        """Apply the matching side of one structural edit.

        ``drops`` are slots whose outgoing pointer vanished (their bit
        is cleared and counted); ``seeds`` start the repair worklist;
        ``extra_moves`` accounts flips the op already applied (the
        insert rebind).  Under an injected dropped write the whole
        matching update is skipped — the corruption the fault models.
        """
        if self._suppress_next:
            self._suppress_next = False
            self.ledger.suppressed += 1
            self.ledger.record(op, 0, 0)
            return
        moves = extra_moves
        seeds = list(seeds)
        for d in drops:
            if d != NIL and self._chosen[d]:
                self._chosen[d] = False
                moves += 1
                # The drop uncovers d's neighborhood: examine it too.
                seeds.extend((d, int(self._pred[d]), int(self._next[d])))
        touched = 0
        if self.maintain:
            m2, touched = self._local_repair(seeds)
            moves += m2
        self.ledger.record(op, moves, touched)

    def _local_repair(self, seeds: Sequence[int]) -> tuple[int, int]:
        """Worklist repair confined to the edit neighborhood.

        Rules per examined node ``v`` (deterministic, epicenter first):

        1. sanitize — unchoose ``v`` if its pointer vanished;
        2. drop — unchoose ``v`` when ``pred(v)``'s pointer is also
           chosen (the earlier pointer wins);
        3. add — choose ``v``'s pointer when both endpoints are
           uncovered.

        Any flip re-enqueues the radius-1 neighbors.  Returns
        ``(moves, touched)``.
        """
        nxt, prd, chosen, live = \
            self._next, self._pred, self._chosen, self._live
        queue: deque[int] = deque()
        queued: set[int] = set()

        def push(x: int) -> None:
            if x != NIL and live[x] and x not in queued:
                queue.append(x)
                queued.add(x)

        for s in seeds:
            if s is not None and s != NIL:
                push(int(s))
        moves = touched = 0
        guard = 4 * self._n_live + 16
        while queue:
            v = queue.popleft()
            queued.discard(v)
            touched += 1
            guard -= 1
            if guard < 0:
                raise VerificationError(
                    "local repair failed to converge — the arena "
                    "invariants are broken (use stabilize())")
            w = int(nxt[v])
            p = int(prd[v])
            if chosen[v]:
                if w == NIL:
                    chosen[v] = False
                    moves += 1
                    push(p)
                elif p != NIL and chosen[p]:
                    chosen[v] = False
                    moves += 1
                    push(p)
                    push(w)
                elif chosen[w]:
                    # Later pointer loses; fix when w is examined.
                    push(w)
            if not chosen[v] and w != NIL:
                uncovered_v = p == NIL or not chosen[p]
                if uncovered_v and not chosen[w]:
                    chosen[v] = True
                    moves += 1
        return moves, touched

    # -- edit operations ---------------------------------------------------

    def add_node(self, value: int | None = None) -> int:
        """Create a new singleton component; returns its address."""
        u = self._alloc(value)
        self._finish_edit("add_node", [], [u])
        return u

    def insert_after(self, v: int, value: int | None = None) -> int:
        """Insert a new node right after ``v``; returns its address.

        When the pointer ``<v, w>`` being subdivided is matched, the
        bit is rebound to whichever of ``<v, u>`` / ``<u, w>`` leaves
        no newly-addable neighbor pointer (preferring ``<v, u>``), so
        an insert at a matched pointer usually costs zero moves.
        """
        self._require_live(v)
        v = int(v)
        u = self._alloc(value)
        w = int(self._next[v])
        extra = 0
        if self._chosen[v] and w != NIL and not self._chosen[w] \
                and not self._suppress_next:
            # Rebinding <v,w> -> <v,u> uncovers w; -> <u,w> uncovers v.
            # Prefer the side whose exposed endpoint is already safe.
            x = int(self._next[w])
            p = int(self._pred[v])
            w_exposed = x != NIL and not self._chosen[x]
            pp = int(self._pred[p]) if p != NIL else NIL
            v_exposed = p != NIL and not self._chosen[p] \
                and (pp == NIL or not self._chosen[pp])
            if w_exposed and not v_exposed:
                self._chosen[v] = False
                self._chosen[u] = True
                extra = 2
        self._next[v] = u
        self._pred[u] = v
        self._next[u] = w
        if w != NIL:
            self._pred[w] = u
        self._finish_edit("insert_after", [], [v, u, w], extra_moves=extra)
        return u

    def delete(self, v: int) -> None:
        """Remove node ``v``, relinking its neighbors."""
        self._require_live(v)
        v = int(v)
        p = int(self._pred[v])
        w = int(self._next[v])
        self._next[v] = NIL
        self._pred[v] = NIL
        if p != NIL:
            self._next[p] = w
        if w != NIL:
            self._pred[w] = p
        self._release(v)
        # Both pointers incident on v vanished; under a dropped write
        # the stale bits (one now on a dead slot) are the corruption.
        self._finish_edit("delete", [v, p], [p, w])

    def split(self, v: int) -> int:
        """Cut the pointer leaving ``v``; returns the detached head."""
        self._require_live(v)
        v = int(v)
        w = int(self._next[v])
        if w == NIL:
            raise InvalidParameterError(
                f"cannot split after {v}: it is already a tail")
        self._next[v] = NIL
        self._pred[w] = NIL
        self._finish_edit("split", [v], [v, w])
        return w

    def concat(self, t: int, h: int, *, validate: bool = True) -> None:
        """Link tail ``t`` to head ``h`` (distinct components)."""
        self._require_live(t)
        self._require_live(h)
        t, h = int(t), int(h)
        if self._next[t] != NIL:
            raise InvalidParameterError(
                f"concat tail {t} is not a component tail")
        if self._pred[h] != NIL:
            raise InvalidParameterError(
                f"concat head {h} is not a component head")
        if t == h:
            raise InvalidParameterError(
                "concat endpoints must differ")
        if validate:
            # t is a tail: if h's component ends at t they share it and
            # linking would close a cycle.  O(component) structural
            # check; the matching repair itself stays O(1).
            for node in self.walk(h):
                if node == t:
                    raise InvalidParameterError(
                        f"concat of {t} and {h} would create a cycle "
                        f"(same component)")
        self._next[t] = h
        self._pred[h] = t
        self._finish_edit("concat", [], [t, h])

    def splice_out(self, a: int, b: int, *, validate: bool = True) -> int:
        """Detach the segment ``a..b`` into its own component.

        ``b`` must be reachable from ``a`` (checked by an O(segment)
        walk unless ``validate=False``).  Returns ``a``, the head of
        the now-detached component.
        """
        self._require_live(a)
        self._require_live(b)
        a, b = int(a), int(b)
        if validate and a != b:
            node = int(self._next[a])
            steps = 0
            while node != b:
                if node == NIL or steps > self._n_live:
                    raise InvalidParameterError(
                        f"splice_out: {b} is not reachable from {a}")
                node = int(self._next[node])
                steps += 1
        p = int(self._pred[a])
        w = int(self._next[b])
        self._pred[a] = NIL
        self._next[b] = NIL
        if p != NIL:
            self._next[p] = w
        if w != NIL:
            self._pred[w] = p
        self._finish_edit("splice_out", [p, b], [p, w, a, b])
        return a

    def splice_in(self, v: int, h: int, *, validate: bool = True) -> None:
        """Splice the whole component headed by ``h`` in after ``v``."""
        self._require_live(v)
        self._require_live(h)
        v, h = int(v), int(h)
        if self._pred[h] != NIL:
            raise InvalidParameterError(
                f"splice_in source {h} is not a component head")
        t = h
        steps = 0
        while int(self._next[t]) != NIL:
            if validate and t == v:
                raise InvalidParameterError(
                    f"splice_in of {h} after {v} would create a cycle "
                    f"(same component)")
            t = int(self._next[t])
            steps += 1
            if steps > self._n_live:
                raise VerificationError(
                    "splice_in walk exceeded the arena: cycle detected")
        if t == v or h == v:
            raise InvalidParameterError(
                f"splice_in of {h} after {v} would create a cycle "
                f"(same component)")
        w = int(self._next[v])
        had_ptr = w != NIL
        self._next[v] = h
        self._pred[h] = v
        self._next[t] = w
        if w != NIL:
            self._pred[w] = t
        # v's old pointer <v,w> vanished only if it existed; its new
        # pointer <v,h> is a different edge, so a matched bit on v is
        # dropped and the worklist re-adds what the seam allows.
        self._finish_edit("splice_in", [v] if had_ptr else [],
                          [v, h, t, w])

    # -- verification ------------------------------------------------------

    def verify(self) -> None:
        """Check every arena invariant; raise :class:`VerificationError`.

        Structural: ``next``/``pred`` are mutually inverse over live
        nodes, dead slots carry no links or bits, and the components
        are acyclic paths.  Matching: bits only on live nodes with an
        outgoing pointer, no two adjacent pointers chosen
        (independence), and no addable pointer left (maximality).
        """
        live = self._live
        nxt, prd, chosen = self._next, self._pred, self._chosen
        dead = ~live
        if np.any(chosen & dead):
            raise VerificationError("matched bit on a dead slot")
        if np.any((nxt[dead] != NIL) | (prd[dead] != NIL)):
            raise VerificationError("dangling links on a dead slot")
        ids = np.flatnonzero(live)
        if ids.size != self._n_live:
            raise VerificationError(
                f"live count {self._n_live} != mask population {ids.size}")
        if ids.size == 0:
            return
        w = nxt[ids]
        has_w = w != NIL
        if np.any(~live[w[has_w]]):
            raise VerificationError("live node points at a dead slot")
        if np.any(prd[w[has_w]] != ids[has_w]):
            raise VerificationError("pred is not the inverse of next")
        p = prd[ids]
        has_p = p != NIL
        if np.any(~live[p[has_p]]):
            raise VerificationError("live node preceded by a dead slot")
        if np.any(nxt[p[has_p]] != ids[has_p]):
            raise VerificationError("next is not the inverse of pred")
        walked = 0
        for h in self.heads():
            for _ in self.walk(int(h)):
                walked += 1
        if walked != self._n_live:
            raise VerificationError(
                f"component walks covered {walked} of {self._n_live} "
                f"live nodes: the arena contains a cycle")
        # -- matching invariants ------------------------------------------
        ch = chosen[ids]
        if np.any(ch & ~has_w):
            raise VerificationError("matched bit on a node with no pointer")
        safe_w = np.where(has_w, w, 0)
        if np.any(ch & has_w & chosen[safe_w]):
            raise VerificationError(
                "independence violated: adjacent pointers both chosen")
        covered = ch | (has_p & chosen[np.where(has_p, p, 0)])
        head_cov = chosen[safe_w] | ch
        addable = has_w & ~covered & ~head_cov
        if np.any(addable):
            v = int(ids[np.flatnonzero(addable)[0]])
            raise VerificationError(
                f"maximality violated: pointer <{v}, {int(nxt[v])}> "
                f"is addable")

    # -- snapshots ---------------------------------------------------------

    def components(self) -> list[ComponentSnapshot]:
        """Freeze every component to the static tier's vocabulary."""
        return [self.snapshot_component(int(h)) for h in self.heads()]

    def snapshot_component(self, head: int) -> ComponentSnapshot:
        """Freeze the component headed by ``head``.

        Local addresses preserve arena address order (order-preserving
        compaction), so the snapshot keeps the arena's scatter.
        """
        order_nodes = list(self.walk(head))
        nodes = np.array(sorted(order_nodes), dtype=np.int64)
        remap = {int(arena): local for local, arena in enumerate(nodes)}
        k = nodes.size
        nxt = np.full(k, NIL, dtype=np.int64)
        for arena in order_nodes:
            w = int(self._next[arena])
            if w != NIL:
                nxt[remap[arena]] = remap[w]
        lst = LinkedList(nxt, values=self._values[nodes].copy())
        tails = np.array(
            sorted(remap[v] for v in order_nodes if self._chosen[v]),
            dtype=np.int64)
        return ComponentSnapshot(lst=lst, tails=tails, nodes=nodes)

    def to_match_results(self) -> list[Any]:
        """Per-component :class:`~repro.core.result.MatchResult` views.

        The matching is re-verified on the way out (``Matching``'s
        constructor), the Brent report charges one ``maintain`` phase of
        width = component size, and ``extras`` carries the ledger.
        """
        from ..core.matching import Matching
        from ..core.result import MatchResult
        from ..pram.cost import CostModel

        out = []
        ledger = self.ledger.to_dict()
        for snap in self.components():
            cm = CostModel(p=1)
            with cm.phase("maintain"):
                cm.parallel(snap.n)
            out.append(MatchResult(
                matching=Matching(snap.lst, snap.tails),
                report=cm.report(),
                stats=None,
                backend="dynamic",
                algorithm="maintained",
                extras={"ledger": ledger,
                        "nodes": snap.nodes.tolist()},
            ))
        return out

    # -- bulk maintenance --------------------------------------------------

    def recompute(self, *, algorithm: str = "match4",
                  backend: str = "reference", p: int = 1) -> int:
        """From-scratch matching on every component; returns bit flips.

        The "recompute" maintenance strategy: discard the maintained
        bits and run the static engine per component.
        """
        from ..core.maximal_matching import maximal_matching

        before = self._chosen.copy()
        for snap in self.components():
            if snap.n == 0:  # pragma: no cover - heads() yields live only
                continue
            result = maximal_matching(
                snap.lst, algorithm=algorithm, backend=backend, p=p)
            self._chosen[snap.nodes] = False
            self._chosen[snap.nodes[result.matching.tails]] = True
        moves = int(np.sum(before != self._chosen))
        self.ledger.recomputes += 1
        self.ledger.record_maintenance("recompute", moves, self._n_live)
        if telemetry_enabled():
            METRICS.counter("dynamic.recomputes").inc()
        return moves

    def stabilize(self, *, max_rounds: int = 8) -> StabilizeReport:
        """Self-stabilize from arbitrary ``chosen`` corruption.

        Clears bits on dead slots, then runs the batch self-stabilizer
        :func:`repro.resilience.repair_matching` over each component,
        seeded with whatever (possibly corrupt) bits the component
        carries.  Emits ``resilience.stabilize.*`` counters; converges
        with moves bounded by the repair tier's guarantee.
        """
        from ..resilience import repair_matching

        dead_bits = int(np.sum(self._chosen & ~self._live))
        if dead_bits:
            self._chosen &= self._live
        before = self._chosen.copy()
        rounds = 0
        touched = 0
        comps = 0
        for snap in self.components():
            comps += 1
            touched += snap.n
            tails, stats = repair_matching(
                snap.lst, snap.tails, max_rounds=max_rounds)
            self._chosen[snap.nodes] = False
            self._chosen[snap.nodes[tails]] = True
            rounds = max(rounds, stats.rounds)
        moves = int(np.sum(before != self._chosen)) + dead_bits
        self.ledger.stabilizations += 1
        self.ledger.record_maintenance("stabilize", moves, touched)
        if telemetry_enabled():
            METRICS.counter("resilience.stabilize.runs").inc()
            if moves:
                METRICS.counter("resilience.stabilize.moves").inc(moves)
        return StabilizeReport(
            components=comps, moves=moves, touched=touched,
            rounds=rounds, dead_bits_cleared=dead_bits)
