"""Structural validation of ``NEXT`` pointer arrays.

Every public algorithm entry point validates its input once, up front,
so algorithm internals can assume a well-formed simple path.  One
recursion, :func:`_reach`, serves a single list (the one-component
case), a :class:`~repro.lists.forest.Forest`, and a batch of lists laid
end to end in one arena.

Range and in-degree checks are single numpy passes; a self-loop shows
up as a node with two predecessors or as a node no head reaches, so it
is looked for only then.  Once every node has at most one predecessor,
each component is a path or a cycle, and what is left to prove is
reachability from the heads.  That is done by sparse-ruling-set
contraction, the form of list ranking behind work-optimal list
contraction (Han, *Uniform Linked Lists Contraction*,
arXiv:2002.05034):

- *rulers* are every head plus every :data:`K`-th address;
- all ruler walks advance in lock-step, one gather per round, until
  each reaches the next ruler or nil; once fewer than :data:`T` are
  live, Python finishes them;
- each node records the walk that reached it; a cycle that holds no
  ruler is never reached, since its nodes' only predecessors are on it;
- the non-head rulers, linked ruler to ruler, form the next level, in
  which each head's successor ruler is a head; a level of at most
  :data:`SMALL` nodes is walked in Python.

A check only counts: every node is reached from a head iff, at every
level, the walks visit every node, since a node is reached iff the
ruler whose walk visited it is.  Labels are built for
:func:`path_components` alone (and to word a list's error): component
ids come back down through each level's owner array.

Each level has at most ``ceil(m / K)`` nodes, so the work is O(n).
"""

from __future__ import annotations

import numpy as np

from .._util import as_index_array
from ..errors import InvalidListError

__all__ = ["each_is_one_path", "path_components", "validate_next_array"]

NIL = -1

#: Ruler spacing: every head and every ``K``-th address starts a walk
#: (``K >= 2``, so each level is smaller than the last).
K = 16
#: Lock-step rounds stop once fewer than ``T`` walks are live; Python
#: finishes those, so no layout costs many more numpy calls than a
#: plain walk costs steps.
T = 32
#: A level of at most ``SMALL`` nodes is walked in Python
#: (``SMALL >= 1``: a one-node cycle never contracts further).
SMALL = 2048
#: A level of fewer nodes keeps its step array in ``int32`` (entries
#: stay below 2m), which halves the memory its gathers touch.
INT32_LEVEL = 2**30


def _check_range(next_: np.ndarray) -> None:
    n = next_.size
    if n and (int(next_.min()) < NIL or int(next_.max()) >= n):
        bad = int(np.flatnonzero((next_ < NIL) | (next_ >= n))[0])
        raise InvalidListError(
            f"NEXT[{bad}] = {int(next_[bad])} is neither nil nor a valid "
            f"address in [0, {n})"
        )


def path_components(next_) -> tuple[np.ndarray, np.ndarray]:
    """Split ``next_`` into its components, proving which are paths.

    Raises :class:`InvalidListError` for an entry that is neither nil
    nor an address, a self-loop, or a node with two predecessors.
    Otherwise returns ``(heads, component)``: the nodes without a
    predecessor in ascending address order, and each node's component
    id, an index into ``heads``, or ``-1`` for a node on a cycle (a
    cycle has no head, so no head reaches it).
    """
    next_ = as_index_array(next_, name="NEXT")
    _check_range(next_)
    heads = _heads(next_, int(np.count_nonzero(next_ == NIL)))
    component = _reach(next_, heads, np.arange(heads.size, dtype=np.int64))
    if next_.size and int(component.min()) < 0:
        # A self-loop's node has no other predecessor, so no head
        # reaches it: only here can one hide.
        _check_self_loops(next_)
    return heads, component


def each_is_one_path(arrays: list[np.ndarray]) -> bool:
    """Whether each ``int64`` array is one simple path over its own
    nodes, as :func:`validate_next_array` requires.

    The arrays are checked together, laid end to end in one arena: the
    range and one-nil checks are whole-arena passes, segment by
    segment.  They keep every pointer inside its own array, and with
    in-degree at most 1 they leave each array exactly one head, so the
    arena is valid iff every node is reached from a head.
    """
    if not arrays:
        return True
    sizes = np.array([nxt.size for nxt in arrays], dtype=np.int64)
    # ``reduceat`` reads an empty segment as its first entry: reject
    # empty arrays before it runs.
    if not sizes.all():
        return False
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    arena = np.concatenate(arrays)
    if (np.minimum.reduceat(arena, starts) < NIL).any():
        return False
    if (np.maximum.reduceat(arena, starts) >= sizes).any():
        return False
    nil = arena == NIL
    # One nil per array: as many nils as arrays, the j-th in array j.
    # ``_heads`` counts predecessors against this number, which proves
    # in-degree at most 1 only when it is the true nil count.
    tails = np.flatnonzero(nil)
    if tails.size != sizes.size:
        return False
    tails -= starts
    if ((tails < 0) | (tails >= sizes)).any():
        return False
    if sizes.size > 1:
        np.add(arena, np.repeat(starts, sizes), out=arena, where=~nil)
    del nil
    try:
        heads = _heads(arena, sizes.size)
    except InvalidListError:
        return False
    return _reach(arena, heads, None)


def _heads(next_: np.ndarray, nils: int) -> np.ndarray:
    """The nodes without a predecessor of a range-checked ``int64``
    array with ``nils`` nil entries, in ascending order; raises
    :class:`InvalidListError` for a node with two predecessors or a
    self-loop that gives its node a second one."""
    n = next_.size
    # hit[v]: v has a predecessor; nil entries land in slot n.
    hit = np.zeros(n + 1, dtype=bool)
    hit[next_] = True
    hit = hit[:n]
    if np.count_nonzero(hit) != n - nils:
        _check_self_loops(next_)
        indegree = np.bincount(next_[next_ != NIL], minlength=n)
        bad = int(np.argmax(indegree > 1))
        raise InvalidListError(
            f"node {bad} has {int(indegree[bad])} predecessors")
    return np.flatnonzero(~hit)


def _check_self_loops(next_: np.ndarray) -> None:
    loops = next_ == np.arange(next_.size, dtype=np.int64)
    if loops.any():
        raise InvalidListError(f"self-loop at node {int(np.argmax(loops))}")


def _reach(nxt: np.ndarray, heads: np.ndarray, labels: np.ndarray | None):
    """Reachability from the heads for one level: ``nxt`` has in-degree
    at most 1 and ``heads`` are its in-degree-0 nodes.

    With ``labels`` (the heads' labels), returns each node's head label,
    ``-1`` where no head reaches it.  With ``None``, only counts:
    returns whether every node is reached.
    """
    m = nxt.size
    if m <= SMALL:
        return _walk(nxt, heads, labels)
    # ``stop[v]``: a walk starts at v; slot m, read as ``stop[NIL]``,
    # ends every walk at nil.
    stop = np.zeros(m + 1, dtype=bool)
    stop[:m:K] = True
    stop[heads] = True
    rulers = np.flatnonzero(stop)
    stop[m] = True
    # One step of a walk: the successor, or its complement where the
    # walk ends (at a ruler, or at nil as ``~m``).  A walk overwrites
    # each node it visits with ``m + r``, r being the walk's ruler
    # index, so the array is also the owner array; slot m decodes to
    # -1, nil.
    step = np.empty(m + 1, dtype=np.int32 if m < INT32_LEVEL else np.int64)
    step[:m] = nxt
    step[m] = m - 1
    ends = np.flatnonzero(stop[nxt])
    del stop
    last = step[ends]
    last[last == NIL] = m
    step[ends] = ~last
    del ends, last
    end = np.empty(rulers.size, dtype=np.int64)
    reached = _advance(step, rulers, m, end)
    if labels is None and reached < m:
        return False
    # The next level: the non-head rulers, renumbered by ``rank``, each
    # linked to the ruler its walk ended at (``end``, -1 at nil).
    end = step[end] - np.int64(m)
    head_ids = step[heads] - np.int64(m)
    keep = np.ones(rulers.size, dtype=bool)
    keep[head_ids] = False
    kept = np.flatnonzero(keep)
    rank = np.full(rulers.size + 1, NIL, dtype=np.int64)
    rank[kept] = np.arange(kept.size, dtype=np.int64)
    succ = end[head_ids]
    starts = succ != NIL
    if labels is None:
        return _reach(rank[end[kept]], rank[succ[starts]], None)
    ruler_label = np.full(rulers.size + 1, -1, dtype=np.int64)
    ruler_label[head_ids] = labels
    ruler_label[kept] = _reach(rank[end[kept]], rank[succ[starts]],
                               labels[starts])
    owner = step[:m].astype(np.int64)
    owner -= m
    if reached < m:
        # An unvisited node lies on a cycle without rulers, so it kept
        # its step, a successor below m: map it to -1.
        np.maximum(owner, -1, out=owner)
    return ruler_label[owner]


def _advance(step: np.ndarray, cur: np.ndarray, m: int,
             end: np.ndarray) -> int:
    """Run the walks that start at ``cur`` (ruler ``r`` at ``cur[r]``)
    to their ends: mark each visited node ``m + r`` in ``step``, store
    the address each walk ended at (``m`` for nil) in ``end``, and
    return the number of visited nodes."""
    ids = np.arange(m, m + cur.size, dtype=step.dtype)
    reached = 0
    while cur.size >= T:
        nxt = step[cur]
        step[cur] = ids
        reached += cur.size
        done = nxt < 0
        if done.any():
            end[ids[done] - m] = ~nxt[done]
            live = ~done
            nxt = nxt[live]
            ids = ids[live]
        cur = nxt.astype(np.intp)
    sv, ev = memoryview(step), memoryview(end)
    for v, r in zip(cur.tolist(), ids.tolist()):
        while v >= 0:
            sv[v], v = r, sv[v]
            reached += 1
        ev[r - m] = ~v
    return reached


def _walk(nxt: np.ndarray, heads: np.ndarray, labels: np.ndarray | None):
    """Plain walks from every head: the base case of :func:`_reach`."""
    sv = memoryview(nxt)
    if labels is None:
        seen = 0
        for v in heads.tolist():
            while v >= 0:
                seen += 1
                v = sv[v]
        return seen == nxt.size
    out = np.full(nxt.size, -1, dtype=np.int64)
    ov = memoryview(out)
    for v, label in zip(heads.tolist(), labels.tolist()):
        while v >= 0:
            ov[v] = label
            v = sv[v]
    return out


def validate_next_array(next_: np.ndarray) -> int:
    """Validate that ``next_`` encodes a single simple path over all nodes.

    Requirements (each violation raises :class:`InvalidListError` with a
    specific message):

    - every entry is ``NIL`` or a valid address in ``[0, n)``;
    - exactly one entry is ``NIL`` (the tail);
    - no self-loops;
    - no node has two predecessors (``next_`` restricted to non-NIL is
      injective);
    - the path from the unique head reaches all ``n`` nodes (no
      disconnected cycles).

    Returns the head address.  An empty array is rejected; a singleton
    list (``[NIL]``) is valid with head 0.
    """
    next_ = as_index_array(next_, name="NEXT")
    n = next_.size
    if n == 0:
        raise InvalidListError("empty NEXT array: a list needs >= 1 node")
    _check_range(next_)
    nils = int(np.count_nonzero(next_ == NIL))
    if nils != 1:
        raise InvalidListError(
            f"a simple path has exactly one nil pointer; found {nils}"
        )
    # One nil and injective successors leave exactly one head.
    heads = _heads(next_, nils)
    head = int(heads[0])
    if not _reach(next_, heads, None):
        _check_self_loops(next_)
        # Labels only to word the error: the head's component size.
        seen = int(np.count_nonzero(
            _reach(next_, heads, np.zeros(1, dtype=np.int64)) == 0))
        raise InvalidListError(
            f"path from head {head} covers {seen} of {n} nodes; "
            f"a disconnected cycle exists"
        )
    return head
