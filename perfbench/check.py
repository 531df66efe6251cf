"""Answer checks, independent of the program's own verifiers.

A matching is given by the tails of its chosen pointers.  It is a
maximal matching of a forest of paths ``nxt`` when

- every tail is a node with a successor, listed once;
- no node is an endpoint of two chosen pointers;
- every pointer ``<v, nxt[v]>`` has an endpoint that a chosen pointer
  covers (otherwise it could be added).

One vectorized pass, about 30 ms at 2**20 nodes.  The check runs
outside every timed region.
"""

from __future__ import annotations

import numpy as np

NIL = -1


def matching_error(nxt: np.ndarray, tails) -> str | None:
    """Why ``tails`` is not a maximal matching of ``nxt``, or ``None``."""
    n = nxt.size
    t = np.asarray(tails, dtype=np.int64).ravel()
    if t.size and (t.min() < 0 or t.max() >= n):
        return "a tail is not a node address"
    if np.unique(t).size != t.size:
        return "a tail is listed twice"
    heads = nxt[t]
    if np.any(heads == NIL):
        return "a chosen pointer leaves a node without successor"
    cover = np.bincount(np.concatenate([t, heads]), minlength=n)
    if np.any(cover > 1):
        return f"node {int(np.flatnonzero(cover > 1)[0])} is matched twice"
    src = np.flatnonzero(nxt != NIL)
    free = (cover[src] == 0) & (cover[nxt[src]] == 0)
    if np.any(free):
        v = int(src[np.flatnonzero(free)[0]])
        return f"pointer <{v}, {int(nxt[v])}> could be added: not maximal"
    return None


def batch_error(lists, tails_per_list) -> str | None:
    """:func:`matching_error` over a batch, in one pass over its arena."""
    if len(lists) != len(tails_per_list):
        return f"{len(tails_per_list)} answers for {len(lists)} lists"
    sizes = np.array([a.size for a in lists], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    arena = np.concatenate([
        np.where(a == NIL, NIL, a + o) for a, o in zip(lists, offsets)])
    tails = []
    for k, (t, o, n) in enumerate(zip(tails_per_list, offsets, sizes)):
        t = np.asarray(t, dtype=np.int64)
        if t.size and (t.min() < 0 or t.max() >= n):
            return f"list {k}: a tail is not a node address"
        tails.append(t + o)
    err = matching_error(arena, np.concatenate(tails) if tails else [])
    return None if err is None else f"batch: {err}"
