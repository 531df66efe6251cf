"""Forests of linked lists: many disjoint paths in one address space.

Symmetry breaking is a *local* computation — the matching partition
function consults only a pointer's two endpoint addresses — so the
paper's machinery extends verbatim to a forest of disjoint lists (the
shape produced by e.g. a partitioned work queue, or by severing a list
at chosen positions).  The only global ingredient is the circular
convention at each component's tail, which wraps to *that component's*
head.

:class:`Forest` validates the structure once at construction with
:func:`~repro.lists.validation.path_components` (every component a
simple path) and provides the per-component circular ``NEXT`` the
iteration needs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .._util import as_index_array
from ..errors import InvalidListError
from .linked_list import NIL, LinkedList
from .validation import path_components

__all__ = ["Forest", "random_forest"]


class Forest:
    """A set of disjoint array-stored lists covering addresses 0..n-1.

    ``next_[v]`` is ``v``'s successor or :data:`NIL`; unlike
    :class:`LinkedList`, any number of components is allowed (each a
    simple path, jointly covering all addresses).
    """

    __slots__ = ("_next", "_pred", "_heads", "_tails", "_component")

    def __init__(self, next_: Sequence[int] | np.ndarray) -> None:
        nxt = as_index_array(next_, name="NEXT")
        n = nxt.size
        if n == 0:
            raise InvalidListError("empty forest")
        heads, component = path_components(nxt)
        if component.min() < 0:
            bad = int(np.argmax(component < 0))
            raise InvalidListError(
                f"node {bad} is unreachable from any head: a cycle exists"
            )
        tails = np.flatnonzero(nxt == NIL)
        pred = np.full(n, NIL, dtype=np.int64)
        live = np.flatnonzero(nxt != NIL)
        pred[nxt[live]] = live
        self._next = nxt
        self._next.setflags(write=False)
        self._pred = pred
        self._pred.setflags(write=False)
        self._heads = heads
        self._heads.setflags(write=False)
        self._tails = tails
        self._tails.setflags(write=False)
        self._component = component
        self._component.setflags(write=False)

    @classmethod
    def from_orders(cls, orders: Sequence[Sequence[int]]) -> "Forest":
        """Build a forest from per-component visit orders.

        The concatenation of ``orders`` must be a permutation of
        ``0..n-1``.
        """
        flat = [v for order in orders for v in order]
        n = len(flat)
        if n == 0:
            raise InvalidListError("cannot build a forest from no nodes")
        if sorted(flat) != list(range(n)):
            raise InvalidListError(
                "orders must jointly be a permutation of 0..n-1"
            )
        nxt = np.full(n, NIL, dtype=np.int64)
        for order in orders:
            for a, b in zip(order, order[1:]):
                nxt[a] = b
        return cls(nxt)

    @property
    def n(self) -> int:
        """Total number of nodes."""
        return int(self._next.size)

    @property
    def next(self) -> np.ndarray:
        """The (read-only) successor array."""
        return self._next

    @property
    def pred(self) -> np.ndarray:
        """The (read-only) predecessor array."""
        return self._pred

    @property
    def heads(self) -> np.ndarray:
        """Head addresses, one per component."""
        return self._heads

    @property
    def tails(self) -> np.ndarray:
        """Tail addresses, one per component (aligned with ``heads``)."""
        return self._tails

    @property
    def component(self) -> np.ndarray:
        """Per-node component id."""
        return self._component

    @property
    def num_components(self) -> int:
        """Number of disjoint lists."""
        return int(self._heads.size)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Forest(n={self.n}, components={self.num_components})"

    def circular_next(self) -> np.ndarray:
        """``NEXT`` with every component's tail wired to *its* head."""
        nxt = self._next.copy()
        tail_nodes = np.flatnonzero(nxt == NIL)
        nxt[tail_nodes] = self._heads[self._component[tail_nodes]]
        return nxt

    def components(self) -> Iterator[LinkedList]:
        """Yield each component as a standalone compressed
        :class:`LinkedList` (addresses renumbered 0..m-1 in component
        order); mainly for verification."""
        for cid in range(self.num_components):
            nodes = []
            v = int(self._heads[cid])
            while v != NIL:
                nodes.append(v)
                v = int(self._next[v])
            remap = {v: j for j, v in enumerate(nodes)}
            nxt = np.full(len(nodes), NIL, dtype=np.int64)
            for v in nodes[:-1]:
                nxt[remap[v]] = remap[int(self._next[v])]
            yield LinkedList(nxt, validate=False)


def random_forest(
    n: int,
    num_components: int,
    rng: np.random.Generator | int | None = None,
) -> Forest:
    """A random forest: a random permutation split at random points."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if not 1 <= num_components <= n:
        raise InvalidListError(
            f"need 1 <= components <= n, got {num_components} for n={n}"
        )
    perm = rng.permutation(n)
    if num_components == 1:
        cut_points = np.empty(0, dtype=np.int64)
    else:
        cut_points = np.sort(
            rng.choice(np.arange(1, n), size=num_components - 1,
                       replace=False)
        )
    orders = np.split(perm, cut_points)
    return Forest.from_orders([o.tolist() for o in orders])
