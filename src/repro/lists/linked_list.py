"""The :class:`LinkedList` container (paper Fig. 1).

Nodes are identified by their array addresses ``0..n-1``.  ``NEXT[v]``
holds the address of ``suc(v)``, or ``NIL`` for the last node.  Because
the matching partition function operates on *addresses*, the container
also exposes the derived structures every algorithm needs: the
predecessor array, the visit order, and the pointer set
``{<v, suc(v)> : NEXT[v] != nil}`` as parallel (tails, heads) arrays.

The container is immutable: algorithms never mutate a caller's list
(they copy the pointer arrays they destroy, e.g. Match3's doubling).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .._util import as_index_array
from ..errors import InvalidListError
from .validation import validate_next_array

__all__ = ["NIL", "LinkedList"]

NIL = -1


class LinkedList:
    """An array-stored singly linked list over addresses ``0..n-1``.

    Parameters
    ----------
    next_:
        The ``NEXT`` array; ``next_[v]`` is the successor address of
        node ``v`` or :data:`NIL`.
    values:
        Optional payload array ``X`` (defaults to the addresses
        themselves, which is all the matching algorithms need).
    validate:
        Validate the structure (single simple path covering all nodes).
        On by default; internal constructors that build known-good
        arrays pass ``False``.

    Examples
    --------
    The list of Fig. 1 visits addresses ``0 -> 2 -> 4 -> 1 -> 5 -> 3 -> 6``:

    >>> lst = LinkedList.from_order([0, 2, 4, 1, 5, 3, 6])
    >>> lst.head, lst.tail, lst.n
    (0, 6, 7)
    >>> list(lst)
    [0, 2, 4, 1, 5, 3, 6]
    """

    __slots__ = ("_next", "_values", "_head", "_pred", "_order")

    def __init__(
        self,
        next_: Sequence[int] | np.ndarray,
        *,
        values: Sequence[int] | np.ndarray | None = None,
        validate: bool = True,
    ) -> None:
        nxt = as_index_array(next_, name="NEXT")
        if validate:
            head = validate_next_array(nxt)
        else:
            head = self._find_head_unchecked(nxt)
        self._next = nxt
        self._next.setflags(write=False)
        if values is not None:
            values = as_index_array(values, name="values")
            if values.size != nxt.size:
                raise InvalidListError(
                    f"values has {values.size} entries for {nxt.size} nodes"
                )
            values.setflags(write=False)
        # None stands for the addresses, built only when read.
        self._values = values
        self._head = head
        self._pred: np.ndarray | None = None
        self._order: np.ndarray | None = None

    @staticmethod
    def _find_head_unchecked(nxt: np.ndarray) -> int:
        # The head is the one address no entry names, and the one nil
        # entry is -1: the addresses sum to n(n-1)/2.
        n = nxt.size
        return n * (n - 1) // 2 - 1 - int(nxt.sum())

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_order(cls, order: Sequence[int] | np.ndarray) -> "LinkedList":
        """Build a list that visits the given addresses in the given order.

        ``order`` must be a permutation of ``0..n-1``; ``order[0]`` is
        the head.
        """
        order = as_index_array(order, name="order")
        n = order.size
        if n == 0:
            raise InvalidListError("cannot build a list from an empty order")
        check = np.zeros(n, dtype=bool)
        if np.any(order < 0) or np.any(order >= n):
            raise InvalidListError("order entries must be addresses in [0, n)")
        check[order] = True
        if not np.all(check):
            raise InvalidListError("order must be a permutation of 0..n-1")
        nxt = np.full(n, NIL, dtype=np.int64)
        nxt[order[:-1]] = order[1:]
        return cls(nxt, validate=False)

    # -- basic accessors --------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self._next.size)

    @property
    def head(self) -> int:
        """Address of the first node."""
        return self._head

    @property
    def tail(self) -> int:
        """Address of the last node (the one with ``NEXT = nil``)."""
        return int(np.flatnonzero(self._next == NIL)[0])

    @property
    def next(self) -> np.ndarray:
        """The (read-only) ``NEXT`` array."""
        return self._next

    @property
    def values(self) -> np.ndarray:
        """The (read-only) payload array ``X``."""
        if self._values is None:
            vals = np.arange(self.n, dtype=np.int64)
            vals.setflags(write=False)
            return vals
        return self._values

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        """Iterate addresses in list order (sequential walk)."""
        v = self._head
        nxt = self._next
        while v != NIL:
            yield int(v)
            v = int(nxt[v])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LinkedList(n={self.n}, head={self._head})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkedList):
            return NotImplemented
        return bool(
            np.array_equal(self._next, other._next)
            and (self._values is other._values
                 or np.array_equal(self.values, other.values))
        )

    def __hash__(self) -> int:
        return hash((self.n, self._head, self._next.tobytes()))

    # -- derived structures (cached) ---------------------------------------

    @property
    def pred(self) -> np.ndarray:
        """Predecessor array: ``pred[v] = pre(v)``, :data:`NIL` at the head.

        Computed vectorized on first use and cached.
        """
        if self._pred is None:
            pred = np.full(self.n, NIL, dtype=np.int64)
            tails = np.flatnonzero(self._next != NIL)
            pred[self._next[tails]] = tails
            pred.setflags(write=False)
            self._pred = pred
        return self._pred

    @property
    def order(self) -> np.ndarray:
        """Visit order: ``order[j]`` is the address of the j-th node.

        This is the *answer* to list ranking; algorithms must not use it
        as an input shortcut — it exists for verification and test
        oracles.  Computed by a sequential walk and cached.
        """
        if self._order is None:
            order = np.fromiter(iter(self), count=self.n, dtype=np.int64)
            order.setflags(write=False)
            self._order = order
        return self._order

    @property
    def rank(self) -> np.ndarray:
        """Rank of each node: distance from the head (oracle use only)."""
        ranks = np.empty(self.n, dtype=np.int64)
        ranks[self.order] = np.arange(self.n, dtype=np.int64)
        return ranks

    def pointers(self) -> tuple[np.ndarray, np.ndarray]:
        """The list's ``n - 1`` pointers as ``(tails, heads)`` arrays.

        ``tails[j]`` is a node ``v`` with a non-nil successor and
        ``heads[j] = suc(v)``; a pointer is identified throughout the
        library by its tail address.
        """
        tails = np.flatnonzero(self._next != NIL)
        return tails, self._next[tails]

    def circular_next(self) -> np.ndarray:
        """``NEXT`` with the tail wired to the head (paper section 2).

        Used when computing ``f(a, suc(a))`` for the last element: "we
        can define f(a, suc(a)) = f(a, b) where b is (the address of)
        the first element of the linked list."
        """
        nxt = self._next.copy()
        nxt[nxt == NIL] = self._head
        return nxt

    def sublists_after_cut(self, cut_tails: np.ndarray) -> list[list[int]]:
        """Split the list by deleting the pointers with the given tails.

        Returns the resulting sublists (in list order) as address lists;
        used by Match1 step 4 (walking constant-length sublists) and by
        its tests.
        """
        cut = np.zeros(self.n, dtype=bool)
        cut_tails = as_index_array(cut_tails, name="cut_tails")
        if cut_tails.size and (
            int(cut_tails.min()) < 0 or int(cut_tails.max()) >= self.n
        ):
            raise InvalidListError("cut tails must be node addresses")
        cut[cut_tails] = True
        out: list[list[int]] = []
        current: list[int] = []
        for v in self:
            current.append(v)
            if cut[v] or self._next[v] == NIL:
                out.append(current)
                current = []
        return out
