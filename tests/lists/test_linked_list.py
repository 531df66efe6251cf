"""Tests for repro.lists.linked_list: the LinkedList container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidListError
from repro.lists import NIL, LinkedList

permutations = st.integers(1, 200).flatmap(
    lambda n: st.permutations(list(range(n)))
)


class TestConstruction:
    def test_fig1_list(self):
        # The paper's Fig. 1: 0 -> 2 -> 4 -> 1 -> 5 -> 3 -> 6.
        lst = LinkedList.from_order([0, 2, 4, 1, 5, 3, 6])
        assert lst.n == 7
        assert lst.head == 0
        assert lst.tail == 6
        assert list(lst) == [0, 2, 4, 1, 5, 3, 6]

    def test_from_next_array(self):
        lst = LinkedList([1, 2, NIL])
        assert list(lst) == [0, 1, 2]

    def test_singleton(self):
        lst = LinkedList([NIL])
        assert lst.n == 1
        assert lst.head == lst.tail == 0
        assert list(lst) == [0]

    def test_values_default_to_addresses(self):
        lst = LinkedList.from_order([1, 0])
        assert lst.values.tolist() == [0, 1]
        with pytest.raises(ValueError):
            lst.values[0] = 5

    def test_custom_values(self):
        lst = LinkedList([1, NIL], values=[10, 20])
        assert lst.values.tolist() == [10, 20]

    def test_values_size_mismatch(self):
        with pytest.raises(InvalidListError):
            LinkedList([1, NIL], values=[10])

    def test_from_order_rejects_non_permutation(self):
        with pytest.raises(InvalidListError):
            LinkedList.from_order([0, 0, 1])
        with pytest.raises(InvalidListError):
            LinkedList.from_order([0, 3])
        with pytest.raises(InvalidListError):
            LinkedList.from_order([])

    @given(permutations)
    @settings(max_examples=50)
    def test_from_order_round_trip(self, perm):
        lst = LinkedList.from_order(perm)
        assert list(lst) == list(perm)

    @given(permutations)
    @settings(max_examples=50)
    def test_unchecked_head_is_the_checked_head(self, perm):
        nxt = LinkedList.from_order(perm).next
        assert LinkedList(nxt).head == perm[0]
        assert LinkedList(nxt, validate=False).head == perm[0]


class TestImmutability:
    def test_next_read_only(self):
        lst = LinkedList.from_order([0, 1, 2])
        with pytest.raises(ValueError):
            lst.next[0] = 5

    def test_pred_read_only(self):
        lst = LinkedList.from_order([0, 1, 2])
        with pytest.raises(ValueError):
            lst.pred[0] = 5


class TestDerivedStructures:
    def test_pred(self):
        lst = LinkedList.from_order([2, 0, 1])
        # order 2 -> 0 -> 1
        assert lst.pred[2] == NIL
        assert lst.pred[0] == 2
        assert lst.pred[1] == 0

    def test_order_and_rank(self):
        order = [3, 1, 4, 0, 2]
        lst = LinkedList.from_order(order)
        assert lst.order.tolist() == order
        ranks = lst.rank
        for j, v in enumerate(order):
            assert ranks[v] == j

    def test_pointers(self):
        lst = LinkedList.from_order([1, 3, 0, 2])
        tails, heads = lst.pointers()
        assert len(tails) == 3
        pairs = set(zip(tails.tolist(), heads.tolist()))
        assert pairs == {(1, 3), (3, 0), (0, 2)}

    def test_circular_next(self):
        lst = LinkedList.from_order([2, 0, 1])
        cn = lst.circular_next()
        assert cn[1] == 2  # tail wired to head
        assert cn[2] == 0
        assert cn[0] == 1

    @given(permutations)
    @settings(max_examples=40)
    def test_pred_inverts_next(self, perm):
        lst = LinkedList.from_order(perm)
        nxt, pred = lst.next, lst.pred
        for v in range(lst.n):
            if nxt[v] != NIL:
                assert pred[nxt[v]] == v
            if pred[v] != NIL:
                assert nxt[pred[v]] == v


class TestSublistsAfterCut:
    def test_no_cut(self):
        lst = LinkedList.from_order([0, 1, 2, 3])
        assert lst.sublists_after_cut(np.asarray([], dtype=np.int64)) == [
            [0, 1, 2, 3]
        ]

    def test_single_cut(self):
        lst = LinkedList.from_order([0, 1, 2, 3])
        parts = lst.sublists_after_cut(np.asarray([1]))
        assert parts == [[0, 1], [2, 3]]

    def test_cut_validation(self):
        lst = LinkedList.from_order([0, 1])
        with pytest.raises(InvalidListError):
            lst.sublists_after_cut(np.asarray([7]))

    def test_partition_covers_all_nodes(self):
        lst = LinkedList.from_order([4, 2, 0, 3, 1])
        parts = lst.sublists_after_cut(np.asarray([2, 3]))
        flat = [v for part in parts for v in part]
        assert flat == [4, 2, 0, 3, 1]


class TestEqualityHash:
    def test_equal(self):
        a = LinkedList.from_order([0, 2, 1])
        b = LinkedList.from_order([0, 2, 1])
        assert a == b
        assert hash(a) == hash(b)

    def test_not_equal(self):
        a = LinkedList.from_order([0, 2, 1])
        b = LinkedList.from_order([0, 1, 2])
        assert a != b

    def test_default_values_equal_the_addresses(self):
        nxt = [2, NIL, 1]
        assert LinkedList(nxt) == LinkedList(nxt, values=np.arange(3))
        assert LinkedList(nxt, values=np.arange(3)) == LinkedList(nxt)
        assert LinkedList(nxt) != LinkedList(nxt, values=[0, 1, 7])

    def test_not_equal_other_type(self):
        assert LinkedList.from_order([0]) != "list"

    def test_len(self):
        assert len(LinkedList.from_order([1, 0, 2])) == 3
