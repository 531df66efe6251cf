"""Tests for the forest extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forests import (
    forest_iterate_f,
    forest_maximal_matching,
    verify_forest_maximal_matching,
)
from repro.errors import InvalidListError, VerificationError
from repro.lists import NIL
from repro.lists.forest import Forest, random_forest


class TestForestContainer:
    def test_from_orders(self):
        f = Forest.from_orders([[2, 0], [1, 3, 4]])
        assert f.num_components == 2
        assert sorted(f.heads.tolist()) == [1, 2]
        assert sorted(f.tails.tolist()) == [0, 4]

    def test_component_labels(self):
        f = Forest.from_orders([[0, 1], [2], [3, 4, 5]])
        assert f.component[0] == f.component[1]
        assert f.component[3] == f.component[5]
        assert f.component[0] != f.component[2]

    def test_single_component_matches_list(self):
        f = Forest.from_orders([[3, 1, 0, 2]])
        assert f.num_components == 1
        assert list(next(iter(f.components()))) == [0, 1, 2, 3]

    def test_circular_next_per_component(self):
        f = Forest.from_orders([[0, 1], [2, 3]])
        cn = f.circular_next()
        assert cn[1] == 0 and cn[3] == 2  # wraps stay inside components

    def test_singleton_components_allowed(self):
        f = Forest.from_orders([[0], [1], [2]])
        assert f.num_components == 3

    def test_rejects_cycle(self):
        with pytest.raises(InvalidListError):
            Forest([1, 0, NIL])

    def test_rejects_two_preds(self):
        with pytest.raises(InvalidListError, match="predecessors"):
            Forest([2, 2, NIL])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidListError, match="self-loop"):
            Forest([0, NIL])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidListError):
            Forest([5, NIL])

    def test_rejects_bad_orders(self):
        with pytest.raises(InvalidListError):
            Forest.from_orders([[0, 1], [1, 2]])

    def test_random_forest_structure(self):
        f = random_forest(100, 7, rng=1)
        assert f.n == 100
        assert f.num_components == 7
        total = sum(len(list(c)) for c in f.components())
        assert total == 100

    def test_random_forest_validation(self):
        with pytest.raises(InvalidListError):
            random_forest(5, 9, rng=0)


def walked_structure(nxt):
    """Heads, tails, component ids and circular ``NEXT`` of a valid
    forest, by walking each component from its head."""
    n = nxt.size
    heads = np.flatnonzero(np.bincount(nxt[nxt != NIL], minlength=n) == 0)
    tails = np.flatnonzero(nxt == NIL)
    component = np.full(n, -1, dtype=np.int64)
    for cid, v in enumerate(heads.tolist()):
        while v != NIL:
            component[v] = cid
            v = int(nxt[v])
    circular = nxt.copy()
    circular[tails] = heads[component[tails]]
    return heads, tails, component, circular


class TestForestMatchesWalk:
    @pytest.mark.parametrize("n,k", [(1, 1), (100, 7), (3000, 1),
                                     (5000, 40), (4096, 4096)])
    def test_random_forest(self, n, k, contraction):
        f = random_forest(n, k, rng=n + k)
        heads, tails, component, circular = walked_structure(
            np.array(f.next))
        assert np.array_equal(f.heads, heads)
        assert np.array_equal(f.tails, tails)
        assert np.array_equal(f.component, component)
        assert np.array_equal(f.circular_next(), circular)

    def test_first_node_on_a_cycle_is_named(self, contraction):
        f = random_forest(5000, 12, rng=9)
        nxt = np.array(f.next)
        # Close the component holding node 4321 into a cycle.
        cid = int(f.component[4321])
        tail = int(f.tails[np.flatnonzero(f.component[f.tails] == cid)[0]])
        nxt[tail] = f.heads[cid]
        first = int(np.flatnonzero(f.component == cid)[0])
        with pytest.raises(InvalidListError,
                           match=f"^node {first} is unreachable from any "
                                 f"head: a cycle exists$"):
            Forest(nxt)


class TestForestIteration:
    def test_adjacent_distinct(self):
        f = random_forest(500, 9, rng=2)
        labels = forest_iterate_f(f, 3)
        live = np.flatnonzero(f.next != NIL)
        assert not np.any(labels[live] == labels[f.next[live]])

    def test_matches_single_list(self):
        from repro.core.functions import iterate_f
        from repro.lists import LinkedList

        order = [4, 0, 3, 1, 2]
        f = Forest.from_orders([order])
        lst = LinkedList.from_order(order)
        assert np.array_equal(forest_iterate_f(f, 3), iterate_f(lst, 3))

    def test_singleton_components_untouched(self):
        f = Forest.from_orders([[0], [2, 1]])
        labels = forest_iterate_f(f, 2)
        assert labels[0] == 0  # no pointer, label irrelevant but stable


class TestForestMatching:
    @pytest.mark.parametrize("n,k", [(10, 3), (100, 1), (100, 10),
                                     (1000, 25), (4096, 64)])
    def test_maximal(self, n, k):
        f = random_forest(n, k, rng=n + k)
        tails, _ = forest_maximal_matching(f)
        verify_forest_maximal_matching(f, tails)

    def test_matches_per_component_verification(self):
        # the matching restricted to each component is maximal there
        from repro.core.matching import verify_maximal_matching

        f = random_forest(300, 6, rng=3)
        tails, _ = forest_maximal_matching(f)
        chosen = np.zeros(f.n, dtype=bool)
        chosen[tails] = True
        for cid in range(f.num_components):
            nodes = []
            v = int(f.heads[cid])
            while v != NIL:
                nodes.append(v)
                v = int(f.next[v])
            remap = {v: j for j, v in enumerate(nodes)}
            sub_next = np.full(len(nodes), NIL, dtype=np.int64)
            for u in nodes[:-1]:
                sub_next[remap[u]] = remap[int(f.next[u])]
            from repro.lists import LinkedList

            sub = LinkedList(sub_next, validate=False)
            sub_tails = np.asarray(
                sorted(remap[int(t)] for t in tails if int(t) in remap
                       and chosen[int(t)]),
                dtype=np.int64,
            )
            verify_maximal_matching(sub, sub_tails)

    def test_all_singletons(self):
        f = Forest.from_orders([[i] for i in range(5)])
        tails, _ = forest_maximal_matching(f)
        assert tails.size == 0

    def test_pair_components(self):
        f = Forest.from_orders([[0, 1], [2, 3], [4, 5]])
        tails, _ = forest_maximal_matching(f)
        assert sorted(tails.tolist()) == [0, 2, 4]

    @given(st.integers(2, 60), st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_property_random_forests(self, n, k):
        k = min(k, n)
        f = random_forest(n, k, rng=n * 31 + k)
        tails, _ = forest_maximal_matching(f)
        verify_forest_maximal_matching(f, tails)

    def test_verifier_rejects_non_maximal(self):
        f = Forest.from_orders([[0, 1, 2, 3]])
        with pytest.raises(VerificationError, match="added"):
            verify_forest_maximal_matching(f, np.asarray([], dtype=np.int64))

    def test_verifier_rejects_adjacent(self):
        f = Forest.from_orders([[0, 1, 2, 3]])
        with pytest.raises(VerificationError, match="both matched"):
            verify_forest_maximal_matching(f, np.asarray([0, 1]))
