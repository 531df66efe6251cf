"""Every list of up to 8 nodes, on both backends and as one batch.

A list of ``n`` nodes is a visit order of the addresses ``0..n-1``, so
there are ``n!`` of them: 5,913 for ``n <= 7`` and 40,320 for
``n = 8``.  Each must get bit-identical tails, stats and CostReports
from both backends, a maximal matching, and (Lemma 1) labels whose
classes are endpoint-disjoint.  Per-list calls on every ``n = 8``
list, on both backends, take about a minute per algorithm, so they are
marked ``slow``; the default run checks the ``n = 8`` batch against
every 8th per-list call.
"""

from itertools import permutations

import numpy as np
import pytest

import repro
from repro.backends import engine
from repro.backends.batch import batch_maximal_matching
from repro.core.matching import verify_maximal_matching
from repro.core.partition import NO_POINTER, verify_matching_partition

#: The algorithm settings every list goes through: API defaults, with
#: Match4's full six-set partition check switched on.
ALGOS = [("match1", {}), ("match4", {"check": True})]


def all_lists(n: int) -> list[repro.LinkedList]:
    return [repro.LinkedList.from_order(order)
            for order in permutations(range(n))]


def _result(lst, algorithm, kwargs, backend):
    res = repro.maximal_matching(lst, algorithm=algorithm, backend=backend,
                                 **kwargs)
    return res.matching.tails, res.stats, res.report


@pytest.fixture(scope="module")
def small_world() -> list[repro.LinkedList]:
    return [lst for n in range(1, 8) for lst in all_lists(n)]


def test_small_world_size(small_world):
    assert len(small_world) == 5913


@pytest.mark.parametrize("algorithm,kwargs", ALGOS)
def test_every_list_up_to_7_nodes(small_world, algorithm, kwargs):
    batch = batch_maximal_matching(small_world, algorithm=algorithm,
                                   **kwargs)
    for lst, in_batch in zip(small_world, batch.matchings):
        tails, stats, report = _result(lst, algorithm, kwargs, "numpy")
        ref_tails, ref_stats, ref_report = _result(lst, algorithm, kwargs,
                                                   "reference")
        label = f"{algorithm} on {list(lst)}"
        assert np.array_equal(tails, ref_tails), label
        assert stats == ref_stats, label
        assert report == ref_report, label
        assert np.array_equal(in_batch.tails, tails), label
        verify_maximal_matching(lst, tails)


def test_f_is_a_matching_partition_up_to_7_nodes(small_world):
    # Lemma 1: one f round leaves no two consecutive pointers equal.
    for lst in small_world:
        if lst.n < 2:
            continue
        for kind in ("msb", "lsb"):
            labels = engine.iterate_f(lst, 1, kind=kind)
            labels[lst.tail] = NO_POINTER
            verify_matching_partition(lst, labels)


@pytest.fixture(scope="module")
def eight_nodes() -> list[repro.LinkedList]:
    return all_lists(8)


def _assert_maximal(lists, tails) -> None:
    """Every matching independent and maximal, checked for all the
    (equal-length) lists at once: no pointer has both endpoints free."""
    nxt = np.stack([lst.next for lst in lists])
    rows = np.arange(len(lists))[:, None]
    chosen = np.zeros((len(lists), nxt.shape[1] + 1), dtype=bool)
    for b, t in enumerate(tails):
        chosen[b, t] = True
    pred = np.full_like(chosen, -1, dtype=np.int64)  # slot -1: no pointer
    has = nxt >= 0
    pred[rows.repeat(nxt.shape[1], 1)[has], nxt[has]] = np.nonzero(has)[1]
    heads_free = ~chosen[:, :-1] & ~chosen[rows, pred[:, :-1]]
    assert not np.any(chosen[:, :-1] & chosen[rows, nxt]), "adjacent"
    assert not np.any(has & heads_free & ~chosen[rows, nxt]), "not maximal"


@pytest.fixture(scope="module")
def eight_node_batches(eight_nodes) -> dict[str, list[np.ndarray]]:
    return {algorithm: [m.tails for m in batch_maximal_matching(
                eight_nodes, algorithm=algorithm).matchings]
            for algorithm in ("match1", "match4")}


@pytest.mark.parametrize("algorithm", ["match1", "match4"])
def test_every_8_node_list_as_one_batch(eight_nodes, eight_node_batches,
                                        algorithm):
    tails = eight_node_batches[algorithm]
    assert len(tails) == 40320
    _assert_maximal(eight_nodes, tails)
    # A per-list call costs ~0.3 ms: every 8th list here, all of them in
    # the slow test below.
    single = getattr(engine, algorithm)
    for lst, got in list(zip(eight_nodes, tails))[::8]:
        assert np.array_equal(got, single(lst)[0].tails), list(lst)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["match1", "match4"])
def test_every_8_node_list_on_the_reference(eight_nodes, eight_node_batches,
                                            algorithm):
    for lst, in_batch in zip(eight_nodes, eight_node_batches[algorithm]):
        tails, stats, report = _result(lst, algorithm, {}, "numpy")
        ref_tails, ref_stats, ref_report = _result(lst, algorithm, {},
                                                   "reference")
        assert np.array_equal(tails, ref_tails), list(lst)
        assert stats == ref_stats, list(lst)
        assert report == ref_report, list(lst)
        assert np.array_equal(in_batch, tails), list(lst)
