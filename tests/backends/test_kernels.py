"""Pins on the numpy engine's kernels, each against a plain oracle."""

import gc
import weakref
from itertools import product

import numpy as np
import pytest

import repro
from repro.backends import engine
from repro.backends.batch import batch_maximal_matching
from repro.core import functions as ref_functions


def _arena(sizes):
    """An engine arena of sequential lists with the given sizes."""
    return engine._Prep([repro.sequential_list(n) for n in sizes])


def _stable_block_ranks(labels, x):
    """Each node's rank in a stable sort of its block of ``x`` nodes."""
    rank = np.empty(labels.size, dtype=np.int64)
    for lo in range(0, labels.size, x):
        block = labels[lo:lo + x]
        rank[lo + np.argsort(block, kind="stable")] = np.arange(block.size)
    return rank


@pytest.fixture(params=["one chunk", "many chunks"])
def rank_chunks(request, monkeypatch):
    """Rank in one chunk, or in chunks of a few blocks each."""
    if request.param == "many chunks":
        monkeypatch.setattr(engine, "_RANK_TEMP", 200)


@pytest.mark.usefixtures("rank_chunks")
class TestBlockRanks:
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5])
    def test_every_label_vector_of_a_block(self, x):
        # All x**x label vectors of one block, laid out as one list;
        # dropping the last node leaves a partial last block too.
        labels = np.array(list(product(range(x), repeat=x)),
                          dtype=np.int8).reshape(-1)
        for n in range(max(1, labels.size - 1), labels.size + 1):
            got = engine._block_ranks(_arena([n]), labels[:n],
                                      np.array([x]))
            assert np.array_equal(got, _stable_block_ranks(labels[:n], x))

    def test_padded_mixed_width_batch(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            sizes = rng.integers(1, 200, size=rng.integers(1, 9))
            xs = rng.integers(1, 13, size=sizes.size)
            labels = [rng.integers(0, x, size=n).astype(np.int8)
                      for n, x in zip(sizes, xs)]
            assert np.array_equal(*_ranks_in_arena_order(sizes, xs, labels)), \
                trial

    @pytest.mark.parametrize("x", [2, 5, 10])
    def test_width_class_with_partial_blocks(self, x):
        # Lists of one width: partial last blocks inside the class (a
        # masked slice) and at its end only (a plain slice).
        rng = np.random.default_rng(x)
        for sizes in ([3 * x, 3 * x + 1, 7 * x, 7 * x + x - 1, 9],
                      [x, 2 * x, 5 * x, 5 * x + 1], [1, 1, 4 * x + 3]):
            sizes = np.array(sizes)
            xs = np.full(sizes.size, x)
            labels = [rng.integers(0, x, size=n).astype(np.int8)
                      for n in sizes]
            assert np.array_equal(*_ranks_in_arena_order(sizes, xs, labels))


def _ranks_in_arena_order(sizes, xs, labels):
    """``_block_ranks`` of lists with the given sizes, widths and labels,
    and the oracle's ranks, both in the arena's (size-sorted) order."""
    prep = _arena(sizes.tolist())
    order = prep.order.tolist()
    got = engine._block_ranks(prep, np.concatenate([labels[b] for b in order]),
                              xs[order])
    want = np.concatenate([_stable_block_ranks(labels[b], int(xs[b]))
                           for b in order])
    return got, want


class TestRoundOne:
    @pytest.mark.parametrize("bound", [
        2**16 - 1, 2**16, 2**16 + 1, 2**24 - 1, 2**24, 2**24 + 1, 2**31 - 1])
    def test_float_exponent_equals_the_reference(self, bound):
        rng = np.random.default_rng(bound)
        top = np.array([bound - 1, bound - 2, bound // 2, 1, 0])
        a = np.concatenate([rng.integers(0, bound, 20000), top, top[::-1]])
        b = np.concatenate([rng.integers(0, bound, 20000), top[::-1], top])
        keep = a != b
        a, b = a[keep], b[keep]
        for kind, ref in (("msb", ref_functions.f_msb),
                          ("lsb", ref_functions.f_lsb)):
            got = engine._f_values(a, b, bound, kind)
            assert np.array_equal(got, ref(a, b)), kind

    def test_every_pair_below_2_to_the_9(self):
        a, b = np.divmod(np.arange(512 * 512, dtype=np.int64), 512)
        keep = a != b
        a, b = a[keep], b[keep]
        for kind, ref in (("msb", ref_functions.f_msb),
                          ("lsb", ref_functions.f_lsb)):
            assert np.array_equal(engine._f_values(a, b, 512, kind),
                                  ref(a, b)), kind


ALGO_CASES = [
    ("match1", {}),
    ("match1", {"kind": "lsb"}),
    ("match4", {"iterations": 1}),
    ("match4", {"iterations": 2}),
    ("match4", {"iterations": 2, "kind": "lsb"}),
]


@pytest.mark.parametrize("algorithm,kwargs", ALGO_CASES)
def test_one_list_batch_reports_the_single_list_cost(algorithm, kwargs):
    for n in list(range(1, 40)) + [64, 100, 1000, 4096]:
        lst = repro.random_list(n, rng=n)
        solo = repro.maximal_matching(lst, algorithm=algorithm,
                                      backend="numpy", p=3, **kwargs)
        batch = batch_maximal_matching([lst], algorithm=algorithm, p=3,
                                       **kwargs)
        assert batch.report == solo.report, n
        assert np.array_equal(batch.matchings[0].tails, solo.matching.tails)


@pytest.mark.parametrize("algorithm,kwargs", ALGO_CASES)
def test_singletons_add_nothing_to_a_batch_report(algorithm, kwargs):
    sizes = [1, 64, 1, 700, 1]
    lists = [repro.random_list(n, rng=b) for b, n in enumerate(sizes)]
    batch = batch_maximal_matching(lists, algorithm=algorithm, p=3, **kwargs)
    rest = batch_maximal_matching([lst for lst in lists if lst.n > 1],
                                  algorithm=algorithm, p=3, **kwargs)
    assert batch.report == rest.report
    assert [m.size for m in batch.matchings] == [0, *rest.stats.matched[:1],
                                                 0, *rest.stats.matched[1:],
                                                 0]


@pytest.mark.parametrize("algorithm", ["match1", "match4"])
def test_numpy_paths_build_no_predecessor_array(algorithm):
    lists = [repro.random_list(n, rng=n) for n in (1, 2, 17, 3000)]
    for lst in lists:
        repro.maximal_matching(lst, algorithm=algorithm, backend="numpy")
    batch_maximal_matching(lists, algorithm=algorithm)
    raw = batch_maximal_matching([lst.next for lst in lists],
                                 algorithm=algorithm)
    assert all(lst._pred is None for lst in lists)
    assert all(m.lst._pred is None for m in raw.matchings)
    assert all(lst._values is None for lst in lists)


ENGINE_CALLS = {
    "match1": lambda lst: repro.maximal_matching(lst, algorithm="match1",
                                                 backend="numpy"),
    "match4": lambda lst: repro.maximal_matching(lst, algorithm="match4",
                                                 backend="numpy"),
    "iterate_f": lambda lst: engine.iterate_f(lst, 2),
    "cut_and_walk": lambda lst: engine.cut_and_walk(
        lst, ref_functions.iterate_f(lst, 3)),
    "batch": lambda lst: batch_maximal_matching([lst]),
}


@pytest.mark.parametrize("call", ENGINE_CALLS.values(), ids=ENGINE_CALLS)
def test_engine_keeps_nothing_between_calls(call):
    lst = repro.random_list(300, rng=5)
    alive = weakref.ref(lst.next)
    result = call(lst)
    del lst, result
    gc.collect()
    assert alive() is None
