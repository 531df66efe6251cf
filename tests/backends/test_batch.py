"""``batch_maximal_matching``: many lists, one engine invocation."""

import numpy as np
import pytest

import repro
from repro.backends.batch import BatchMatchResult, batch_maximal_matching
from repro.errors import (
    InvalidListError,
    InvalidParameterError,
    VerificationError,
)
from repro.lists import NIL
from repro.lists.validation import validate_next_array


def _mixed_lists(seeds, sizes):
    return [repro.random_list(n, rng=s) for s, n in zip(seeds, sizes)]


class TestBatchEquivalence:
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("match1", {}),
        ("match4", {"iterations": 1}),
        ("match4", {"iterations": 2}),
    ])
    def test_per_list_identical(self, algorithm, kwargs):
        sizes = [1, 2, 3, 17, 33, 100, 256, 511]
        lists = _mixed_lists(range(len(sizes)), sizes)
        batch = batch_maximal_matching(lists, algorithm=algorithm, **kwargs)
        assert isinstance(batch, BatchMatchResult)
        assert len(batch.matchings) == len(lists)
        for lst, bm in zip(lists, batch.matchings):
            solo = repro.maximal_matching(
                lst, algorithm=algorithm, backend="numpy", **kwargs)
            assert np.array_equal(bm.tails, solo.matching.tails)

    def test_reference_backend_path(self):
        lists = _mixed_lists(range(4), [5, 1, 40, 13])
        vec = batch_maximal_matching(lists, backend="numpy")
        ref = batch_maximal_matching(lists, backend="reference")
        for a, b in zip(vec.matchings, ref.matchings):
            assert np.array_equal(a.tails, b.tails)
        # reports differ by design: the fused engine charges one
        # concurrent schedule (depth set by the largest list), the
        # reference path sums independent per-list runs
        assert vec.report.time > 0 and ref.report.time > 0

    def test_all_singletons(self):
        lists = _mixed_lists(range(5), [1] * 5)
        batch = batch_maximal_matching(lists)
        assert all(m.size == 0 for m in batch.matchings)

    def test_empty_input(self):
        batch = batch_maximal_matching([])
        assert batch.matchings == ()
        assert batch.stats.num_lists == 0

    def test_kind_lsb(self):
        lists = _mixed_lists(range(3), [64, 7, 200])
        batch = batch_maximal_matching(lists, algorithm="match1", kind="lsb")
        for lst, bm in zip(lists, batch.matchings):
            solo = repro.maximal_matching(
                lst, algorithm="match1", backend="numpy", kind="lsb")
            assert np.array_equal(bm.tails, solo.matching.tails)


class TestBatchApi:
    def test_stats(self):
        sizes = [8, 1, 30]
        lists = _mixed_lists(range(3), sizes)
        batch = batch_maximal_matching(lists)
        assert batch.stats.num_lists == 3
        assert batch.stats.total_nodes == sum(sizes)
        assert batch.stats.sizes == tuple(sizes)
        assert batch.stats.matched == tuple(m.size for m in batch.matchings)

    def test_sequence_protocol(self):
        lists = _mixed_lists(range(3), [8, 9, 10])
        batch = batch_maximal_matching(lists)
        assert len(batch) == 3
        assert list(batch) == list(batch.matchings)
        assert batch[1] is batch.matchings[1]

    def test_deprecated_alias(self):
        lists = _mixed_lists(range(2), [16, 17])
        with pytest.warns(DeprecationWarning, match="use 'iterations'"):
            batch = batch_maximal_matching(lists, algorithm="match4", i=1)
        assert batch.stats.num_lists == 2

    def test_unsupported_algorithm_on_numpy(self):
        lists = _mixed_lists(range(2), [16, 17])
        with pytest.raises(InvalidParameterError, match="match2"):
            batch_maximal_matching(lists, algorithm="match2")

    def test_label_bound_error_names_the_list(self):
        # Two workers shard the second and third batches as
        # [(0, 30), (30, 32)] and [(0, 31), (31, 32)]: list 31 is the
        # second list of a shard, then alone in its shard.
        for sizes, bad in (([5, 4096, 64], 1),
                           ([10] * 30 + [160, 150], 31),
                           ([4] * 31 + [150], 31)):
            lists = _mixed_lists(range(len(sizes)), sizes)
            with pytest.raises(VerificationError,
                               match="constant-size") as single:
                repro.maximal_matching(lists[bad], algorithm="match1",
                                       backend="numpy", rounds=1)
            for workers in (None, 2):
                with pytest.raises(VerificationError) as batch:
                    batch_maximal_matching(lists, algorithm="match1",
                                           rounds=1, workers=workers)
                assert str(batch.value) == f"list {bad}: {single.value}"
            # A batch of one list is that list's arena: the single-list
            # text.
            with pytest.raises(VerificationError) as alone:
                batch_maximal_matching(lists[bad:bad + 1],
                                       algorithm="match1", rounds=1)
            assert str(alone.value) == str(single.value)

    def test_top_level_export(self):
        assert repro.batch_maximal_matching is batch_maximal_matching


def _raw_batch(sizes, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        order = rng.permutation(n)
        nxt = np.full(n, NIL, dtype=np.int64)
        nxt[order[:-1]] = order[1:]
        out.append(nxt)
    return out


#: Each defect, and the start of its single-list message.
MESSAGES = {
    "out_of_range": r"^NEXT\[\d+\] = \d+ is neither nil",
    "two_nils": "^a simple path has exactly one nil pointer; found 2",
    "self_loop": r"^self-loop at node \d+",
    "two_predecessors": r"^node \d+ has 2 predecessors",
    "disjoint_cycle": r"^path from head \d+ covers",
}
DEFECTS = sorted(MESSAGES)


def _break(nxt, defect):
    """Give a valid list ``nxt`` of at least 3 nodes one defect."""
    head = int(np.flatnonzero(np.bincount(nxt[nxt != NIL],
                                          minlength=nxt.size) == 0)[0])
    path = [head]
    while nxt[path[-1]] != NIL:
        path.append(int(nxt[path[-1]]))
    if defect == "out_of_range":
        nxt[path[1]] = nxt.size
    elif defect == "two_nils":
        nxt[path[1]] = NIL
    elif defect == "self_loop":
        nxt[path[1]] = path[1]
    elif defect == "two_predecessors":
        nxt[path[0]] = path[2]
    else:  # a disjoint cycle: close the second half of the path
        half = len(path) // 2
        nxt[path[half - 1]] = NIL
        nxt[path[-1]] = path[half]


def _error_names_the_list(defect, b, workers):
    lists = _raw_batch([64, 3000, 1, 700, 3000, 2500], seed=b)
    _break(lists[b], defect)
    with pytest.raises(InvalidListError, match=MESSAGES[defect]) as single:
        validate_next_array(lists[b])
    with pytest.raises(InvalidListError) as batch:
        batch_maximal_matching(lists, workers=workers)
    assert str(batch.value) == f"list {b}: {single.value}"


def _first_bad_list_is_named(workers):
    lists = _raw_batch([3000, 3000, 3000], seed=1)
    _break(lists[1], "disjoint_cycle")
    _break(lists[2], "out_of_range")
    with pytest.raises(InvalidListError, match="^list 1: path from"):
        batch_maximal_matching(lists, workers=workers)


class TestBatchValidation:
    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("b", [0, 3, 5])
    def test_error_names_the_list(self, defect, b, contraction):
        _error_names_the_list(defect, b, workers=None)

    # A sharded batch names a bad list by its index in the batch too.
    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("b", [0, 3, 5])
    def test_sharded_error_names_the_list(self, defect, b, contraction):
        _error_names_the_list(defect, b, workers=2)

    def test_first_bad_list_is_named(self):
        _first_bad_list_is_named(workers=None)

    def test_sharded_first_bad_list_is_named(self):
        _first_bad_list_is_named(workers=2)

    def test_empty_list_is_named(self):
        lists = _raw_batch([5, 6], seed=2) + [np.empty(0, dtype=np.int64)]
        with pytest.raises(InvalidListError,
                           match="^list 2: empty NEXT array"):
            batch_maximal_matching(lists)

    def test_mixed_inputs_same_matchings(self, contraction):
        raw = _raw_batch([64, 3000, 1, 700, 4096, 2], seed=4)
        objs = [repro.LinkedList(nxt) for nxt in raw]
        mixed = [objs[b] if b % 2 else raw[b] for b in range(len(raw))]
        want = batch_maximal_matching(objs)
        for lists in (raw, mixed):
            got = batch_maximal_matching(lists)
            for a, b in zip(got.matchings, want.matchings):
                assert np.array_equal(a.tails, b.tails)
