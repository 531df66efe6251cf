"""Tests for repro.lists.validation: every structural defect diagnosed.

The vectorized check is compared with a plain Python walk, the
validator it replaced, which lives on here as the oracle: exhaustively
for every ``NEXT`` array of up to 6 nodes, and on seeded forests and
hand-built layouts at scale.  Most tests run twice: at the module's
constants, and at ``K = 2, T = 1, SMALL = 1`` with ``int64`` step
arrays (the ``contraction`` fixture), where even the smallest input
contracts through every level and every lock-step round.
"""

import itertools

import numpy as np
import pytest

from repro.backends.batch import batch_maximal_matching
from repro.errors import InvalidListError
from repro.lists import NIL, validation
from repro.lists.validation import (
    each_is_one_path,
    path_components,
    validate_next_array,
)


def walk_validate(next_):
    """The walk validator, as it was: checks in order, then a walk from
    the head that must reach all n nodes."""
    next_ = np.asarray(next_, dtype=np.int64)
    n = next_.size
    if n == 0:
        raise InvalidListError("empty NEXT array: a list needs >= 1 node")
    in_range = (next_ == NIL) | ((next_ >= 0) & (next_ < n))
    if not np.all(in_range):
        bad = int(np.flatnonzero(~in_range)[0])
        raise InvalidListError(
            f"NEXT[{bad}] = {int(next_[bad])} is neither nil nor a valid "
            f"address in [0, {n})"
        )
    tails = np.flatnonzero(next_ == NIL)
    if tails.size != 1:
        raise InvalidListError(
            f"a simple path has exactly one nil pointer; found {tails.size}"
        )
    if np.any(next_ == np.arange(n, dtype=np.int64)):
        bad = int(np.flatnonzero(next_ == np.arange(n))[0])
        raise InvalidListError(f"self-loop at node {bad}")
    targets = next_[next_ != NIL]
    indegree = np.bincount(targets, minlength=n)
    if np.any(indegree > 1):
        bad = int(np.flatnonzero(indegree > 1)[0])
        raise InvalidListError(f"node {bad} has {int(indegree[bad])} predecessors")
    heads = np.flatnonzero(indegree == 0)
    if heads.size != 1:
        raise InvalidListError(
            f"a simple path has exactly one head; found {heads.size} "
            f"(disconnected cycle present)"
        )
    head = int(heads[0])
    seen = 0
    v = head
    while v != NIL:
        seen += 1
        if seen > n:
            raise InvalidListError("cycle detected while walking the list")
        v = int(next_[v])
    if seen != n:
        raise InvalidListError(
            f"path from head {head} covers {seen} of {n} nodes; "
            f"a disconnected cycle exists"
        )
    return head


def walk_components(next_):
    """``path_components`` as walks from each head in address order."""
    next_ = np.asarray(next_, dtype=np.int64)
    n = next_.size
    in_range = (next_ == NIL) | ((next_ >= 0) & (next_ < n))
    if not np.all(in_range):
        bad = int(np.flatnonzero(~in_range)[0])
        raise InvalidListError(
            f"NEXT[{bad}] = {int(next_[bad])} is neither nil nor a valid "
            f"address in [0, {n})"
        )
    if np.any(next_ == np.arange(n)):
        bad = int(np.flatnonzero(next_ == np.arange(n))[0])
        raise InvalidListError(f"self-loop at node {bad}")
    indegree = np.bincount(next_[next_ != NIL], minlength=n)
    if np.any(indegree > 1):
        bad = int(np.flatnonzero(indegree > 1)[0])
        raise InvalidListError(
            f"node {bad} has {int(indegree[bad])} predecessors")
    heads = np.flatnonzero(indegree == 0)
    component = np.full(n, -1, dtype=np.int64)
    for cid, v in enumerate(heads.tolist()):
        while v != NIL:
            component[v] = cid
            v = int(next_[v])
    return heads, component


def outcome(check, next_):
    """What ``check`` did with ``next_``: its value, or its error's class
    and message."""
    try:
        return "ok", check(next_)
    except InvalidListError as exc:
        return type(exc), str(exc)


def same_components(next_):
    """Assert ``path_components`` agrees with the walk on ``next_``."""
    got = outcome(path_components, next_)
    want = outcome(walk_components, next_)
    if got[0] == "ok" and want[0] == "ok":
        assert np.array_equal(got[1][0], want[1][0])
        assert np.array_equal(got[1][1], want[1][1])
    else:
        assert got == want


def next_from_order(order, n):
    nxt = np.full(n, NIL, dtype=np.int64)
    nxt[order[:-1]] = order[1:]
    return nxt


def planted_forest(rng, n, pieces, closed=0.3):
    """A random permutation cut into ``pieces`` paths, about ``closed``
    of them closed into cycles."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=pieces - 1,
                              replace=False))
    nxt = np.full(n, NIL, dtype=np.int64)
    for piece in np.split(order, cuts):
        nxt[piece[:-1]] = piece[1:]
        if piece.size > 1 and rng.random() < closed:
            nxt[piece[-1]] = piece[0]
    return nxt


class TestValidInputs:
    def test_simple_path(self):
        assert validate_next_array(np.asarray([1, 2, NIL])) == 0

    def test_head_not_at_zero(self):
        # order: 2 -> 0 -> 1
        assert validate_next_array(np.asarray([1, NIL, 0])) == 2

    def test_singleton(self):
        assert validate_next_array(np.asarray([NIL])) == 0


class TestDefects:
    def test_empty(self):
        with pytest.raises(InvalidListError, match="empty"):
            validate_next_array(np.asarray([], dtype=np.int64))

    def test_out_of_range_pointer(self):
        with pytest.raises(InvalidListError, match="neither nil"):
            validate_next_array(np.asarray([1, 7]))

    def test_negative_non_nil(self):
        with pytest.raises(InvalidListError, match="neither nil"):
            validate_next_array(np.asarray([1, -3]))

    def test_no_tail(self):
        with pytest.raises(InvalidListError, match="exactly one nil"):
            validate_next_array(np.asarray([1, 0]))

    def test_two_tails(self):
        with pytest.raises(InvalidListError, match="exactly one nil"):
            validate_next_array(np.asarray([NIL, NIL]))

    def test_self_loop(self):
        with pytest.raises(InvalidListError, match="self-loop"):
            validate_next_array(np.asarray([0, NIL]))

    def test_two_predecessors(self):
        # 0 -> 2, 1 -> 2
        with pytest.raises(InvalidListError, match="predecessors"):
            validate_next_array(np.asarray([2, 2, NIL]))

    def test_disconnected_cycle(self):
        # path: 0 -> nil; cycle: 1 -> 2 -> 1
        with pytest.raises(InvalidListError):
            validate_next_array(np.asarray([NIL, 2, 1]))

    def test_wrong_dtype(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            validate_next_array(np.asarray([0.5, 1.0]))


class TestExhaustive:
    """Every array with entries in {nil, 0..n-1}, n <= 6: 126,125 in all."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_array_matches_the_walk(self, n, tiny_contraction):
        count = 0
        for entries in itertools.product(range(NIL, n), repeat=n):
            nxt = np.array(entries, dtype=np.int64)
            assert (outcome(validate_next_array, nxt)
                    == outcome(walk_validate, nxt)), entries
            count += 1
        assert count == (n + 1) ** n

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_forest_matches_the_walk(self, n, tiny_contraction):
        for entries in itertools.product(range(NIL, n), repeat=n):
            same_components(np.array(entries, dtype=np.int64))

    def test_empty_array_has_no_components(self):
        heads, component = path_components(np.empty(0, dtype=np.int64))
        assert heads.size == 0 and component.size == 0

    def test_one_array_batch_check_matches_the_list_check(self, contraction):
        assert each_is_one_path([])
        # Every array of n <= 5 nodes: 8,476.
        for n in range(1, 6):
            for entries in itertools.product(range(NIL, n), repeat=n):
                nxt = np.array(entries, dtype=np.int64)
                want = outcome(validate_next_array, nxt)[0] == "ok"
                assert each_is_one_path([nxt]) == want, entries

    @pytest.mark.parametrize("b", [0, 1])
    def test_every_small_array_in_a_batch(self, b, contraction):
        # Every array of n <= 4 nodes (700) as list b of three, the
        # others valid: the batch accepts exactly what the list check
        # does, and otherwise names list b with the list check's text.
        others = [next_from_order(np.array([2, 0, 4, 1, 3]), 5),
                  next_from_order(np.array([1, 0, 2]), 3)]
        for n in range(1, 5):
            for entries in itertools.product(range(NIL, n), repeat=n):
                nxt = np.array(entries, dtype=np.int64)
                lists = others[:b] + [nxt] + others[b:]
                want = outcome(validate_next_array, nxt)
                try:
                    batch_maximal_matching(lists, algorithm="match1")
                except InvalidListError as exc:
                    assert want[0] != "ok", entries
                    assert str(exc) == f"list {b}: {want[1]}", entries
                else:
                    assert want[0] == "ok", entries


class TestAtScale:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_forests_with_cycles(self, seed, contraction):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1000, 5000))
        nxt = planted_forest(rng, n, int(rng.integers(1, 41)))
        same_components(nxt)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_lists_with_one_cycle(self, seed, contraction):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3000, 5000))
        order = rng.permutation(n)
        nxt = next_from_order(order, n)
        assert validate_next_array(nxt) == walk_validate(nxt)
        # Close the path's tail end into a cycle; the rest of the path
        # ends at a new nil.
        cut = int(rng.integers(1, n - 1))
        nxt[order[cut - 1]] = NIL
        nxt[order[-1]] = order[cut]
        assert outcome(validate_next_array, nxt) == outcome(walk_validate,
                                                            nxt)
        same_components(nxt)

    def test_cycle_without_a_ruler(self, contraction):
        # Odd addresses are multiples of neither K: a cycle through five
        # of them holds no ruler and is never reached.
        n = 4099
        cycle = [1, 7, 3, 9, 5]
        rest = [v for v in range(n) if v not in cycle]
        nxt = next_from_order(np.array(rest), n)
        nxt[cycle] = np.roll(cycle, -1)
        assert outcome(validate_next_array, nxt) == outcome(walk_validate,
                                                            nxt)
        same_components(nxt)
        assert (path_components(nxt)[1][cycle] == -1).all()

    def test_cycle_with_one_ruler(self, contraction):
        # Address 0 is the cycle's only ruler: its walk ends at itself,
        # a self-loop one level up.
        n = 4099
        cycle = [0, 3, 5, 1]
        rest = [v for v in range(n) if v not in cycle]
        nxt = next_from_order(np.array(rest), n)
        nxt[cycle] = np.roll(cycle, -1)
        assert outcome(validate_next_array, nxt) == outcome(walk_validate,
                                                            nxt)
        same_components(nxt)

    def test_rulers_last(self, contraction):
        # One walk covers every non-ruler; the rulers form a second
        # level in which they all are.
        k = validation.K
        n = 5000
        rng = np.random.default_rng(7)
        rulers = np.arange(0, n, k)
        others = np.setdiff1d(np.arange(n), rulers)
        order = np.concatenate([rng.permutation(others),
                                rng.permutation(rulers)])
        nxt = next_from_order(order, n)
        assert validate_next_array(nxt) == walk_validate(nxt)
        same_components(nxt)

    def test_singletons(self, contraction):
        nxt = np.full(4096, NIL, dtype=np.int64)
        heads, component = path_components(nxt)
        assert np.array_equal(heads, np.arange(4096))
        assert np.array_equal(component, np.arange(4096))

    @pytest.mark.parametrize("layout", ["sequential", "reversed",
                                        "interleaved"])
    def test_regular_layouts(self, layout, contraction):
        n = 5003
        order = {
            "sequential": np.arange(n),
            "reversed": np.arange(n)[::-1],
            "interleaved": np.concatenate([np.arange(0, n, 2),
                                           np.arange(1, n, 2)]),
        }[layout]
        nxt = next_from_order(order, n)
        assert validate_next_array(nxt) == walk_validate(nxt)
        same_components(nxt)

    def test_defects_at_scale(self, contraction):
        rng = np.random.default_rng(3)
        n = 5000
        base = next_from_order(rng.permutation(n), n)
        for v, value in [(17, n + 3), (4000, 4000), (100, int(base[200]))]:
            nxt = base.copy()
            nxt[v] = value
            assert outcome(validate_next_array, nxt) == outcome(
                walk_validate, nxt)
            same_components(nxt)
