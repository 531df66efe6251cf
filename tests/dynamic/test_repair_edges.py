"""Edge-case regressions for the static self-stabilizer
:func:`repro.resilience.repair_matching` — the corner inputs the
dynamic tier's stabilize path feeds it (satellite of the dynamic PR).
"""

import numpy as np
import pytest

from repro.core import maximal_matching, verify_maximal_matching
from repro.errors import InvalidParameterError
from repro.lists import NIL, LinkedList, random_list
from repro.resilience import repair_matching


class TestDegenerateInputs:
    def test_empty_python_list(self):
        lst = random_list(16, rng=0)
        tails, stats = repair_matching(lst, [])
        verify_maximal_matching(lst, tails)
        assert stats.n_added == tails.size

    def test_empty_float_array(self):
        # np.asarray([]) is float64; must not trip the integer check.
        lst = random_list(16, rng=0)
        tails, _ = repair_matching(lst, np.array([]))
        verify_maximal_matching(lst, tails)

    def test_zero_d_array(self):
        lst = random_list(16, rng=1)
        tails, _ = repair_matching(lst, np.asarray(3))
        verify_maximal_matching(lst, tails)

    def test_two_d_array_ravels(self):
        lst = random_list(16, rng=2)
        tails, _ = repair_matching(lst, np.array([[1], [3]]))
        verify_maximal_matching(lst, tails)

    def test_float_tails_rejected(self):
        with pytest.raises(InvalidParameterError):
            repair_matching(random_list(8, rng=0), np.array([1.5, 2.0]))


class TestChosenMaskInput:
    """A full-length bool array is the dynamic tier's chosen mask."""

    def test_mask_accepted_and_equivalent(self):
        lst = random_list(64, rng=3)
        res = maximal_matching(lst, algorithm="match4")
        mask = np.zeros(lst.n, dtype=bool)
        mask[res.matching.tails] = True
        from_mask, s1 = repair_matching(lst, mask)
        from_addrs, s2 = repair_matching(lst, res.matching.tails)
        assert np.array_equal(from_mask, from_addrs)
        assert s1.changed == s2.changed == 0

    def test_corrupted_mask_repairs(self):
        lst = random_list(64, rng=4)
        res = maximal_matching(lst, algorithm="match4")
        mask = np.zeros(lst.n, dtype=bool)
        mask[res.matching.tails] = True
        mask[:4] = ~mask[:4]
        tails, stats = repair_matching(lst, mask)
        verify_maximal_matching(lst, tails)
        assert stats.changed >= 1

    def test_wrong_length_mask_rejected(self):
        lst = random_list(16, rng=5)
        with pytest.raises(InvalidParameterError):
            repair_matching(lst, np.zeros(8, dtype=bool))

    def test_two_d_mask_rejected(self):
        lst = random_list(16, rng=5)
        with pytest.raises(InvalidParameterError):
            repair_matching(lst, np.zeros((4, 4), dtype=bool))


class TestTinyLists:
    def test_single_node(self):
        lst = LinkedList(np.array([NIL]))
        tails, stats = repair_matching(lst, [0])
        assert tails.size == 0
        assert stats.n_sanitized == 1  # 0 is a tail-of-list, not a pointer

    def test_two_nodes(self):
        lst = LinkedList(np.array([1, NIL]))
        tails, _ = repair_matching(lst, [])
        assert tails.tolist() == [0]

    def test_head_and_tail_junk(self):
        lst = random_list(8, rng=6)
        junk = [-1, -(1 << 40), lst.n, 1 << 40, int(lst.tail)]
        tails, stats = repair_matching(lst, junk)
        verify_maximal_matching(lst, tails)
        assert stats.n_sanitized == len(junk)


class TestShardBoundary:
    """Corruption at the midpoint seam of a numpy-computed matching."""

    def test_boundary_corruption_repairs(self):
        lst = random_list(1 << 12, rng=7)
        res = maximal_matching(lst, algorithm="match4", backend="numpy")
        assert res.backend == "numpy"
        boundary = lst.n // 2
        corrupted = np.concatenate([
            res.matching.tails,
            np.array([boundary - 1, boundary, boundary + 1])])
        tails, stats = repair_matching(lst, corrupted)
        verify_maximal_matching(lst, tails)
        assert stats.rounds == 1

    def test_mask_flips_at_boundary(self):
        lst = random_list(1 << 10, rng=8)
        res = maximal_matching(lst, algorithm="match4", backend="numpy")
        mask = np.zeros(lst.n, dtype=bool)
        mask[res.matching.tails] = True
        seam = lst.n // 2
        mask[seam - 2:seam + 2] = ~mask[seam - 2:seam + 2]
        tails, _ = repair_matching(lst, mask)
        verify_maximal_matching(lst, tails)


class TestConvergence:
    def test_max_rounds_validated(self):
        with pytest.raises(InvalidParameterError):
            repair_matching(random_list(8, rng=0), [], max_rounds=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_corruption_one_round(self, seed):
        rng = np.random.default_rng(seed)
        lst = random_list(256, rng=seed)
        garbage = rng.integers(-10, 300, size=64)
        tails, stats = repair_matching(lst, garbage)
        verify_maximal_matching(lst, tails)
        assert stats.rounds == 1  # the module's one-round claim
