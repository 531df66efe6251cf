"""Backend equivalence: the numpy engine against the reference oracle.

Property-style sweeps written as explicit loops (the environment has no
``hypothesis``): many list shapes x sizes x algorithms x parameters,
asserting the cost-accounting contract of :mod:`repro.backends` — the
two backends return bit-identical tails, equal stats, and equal
``CostReport`` objects.
"""

import numpy as np
import pytest

import repro
from repro.backends import engine
from repro.core import cutwalk as ref_cutwalk
from repro.core import functions as ref_functions
from repro.errors import InvalidParameterError, VerificationError


def _layouts(n: int, seed: int) -> dict:
    """Named list layouts for one size: random, ring-cut, sawtooth,
    and the adversarial address patterns (plus the trivial orders)."""
    from repro.lists import (
        bit_reversal_list,
        gray_code_list,
        interleaved_list,
        random_list,
        random_ring,
        reversed_list,
        sawtooth_list,
        sequential_list,
    )

    cases = {
        "random": random_list(n, rng=seed),
        "sequential": sequential_list(n),
        "reversed": reversed_list(n),
        "sawtooth": sawtooth_list(n),
        "ring-cut": random_ring(n, rng=seed + 1).cut_open(0),
    }
    if n >= 2 and n & (n - 1) == 0:  # power-of-two-only adversaries
        cases["bitrev"] = bit_reversal_list(n)
        cases["gray"] = gray_code_list(n)
    if n >= 4:
        cases["interleaved"] = interleaved_list(n, ways=max(1, n // 4))
    return cases


ALGO_CASES = [
    ("match1", {}),
    ("match1", {"kind": "lsb"}),
    ("match4", {"iterations": 1}),
    ("match4", {"iterations": 2}),
    ("match4", {"iterations": 2, "kind": "lsb"}),
]


def _assert_equivalent(lst, algorithm, kwargs, label, p=4):
    ref = repro.maximal_matching(
        lst, algorithm=algorithm, backend="reference", p=p, **kwargs)
    vec = repro.maximal_matching(
        lst, algorithm=algorithm, backend="numpy", p=p, **kwargs)
    assert np.array_equal(vec.matching.tails, ref.matching.tails), \
        f"tails diverge: {label}"
    assert vec.stats == ref.stats, f"stats diverge: {label}"
    assert vec.report == ref.report, f"cost reports diverge: {label}"


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 256, 1000])
    def test_layout_sweep(self, n):
        for name, lst in _layouts(n, seed=n).items():
            for algorithm, kwargs in ALGO_CASES:
                _assert_equivalent(
                    lst, algorithm, kwargs,
                    f"{algorithm} {kwargs} on {name} n={n}")

    def test_random_list_fuzz(self):
        # 30 random (n, seed) draws, both algorithms at API defaults
        for trial in range(30):
            n = 2 + (trial * 157) % 611
            lst = repro.random_list(n, rng=trial)
            _assert_equivalent(lst, "match1", {}, f"match1 fuzz {trial}")
            _assert_equivalent(lst, "match4", {}, f"match4 fuzz {trial}")

    def test_tiny_exhaustive(self):
        # every n from 1..12, several seeds: edge sizes where the
        # engine's sentinel/dummy-slot handling is most delicate
        for n in range(1, 13):
            for seed in range(3):
                lst = repro.random_list(n, rng=seed)
                _assert_equivalent(lst, "match1", {}, f"match1 n={n}")
                _assert_equivalent(
                    lst, "match4", {"iterations": 1}, f"match4 n={n}")

    def test_match1_rounds_override(self):
        lst = repro.random_list(300, rng=7)
        _assert_equivalent(lst, "match1", {"rounds": 3}, "rounds=3")

    def test_p_only_scales_reported_time(self):
        lst = repro.random_list(400, rng=9)
        for p in (1, 8, 64):
            _assert_equivalent(lst, "match4", {}, f"p={p}", p=p)

    def test_match4_check_mode(self):
        lst = repro.random_list(200, rng=3)
        _assert_equivalent(lst, "match4", {"check": True}, "check=True")


class TestBuildingBlockParity:
    def test_f_msb_f_lsb(self):
        rng = np.random.default_rng(0)
        a = rng.permutation(4096).astype(np.int64)
        b = np.roll(a, 1)
        assert np.array_equal(engine.f_msb(a, b), ref_functions.f_msb(a, b))
        assert np.array_equal(engine.f_lsb(a, b), ref_functions.f_lsb(a, b))

    def test_f_rejects_equal_operands(self):
        a = np.array([3, 5], dtype=np.int64)
        with pytest.raises(InvalidParameterError):
            engine.f_msb(a, a)

    def test_iterate_f(self):
        for n in (2, 9, 257, 2048):
            lst = repro.random_list(n, rng=n)
            for kind in ("msb", "lsb"):
                for rounds in (0, 1, 2, 3):
                    ref = ref_functions.iterate_f(lst, rounds, kind=kind)
                    vec = engine.iterate_f(lst, rounds, kind=kind)
                    assert np.array_equal(vec, ref), (n, kind, rounds)

    def test_cut_and_walk(self):
        for n in (2, 33, 500):
            lst = repro.random_list(n, rng=n + 1)
            labels = ref_functions.iterate_f(lst, 3)
            ref_tails, ref_stats = ref_cutwalk.cut_and_walk(lst, labels)
            vec_tails, vec_stats = engine.cut_and_walk(lst, labels)
            assert np.array_equal(vec_tails, ref_tails)
            assert vec_stats == ref_stats

    def test_match1_label_bound_enforced(self):
        # too few rounds leaves labels non-constant: both backends
        # must refuse identically
        lst = repro.random_list(1 << 12, rng=0)
        with pytest.raises(VerificationError, match="constant-size"):
            engine.match1(lst, rounds=1)
        with pytest.raises(VerificationError, match="constant-size"):
            repro.match1(lst, rounds=1)

    @pytest.mark.parametrize("nxt,labels", [
        ([1, 2, -1], [0, 1, 0]),               # tail label == head label
        ([1, 2, 3, 4, -1], [2, 0, 1, 0, 2]),   # the same, with two cuts
    ])
    def test_cut_and_walk_checks_real_pointers_only(self, nxt, labels):
        lst = repro.LinkedList(nxt)
        labels = np.array(labels, dtype=np.int64)
        ref_tails, ref_stats = ref_cutwalk.cut_and_walk(lst, labels)
        vec_tails, vec_stats = engine.cut_and_walk(lst, labels)
        assert np.array_equal(vec_tails, ref_tails)
        assert vec_stats == ref_stats
