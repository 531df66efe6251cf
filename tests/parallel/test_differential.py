"""Seeded differential harness: every backend, serial vs parallel.

The contract under test is **bit-identity**: for any supported input,
``reference`` and ``numpy`` produce the same matching tails, the same
stats, and the same Brent cost report — and the batch
driver returns the same per-list matchings whether it runs serially or
sharded across worker processes.  The workload grid covers rings, runs
(sawtooth), permuted layouts (gray/bit-reversal/random), and the
classic boundary sizes (1, 2, odd primes, powers of two ± 1).
"""

import numpy as np
import pytest

import repro
from repro.backends.batch import batch_maximal_matching

#: (name, maker) workload generators; every maker is seeded/deterministic.
WORKLOADS = [
    ("random", lambda n: repro.random_list(n, rng=n)),
    ("sequential", lambda n: repro.sequential_list(n)),
    ("sawtooth", lambda n: repro.sawtooth_list(n)),
    # gray/bitrev want powers of two; round the size up so the grid's
    # odd and pow2±1 entries still produce distinct nearby workloads.
    ("gray", lambda n: repro.gray_code_list(1 << max(0, n - 1).bit_length())),
    ("bitrev",
     lambda n: repro.bit_reversal_list(1 << max(0, n - 1).bit_length())),
    ("ring-cut", lambda n: repro.random_ring(n, rng=n).cut_open()
     if n >= 3 else repro.random_list(n, rng=n)),
]

SIZES = [1, 2, 3, 7, 33, 127, 128, 129, 255, 257]


@pytest.mark.parametrize("workload", [w[0] for w in WORKLOADS])
@pytest.mark.parametrize("algorithm,kwargs", [
    ("match1", {}),
    ("match4", {"iterations": 2}),
])
def test_single_list_backends_bit_identical(workload, algorithm, kwargs):
    make = dict(WORKLOADS)[workload]
    for n in SIZES:
        lst = make(n)
        ref = repro.maximal_matching(
            lst, algorithm=algorithm, backend="reference", **kwargs)
        vec = repro.maximal_matching(
            lst, algorithm=algorithm, backend="numpy", **kwargs)
        assert np.array_equal(vec.matching.tails, ref.matching.tails), \
            f"{workload} n={n}: tails diverge"
        assert vec.report == ref.report, \
            f"{workload} n={n}: cost report diverges"
        assert vec.stats == ref.stats, f"{workload} n={n}: stats diverge"


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("algorithm,kwargs", [
    ("match1", {}),
    ("match4", {"iterations": 2}),
])
def test_batch_serial_vs_parallel(workers, algorithm, kwargs):
    lists = [make(n) for _, make in WORKLOADS for n in SIZES]
    serial = batch_maximal_matching(lists, algorithm=algorithm, **kwargs)
    parallel = batch_maximal_matching(
        lists, algorithm=algorithm, workers=workers, **kwargs)
    assert len(parallel.matchings) == len(lists)
    for i, (sm, pm) in enumerate(zip(serial.matchings, parallel.matchings)):
        assert pm.lst is lists[i], "input-order guarantee broken"
        assert np.array_equal(sm.tails, pm.tails), f"list {i} diverged"
    assert parallel.stats == serial.stats
    # workers=1 never leaves the process: the whole result — report
    # included — equals the serial call's.
    if workers == 1:
        assert parallel.report == serial.report


@pytest.fixture(scope="module")
def batch_16x4096():
    lists = [repro.random_list(4096, rng=2024 + i) for i in range(16)]
    return lists, batch_maximal_matching(lists, algorithm="match4")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_batch_serial_vs_parallel_16x4096(batch_16x4096, workers):
    # Lists of thousands of nodes, not only the grid's <= 257, split
    # across 1, 2 and 4 shards.
    lists, serial = batch_16x4096
    parallel = batch_maximal_matching(
        lists, algorithm="match4", workers=workers)
    for i, (sm, pm) in enumerate(zip(serial.matchings, parallel.matchings)):
        assert np.array_equal(sm.tails, pm.tails), f"list {i} diverged"
    assert parallel.stats == serial.stats


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_batch_reference_backend_full_report_equality(workers):
    # Per-list backends absorb reports in input order on both paths, so
    # even the aggregate report survives sharding bit-for-bit.
    lists = [repro.random_list(n, rng=n) for n in (5, 33, 64, 65, 7, 100)]
    serial = batch_maximal_matching(
        lists, algorithm="match4", backend="reference")
    parallel = batch_maximal_matching(
        lists, algorithm="match4", backend="reference", workers=workers)
    for sm, pm in zip(serial.matchings, parallel.matchings):
        assert np.array_equal(sm.tails, pm.tails)
    assert parallel.report == serial.report


def test_batch_numpy_report_totals_preserved():
    # The fused-arena account regroups under sharding (documented), but
    # p is unchanged and the matchings are identical.
    lists = [repro.random_list(n, rng=n + 1) for n in (40, 41, 42, 43)]
    serial = batch_maximal_matching(lists, algorithm="match4", p=4)
    parallel = batch_maximal_matching(
        lists, algorithm="match4", p=4, workers=2)
    assert parallel.report.p == serial.report.p == 4
    for sm, pm in zip(serial.matchings, parallel.matchings):
        assert np.array_equal(sm.tails, pm.tails)


def test_empty_batch():
    for workers in (None, 1, 4):
        result = batch_maximal_matching([], workers=workers)
        assert result.matchings == ()
        assert result.stats.num_lists == 0


