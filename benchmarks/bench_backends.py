"""Backend speedup measurement: numpy engine vs the reference tier.

Times the *same* ``maximal_matching`` call (API defaults, ``p=256``)
on both backends and reports the speedup, checking first that the
matchings are bit-identical.  This is the acceptance measurement for
the vectorized engine: at ``n = 2**16`` the numpy backend must beat
the reference tier by >= 10x on ``match4``.

Run standalone (prints a table and writes JSON next to nothing)::

    PYTHONPATH=src python benchmarks/bench_backends.py [--n 65536]

or under pytest-benchmark together with the E9 suite::

    pytest benchmarks/bench_backends.py --benchmark-json=out.json
"""

import argparse
import json
import os
import sys
import time

import numpy as np
import pytest

from repro.core.maximal_matching import maximal_matching
from repro.lists import random_list

N = int(os.environ.get("REPRO_BENCH_N", 1 << 16))
REPS = 7


@pytest.fixture(scope="module")
def lst():
    return random_list(N, rng=2024)


@pytest.mark.parametrize("algorithm", ["match1", "match4"])
@pytest.mark.parametrize("backend", ["reference", "numpy"])
def test_backend_wallclock(benchmark, lst, algorithm, backend):
    res = benchmark(
        lambda: maximal_matching(
            lst, algorithm=algorithm, backend=backend, p=256)
    )
    assert res.matching.is_maximal


def _time_min(fn, reps: int = REPS) -> float:
    """Best-of-``reps`` wall time in seconds (min filters scheduler
    noise, the standard practice for microbenchmarks)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(n: int, reps: int = REPS) -> dict:
    """Time both backends on both engine-supported algorithms."""
    from _common import record_run

    lst = random_list(n, rng=2024)
    out = {"n": n, "reps": reps, "results": {}}
    for algorithm in ("match1", "match4"):
        ref = maximal_matching(
            lst, algorithm=algorithm, backend="reference", p=256)
        vec = maximal_matching(
            lst, algorithm=algorithm, backend="numpy", p=256)
        if not np.array_equal(ref.matching.tails, vec.matching.tails):
            raise AssertionError(f"{algorithm}: backends disagree")
        if ref.report != vec.report:
            raise AssertionError(f"{algorithm}: cost reports diverge")
        t_ref = _time_min(
            lambda: maximal_matching(
                lst, algorithm=algorithm, backend="reference", p=256),
            reps)
        t_vec = _time_min(
            lambda: maximal_matching(
                lst, algorithm=algorithm, backend="numpy", p=256),
            reps)
        record_run(ref, seed=2024, wall_s=t_ref, bench="bench_backends")
        record_run(vec, seed=2024, wall_s=t_vec, bench="bench_backends")
        out["results"][algorithm] = {
            "reference_s": t_ref,
            "numpy_s": t_vec,
            "speedup": t_ref / t_vec,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--reps", type=int, default=REPS)
    parser.add_argument("--json", default="",
                        help="also write the measurement to this file")
    parser.add_argument("--require", type=float, default=0.0,
                        help="fail unless match4's speedup meets this bar")
    parser.add_argument("--profile", default="", metavar="DIR",
                        help="also profile one match4/numpy run at this n "
                             "(Perfetto trace, profile JSON, RunRecord) "
                             "into DIR")
    args = parser.parse_args(argv)

    # Honor REPRO_RESOURCES like the CLI does, so the CI disabled-vs-
    # ledger overhead A/B measures the accounting actually switched on.
    from repro.telemetry import configure_resources_from_env
    configure_resources_from_env()

    out = measure(args.n, args.reps)
    print(f"n = {out['n']}, best of {out['reps']}")
    for algorithm, r in out["results"].items():
        print(f"  {algorithm}: reference {r['reference_s'] * 1e3:8.3f} ms   "
              f"numpy {r['numpy_s'] * 1e3:8.3f} ms   "
              f"speedup {r['speedup']:6.2f}x")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2)
        print(f"wrote {args.json}")
    if args.require:
        got = out["results"]["match4"]["speedup"]
        if got < args.require:
            print(f"FAIL: match4 speedup {got:.2f}x < {args.require}x")
            return 1
    if args.profile:
        from repro.cli import main as repro_cli

        rc = repro_cli(["profile", "match4", "--n", str(args.n),
                        "--backend", "numpy", "--out", args.profile])
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
