"""``backend="auto"``: one fixed rule, answers identical to the backend it names.

:func:`repro.backends.auto_backend` reads only the algorithm name and
the list sizes: ``"numpy"`` where the numpy engine implements the
algorithm and every list has ``n < ENGINE_LIMIT``, ``"reference"``
otherwise.  Every entry point that accepts ``"auto"`` must return
exactly what an explicit call with that backend returns, while still
reporting that ``"auto"`` was asked; the per-entry-point checks are in
``tests/planner/``.
"""

import numpy as np
import pytest

import repro
from repro.backends import AUTO, ENGINE_LIMIT, auto_backend
from repro.backends.batch import batch_maximal_matching
from repro.cli import main
from repro.service import ServiceConfig

from ..service.conftest import match, run_service

SIZES = [1, 2, 3, 64, 4096]


def assert_same_answer(got, want):
    assert np.array_equal(got.matching.tails, want.matching.tails)
    assert got.report == want.report
    assert got.stats == want.stats


class TestRule:
    def test_numpy_where_the_engine_implements_it(self):
        assert auto_backend("match1", [64]) == "numpy"
        assert auto_backend("match4", [ENGINE_LIMIT - 1]) == "numpy"

    def test_reference_at_the_engine_limit(self):
        assert auto_backend("match4", [ENGINE_LIMIT]) == "reference"
        assert auto_backend("match4", [8, ENGINE_LIMIT]) == "reference"

    @pytest.mark.parametrize("algorithm", ["match2", "match3", "sequential",
                                           "random_mate"])
    def test_reference_for_algorithms_numpy_lacks(self, algorithm):
        assert auto_backend(algorithm, [64]) == "reference"
        assert auto_backend(algorithm, [3, 64]) == "reference"

    def test_batch_rule_reads_every_size(self):
        assert auto_backend("match4", [3, 64]) == "numpy"
        assert auto_backend("match1", []) == "numpy"


@pytest.mark.parametrize("algorithm", sorted(repro.ALGORITHMS))
@pytest.mark.parametrize("n", SIZES)
def test_auto_equals_the_named_backend(algorithm, n):
    lst = repro.random_list(n, rng=n)
    named = auto_backend(algorithm, [n])
    auto = repro.maximal_matching(lst, algorithm=algorithm, backend=AUTO)
    explicit = repro.maximal_matching(lst, algorithm=algorithm,
                                      backend=named)
    assert auto.backend == named
    assert auto.extras["requested_backend"] == AUTO
    assert "requested_backend" not in explicit.extras
    assert_same_answer(auto, explicit)


@pytest.mark.parametrize("algorithm", ["match4", "match2"])
def test_batch_auto_equals_the_explicit_call(algorithm):
    lists = [repro.random_list(n, rng=n) for n in SIZES]
    named = auto_backend(algorithm, SIZES)
    auto = batch_maximal_matching(lists, algorithm=algorithm, backend=AUTO)
    explicit = batch_maximal_matching(lists, algorithm=algorithm,
                                      backend=named)
    assert auto.backend == named
    assert auto.extras["requested_backend"] == AUTO
    assert auto.report == explicit.report
    assert auto.stats == explicit.stats
    for a, e in zip(auto.matchings, explicit.matchings):
        assert np.array_equal(a.tails, e.tails)


class TestCli:
    def test_resilience_auto_accepted(self, capsys):
        rc = main(["resilience", "--n", "96", "--strategy", "ladder",
                   "--backend", "auto"])
        assert rc == 0
        assert "verified  : True" in capsys.readouterr().out


def test_service_auto_shares_the_explicit_cache_entry():
    spec = {"n": 512, "seed": 7}

    async def scenario(service):
        auto = await match(service, {**spec, "backend": "auto"})
        explicit = await match(service, {**spec, "backend": "numpy"})
        again = await match(service, {**spec, "backend": "auto"})
        return auto, explicit, again

    auto, explicit, again = run_service(
        ServiceConfig(port=0, cache_size=16), scenario)
    assert auto.status == explicit.status == again.status == 200
    a, e, g = auto.json(), explicit.json(), again.json()
    assert a["backend"] == e["backend"] == g["backend"] == "numpy"
    # Each response reports its own ask, whoever filled the cache entry.
    assert a["requested_backend"] == g["requested_backend"] == "auto"
    assert "requested_backend" not in e
    assert (a["cache"], e["cache"], g["cache"]) == ("miss", "hit", "hit")
    assert a["tails"] == e["tails"] == g["tails"]
