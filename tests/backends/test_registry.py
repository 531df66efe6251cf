"""The backend registry: lookup, metadata, and dispatch errors."""

import pytest

import repro
from repro.backends import (
    BACKENDS,
    Backend,
    backend_names,
    backends_for,
    get_backend,
    register_backend,
)
from repro.errors import InvalidParameterError


class TestRegistry:
    def test_both_backends_registered(self):
        assert "reference" in BACKENDS
        assert "numpy" in BACKENDS
        assert backend_names() == sorted(BACKENDS)

    def test_get_backend(self):
        assert get_backend("numpy").name == "numpy"
        assert get_backend("reference").name == "reference"

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(InvalidParameterError, match="reference"):
            get_backend("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError, match="already registered"):
            register_backend(Backend(
                name="numpy", description="dup", algorithms={},
            ))

    def test_reference_sees_late_registrations(self):
        # baselines register after import; the reference backend's
        # algorithm view must be live, not a snapshot
        import repro.baselines  # noqa: F401

        ref = get_backend("reference")
        assert ref.supports("sequential")
        assert ref.supports("match3")
        assert not get_backend("numpy").supports("match3")

    def test_backends_for(self):
        assert backends_for("match1") == ["numpy", "reference"]
        assert backends_for("match2") == ["reference"]
        assert backends_for("no_such_algorithm") == []

    def test_numpy_limit(self):
        from repro.backends.engine import ENGINE_LIMIT

        assert get_backend("numpy").limit == ENGINE_LIMIT
        assert get_backend("reference").limit is None


class TestDispatch:
    def test_unsupported_combination_names_alternatives(self):
        lst = repro.random_list(32, rng=0)
        with pytest.raises(InvalidParameterError) as exc:
            repro.maximal_matching(lst, algorithm="match2", backend="numpy")
        msg = str(exc.value)
        assert "match2" in msg and "reference" in msg

    def test_unknown_backend_via_api(self):
        lst = repro.random_list(32, rng=0)
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            repro.maximal_matching(lst, backend="bogus")

    def test_algorithm_info_exposes_backends(self):
        info = repro.ALGORITHMS["match4"]
        assert info.backends == ["numpy", "reference"]
        assert info.optimal
        assert "iterations" in info.params

    def test_describe_records(self):
        recs = {r["name"]: r for r in repro.ALGORITHMS.describe()}
        assert recs["match4"]["backends"] == ["numpy", "reference"]
        assert recs["match4"]["optimal"]
        assert "iterations" in recs["match4"]["params"]
        assert recs["match1"]["paper_section"].startswith("§2")
