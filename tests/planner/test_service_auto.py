"""Service integration: backend="auto" resolves at parse time."""

import pytest

from repro.backends import AUTO, auto_backend
from repro.service.workload import WorkloadError, parse_workload

PARSE = dict(default_algorithm="match4", default_backend="numpy")


class TestParseTimeResolution:
    def test_auto_resolves_to_concrete_backend(self):
        w = parse_workload({"n": 512, "backend": "auto"}, **PARSE)
        assert w.backend == auto_backend("match4", [512]) == "numpy"
        assert w.requested_backend == AUTO

    def test_explicit_backend_has_no_planner_fields(self):
        w = parse_workload({"n": 512, "backend": "numpy"}, **PARSE)
        assert w.requested_backend is None

    def test_auto_shares_cache_identity_with_explicit(self):
        auto = parse_workload({"n": 512, "seed": 7, "backend": "auto"},
                              **PARSE)
        explicit = parse_workload(
            {"n": 512, "seed": 7, "backend": auto.backend}, **PARSE)
        assert auto.cache_key() == explicit.cache_key()

    def test_default_backend_auto(self):
        w = parse_workload({"n": 512}, default_algorithm="match4",
                           default_backend="auto")
        assert (w.backend, w.requested_backend) == ("numpy", AUTO)
        w = parse_workload({"n": 512, "algorithm": "match2"},
                           default_algorithm="match4", default_backend="auto")
        assert (w.backend, w.requested_backend) == ("reference", AUTO)

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(WorkloadError, match="backend"):
            parse_workload({"n": 512, "backend": "gpu"}, **PARSE)

    def test_fusion_groups_see_concrete_backends(self):
        # Two auto requests and one explicit request for the same pick
        # must land in one fusion group: the batcher groups on
        # (algorithm, backend), which is concrete after parsing.
        a = parse_workload({"n": 512, "seed": 1, "backend": "auto"},
                           **PARSE)
        b = parse_workload({"n": 512, "seed": 2, "backend": "auto"},
                           **PARSE)
        c = parse_workload({"n": 512, "seed": 3, "backend": a.backend},
                           **PARSE)
        groups = {(w.algorithm, w.backend) for w in (a, b, c)}
        assert len(groups) == 1

    def test_record_extra_uses_resolved_backend(self):
        w = parse_workload({"n": 512, "backend": "auto"}, **PARSE)
        rec = w.record(seed=0)
        assert rec.backend == w.backend
        assert rec.backend != "auto"
