"""End-to-end self-check: one call certifies the whole installation.

``run_selfcheck()`` exercises every major subsystem on deterministic
workloads — matching algorithms (both tiers), the vectorized numpy
backend, ranking, coloring, MIS, rings, forests, the PRAM memory
discipline, fault-injection recovery, the telemetry span/RunRecord
round-trip, and the profiler's structural invariants — and reports
each check's
outcome instead of stopping at the first failure.  The CLI
exposes it as ``python -m repro selfcheck``; it is also what a
downstream user should run after installing into a new environment.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["CheckResult", "SelfCheckReport", "run_selfcheck"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class SelfCheckReport:
    """All check outcomes of one self-check run."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff every check passed."""
        return all(r.passed for r in self.results)

    @property
    def summary(self) -> str:
        """One line per check plus a verdict."""
        lines = [
            f"[{'PASS' if r.passed else 'FAIL'}] {r.name}"
            + (f": {r.detail}" if r.detail and not r.passed else "")
            for r in self.results
        ]
        ok = sum(r.passed for r in self.results)
        lines.append(f"{ok}/{len(self.results)} checks passed")
        return "\n".join(lines)


def _check(report: SelfCheckReport, name: str, fn: Callable[[], str | None]) -> None:
    try:
        detail = fn() or ""
        report.results.append(CheckResult(name, True, detail))
    except Exception as exc:  # noqa: BLE001 - a self-check must not die
        report.results.append(CheckResult(
            name, False,
            f"{type(exc).__name__}: {exc} | "
            + traceback.format_exc(limit=1).splitlines()[-1]
        ))


def run_selfcheck(*, n: int = 2048, seed: int = 0) -> SelfCheckReport:
    """Run the full battery on an ``n``-node deterministic workload."""
    import repro
    from repro.apps.coloring import (
        three_coloring,
        three_coloring_via_matching,
        verify_coloring,
    )
    from repro.apps.mis import mis_from_matching, verify_independent_set
    from repro.apps.ranking import contraction_ranks, sequential_ranks
    from repro.core.forests import forest_maximal_matching
    from repro.core.matching import verify_maximal_matching
    from repro.core.rings import ring_maximal_matching
    from repro.errors import MemoryConflictError
    from repro.lists.forest import random_forest
    from repro.lists.ring import random_ring
    from repro.pram import PRAM, Read
    from repro.pram.algorithms import run_match1, run_match4

    report = SelfCheckReport()
    lst = repro.random_list(n, rng=seed)

    def check_algorithms() -> str:
        sizes = []
        for alg in ("match1", "match2", "match3", "match4",
                    "sequential", "random_mate"):
            m, _, _ = repro.maximal_matching(lst, algorithm=alg)
            verify_maximal_matching(lst, m.tails)
            sizes.append(m.size)
        return f"sizes {sizes}"

    def check_instruction_tier() -> str:
        small = repro.random_list(96, rng=seed + 1)
        t1, _ = run_match1(small, mode="EREW")
        m1, _, _ = repro.match1(small)
        assert np.array_equal(t1, m1.tails), "match1 tiers disagree"
        t4, _ = run_match4(small, i=2, mode="EREW")
        m4, _, _ = repro.match4(small, i=2)
        assert np.array_equal(t4, m4.tails), "match4 tiers disagree"
        return "bit-identical"

    def check_backends() -> str:
        for alg, kw in (("match1", {}), ("match4", {"iterations": 2})):
            ref = repro.maximal_matching(
                lst, algorithm=alg, backend="reference", **kw)
            vec = repro.maximal_matching(
                lst, algorithm=alg, backend="numpy", **kw)
            assert np.array_equal(vec.matching.tails, ref.matching.tails), \
                f"{alg} backends disagree"
            assert vec.report == ref.report, f"{alg} cost reports diverge"
        lists = [repro.random_list(m, rng=seed + 5 + m)
                 for m in (1, 2, 33, n // 4)]
        batch = repro.batch_maximal_matching(lists, algorithm="match4")
        for sub, bm in zip(lists, batch.matchings):
            m, _, _ = repro.maximal_matching(sub, algorithm="match4")
            assert np.array_equal(bm.tails, m.tails), "batch diverged"
        return "numpy == reference (tails + cost), batch consistent"

    def check_ranking() -> str:
        oracle = sequential_ranks(lst)
        r1, _, _ = contraction_ranks(lst)
        r2, _ = repro.wyllie_ranks(lst)
        assert np.array_equal(r1, oracle), "contraction wrong"
        assert np.array_equal(r2, oracle), "wyllie wrong"
        return "3 solvers agree"

    def check_coloring() -> str:
        c1, _ = three_coloring(lst)
        verify_coloring(lst, c1, 3)
        c2, _ = three_coloring_via_matching(lst)
        verify_coloring(lst, c2, 3)
        return "both routes proper"

    def check_mis() -> str:
        m, _, _ = repro.match4(lst)
        mask, _ = mis_from_matching(lst, m)
        verify_independent_set(lst, mask, maximal=True)
        return f"|MIS| = {int(mask.sum())}"

    def check_ring() -> str:
        ring = random_ring(n // 2, rng=seed + 2)
        tails, _ = ring_maximal_matching(ring)
        return f"{tails.size} matched on the ring"

    def check_forest() -> str:
        forest = random_forest(n // 2, 8, rng=seed + 3)
        tails, _ = forest_maximal_matching(forest)
        return f"{tails.size} matched across 8 components"

    def check_memory_discipline() -> str:
        def racy(pid, nprocs):
            yield Read(0)

        try:
            PRAM(1, mode="EREW").run([racy, racy])
        except MemoryConflictError:
            return "EREW checker armed"
        raise AssertionError("EREW conflict went undetected")

    def check_prefix() -> str:
        values = np.arange(lst.n, dtype=np.int64)
        out, _ = repro.list_prefix_sums(lst, values)
        order = lst.order
        assert np.array_equal(out[order], np.cumsum(values[order]))
        return "prefix matches cumsum"

    def check_fault_recovery() -> str:
        from repro.pram.faults import BitFlip, FaultPlan, ProcessorCrash
        from repro.resilience import repair_matching

        small = repro.random_list(64, rng=seed + 4)
        clean, _ = run_match1(small, mode="EREW")
        # a crash mid-walk and a flipped chosen-flag bit, recovered by
        # checkpoint-restart: the result must be bit-identical to the
        # fault-free run.
        plan = FaultPlan([
            ProcessorCrash(step=40, pid=3),
            BitFlip(step=60, addr=5 * 64 + 10, bit=0),
        ])
        tails, rep = run_match1(
            small, mode="EREW", fault_plan=plan, recover=True,
            checkpoint_interval=16,
        )
        assert len(rep.faults) == 2, "faults not recorded"
        assert np.array_equal(tails, clean), "restart diverged"
        verify_maximal_matching(small, tails)
        # and the self-stabilizing repair pass survives raw corruption.
        repaired, stats = repair_matching(small, clean[1:])
        verify_maximal_matching(small, repaired)
        return (f"crash+flip recovered, repair re-matched "
                f"{stats.n_added} pointer(s)")

    def check_telemetry() -> str:
        import json
        import os
        import tempfile

        from repro.telemetry import capture
        from repro.telemetry.runrecord import (
            RunRecord, read_records, write_records,
        )

        with capture() as sink:
            res = repro.maximal_matching(
                lst, algorithm="match4", backend="numpy", iterations=2)
        names = set(sink.span_names())
        assert "maximal_matching" in names, "root span missing"
        assert any(nm.startswith("phase.") for nm in names), \
            "no phase spans recorded"
        rec = RunRecord.from_result(res, seed=seed, wall_s=0.0)
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(fd)
        try:
            write_records(path, [rec])
            loaded = read_records(path)
            assert len(loaded) == 1, "round-trip lost the record"
            assert loaded[0].cost_report() == res.report, \
                "reloaded record's cost diverges from the live report"
            assert loaded[0].key() == rec.key(), "identity key changed"
            with open(path, encoding="utf-8") as fh:
                json.loads(fh.readline())
        finally:
            os.unlink(path)
        spans = len(sink.spans)
        return f"{spans} spans captured, JSONL round-trip exact"

    def check_profiling() -> str:
        from repro.telemetry import profile_matching

        tiny = repro.random_list(96, rng=seed + 6)
        run = profile_matching(tiny, algorithm="match4",
                               machine_trace=True)
        prof = run.profile.validate()
        assert prof.wall_s is not None and prof.wall_s > 0, \
            "no root span captured"
        assert prof.phases, "no phases profiled"
        assert prof.phase_wall_s <= prof.wall_s * (1 + 1e-6), \
            "phase wall-clock exceeds the root span"
        assert prof.utilization is not None \
            and 0.0 <= prof.utilization <= 1.0, "utilization out of range"
        assert prof.occupancy, "no occupancy grid"
        return (f"{len(prof.phases)} phases correlated, "
                f"utilization {prof.utilization:.3f}")

    def check_parallel() -> str:
        lists = [repro.random_list(m, rng=seed + 8 + m)
                 for m in (1, 2, 33, 127, 128)]
        serial = repro.batch_maximal_matching(lists, algorithm="match4")
        sharded = repro.batch_maximal_matching(
            lists, algorithm="match4", workers=2)
        for sm, pm in zip(serial.matchings, sharded.matchings):
            assert np.array_equal(sm.tails, pm.tails), \
                "sharded batch diverged from serial"
        return "sharded batch == serial"

    def check_dynamic() -> str:
        from repro.apps import uniform_contraction, verify_contraction
        from repro.dynamic import ChurnConfig, ChurnSession

        cfg = ChurnConfig(steps=128, seed=seed, n_initial=min(n, 256),
                          burstiness=0.2, hotspot=0.5)
        sess = ChurnSession(cfg)
        sess.run(on_edit=lambda s, k, op: s.dyn.verify())
        ledger = sess.dyn.ledger
        assert ledger.edits == cfg.steps, \
            f"ledger saw {ledger.edits} of {cfg.steps} edits"
        assert ledger.max_moves_per_edit <= 8, \
            f"per-edit repair moved {ledger.max_moves_per_edit} bits " \
            f"— the O(1)-neighborhood bound is broken"
        # Each component contracts to one node off the *maintained*
        # matching (round 0 seeded, later rounds via match4).
        for snap in sess.dyn.components():
            parent, _, stats = uniform_contraction(
                snap.lst, first_tails=snap.tails)
            verify_contraction(snap.lst, parent)
            assert stats.seeded_round, "seed matching was not used"
            assert stats.uniform_rate_held, \
                f"contraction rate broke: {stats.level_sizes}"
        return (f"{cfg.steps} edits repaired "
                f"(max {ledger.max_moves_per_edit} moves/edit, "
                f"{sess.dyn.heads().size} components)")

    _check(report, "matching algorithms (6) maximal", check_algorithms)
    _check(report, "instruction-level tier identical", check_instruction_tier)
    _check(report, "numpy backend equivalence", check_backends)
    _check(report, "list ranking agreement", check_ranking)
    _check(report, "3-coloring (both routes)", check_coloring)
    _check(report, "maximal independent set", check_mis)
    _check(report, "ring pipeline", check_ring)
    _check(report, "forest pipeline", check_forest)
    _check(report, "PRAM memory discipline", check_memory_discipline)
    _check(report, "list prefix sums", check_prefix)
    _check(report, "fault injection + recovery", check_fault_recovery)
    _check(report, "telemetry round-trip", check_telemetry)
    _check(report, "profiler invariants", check_profiling)
    _check(report, "sharded batch equivalence", check_parallel)
    _check(report, "dynamic churn + contraction", check_dynamic)
    return report
