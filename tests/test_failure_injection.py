"""Failure-injection tests: the verification layer must catch sabotage.

The library's claim is not just that its algorithms are correct but
that its *checkers* would notice if they weren't.  Each test here
injects a specific defect — a non-matching partition function, a
corrupted schedule, a truncated iteration — and asserts the
corresponding verifier or runtime check trips.
"""

import numpy as np
import pytest

from repro.errors import MemoryConflictError, VerificationError
from repro.lists import LinkedList, random_list


class TestBrokenPairFunction:
    """A 'partition function' without the matching property."""

    @staticmethod
    def broken_f(a, b):
        # parity of a: f(a,b) == f(b,c) whenever a ≡ b (mod 2) — not a
        # matching partition function.
        return np.asarray(a, dtype=np.int64) & 1

    def test_iterate_detects_adjacent_collision(self):
        from repro.core.functions import apply_f

        lst = random_list(64, rng=0)
        labels = apply_f(np.arange(64), lst.circular_next(), self.broken_f)
        # two adjacent nodes of equal parity exist in any 64-node list
        assert np.any(labels == labels[lst.circular_next()])

    def test_partition_verifier_rejects(self):
        from repro.core.partition import NO_POINTER, verify_matching_partition

        lst = random_list(64, rng=1)
        labels = (np.arange(64) & 1).astype(np.int64)
        labels[lst.tail] = NO_POINTER
        # adjacent equal parities must be caught
        with pytest.raises(VerificationError):
            verify_matching_partition(lst, labels)

    def test_table_builder_marks_collisions_invalid(self):
        from repro.bits.lookup import INVALID, build_table_direct

        table = build_table_direct(
            lambda a, b: np.asarray(a) & 1, arity=3, bits_per_arg=2
        )
        # f(0,2)=0 and f(2,1)=0: the level-3 combination hits lo == hi
        # and must be INVALID rather than a silent wrong value.
        assert table.lookup_tuple((0, 2, 1)) == INVALID


class TestCorruptedSchedules:
    def test_walkdown2_rejects_unsorted_column(self):
        from repro.core.walkdown import walkdown2_automaton

        with pytest.raises(VerificationError, match="ascending"):
            walkdown2_automaton(np.asarray([3, 1, 2]))

    def test_sweep_safety_check_fires_on_bad_steps(self):
        # Force two adjacent pointers into the same step: the sweep's
        # disjointness assertion must catch it.
        from repro.core.functions import iterate_f, max_label_after
        from repro.core.layout import build_layout
        from repro.core.partition import NO_POINTER
        from repro.core.walkdown import _greedy_sweep

        lst = LinkedList.from_order([0, 1, 2, 3])
        labels = iterate_f(lst, 1)
        x = max(2, max_label_after(4, 1))
        layout = build_layout(lst, labels, x)
        labels6 = np.full(4, NO_POINTER, dtype=np.int64)
        tails = np.asarray([0, 1])          # adjacent pointers
        step_of = np.asarray([5, 5])        # same step: illegal
        with pytest.raises(VerificationError, match="share an endpoint"):
            _greedy_sweep(
                lst, layout, tails, step_of,
                base=0, labels6=labels6, cost=None, check=True,
                phase_name="test",
            )

    def test_layout_rejects_labels_exceeding_rows(self):
        from repro.core.layout import build_layout
        from repro.errors import InvalidParameterError

        lst = random_list(16, rng=2)
        with pytest.raises(InvalidParameterError):
            build_layout(lst, np.full(16, 9), x=4)


class TestTruncatedPipelines:
    def test_match1_rejects_insufficient_rounds(self):
        from repro.core.match1 import match1

        with pytest.raises(VerificationError):
            match1(random_list(1 << 15, rng=3), rounds=1)

    def test_cutwalk_rejects_oversized_labels_indirectly(self):
        # huge labels -> monotone runs -> walk-round explosion guard
        from repro.core.cutwalk import cut_and_walk

        lst = LinkedList.from_order(list(range(128)))
        with pytest.raises(VerificationError, match="rounds"):
            cut_and_walk(lst, np.arange(128), max_walk_rounds=4)

    def test_match3_rejects_wrong_width_labels(self):
        # a plan whose field width is smaller than the labels need
        from repro.core.match3 import Match3Plan, match3
        from repro.bits.lookup import build_table_direct
        from repro.core.functions import pair_function

        n = 1 << 12
        plan = Match3Plan(
            n=n, crunch_rounds=1, doubling_rounds=1,
            paper_doubling_rounds=1, bits_per_arg=2,
        )
        table = build_table_direct(pair_function("msb"), arity=2,
                                   bits_per_arg=2)
        with pytest.raises(VerificationError, match="field width"):
            match3(random_list(n, rng=4), plan=plan, table=table)


class TestSabotagedMemoryDiscipline:
    def test_erew_machine_catches_planted_conflict(self):
        from repro.pram import PRAM, Read

        def racy(pid, nprocs):
            yield Read(7)

        with pytest.raises(MemoryConflictError):
            PRAM(8, mode="EREW").run([racy, racy])

    def test_common_crcw_catches_disagreeing_writers(self):
        from repro.pram import PRAM, Write

        def writer(pid, nprocs):
            yield Write(0, pid)  # distinct values

        with pytest.raises(MemoryConflictError):
            PRAM(1, mode="CRCW_COMMON").run([writer, writer])


class TestVerifierSensitivity:
    """Mutating a correct answer must break verification."""

    def test_matching_mutation_detected(self):
        from repro.core.match4 import match4
        from repro.core.matching import verify_maximal_matching

        lst = random_list(200, rng=5)
        matching, _, _ = match4(lst)
        tails = matching.tails.copy()
        # remove one matched pointer: maximality must fail (its two
        # endpoints become free unless a neighbor is matched... removal
        # of an interior matched pointer always frees its head).
        with pytest.raises(VerificationError):
            verify_maximal_matching(lst, tails[1:])

    def test_coloring_mutation_detected(self):
        from repro.apps.coloring import three_coloring, verify_coloring

        lst = random_list(100, rng=6)
        colors, _ = three_coloring(lst)
        bad = colors.copy()
        v = int(np.flatnonzero(lst.next != -1)[0])
        bad[v] = bad[lst.next[v]]
        with pytest.raises(VerificationError):
            verify_coloring(lst, bad, 3)

    def test_rank_mutation_detected(self):
        from repro.apps.ranking import contraction_ranks, sequential_ranks

        lst = random_list(100, rng=7)
        ranks, _, _ = contraction_ranks(lst)
        ranks = ranks.copy()
        ranks[0] += 1
        assert not np.array_equal(ranks, sequential_ranks(lst))


class TestInjectedMachineFaults:
    """Every fault species must be observable in the MachineReport."""

    def _faulted_report(self, plan):
        from repro.pram.algorithms import run_match1

        lst = random_list(64, rng=8)
        _, report = run_match1(lst, fault_plan=plan)
        return report

    def test_all_three_species_observable(self):
        from repro.pram.faults import (
            BitFlip, DroppedWrite, FaultPlan, ProcessorCrash,
        )

        plan = FaultPlan([
            ProcessorCrash(step=30, pid=3),
            BitFlip(step=50, addr=10, bit=2),
            DroppedWrite(step=4, pid=0),
        ])
        report = self._faulted_report(plan)
        kinds = [e.kind for e in report.faults]
        assert sorted(kinds) == ["bit_flip", "crash", "dropped_write"]
        for event in report.faults:
            assert event.fault in plan.faults
            assert event.detail

    def test_fault_free_report_has_no_events(self):
        from repro.pram.algorithms import run_match1

        lst = random_list(64, rng=8)
        _, report = run_match1(lst)
        assert report.faults == ()

    def test_crash_can_break_the_matching(self):
        # a crash mid-walk leaves work undone; without recovery the
        # verifier (not silence) is what reports it
        from repro.core.matching import verify_maximal_matching
        from repro.pram.algorithms import run_match1
        from repro.pram.faults import FaultPlan, ProcessorCrash

        lst = random_list(64, rng=9)
        clean, _ = run_match1(lst)
        plan = FaultPlan([ProcessorCrash(step=20, pid=int(clean[0]))])
        tails, report = run_match1(lst, fault_plan=plan)
        assert report.faults[0].effective
        if not np.array_equal(tails, clean):
            with pytest.raises(VerificationError):
                verify_maximal_matching(lst, tails)


class TestDegradationLadder:
    """resilient_matching() must degrade rung by rung, not give up."""

    def _failing_perturb(self, fail_first):
        # drop one matched pointer on the first `fail_first` attempts:
        # maximality fails, so verification raises every time
        def perturb(tails, index):
            return tails[1:] if index < fail_first else tails
        return perturb

    def test_degrades_exactly_one_rung_per_exhausted_tries(self):
        from repro.resilience import resilient_matching

        lst = random_list(96, rng=10)
        result = resilient_matching(
            lst, tries_per_rung=2, repair=False,
            perturb=self._failing_perturb(3),
        )
        log = result.log
        # attempts 0,1 fail on match4; attempt 2 fails on match2;
        # attempt 3 succeeds on match2
        assert [a.algorithm for a in log.attempts] == [
            "match4", "match4", "match2", "match2",
        ]
        assert [a.outcome for a in log.attempts] == [
            "failed", "failed", "failed", "ok",
        ]
        assert result.degraded
        assert log.rungs_visited == ("match4", "match2")

    def test_reaches_sequential_floor(self):
        from repro.resilience import resilient_matching

        lst = random_list(96, rng=11)
        result = resilient_matching(
            lst, tries_per_rung=1, repair=False,
            perturb=self._failing_perturb(3),
        )
        assert result.log.attempts[-1].algorithm == "sequential"
        assert result.log.rungs_visited == (
            "match4", "match2", "match1", "sequential",
        )

    def test_exhaustion_raises_with_history(self):
        from repro.errors import ResilienceExhaustedError
        from repro.resilience import resilient_matching

        lst = random_list(96, rng=13)
        with pytest.raises(ResilienceExhaustedError, match="sequential"):
            resilient_matching(
                lst, tries_per_rung=1, repair=False,
                perturb=self._failing_perturb(10**9),
            )

    def test_repair_short_circuits_the_ladder(self):
        from repro.resilience import resilient_matching

        lst = random_list(96, rng=14)
        result = resilient_matching(
            lst, tries_per_rung=2, repair=True,
            perturb=self._failing_perturb(3),
        )
        # with repair on, the very first corrupted attempt is fixed
        # locally instead of burning retries
        assert result.repaired
        assert result.log.total == 1
        assert not result.degraded


class TestSelfStabilizingRepair:
    """repair_matching() must converge from arbitrary corruption."""

    def _certify(self, lst, corrupted):
        from repro.core.matching import verify_maximal_matching
        from repro.resilience import repair_matching

        repaired, stats = repair_matching(lst, corrupted)
        verify_maximal_matching(lst, repaired)
        return repaired, stats

    def test_pattern_removed_pointers(self):
        from repro.baselines.sequential import sequential_matching

        lst = random_list(128, rng=15)
        m, _, _ = sequential_matching(lst)
        _, stats = self._certify(lst, m.tails[:: 2])
        assert stats.n_added > 0

    def test_pattern_adjacent_conflicts(self):
        lst = random_list(128, rng=16)
        # choose *every* pointer: maximal conflict density
        every = np.flatnonzero(lst.next != -1)
        _, stats = self._certify(lst, every)
        assert stats.n_dropped > 0

    def test_pattern_junk_addresses(self):
        lst = random_list(128, rng=17)
        junk = np.array([-5, 3, 3, 10**6, lst.tail, 7])
        _, stats = self._certify(lst, junk)
        assert stats.n_sanitized >= 3  # -5, 10**6, tail, one dup

    def test_pattern_empty(self):
        lst = random_list(128, rng=18)
        repaired, stats = self._certify(lst, np.array([], dtype=np.int64))
        assert repaired.size > 0 and stats.n_added == repaired.size

    def test_pattern_random_garbage(self):
        rng = np.random.default_rng(19)
        lst = random_list(128, rng=19)
        garbage = rng.integers(-50, 500, size=64)
        self._certify(lst, garbage)

    def test_pattern_bitflipped_real_matching(self):
        from repro.baselines.sequential import sequential_matching

        lst = random_list(128, rng=20)
        m, _, _ = sequential_matching(lst)
        tails = m.tails.copy()
        tails[: 8] ^= 1 << 3  # simulate memory corruption of 8 entries
        self._certify(lst, tails)

    def test_stats_account_for_all_changes(self):
        lst = random_list(64, rng=21)
        every = np.flatnonzero(lst.next != -1)
        _, stats = self._certify(lst, every)
        assert stats.rounds == 1  # one round provably suffices
        assert stats.changed == stats.n_sanitized + stats.n_dropped \
            + stats.n_added
