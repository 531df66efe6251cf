"""``resilient_matching()``: run → verify → repair → retry → degrade.

The runner wraps the vectorized matching algorithms in a recovery
loop.  Each *attempt* runs one algorithm and verifies its output with
:func:`repro.core.matching.verify_maximal_matching`.  On a
:class:`~repro.errors.VerificationError` or
:class:`~repro.errors.PRAMError` it first tries the cheap exit — the
self-stabilizing :func:`repro.resilience.repair.repair_matching` pass
on whatever (corrupted) tails the attempt produced — and only if that
also fails does it burn a retry, and eventually *degrades* down the
ladder

    match4  →  match2  →  match1  →  sequential

trading parallel optimality for simplicity until something verifies.
The sequential greedy baseline is the floor: a single dependent walk
with nothing left to corrupt in scheduling.

Every attempt is recorded in a structured :class:`AttemptLog`, so a
production caller can see exactly which rungs failed, why, and whether
repair (rather than a rerun) saved the day.  Retries never wait: the
algorithms are deterministic, so a delay could not change the next
attempt.  Failures are injected via the ``perturb`` hook (tests, CLI
demos) or arise from real faults when the instruction-level tier runs
under a :class:`repro.pram.faults.FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..core.matching import Matching, verify_maximal_matching
from ..core.result import MatchResult
from ..errors import PRAMError, ResilienceExhaustedError, VerificationError
from ..lists.linked_list import LinkedList
from ..telemetry.metrics import METRICS
from ..telemetry.spans import (
    enabled as telemetry_enabled,
    event as telemetry_event,
    span as telemetry_span,
)
from .repair import RepairStats, repair_matching

__all__ = [
    "DEFAULT_LADDER",
    "Attempt",
    "AttemptLog",
    "ResilienceResult",
    "resilient_matching",
]

#: The degradation ladder, fastest/most-fragile first.
DEFAULT_LADDER: tuple[str, ...] = ("match4", "match2", "match1", "sequential")

#: Hook mutating an attempt's raw tails before verification; receives
#: ``(tails, attempt_index)``.  Used to inject corruption in tests and
#: demos.
PerturbHook = Callable[[np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class Attempt:
    """One run-and-verify attempt in the recovery loop.

    Attributes
    ----------
    index:
        Global attempt counter (0-based).
    rung / algorithm:
        Position in, and name from, the ladder.
    try_index:
        Which retry on this rung (0-based).
    backend:
        Execution backend the attempt ran on.  Only the *first* try of
        a rung uses a non-default requested backend; retries fall back
        to ``"reference"`` so a backend-specific failure cannot pin a
        rung.
    outcome:
        ``"ok"`` (verified first time), ``"repaired"`` (verified after
        the local-repair pass), or ``"failed"``.
    error:
        ``"ExcType: message"`` for failed/repaired attempts.
    repair:
        Stats of the successful repair pass, when ``outcome ==
        "repaired"``.
    """

    index: int
    rung: int
    algorithm: str
    try_index: int
    outcome: str
    backend: str = "reference"
    error: str = ""
    repair: RepairStats | None = None


@dataclass
class AttemptLog:
    """Structured history of one :func:`resilient_matching` call."""

    attempts: list[Attempt] = field(default_factory=list)
    #: Result of the partition-engine probe fired after the first
    #: failure (``None`` when no attempt ever failed).
    engine_probe: bool | None = None

    @property
    def total(self) -> int:
        return len(self.attempts)

    @property
    def failures(self) -> int:
        return sum(1 for a in self.attempts if a.outcome == "failed")

    @property
    def rungs_visited(self) -> tuple[str, ...]:
        seen: list[str] = []
        for a in self.attempts:
            if a.algorithm not in seen:
                seen.append(a.algorithm)
        return tuple(seen)

    @property
    def summary(self) -> str:
        """One line per attempt plus a verdict — CLI/log friendly."""
        lines = []
        for a in self.attempts:
            tag = f"[{a.backend}]" if a.backend != "reference" else ""
            line = (f"[{a.index}] {a.algorithm}{tag} (rung {a.rung}, "
                    f"try {a.try_index}): {a.outcome}")
            if a.error:
                line += f" — {a.error}"
            lines.append(line)
        if self.engine_probe is not None:
            lines.append(
                "partition engine probe: "
                + ("healthy" if self.engine_probe else "BROKEN")
            )
        ok = any(a.outcome in ("ok", "repaired") for a in self.attempts)
        lines.append(
            f"{'recovered' if ok else 'exhausted'} after "
            f"{self.total} attempt(s) across "
            f"{len(self.rungs_visited)} rung(s)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ResilienceResult:
    """Verified matching plus the recovery history that produced it."""

    matching: Matching
    log: AttemptLog
    #: Full :class:`MatchResult` of the successful attempt, with
    #: ``extras`` recording ``served_by`` / ``rung`` / ``attempts`` —
    #: so downstream consumers (manifests, the service layer) can say
    #: which ladder rung actually produced the answer.
    result: MatchResult | None = None

    @property
    def tails(self) -> np.ndarray:
        return self.matching.tails

    @property
    def degraded(self) -> bool:
        """True iff the successful rung was not the first one."""
        last = self.log.attempts[-1]
        return last.rung > 0

    @property
    def repaired(self) -> bool:
        return self.log.attempts[-1].outcome == "repaired"

    @property
    def served_by(self) -> str:
        """Which ladder rung produced the answer — the algorithm name,
        with a ``+repair`` suffix when the local-repair pass (not a
        clean run) made it verify."""
        last = self.log.attempts[-1]
        return last.algorithm + ("+repair" if last.outcome == "repaired"
                                 else "")

    @property
    def attempts(self) -> int:
        """Total run-and-verify attempts, successful one included."""
        return self.log.total


def _serve(
    res: MatchResult,
    matching: Matching,
    log: AttemptLog,
    *,
    served_by: str,
    rung: int,
    requested_backend: str | None = None,
) -> ResilienceResult:
    """Stamp the winning attempt's provenance and count the rung."""
    METRICS.counter(f"resilience.served_by.{served_by}").inc()
    extras: dict[str, Any] = {
        **dict(res.extras),
        "served_by": served_by,
        "rung": rung,
        "attempts": log.total,
    }
    if requested_backend is not None:
        extras["requested_backend"] = requested_backend
    final = replace(res, matching=matching, extras=extras)
    return ResilienceResult(matching, log, final)


def _note_attempt(attempt: Attempt) -> None:
    """One telemetry event + counter bump per recovery attempt."""
    if not telemetry_enabled():
        return
    telemetry_event(
        "resilience.attempt", algorithm=attempt.algorithm,
        rung=attempt.rung, try_index=attempt.try_index,
        backend=attempt.backend, outcome=attempt.outcome,
        error=attempt.error,
    )
    METRICS.counter("resilience.attempts").inc()
    if attempt.outcome == "failed":
        METRICS.counter("resilience.failures").inc()
    elif attempt.outcome == "repaired":
        METRICS.counter("resilience.repairs").inc()


def partition_engine_healthy(lst: LinkedList) -> bool:
    """Probe the matching-partition engine underneath every rung.

    Runs one round of the partition function and checks the result
    with :func:`repro.core.partition.verify_matching_partition`
    (Lemma 1: one application of ``f`` is a matching partition).  The
    runner fires this after a first failure to tell "one algorithm
    produced a bad artifact" apart from "the shared engine is broken"
    — in the latter case degrading the ladder cannot help and the log
    says so.
    """
    from ..core.functions import iterate_f
    from ..core.partition import NO_POINTER, verify_matching_partition

    try:
        labels = iterate_f(lst, 1).copy()
        labels[lst.tail] = NO_POINTER
        verify_matching_partition(lst, labels)
    except Exception:  # noqa: BLE001 - any failure means "unhealthy"
        return False
    return True


def resilient_matching(
    lst: LinkedList,
    *,
    ladder: Sequence[str] = DEFAULT_LADDER,
    tries_per_rung: int = 2,
    repair: bool = True,
    perturb: PerturbHook | None = None,
    p: int = 1,
    backend: str | None = None,
    algorithm_kwargs: dict[str, dict[str, Any]] | None = None,
) -> ResilienceResult:
    """Compute a verified maximal matching, surviving faulty attempts.

    Parameters
    ----------
    lst:
        The list to match.
    ladder:
        Algorithm names (from
        :data:`repro.core.maximal_matching.ALGORITHMS`) to degrade
        through, most capable first.
    tries_per_rung:
        Retries before stepping down a rung.
    repair:
        Try the self-stabilizing local-repair pass on a failed
        attempt's tails before burning a retry.
    perturb:
        Test/demo hook corrupting an attempt's tails before
        verification (see :data:`PerturbHook`).
    p:
        Processor count forwarded to the algorithms' cost accounting.
    backend:
        Execution backend (see :mod:`repro.backends`) for the *first*
        try of each rung.  Retries, and rungs whose algorithm the
        backend does not implement, fall back to ``"reference"``, so a
        backend-specific fault cannot exhaust a rung's retry budget.
        ``"auto"`` resolves through :func:`~repro.backends.auto_backend`
        once, up front, for the ladder's top rung — the recovery loop
        then runs on that concrete backend (the result's
        ``extras["requested_backend"]`` records ``"auto"``); the
        fallback semantics above are unchanged.  Default
        ``"reference"``.
    algorithm_kwargs:
        Optional per-algorithm keyword overrides, e.g.
        ``{"match4": {"iterations": 3}}``.

    Returns
    -------
    ResilienceResult
        The verified matching and the full :class:`AttemptLog`.

    Raises
    ------
    ResilienceExhaustedError
        If every try of every rung failed (only possible when the
        fault process — ``perturb`` — outlasts
        ``len(ladder) * tries_per_rung`` attempts *and* defeats
        repair each time).
    """
    from ..backends import AUTO, auto_backend, get_backend
    from ..core.maximal_matching import maximal_matching
    import repro.baselines  # noqa: F401  (registers "sequential" et al.)

    if not ladder:
        raise ResilienceExhaustedError("empty degradation ladder")
    if backend is None:
        backend = "reference"
    requested_backend: str | None = None
    if backend == AUTO:
        requested_backend = AUTO
        backend = auto_backend(ladder[0], (lst.n,))
    requested = get_backend(backend)  # validate the name up front
    kwargs = algorithm_kwargs or {}
    log = AttemptLog()
    index = 0
    with telemetry_span(
        "resilience.run", n=lst.n, backend=backend,
        ladder=",".join(ladder),
    ) as sp:
        for rung, algorithm in enumerate(ladder):
            for try_index in range(tries_per_rung):
                use_backend = backend
                if try_index > 0 or not requested.supports(algorithm):
                    use_backend = "reference"
                tails: np.ndarray | None = None
                try:
                    res = maximal_matching(
                        lst, algorithm=algorithm, backend=use_backend, p=p,
                        **kwargs.get(algorithm, {}),
                    )
                    tails = np.asarray(res.matching.tails)
                    if perturb is not None:
                        tails = np.asarray(perturb(tails.copy(), index))
                    verify_maximal_matching(lst, tails)
                    log.attempts.append(Attempt(
                        index=index, rung=rung, algorithm=algorithm,
                        try_index=try_index, outcome="ok",
                        backend=use_backend,
                    ))
                    _note_attempt(log.attempts[-1])
                    sp.set(outcome="ok", attempts=log.total, rung=rung,
                           served_by=algorithm)
                    return _serve(res, Matching(lst, tails), log,
                                  served_by=algorithm, rung=rung,
                                  requested_backend=requested_backend)
                except (VerificationError, PRAMError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    if repair and tails is not None:
                        try:
                            fixed, stats = repair_matching(lst, tails)
                            log.attempts.append(Attempt(
                                index=index, rung=rung, algorithm=algorithm,
                                try_index=try_index, outcome="repaired",
                                error=error, repair=stats,
                                backend=use_backend,
                            ))
                            _note_attempt(log.attempts[-1])
                            served = f"{algorithm}+repair"
                            sp.set(outcome="repaired", attempts=log.total,
                                   rung=rung, served_by=served)
                            return _serve(res, Matching(lst, fixed), log,
                                          served_by=served, rung=rung,
                                          requested_backend=requested_backend)
                        except VerificationError:
                            pass
                    log.attempts.append(Attempt(
                        index=index, rung=rung, algorithm=algorithm,
                        try_index=try_index, outcome="failed",
                        error=error, backend=use_backend,
                    ))
                    _note_attempt(log.attempts[-1])
                    if log.engine_probe is None:
                        log.engine_probe = partition_engine_healthy(lst)
                index += 1
        sp.set(outcome="exhausted", attempts=log.total)
        raise ResilienceExhaustedError(
            "all rungs of the degradation ladder failed:\n" + log.summary
        )
