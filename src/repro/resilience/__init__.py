"""Fault tolerance for the matching pipelines.

The rest of the library *detects* broken outputs (the
:class:`repro.errors.VerificationError` hierarchy); this package
*survives* them.  Three layers, composable:

- :mod:`repro.pram.faults` / :mod:`repro.pram.checkpoint` (in the PRAM
  package): deterministic fault injection into instruction-level runs,
  and checkpoint-restart that resumes a crashed run bit-identically.
- :mod:`repro.resilience.repair`: a self-stabilizing local-repair pass
  in the spirit of the self-stabilizing maximal-matching literature
  (Cohen et al. 2016/2017) — takes an *arbitrarily corrupted* tails
  array, drops conflicting pointers by a local rule, greedily
  re-matches the freed runs, and certifies maximality, all without
  rerunning the matching algorithm.
- :mod:`repro.resilience.runner`: ``resilient_matching()``, the
  run → verify → repair → retry → degrade loop that walks the ladder
  match4 → match2 → match1 → sequential and emits a structured
  :class:`~repro.resilience.runner.AttemptLog`.

CLI face: ``python -m repro resilience --crash-at ... --flip ...``.
"""

from .repair import RepairStats, repair_matching
from .runner import (
    Attempt,
    AttemptLog,
    DEFAULT_LADDER,
    ResilienceResult,
    resilient_matching,
)

__all__ = [
    "repair_matching",
    "RepairStats",
    "resilient_matching",
    "ResilienceResult",
    "Attempt",
    "AttemptLog",
    "DEFAULT_LADDER",
]
