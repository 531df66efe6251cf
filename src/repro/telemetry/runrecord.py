"""Persisted run manifests: one JSON line per measured run.

A :class:`RunRecord` is the durable form of "what ran and what it
cost": workload identity (algorithm, backend, ``n``, ``p``, seed),
the exact Brent cost account (time, work, per-phase breakdown), host
wall-clock, and the producing build (package version + git revision).
The CLI (``repro match --record``) and the benchmark suite
(``benchmarks/_common.py``) append records to JSONL manifests, and
``benchmarks/compare.py`` diffs two manifests to gate regressions:
step counts are deterministic, so *any* increase is a regression;
wall-clock is compared within a tolerance.

The cost fields round-trip exactly — ``RunRecord.from_result(r)
.cost_report() == r.report`` — which the twelfth selfcheck asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, TYPE_CHECKING

from .._buildinfo import build_info
from .sinks import json_default, read_jsonl

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..core.result import MatchResult
    from ..pram.cost import CostReport

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "append_record",
    "write_records",
    "read_records",
]

#: Bumped on incompatible RunRecord layout changes.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunRecord:
    """One measured run, ready for JSONL persistence.

    Attributes
    ----------
    kind:
        Record family: ``"matching"`` for algorithm runs, ``"bench"``
        for benchmark-table emissions.
    algorithm / backend / n / p / seed:
        Workload identity (also the comparison key in ``compare.py``).
    time / work:
        The Brent :class:`~repro.pram.cost.CostReport` totals —
        deterministic, compared exactly.
    phases:
        Per-phase ``(name, time, work, steps)`` tuples, in order.
    wall_s:
        Host wall-clock seconds (``None`` when not timed).
    version / git_rev:
        Producing build (defaulted from :mod:`repro._buildinfo`).
    extra:
        Free-form context (layout, iterations, bench name, ...).
    """

    algorithm: str
    backend: str
    n: int
    p: int
    time: int
    work: int
    kind: str = "matching"
    seed: int | None = None
    wall_s: float | None = None
    phases: tuple[tuple[str, int, int, int], ...] = ()
    version: str = ""
    git_rev: str = ""
    schema: int = SCHEMA_VERSION
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.version or not self.git_rev:
            info = build_info()
            if not self.version:
                object.__setattr__(self, "version", info["version"])
            if not self.git_rev:
                object.__setattr__(self, "git_rev", info["git_rev"])

    @classmethod
    def from_result(
        cls,
        result: "MatchResult",
        *,
        seed: int | None = None,
        wall_s: float | None = None,
        **extra: Any,
    ) -> "RunRecord":
        """Build a record from a :class:`~repro.core.result.MatchResult`."""
        report = result.report
        return cls(
            algorithm=result.algorithm,
            backend=result.backend,
            n=int(result.matching.lst.n),
            p=int(report.p),
            time=int(report.time),
            work=int(report.work),
            seed=seed,
            wall_s=wall_s,
            phases=tuple(
                (ph.name, int(ph.time), int(ph.work), int(ph.steps))
                for ph in report.phases
            ),
            extra=dict(extra),
        )

    def cost_report(self) -> "CostReport":
        """Rebuild the exact :class:`CostReport` this record captured."""
        from ..pram.cost import CostReport, PhaseCost

        return CostReport(
            p=self.p,
            time=self.time,
            work=self.work,
            phases=tuple(
                PhaseCost(name, time, work, steps)
                for name, time, work, steps in self.phases
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "n": self.n,
            "p": self.p,
            "seed": self.seed,
            "time": self.time,
            "work": self.work,
            "wall_s": self.wall_s,
            "phases": [list(ph) for ph in self.phases],
            "version": self.version,
            "git_rev": self.git_rev,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            algorithm=data["algorithm"],
            backend=data["backend"],
            n=int(data["n"]),
            p=int(data["p"]),
            time=int(data["time"]),
            work=int(data["work"]),
            kind=data.get("kind", "matching"),
            seed=data.get("seed"),
            wall_s=data.get("wall_s"),
            phases=tuple(
                (ph[0], int(ph[1]), int(ph[2]), int(ph[3]))
                for ph in data.get("phases", ())
            ),
            version=data.get("version", ""),
            git_rev=data.get("git_rev", ""),
            schema=int(data.get("schema", SCHEMA_VERSION)),
            extra=dict(data.get("extra", {})),
        )

    def key(self) -> tuple:
        """Identity used to pair records across manifests.

        Measurement payloads riding in ``extra`` (the ``resources``
        account) are excluded — they differ run to run and would break
        pairing of otherwise identical workloads.
        """
        return (self.kind, self.algorithm, self.backend, self.n, self.p,
                self.seed, tuple(sorted(
                    (k, str(v)) for k, v in self.extra.items()
                    if k != "resources")))


def append_record(path, record: RunRecord) -> Path:
    """Append one record as a JSON line; returns the manifest path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps({"type": "run", **record.to_dict()},
                      default=json_default) + "\n"
    with open(p, "a", encoding="utf-8") as fh:
        fh.write(line)
    return p


def write_records(path, records, *, append: bool = False) -> Path:
    """Write records as JSONL (replacing the file unless ``append``)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if append else "w"
    with open(p, mode, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps({"type": "run", **record.to_dict()},
                                default=json_default) + "\n")
    return p


def read_records(path, *, strict: bool = False) -> list[RunRecord]:
    """Load every run record from a JSONL file.

    Lines of other types (spans from a :class:`JsonlSink` writing to
    the same file) are skipped, so one telemetry file can hold both.
    Malformed lines — the truncated trailing line a killed writer
    leaves behind, a non-object, a run line missing a field — are
    *skipped with a* :class:`RuntimeWarning` rather than raised, so an
    interrupted run's manifest stays readable.  Pass ``strict=True``
    to raise instead (tests that must notice corruption); see
    :func:`~repro.telemetry.sinks.read_jsonl`.
    """
    return read_jsonl(path, "run", RunRecord.from_dict, strict=strict)
