"""Batch execution: many independent lists through one engine call.

Real workloads (the forest pipeline, parameter sweeps, resilience
probes) often need maximal matchings of *many* lists.  Dispatching each
through :func:`repro.maximal_matching` pays the per-call fixed costs —
Python dispatch, kernel launches — once per list, which dominates when
the lists are small.  :func:`batch_maximal_matching` instead
concatenates the lists into one flat node arena (per-list pointers
offset into it, a shared dummy slot absorbing absent neighbors) and
runs the numpy engine's kernels **once over the arena**: because every
pointer, neighbor, and push stays inside its own list's segment, a
lockstep round over the arena is exactly a round of each list run
alone, so the per-list matchings are bit-identical to per-list calls
(and therefore to the reference tier).

The engine has one driver per algorithm, and it takes the arena as it
is: a single :func:`repro.maximal_matching` call runs the same driver
on an arena of one.  The engine lays the lists out by size, so that
per-list round counts (nodes whose list is done stop updating) and
Match4's per-list block widths select slices of the arena; the
WalkDown sweeps order all lists' steps by one combined key — valid
because a step's pushes never cross a list boundary.

The returned :class:`CostReport` is the *aggregate lockstep* account:
one phase structure for the whole batch, each round charged at the
width of all lists still active.  Per-list reports, when needed, come
from per-list calls; the contract here is per-list **matchings**, not
per-list cost splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .._util import as_index_array
from ..errors import InvalidListError, InvalidParameterError
from ..lists.linked_list import LinkedList
from ..lists.validation import each_is_one_path, validate_next_array
from ..pram.cost import CostModel, CostReport
from ..core.matching import Matching
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span
from .engine import _Prep, _match1, _match4, _require_supported

__all__ = ["BatchStats", "BatchMatchResult", "batch_maximal_matching"]


@dataclass(frozen=True)
class BatchStats:
    """Aggregate diagnostics of one batch run."""

    num_lists: int
    total_nodes: int
    sizes: tuple[int, ...]
    matched: tuple[int, ...]


@dataclass(frozen=True)
class BatchMatchResult:
    """What one batch run produced: per-list matchings + aggregate cost.

    ``extras`` carries execution provenance that is not part of the
    result proper — ``extras["requested_backend"]`` is ``"auto"`` when
    the batch ran with ``backend="auto"`` (mirrors
    ``MatchResult.extras``).
    """

    matchings: tuple[Matching, ...]
    report: CostReport
    stats: BatchStats
    backend: str = "numpy"
    algorithm: str = "match4"
    extras: Mapping[str, Any] = field(default_factory=dict)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.matchings)

    def __len__(self) -> int:
        return len(self.matchings)

    def __getitem__(self, index: int) -> Matching:
        return self.matchings[index]


def _split_matchings(prep: _Prep, tails: np.ndarray) -> tuple[Matching, ...]:
    """Cut the arena's tails back into per-list verified matchings, in
    the caller's order."""
    pieces = np.split(tails, np.searchsorted(tails, prep.offsets[1:-1]))
    out = [None] * len(pieces)
    for j, b in enumerate(prep.order.tolist()):
        out[b] = Matching(prep.lists[j], pieces[j] - int(prep.offsets[j]),
                          pre_verified=True)
    return tuple(out)


def _as_lists(lists: Sequence[LinkedList | np.ndarray | list],
              ) -> list[LinkedList]:
    """The batch as :class:`LinkedList` objects.

    The raw ``NEXT`` arrays among ``lists`` are checked together, as one
    forest; ``LinkedList`` inputs are already valid.  A failing batch is
    re-checked list by list, and the first bad list's own error is
    raised, prefixed ``list {b}: ``.
    """
    lists = list(lists)
    raw = {b: as_index_array(lst, name="NEXT")
           for b, lst in enumerate(lists) if not isinstance(lst, LinkedList)}
    if raw and not each_is_one_path(list(raw.values())):
        for b, nxt in raw.items():
            try:
                validate_next_array(nxt)
            except InvalidListError as exc:
                raise InvalidListError(f"list {b}: {exc}") from None
    for b, nxt in raw.items():
        lists[b] = LinkedList(nxt, validate=False)
    return lists


def _validate_workers(workers: int | None) -> int:
    """The effective worker count: ``None`` is serial, else an int >= 1.

    Invalid values raise :class:`InvalidParameterError` (a
    ``ValueError``) before any pool or shard exists.
    """
    if workers is None:
        return 1
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise InvalidParameterError(
            f"workers must be an int >= 1 or None, got {workers!r}"
        )
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    return workers


def batch_maximal_matching(
    lists: Sequence[LinkedList | np.ndarray | list],
    *,
    algorithm: str | None = None,
    backend: str | None = None,
    p: int = 1,
    workers: int | None = None,
    **kwargs: Any,
) -> BatchMatchResult:
    """Maximally match many independent lists in one call.

    With ``backend="numpy"`` (the default here — batching exists for
    throughput) the lists are concatenated into one flat arena and each
    engine kernel runs once over all of them; per-list matchings are
    bit-identical to per-list :func:`repro.maximal_matching` calls.
    Implemented for ``match1`` and ``match4``.  With
    ``backend="reference"`` the lists are dispatched one by one and the
    per-call reports absorbed into one aggregate (any algorithm).

    ``workers`` engages :mod:`repro.parallel`: the batch is sharded by
    node-balanced contiguous ranges across that many worker processes,
    each running this function's serial driver on its shard (an error
    still names a list by its index in ``lists``).  ``workers=None``
    (default) is serial.  ``workers`` must be an int >= 1; anything
    else raises :class:`InvalidParameterError` (a ``ValueError``)
    before any pool exists.

    **Order guarantee**: ``matchings[i]`` always corresponds to
    ``lists[i]`` — results are reassembled by shard index, never by
    worker completion order.  Matchings are bit-identical to the serial
    call's for every input.  The aggregate report at ``workers > 1`` is
    the shard-order absorb of per-shard reports: equal to the serial
    report on the per-list backends (``reference``), a differently
    grouped (same-total) account on the fused numpy arena — see
    ``docs/parallel.md``.  If the pool infrastructure fails, the batch
    falls back to serial execution (``parallel.fallback`` telemetry
    event) rather than erroring.

    ``backend="auto"`` resolves once for the whole batch through
    :func:`~repro.backends.auto_backend` (fused execution needs one
    backend); ``extras["requested_backend"]`` then records ``"auto"``.

    Kwargs are normalized exactly as in :func:`repro.maximal_matching`
    (canonical names, deprecated aliases warned, unknown rejected).

    Raw ``NEXT`` arrays are validated together, as one forest;
    ``LinkedList`` inputs are not re-checked.  An invalid list raises
    :class:`~repro.errors.InvalidListError` with its own message,
    prefixed ``list {b}: `` (``b`` its index in ``lists``).

    Returns a :class:`BatchMatchResult` holding one verified
    :class:`Matching` per input list (in order), the aggregate
    :class:`CostReport`, and :class:`BatchStats`.
    """
    from ..core.maximal_matching import ALGORITHMS, normalize_algorithm_kwargs
    from . import AUTO, auto_backend, get_backend

    if algorithm is None:
        algorithm = "match4"
    if backend is None:
        backend = "numpy"
    eff_workers = _validate_workers(workers)

    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        )
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    lls = _as_lists(lists)

    extras: dict[str, Any] = {}
    if backend == AUTO:
        backend = auto_backend(algorithm, (l.n for l in lls))
        extras["requested_backend"] = AUTO

    backend_obj = get_backend(backend)
    if not backend_obj.supports(algorithm):
        raise InvalidParameterError(
            f"batch on the {backend} backend implements "
            f"{sorted(backend_obj.algorithms)}, not {algorithm!r}; use "
            f"backend='reference' for the per-list loop"
        )
    if backend == "numpy" and lls:
        _require_supported(int(max(l.n for l in lls)))
    kwargs = normalize_algorithm_kwargs(algorithm, kwargs)

    matchings, report = _run_batch(
        lls, algorithm=algorithm, backend=backend, p=p, kwargs=kwargs,
        workers=eff_workers,
    )
    stats = BatchStats(
        num_lists=len(lls),
        total_nodes=int(sum(l.n for l in lls)),
        sizes=tuple(l.n for l in lls),
        matched=tuple(m.size for m in matchings),
    )
    return BatchMatchResult(
        matchings=matchings, report=report, stats=stats,
        backend=backend, algorithm=algorithm, extras=extras,
    )


def _run_batch(
    lls: Sequence[LinkedList],
    *,
    algorithm: str,
    backend: str,
    p: int,
    kwargs: dict[str, Any],
    workers: int = 1,
    first: int | None = None,
) -> tuple[tuple[Matching, ...], CostReport]:
    """The batch call on checked lists, a concrete backend and
    normalized ``kwargs``: ``(matchings, report)``.

    A pool worker runs its shard through here with ``first``, the
    index of the shard's first list in the whole batch, so that an
    error names the list by its index in the caller's batch.
    """
    from ..core.maximal_matching import maximal_matching
    from ..parallel.executor import run_sharded_batch

    if telemetry_enabled():
        METRICS.histogram("batch.size").observe(len(lls))

    with telemetry_span(
        "batch.maximal_matching", algorithm=algorithm, backend=backend,
        num_lists=len(lls), total_nodes=int(sum(l.n for l in lls)), p=p,
        workers=workers,
    ):
        sharded = None
        if workers > 1 and len(lls) > 1:
            sharded = run_sharded_batch(
                lls, algorithm=algorithm, p=p, kwargs=kwargs,
                workers=workers, backend=backend,
            )
        if sharded is not None:
            matchings, report = sharded
        elif backend == "numpy":
            if not lls:
                matchings = ()
                report = CostModel(p).report()
            else:
                prep = _Prep(lls)
                # The numpy backend implements match1 and match4 only.
                if algorithm == "match1":
                    tails, report, _ = _match1(prep, p=p, first=first,
                                               **kwargs)
                else:
                    tails, report, _, _ = _match4(prep, p=p, **kwargs)
                matchings = _split_matchings(prep, tails)
        else:
            cost = CostModel(p)
            collected = []
            for lst in lls:
                res = maximal_matching(
                    lst, algorithm=algorithm, backend=backend, p=p,
                    **kwargs
                )
                collected.append(res.matching)
                cost.absorb(res.report)
            matchings = tuple(collected)
            report = cost.report()
    return matchings, report
