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

The engine's kernels take the arena as it is (a single list is an
arena of one): labels are iterated with per-list round counts (nodes
whose list is done stop updating), Match4's block ranks use per-list
block widths, and the WalkDown sweeps order all lists' steps by one
combined key — valid because a step's pushes never cross a list
boundary.

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
from ..bits.iterated_log import G
from ..errors import InvalidListError, InvalidParameterError, VerificationError
from ..lists.linked_list import LinkedList
from ..lists.validation import each_is_one_path, validate_next_array
from ..pram.cost import CostModel, CostReport
from ..core.matching import Matching
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span
from .engine import (
    _Prep,
    _check_independent,
    _check_six_set,
    _cut_and_walk,
    _match1_labels,
    _require_supported,
    _six_set,
    _unbounded_list,
)

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


def _split_matchings(prep: _Prep, tails: np.ndarray,
                     chosen: np.ndarray) -> tuple[Matching, ...]:
    """Cut the arena's tails back into per-list verified matchings."""
    _check_independent(prep, tails, chosen)
    pieces = np.split(tails, np.searchsorted(tails, prep.offsets[1:-1]))
    return tuple(
        Matching(lst, piece - int(prep.offsets[b]), pre_verified=True)
        for b, (lst, piece) in enumerate(zip(prep.lists, pieces))
    )


def _batch_match1_numpy(prep: _Prep, *, p: int, kind: str = "msb",
                        rounds: int | None = None,
                        ) -> tuple[tuple[Matching, ...], CostReport]:
    cost = CostModel(p)
    if rounds is not None and rounds < 0:
        raise InvalidParameterError(f"rounds must be >= 0, got {rounds}")
    rpl = (np.full(prep.sizes.size, rounds, dtype=np.int64)
           if rounds is not None
           else np.array([G(nb) for nb in prep.sizes.tolist()],
                         dtype=np.int64))
    # Reference match1 never iterates a singleton list.
    rpl[prep.sizes == 1] = 0
    with cost.phase("iterate"):
        labels = _match1_labels(prep, rpl, kind, cost)
    b = _unbounded_list(prep, labels)
    if b is not None:
        o, hi = int(prep.offsets[b]), int(prep.offsets[b + 1])
        raise VerificationError(
            f"list {b}: labels not constant-size after {int(rpl[b])} "
            f"rounds (max {int(labels[o:hi].max())}); pass more rounds"
        )
    with cost.phase("cutwalk"):
        tails, _, chosen = _cut_and_walk(prep, labels, cost)
    return _split_matchings(prep, tails, chosen), cost.report()


def _batch_match4_numpy(prep: _Prep, *, p: int,
                        iterations: int = 2, kind: str = "msb",
                        strategy: str = "iterate",
                        memory_limit: int = 1 << 24, step1_table=None,
                        check: bool = False,
                        ) -> tuple[tuple[Matching, ...], CostReport]:
    if strategy != "iterate":
        raise InvalidParameterError(
            f"numpy backend implements strategy='iterate' only, got "
            f"{strategy!r}"
        )
    if step1_table is not None:
        raise InvalidParameterError(
            "step1_table belongs to the 'table' strategy; the numpy "
            "backend takes neither"
        )
    _ = memory_limit
    if iterations < 1:
        raise InvalidParameterError(f"i must be >= 1, got {iterations}")
    cost = CostModel(p)
    l6e = _six_set(prep, iterations, kind, cost)[0]
    if check:
        _check_six_set(prep, l6e)
    with cost.phase("cutwalk"):
        tails, _, chosen = _cut_and_walk(prep, l6e, cost)
    return _split_matchings(prep, tails, chosen), cost.report()


_BATCH_DRIVERS = {
    "match1": _batch_match1_numpy,
    "match4": _batch_match4_numpy,
}


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
    each running this function serially on its shard.  ``workers=None``
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
    from ..core.maximal_matching import (
        ALGORITHMS,
        maximal_matching,
        normalize_algorithm_kwargs,
    )
    from . import AUTO, auto_backend, get_backend
    from ..parallel.executor import run_sharded_batch

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
        backend = auto_backend(algorithm, (l.n for l in lls), batch=True)
        extras["requested_backend"] = AUTO

    get_backend(backend)  # validate the name even for the loop path
    kwargs = normalize_algorithm_kwargs(algorithm, kwargs)

    if telemetry_enabled():
        METRICS.histogram("batch.size").observe(len(lls))

    with telemetry_span(
        "batch.maximal_matching", algorithm=algorithm, backend=backend,
        num_lists=len(lls), total_nodes=int(sum(l.n for l in lls)), p=p,
        workers=eff_workers,
    ):
        sharded = None
        if eff_workers > 1 and len(lls) > 1:
            if backend == "numpy":
                # Fail fast (and identically to serial) before forking.
                _require_supported(int(max(l.n for l in lls)))
                if algorithm not in _BATCH_DRIVERS:
                    raise InvalidParameterError(
                        f"batch on the numpy backend implements "
                        f"{sorted(_BATCH_DRIVERS)}, not {algorithm!r}; use "
                        f"backend='reference' for the per-list loop"
                    )
            sharded = run_sharded_batch(
                lls, algorithm=algorithm, p=p, kwargs=kwargs,
                workers=eff_workers, backend=backend,
            )
        if sharded is not None:
            matchings, report = sharded
        elif backend == "numpy":
            driver = _BATCH_DRIVERS.get(algorithm)
            if driver is None:
                raise InvalidParameterError(
                    f"batch on the numpy backend implements "
                    f"{sorted(_BATCH_DRIVERS)}, not {algorithm!r}; use "
                    f"backend='reference' for the per-list loop"
                )
            if not lls:
                matchings = ()
                report = CostModel(p).report()
            else:
                _require_supported(int(max(l.n for l in lls)))
                matchings, report = driver(_Prep(lls), p=p, **kwargs)
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
