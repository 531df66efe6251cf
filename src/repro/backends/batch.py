"""Batch execution: many independent lists through one engine call.

Real workloads (the forest pipeline, parameter sweeps, resilience
probes) often need maximal matchings of *many* lists.  Dispatching each
through :func:`repro.maximal_matching` pays the per-call fixed costs —
Python dispatch, kernel launches — once per list, which dominates when
the lists are small.  :func:`batch_maximal_matching` instead
concatenates the lists into one flat node arena (per-list pointers
offset into it, a shared dummy slot absorbing absent neighbors) and
runs the numpy engine's kernels **once over the arena**: because every
pointer, predecessor, and push stays inside its own list's segment, a
lockstep round over the arena is exactly a round of each list run
alone, so the per-list matchings are bit-identical to per-list calls
(and therefore to the reference tier).

Labels are iterated with per-list round counts (nodes whose list is
done stop updating), Match4's block ranks use per-list block widths,
and the WalkDown sweeps order all lists' steps by one combined key —
valid because a step's pushes never cross a list boundary.

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
from ..lists.linked_list import NIL, LinkedList
from ..lists.validation import each_is_one_path, validate_next_array
from ..pram.cost import CostModel, CostReport
from ..core.functions import max_label_after
from ..core.match1 import CONSTANT_LABEL_BOUND
from ..core.matching import Matching
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span
from .engine import (
    _cut_and_walk_flat,
    _f_table_round,
    _f_values,
    _require_supported,
    _sweep_labels6,
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


class _BatchPrep:
    """Flat arena over many lists, duck-typing the engine's prep struct."""

    __slots__ = ("n", "num_lists", "sizes", "offsets", "nxt", "cnext",
                 "pdx", "ndx", "has_ptr", "interior", "local_addr",
                 "tailnodes", "singleton_nodes")

    def __init__(self, lists: Sequence[LinkedList]) -> None:
        sizes = np.array([l.n for l in lists], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        n = int(offsets[-1])
        nxt = np.empty(n, dtype=np.int64)
        cnext = np.empty(n, dtype=np.int64)
        pdx = np.empty(n, dtype=np.int64)
        local_addr = np.empty(n, dtype=np.int64)
        tailnodes = np.empty(len(lists), dtype=np.int64)
        for b, lst in enumerate(lists):
            o = int(offsets[b])
            hi = o + lst.n
            seg = nxt[o:hi]
            seg[:] = lst.next
            seg[seg != NIL] += o
            cnext[o:hi] = lst.circular_next()
            cnext[o:hi] += o
            pd = lst.pred
            pdx[o:hi] = np.where(pd == NIL, np.int64(n), pd + o)
            local_addr[o:hi] = np.arange(lst.n, dtype=np.int64)
            tailnodes[b] = o + lst.tail
        has_ptr = nxt != NIL
        self.n = n
        self.num_lists = len(lists)
        self.sizes = sizes
        self.offsets = offsets
        self.nxt = nxt
        self.cnext = cnext
        self.pdx = pdx
        self.ndx = np.where(has_ptr & has_ptr[cnext], cnext, np.int64(n))
        self.has_ptr = has_ptr
        self.interior = has_ptr & (pdx != n)
        self.local_addr = local_addr
        self.tailnodes = tailnodes
        self.singleton_nodes = offsets[:-1][sizes == 1]


def _batch_labels(bp: _BatchPrep, rounds_per_list: np.ndarray, kind: str,
                  cost: CostModel | None) -> np.ndarray:
    """Per-list-bounded f iteration over the arena (``int8`` labels).

    List ``b`` iterates ``rounds_per_list[b]`` rounds; its nodes freeze
    afterwards while longer lists continue.  Lists with zero rounds
    (singletons) keep their local address ``0``.
    """
    max_rounds = int(rounds_per_list.max())
    if max_rounds == 0:
        return np.zeros(bp.n, dtype=np.int8)
    bound = int(bp.sizes.max())
    labels = _f_values(bp.local_addr, bp.local_addr[bp.cnext], bound, kind)
    mixed = bool((rounds_per_list != max_rounds).any())
    needed = np.repeat(rounds_per_list, bp.sizes) if mixed else None
    if needed is not None:
        # Zero-round (singleton) lists keep their local address, 0.
        labels[needed < 1] = 0
    if cost is not None:
        cost.parallel(int(bp.sizes[rounds_per_list >= 1].sum()))
    for r in range(2, max_rounds + 1):
        new = _f_table_round(labels, bp.cnext,
                             max_label_after(bound, r - 1), kind)
        labels = np.where(needed >= r, new, labels) if mixed else new
        if cost is not None:
            cost.parallel(int(bp.sizes[rounds_per_list >= r].sum()))
    return labels


def _split_matchings(lists, bp: _BatchPrep, tails: np.ndarray,
                     chosen: np.ndarray) -> tuple[Matching, ...]:
    """Cut the arena's tails back into per-list verified matchings."""
    if np.any(chosen[bp.pdx[tails]]):
        raise VerificationError(
            "numpy batch engine produced adjacent matched pointers"
        )
    pieces = np.split(tails, np.searchsorted(tails, bp.offsets[1:-1]))
    return tuple(
        Matching(lst, piece - int(bp.offsets[b]), pre_verified=True)
        for b, (lst, piece) in enumerate(zip(lists, pieces))
    )


def _batch_match1_numpy(lists, bp: _BatchPrep, *, p: int, kind: str = "msb",
                        rounds: int | None = None,
                        ) -> tuple[tuple[Matching, ...], CostReport]:
    cost = CostModel(p)
    if rounds is not None and rounds < 0:
        raise InvalidParameterError(f"rounds must be >= 0, got {rounds}")
    rpl = (np.full(bp.num_lists, rounds, dtype=np.int64)
           if rounds is not None
           else np.array([G(int(nb)) for nb in bp.sizes], dtype=np.int64))
    # Reference match1 never iterates a singleton list.
    rpl[bp.sizes == 1] = 0
    with cost.phase("iterate"):
        if int(rpl.max()) > 0:
            labels = _batch_labels(bp, rpl, kind, cost)
        else:
            labels = bp.local_addr
    bound = max(CONSTANT_LABEL_BOUND, 2 * CONSTANT_LABEL_BOUND)
    max_per_list = np.maximum.reduceat(labels, bp.offsets[:-1])
    bad = np.flatnonzero((max_per_list >= bound) & (bp.sizes > 1))
    if bad.size:
        b = int(bad[0])
        raise VerificationError(
            f"list {b}: labels not constant-size after {int(rpl[b])} "
            f"rounds (max {int(max_per_list[b])}); pass more rounds"
        )
    with cost.phase("cutwalk"):
        tails, _, chosen = _cut_and_walk_flat(bp, labels, cost)
    return _split_matchings(lists, bp, tails, chosen), cost.report()


def _batch_match4_numpy(lists, bp: _BatchPrep, *, p: int,
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
    i = iterations
    cost = CostModel(p)
    n = bp.n
    active = bp.sizes >= 2
    rpl = np.where(active, i, 0).astype(np.int64)

    with cost.phase("partition"):
        labels = _batch_labels(bp, rpl, kind, cost)

    # Per-list block widths x_b and a global block numbering (block ids
    # ascend with global address, so equal (block, label) runs stay
    # contiguous under a stable by-label sort).
    xs = np.array(
        [max(2, max_label_after(int(nb), i)) if nb > 1 else 1
         for nb in bp.sizes],
        dtype=np.int64,
    )
    ys = (bp.sizes + xs - 1) // xs
    maxx = int(xs.max())
    nblocks = np.zeros(bp.num_lists + 1, dtype=np.int64)
    np.cumsum(ys, out=nblocks[1:])
    bid = np.empty(n, dtype=np.int64)
    for b in range(bp.num_lists):
        o, hi = int(bp.offsets[b]), int(bp.offsets[b + 1])
        bid[o:hi] = bp.local_addr[o:hi] // int(xs[b]) + int(nblocks[b])

    with cost.phase("sort"):
        width = maxx + 1
        flatbin = bid * width + labels
        counts = np.bincount(flatbin, minlength=int(nblocks[-1]) * width)
        rf = np.empty(counts.size, dtype=np.int64)
        rf[0] = 0
        np.cumsum(counts[:-1], out=rf[1:])
        starts = rf[::width].copy()
        rf.reshape(-1, width)[:, :] -= starts[:, None]
        order1 = np.argsort(labels, kind="stable")
        srt = flatbin[order1]
        pos = np.arange(n, dtype=np.int64)
        runstart = np.maximum.accumulate(
            np.where(np.r_[True, srt[1:] != srt[:-1]], pos, 0)
        )
        seq = np.empty(n, dtype=np.int64)
        seq[order1] = pos - runstart
        row = (rf[flatbin] + seq).astype(np.int8)
        cost.parallel(int(ys[active].sum()), depth=maxx)

    intra = bp.has_ptr & (row == row[bp.cnext])
    num_intra = int(np.count_nonzero(intra))
    num_inter = (n - bp.num_lists) - num_intra
    l6e, max_inter, max_intra = _sweep_labels6(
        bp, labels, row, intra, maxx, num_lists=bp.num_lists
    )
    with cost.phase("walkdown1"):
        if num_inter:
            cost.parallel(int(ys[active].sum()), depth=max(1, max_inter + 1))
    with cost.phase("walkdown2"):
        if num_intra:
            cost.parallel(int(ys[active].sum()), depth=max(1, max_intra + 1))
    if check:
        from ..core.partition import verify_matching_partition

        for b, lst in enumerate(lists):
            o, hi = int(bp.offsets[b]), int(bp.offsets[b + 1])
            raw = l6e[o:hi].astype(np.int64) - 1
            verify_matching_partition(lst, raw)

    with cost.phase("cutwalk"):
        tails, _, chosen = _cut_and_walk_flat(bp, l6e, cost)
    return _split_matchings(lists, bp, tails, chosen), cost.report()


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
                bp = _BatchPrep(lls)
                matchings, report = driver(lls, bp, p=p, **kwargs)
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
