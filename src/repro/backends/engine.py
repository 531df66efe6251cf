"""The ``"numpy"`` backend engine: whole-array kernels for Han's rounds.

Every PRAM round of the paper's algorithms applies one local rule to
all ``n`` pointers; this module executes each such round as one batch
of vectorized array operations over an *arena*: one list, or many laid
end to end (:mod:`repro.backends.batch`).  A list is an arena of one,
so one driver per algorithm (``_match1``, ``_match4``) serves both,
and each call computes from its inputs alone.  The kernels:

- round 1 of ``f`` reads the bit index ``k`` of ``a ^ b`` off the
  exponent of its float conversion; later rounds, whose labels are
  small, are one gather into a cached pair table ``FT[a, b]``;
- Match4's per-column counting sorts become a comparison count: a
  node's stable rank in its block is the number of (label, position)
  keys of the block that are smaller;
- the WalkDown sweeps become one radix sort of a combined (class,
  step) key followed by per-step rounds in which each pointer reads
  its right neighbor's label and pushes its own to the right;
- the local-minima cut and the alternate-pointer walk read successors
  only.  No kernel builds a predecessor array.

Bit-identity and cost parity are the contract: for every supported
input the engine produces exactly the tails, stats, and Brent
:class:`~repro.pram.cost.CostReport` of the reference implementations
(the equivalence test suite and the selfcheck enforce this).  The
reference tier stays the oracle; this tier is how the hot path runs at
hardware speed.

Index arrays are ``int64`` (numpy gathers take a fast path for native
``intp`` indices) while label/row payloads are ``int8``, so the
per-round working set stays cache-resident.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._util import ceil_div, require
from ..bits.bitlen_tables import pair_label_table
from ..bits.iterated_log import G
from ..errors import InvalidParameterError, VerificationError
from ..lists.linked_list import NIL, LinkedList
from ..pram.cost import CostModel, CostReport
from ..core.cutwalk import CutWalkStats
from ..core.functions import max_label_after
from ..core.match1 import CONSTANT_LABEL_BOUND
from ..core.match4 import Match4Stats
from ..core.matching import Matching
from ..telemetry import resources as _resources
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span

__all__ = [
    "ENGINE_LIMIT",
    "f_msb",
    "f_lsb",
    "iterate_f",
    "cut_and_walk",
    "match1",
    "match4",
]

#: Exclusive bound on list sizes (and ``f`` inputs) the engine accepts:
#: ``2**31`` keeps every intermediate in ``int64`` with headroom and
#: every label below 62.  The reference backend remains available
#: beyond it.
ENGINE_LIMIT = 1 << 31

#: Match1's labels must fall below this once its rounds are done.
_M1_LABEL_BOUND = max(CONSTANT_LABEL_BOUND, 2 * CONSTANT_LABEL_BOUND)


# ---------------------------------------------------------------------------
# f rounds on raw value arrays.
# ---------------------------------------------------------------------------

def _log2(v: np.ndarray, exact32: bool) -> np.ndarray:
    """``floor(log2(v))`` of positive ``v``, read off the float exponent.

    ``float32`` holds every integer below ``2**24`` (and every power of
    two) exactly; ``float64`` every one below ``2**53``.
    """
    if exact32:
        e = v.astype(np.float32).view(np.int32)
        e >>= 23
        e -= 127
    else:
        e = v.astype(np.float64).view(np.int64)
        e >>= 52
        e -= 1023
    return e


def _f_values(a: np.ndarray, b: np.ndarray, bound: int, kind: str) -> np.ndarray:
    """One ``f`` round on value arrays ``< bound``, as ``int8`` labels.

    No domain validation — internal fast path; callers guarantee
    ``a != b`` elementwise and ``0 <= a, b < bound <= 2**31``.
    """
    xv = a ^ b
    if kind == "msb":
        # k = msb(a ^ b): a and b agree above bit k, so a_k = (a > b).
        k = _log2(xv, bound <= (1 << 24))
        bit = a > b
    else:
        xv &= -xv
        k = _log2(xv, True)
        bit = (a & xv) != 0
    k += k
    k += bit
    return k.astype(np.int8)


def _f_table_round(a8: np.ndarray, b8: np.ndarray, m: int,
                   kind: str) -> np.ndarray:
    """One ``f`` round on small labels (``< m``) via the pair table."""
    ft = pair_label_table(kind, m)
    idx = a8.astype(np.int64)
    idx *= m
    idx += b8
    return ft[idx]


def _validate_f_args(a, b) -> tuple[np.ndarray, np.ndarray, int]:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.any(a == b):
        raise InvalidParameterError("f requires a != b elementwise")
    if a.size and (int(a.min()) < 0 or int(b.min()) < 0):
        raise InvalidParameterError("f requires non-negative addresses")
    bound = 1
    if a.size:
        bound = int(max(a.max(), b.max())) + 1
    if bound > ENGINE_LIMIT:
        raise InvalidParameterError(
            f"numpy backend f supports values below 2**31; got {bound - 1}. "
            f"Use the reference implementation for larger values."
        )
    return a, b, bound


def f_msb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.functions.f_msb` (bit-identical)."""
    a, b, bound = _validate_f_args(a, b)
    return _f_values(a, b, bound, "msb").astype(np.int64)


def f_lsb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.functions.f_lsb` (bit-identical)."""
    a, b, bound = _validate_f_args(a, b)
    return _f_values(a, b, bound, "lsb").astype(np.int64)


# ---------------------------------------------------------------------------
# The arena: derived arrays of one list or many, laid end to end.
# ---------------------------------------------------------------------------

class _Prep:
    """Derived arrays of an arena of lists, shared by every kernel.

    The lists are laid end to end in ascending size order (a stable
    sort): arena list ``j`` is the caller's list ``order[j]`` and holds
    the addresses ``offsets[j] .. offsets[j+1]-1``; a single list is an
    arena of one.  Since a list's round count and block width grow with
    its size, each class of them is a run of consecutive lists, so a
    kernel treats it as one slice: the singletons are the first
    ``singles`` lists (and nodes), and the lists that iterate a given
    ``f`` round are the arena's tail.  Every entry is a pure function of
    the lists' immutable ``NEXT`` arrays.  Slot ``n``, one past the
    arena, is the dummy neighbor: ``ndx`` names it where the successor
    holds no pointer, and masks of length ``n + 1`` keep it false.
    """

    __slots__ = ("lists", "order", "n", "sizes", "offsets", "base",
                 "singles", "nxt", "cnext", "ndx", "has_ptr", "interior",
                 "heads", "tails", "last", "before")

    def __init__(self, lists: Sequence[LinkedList]) -> None:
        sizes = np.array([lst.n for lst in lists], dtype=np.int64)
        order = np.argsort(sizes, kind="stable")
        sizes = sizes[order]
        lists = [lists[b] for b in order.tolist()]
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        n = int(offsets[-1])
        heads = offsets[:-1] + [lst.head for lst in lists]
        base = None
        if len(lists) == 1:
            nxt = lists[0].next
        else:
            # Each node's list base, built once: the rebase here and the
            # local addresses of the first f round read it.  Kept for
            # the whole call, so in ``int32`` where the arena allows.
            base = np.repeat(offsets[:-1].astype(
                np.int32 if n < ENGINE_LIMIT else np.int64), sizes)
            nxt = np.concatenate([lst.next for lst in lists])
            np.add(nxt, base, out=nxt, where=nxt != NIL)
        has_ptr = nxt != NIL
        tails = np.flatnonzero(~has_ptr)  # one per list, in arena order
        cnext = nxt.copy()
        cnext[tails] = heads
        interior = has_ptr.copy()
        interior[heads] = False
        # succ[v]: v's successor holds a pointer (nil reads slot n).
        hx = np.zeros(n + 1, dtype=bool)
        hx[:n] = has_ptr
        succ = hx[nxt]
        # Each list's last pointer, and its predecessor pointer (slot
        # n where the last pointer is the head): the end repair's reads.
        last = np.flatnonzero(has_ptr & ~succ)
        if last.size == 1:  # a compare pass beats a random gather
            src = np.flatnonzero(nxt == last[0])
        else:
            hx[:] = False
            hx[last] = True
            src = np.flatnonzero(hx[nxt])
        before = np.full(last.size, n, dtype=np.int64)
        before[np.searchsorted(last, nxt[src])] = src
        self.lists = tuple(lists)
        self.order = order
        self.n = n
        self.sizes = sizes
        self.offsets = offsets
        self.base = base
        self.singles = int(np.searchsorted(sizes, 2))
        self.nxt = nxt
        self.cnext = cnext
        self.ndx = np.where(succ, nxt, np.int64(n))
        self.has_ptr = has_ptr
        self.interior = interior
        self.heads = heads
        self.tails = tails
        self.last = last
        self.before = before

    def per_size(self, f) -> np.ndarray:
        """``f(size)`` for each list, computed once per distinct size."""
        sizes, first = np.unique(self.sizes, return_index=True)
        return np.repeat(np.array([f(nb) for nb in sizes.tolist()],
                                  dtype=np.int64),
                         np.diff(first, append=self.sizes.size))


def _require_supported(n: int) -> None:
    if n >= ENGINE_LIMIT:
        raise InvalidParameterError(
            f"numpy backend supports n < 2**31, got {n}; "
            f"use backend='reference'"
        )


# ---------------------------------------------------------------------------
# Label iteration.
# ---------------------------------------------------------------------------

def _labels(prep: _Prep, rounds: np.ndarray, kind: str,
            cost: CostModel | None) -> np.ndarray:
    """Per-list f iteration over the arena.

    List ``b`` iterates ``rounds[b]`` rounds, which never fall as the
    lists grow, so the lists still iterating in a round are the
    arena's tail; earlier nodes keep their labels while longer lists
    continue.  With no rounds at all the labels are the local
    addresses; otherwise they are ``int8``, and a zero-round list (a
    singleton) keeps its local address, 0.
    """
    max_rounds = int(rounds.max())
    n = prep.n
    # starts[r - 1]: the first node of the lists that iterate round r.
    starts = prep.offsets[np.searchsorted(
        rounds, np.arange(1, max_rounds + 1))].tolist()
    lo = starts[0] if starts else 0
    base = prep.base
    # Local addresses, in the base's dtype.
    a = np.arange(lo, n, dtype=np.int64 if base is None else base.dtype)
    if base is not None:
        a -= base[lo:]
    if max_rounds == 0:
        return a
    if telemetry_enabled():
        METRICS.counter("engine.f_rounds").inc(max_rounds)
    b = prep.cnext[lo:]  # and the successors'
    if base is not None:
        b = np.subtract(b, base[lo:], dtype=base.dtype)
    bound = int(prep.sizes.max())
    labels = _f_values(a, b, bound, kind)
    del a, b
    if lo:
        labels = np.concatenate([np.zeros(lo, dtype=np.int8), labels])
    if cost is not None:
        cost.parallel(n - lo)
    for r in range(2, max_rounds + 1):
        lo = starts[r - 1]
        labels[lo:] = _f_table_round(labels[lo:], labels[prep.cnext[lo:]],
                                     max_label_after(bound, r - 1), kind)
        if cost is not None:
            cost.parallel(n - lo)
    return labels


def iterate_f(lst: LinkedList, rounds: int, *, kind: str = "msb",
              cost: CostModel | None = None) -> np.ndarray:
    """Vectorized :func:`repro.core.functions.iterate_f` (final labels).

    Bit-identical to the reference for every supported input; the
    per-round invariant re-checks (and the ``return_history`` option)
    stay on the reference tier.
    """
    require(rounds >= 0, f"rounds must be >= 0, got {rounds}")
    if not isinstance(lst, LinkedList):
        lst = LinkedList(lst)
    _require_supported(lst.n)
    if lst.n == 1 or rounds == 0:
        return np.arange(lst.n, dtype=np.int64)
    return _labels(_Prep([lst]), np.array([rounds]), kind,
                   cost).astype(np.int64)


# ---------------------------------------------------------------------------
# Local-minima cut + alternate-pointer walk (Match1 steps 3-4).
# ---------------------------------------------------------------------------

def _cut_and_walk(prep: _Prep, labels: np.ndarray, cost: CostModel | None,
                  max_walk_rounds: int | None = None,
                  ) -> tuple[np.ndarray, CutWalkStats, np.ndarray]:
    """Cut and walk over the arena.

    ``labels`` may be any signed integer dtype with values ``>= 0``
    whose order relation matches the reference labels' — the engine's
    encoded six-set labels (``raw + 1``) qualify.  Returns ``(tails,
    stats, chosen)`` where ``chosen`` is the length ``n + 1`` per-node
    mask (dummy slot false) so callers can verify independence without
    rebuilding it.
    """
    n = prep.n
    nxt = prep.nxt
    lab_next = labels[prep.cnext]
    # v's predecessor's label is larger: scattered along cnext (a
    # head's entry comes from its tail, and interior masks it).
    pred_gt = np.empty(n, dtype=bool)
    pred_gt[prep.cnext] = labels > lab_next
    cut = labels < lab_next
    cut &= pred_gt
    cut &= prep.interior
    del lab_next, pred_gt
    # A singleton holds no pointer: it is charged for neither the cut
    # nor the end repair.
    if cost is not None:
        cost.parallel(n - prep.singles)

    # A pointer is *live* when it survived the cut.  A segment starts
    # at each live head and after each cut pointer, unless a tail
    # follows: strict local minima are never adjacent.  The starts are
    # walked in address order, which keeps the first round's gathers
    # local.
    live = prep.has_ptr & ~cut
    start = np.zeros(n, dtype=bool)
    start[nxt[np.flatnonzero(cut)]] = True
    start[prep.heads] = True
    start &= prep.has_ptr
    starts = np.flatnonzero(start)
    del start
    num_segments = int(starts.size)

    # The walk: each round chooses the current pointers, skips the next
    # live pointer and moves on to the one after it.
    chosen = np.zeros(n + 1, dtype=bool)
    limit = max_walk_rounds if max_walk_rounds is not None else n
    current = starts
    rounds = 0
    while current.size:
        if rounds >= limit:
            raise VerificationError(
                f"sublist walk exceeded {limit} rounds: sublists are not "
                f"constant-length (labels too large?)"
            )
        rounds += 1
        chosen[current] = True
        w1 = nxt[current]
        w2 = nxt[w1[live[w1]]]
        current = w2[live[w2]]
    if cost is not None:
        cost.parallel(num_segments, depth=max(1, rounds))

    # End repair, per list (see core.cutwalk's module docstring): the
    # last pointer joins when neither it nor its predecessor is chosen.
    repair = prep.last[~chosen[prep.last] & ~chosen[prep.before]]
    chosen[repair] = True
    if cost is not None:
        cost.parallel(prep.sizes.size - prep.singles)

    tails = np.flatnonzero(chosen[:n])
    stats = CutWalkStats(
        num_cut=int(np.count_nonzero(cut)),
        num_segments=num_segments,
        walk_rounds=rounds,
        end_repaired=bool(repair.size),
    )
    return tails, stats, chosen


def cut_and_walk(lst: LinkedList, node_labels: np.ndarray, *,
                 cost: CostModel | None = None,
                 max_walk_rounds: int | None = None,
                 ) -> tuple[np.ndarray, CutWalkStats]:
    """Vectorized :func:`repro.core.cutwalk.cut_and_walk` (bit-identical)."""
    labels = np.asarray(node_labels)
    if labels.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"node_labels must be an integer array, got dtype {labels.dtype}"
        )
    n = lst.n
    if labels.size != n:
        raise VerificationError(
            f"node_labels has {labels.size} entries for {n} nodes"
        )
    if n <= 1:
        return np.empty(0, dtype=np.int64), CutWalkStats(0, 0, 0, False)
    if labels.size and int(labels.min()) < 0:
        raise InvalidParameterError("node_labels must be non-negative")
    prep = _Prep([lst])
    if np.any((labels == labels[prep.cnext]) & prep.has_ptr):
        raise VerificationError(
            "node_labels must be distinct on adjacent nodes for the cut"
        )
    tails, stats, _ = _cut_and_walk(
        prep, np.asarray(labels, dtype=np.int64), cost, max_walk_rounds
    )
    return tails, stats


def _check_independent(prep: _Prep, tails: np.ndarray,
                       chosen: np.ndarray) -> None:
    """No chosen pointer is followed by a chosen pointer.

    ``tails`` comes out of ``flatnonzero`` — sorted, unique, in-range
    pointer tails — so only independence needs checking, one gather
    against the walk's own ``chosen`` mask.
    """
    if np.any(chosen[prep.nxt[tails]]):
        raise VerificationError(
            "numpy engine produced adjacent matched pointers"
        )


# ---------------------------------------------------------------------------
# Match1.
# ---------------------------------------------------------------------------

def _unbounded_list(prep: _Prep, labels: np.ndarray) -> int | None:
    """The first list of two or more nodes whose labels are not
    constant-size, else ``None``."""
    maxima = np.maximum.reduceat(labels, prep.offsets[:-1])
    bad = np.flatnonzero((maxima >= _M1_LABEL_BOUND) & (prep.sizes > 1))
    return int(bad[0]) if bad.size else None


def _match1(prep: _Prep, *, p: int, kind: str = "msb",
            rounds: int | None = None, first: int | None = None,
            ) -> tuple[np.ndarray, CostReport, CutWalkStats]:
    """Match1 over the arena: ``(tails, report, cutwalk stats)``.

    Every list iterates ``rounds`` f rounds, ``G`` of its own size by
    default, except a singleton, which iterates none.  In an arena of
    several lists, or in a shard of a batch whose first list is the
    batch's list ``first``, a label-bound failure names its list.
    """
    require(rounds is None or rounds >= 0,
            f"rounds must be >= 0, got {rounds}")
    cost = CostModel(p)
    rpl = (np.full(prep.sizes.size, rounds, dtype=np.int64)
           if rounds is not None else prep.per_size(G))
    rpl[:prep.singles] = 0
    with cost.phase("iterate"):
        labels = _labels(prep, rpl, kind, cost)
    b = _unbounded_list(prep, labels)
    if b is not None:
        o, hi = int(prep.offsets[b]), int(prep.offsets[b + 1])
        name = (f"list {(first or 0) + int(prep.order[b])}: "
                if first is not None or prep.sizes.size > 1 else "")
        raise VerificationError(
            f"{name}labels not constant-size after {int(rpl[b])} rounds "
            f"(max {int(labels[o:hi].max())}); pass more rounds"
        )
    with cost.phase("cutwalk"):
        tails, stats, chosen = _cut_and_walk(prep, labels, cost)
    _check_independent(prep, tails, chosen)
    return tails, cost.report(), stats


def match1(lst: LinkedList, *, p: int = 1, kind: str = "msb",
           rounds: int | None = None,
           ) -> tuple[Matching, CostReport, CutWalkStats]:
    """Algorithm Match1 on the numpy backend.

    Bit-identical tails, stats, and cost report to
    :func:`repro.core.match1.match1` for every supported input.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    if not isinstance(lst, LinkedList):
        lst = LinkedList(lst)
    _require_supported(lst.n)
    tails, report, stats = _match1(_Prep([lst]), p=p, kind=kind,
                                   rounds=rounds)
    return Matching(lst, tails, pre_verified=True), report, stats


# ---------------------------------------------------------------------------
# Match4: block ranks + WalkDown sweeps.
# ---------------------------------------------------------------------------

#: Keys are ``label * 64 + position``: labels and block widths stay
#: below 62 under :data:`ENGINE_LIMIT`, and a padding slot's label, 63,
#: ranks after every real one.
_PAD_LABEL = 63
#: Bytes of the block-rank kernel's comparison temporary per chunk
#: (``x * x`` per block of ``x`` keys).
_RANK_TEMP = 6 << 20


def _rank_blocks(labels8: np.ndarray, x: int) -> np.ndarray:
    """Stable rank of each label within its block of ``x`` consecutive
    labels (``labels8.size`` a multiple of ``x``), in ``labels8``'s
    order.

    The blocks are the columns of one ``x``-row key matrix, ranked a
    chunk at a time: each chunk is one broadcast comparison and one sum.
    """
    blocks = labels8.size // x
    keys = np.empty((x, blocks), dtype=np.int16)
    np.multiply(labels8.reshape(blocks, x).T, 64, out=keys, dtype=np.int16)
    keys += np.arange(x, dtype=np.int16)[:, None]
    rank = np.empty_like(keys, dtype=np.int8)
    w = max(1, _RANK_TEMP // (x * x))
    for j in range(0, blocks, w):
        k = keys[:, j:j + w]
        np.sum(k[None] < k[:, None], axis=1, dtype=np.int8,
               out=rank[:, j:j + w])
    return rank.T.reshape(-1)


def _block_ranks(prep: _Prep, labels8: np.ndarray, xs: np.ndarray,
                 ) -> np.ndarray:
    """Stable rank of each node's label within its address block.

    List ``b`` cuts its nodes into blocks of ``xs[b]`` consecutive
    addresses.  The rank equals the row the reference layout's stable
    per-column counting sort assigns: the number of (label, position)
    keys in the block that are smaller.  Consecutive lists of one width
    (in a size-sorted arena, a width class) are ranked together as an
    arena slice: their full blocks as one matrix, and their partial
    last blocks, padded with keys that rank last, as one small matrix.
    Where only the slice's last list ends in a partial block, the full
    blocks are the slice's head and need no mask.
    """
    rank = np.empty(prep.n, dtype=np.int8)
    runs = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    for j0, j1 in zip([0, *runs.tolist()], [*runs.tolist(), xs.size]):
        x = int(xs[j0])
        lo, hi = int(prep.offsets[j0]), int(prep.offsets[j1])
        sizes = prep.sizes[j0:j1]
        part = sizes % x
        labs, out = labels8[lo:hi], rank[lo:hi]
        if part[:-1].any():
            full = np.repeat(np.tile([True, False], sizes.size),
                             np.stack([sizes - part, part], axis=1).ravel())
            tail = ~full
        else:
            full = slice(0, hi - lo - int(part[-1]))
            tail = slice(full.stop, hi - lo)
        out[full] = _rank_blocks(labs[full], x)
        part = part[part > 0]
        if part.size:
            # Node -> slot of the padded matrix: row r holds the r-th
            # partial block from its first column.
            slot = np.arange(int(part.sum()), dtype=np.int64)
            slot += np.repeat(np.arange(part.size) * x - (np.cumsum(part)
                                                          - part), part)
            padded = np.full(part.size * x, _PAD_LABEL, dtype=np.int8)
            padded[slot] = labs[tail]
            out[tail] = _rank_blocks(padded, x)[slot]
    return rank


_MEX_TABLES: tuple[np.ndarray, np.ndarray] | None = None


def _mex_tables() -> tuple[np.ndarray, np.ndarray]:
    """49-entry greedy-3-labeling tables over *encoded* neighbor labels.

    Encoding: ``0`` = no/unprocessed neighbor, else ``raw label + 1``.
    Entry ``e1 * 7 + e2`` is the encoded ``_mex3`` choice — built from
    the reference ``_mex3`` so the greedy decisions agree exactly.
    """
    global _MEX_TABLES
    if _MEX_TABLES is None:
        from ..core.walkdown import _mex3

        e1 = np.repeat(np.arange(7, dtype=np.int64), 7) - 1
        e2 = np.tile(np.arange(7, dtype=np.int64), 7) - 1
        mexi = (_mex3(0, e1, e2) + 1).astype(np.int8)
        mexa = (_mex3(3, e1, e2) + 1).astype(np.int8)
        tables = (mexi, mexa)
        for t in tables:
            t.setflags(write=False)
        _MEX_TABLES = tables
    return _MEX_TABLES


def _sweep(prep: _Prep, labels8: np.ndarray, row: np.ndarray,
           intra: np.ndarray, max_x: int) -> tuple[np.ndarray, int, int]:
    """Both WalkDown sweeps: encoded six-set labels per node.

    Returns ``(labels6_encoded, max_inter_step, max_intra_step)`` with
    the max steps ``-1`` when the class is empty.  The combined key —
    ``row`` for inter-row pointers, ``max_x + label + row`` for
    intra-row ones, below 255 since ``max_x <= 62`` — preserves the
    reference schedule: all inter-row steps of a list precede all its
    intra-row steps (``row < x <= max_x``), and steps ascend within
    each class in lockstep across lists, which is safe because no
    neighbor crosses a list boundary.  Within a step, pointers are
    endpoint-disjoint (Lemma 7): each reads its right neighbor's label
    from the output and its left one from ``cl7``, where the left
    neighbor pushed it, and every read precedes the step's writes.
    """
    n = prep.n
    sk = labels8.view(np.uint8) + np.uint8(max_x)
    sk *= intra.view(np.uint8)
    sk += row.view(np.uint8)
    sk[prep.tails] = np.uint8(255)
    counts = np.bincount(sk, minlength=256)[:3 * max_x]
    order = np.argsort(sk, kind="stable")
    del sk
    bounds = np.zeros(3 * max_x + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    steps = np.flatnonzero(counts).tolist()
    inter = [s for s in steps if s < max_x]
    max_inter = inter[-1] if inter else -1
    max_intra = steps[-1] - max_x if len(steps) > len(inter) else -1
    tt = order[:int(bounds[-1])]
    right = prep.ndx[tt]
    mexi, mexa = _mex_tables()
    cl7 = np.zeros(n + 1, dtype=np.int8)   # 7 * encoded left-neighbor label
    l6 = np.zeros(n + 1, dtype=np.int8)    # encoded output; slot n stays 0
    bounds = bounds.tolist()
    for s in steps:
        lo = bounds[s]
        hi = bounds[s + 1]
        g = tt[lo:hi]
        r = right[lo:hi]
        idx = cl7[g]
        idx += l6[r]
        lab = (mexi if s < max_x else mexa)[idx]
        l6[g] = lab
        lab *= np.int8(7)
        cl7[r] = lab
    return l6[:n], max_inter, max_intra


def _match4_widths(prep: _Prep, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-list block width ``x`` and block count ``y``."""
    xs = prep.per_size(
        lambda nb: max(2, max_label_after(nb, i)) if nb > 1 else 1)
    return xs, (prep.sizes + xs - 1) // xs


def _six_set(prep: _Prep, i: int, kind: str, cost: CostModel,
             ) -> tuple[np.ndarray, int]:
    """Match4 steps 1-4 over the arena: ``(labels6_encoded, num_intra)``;
    charges the partition, sort and both WalkDown phases."""
    xs, ys = _match4_widths(prep, i)
    x = int(xs.max())
    width = int(ys[prep.sizes >= 2].sum())
    with cost.phase("partition"):
        # Only an all-singleton arena iterates no round: its local
        # addresses are zeros.
        labels = _labels(prep, np.where(prep.sizes >= 2, i, 0), kind,
                         cost).astype(np.int8, copy=False)
    with cost.phase("sort"):
        row = _block_ranks(prep, labels, xs)
        cost.parallel(width, depth=x)
    intra = row == row[prep.cnext]
    intra &= prep.has_ptr
    num_intra = int(np.count_nonzero(intra))
    with telemetry_span("engine.sweep", n=prep.n, x=x,
                        y=int(ys.sum())) as sp:
        rt = _resources.phase_begin("engine.sweep")
        try:
            l6e, max_inter, max_intra = _sweep(prep, labels, row, intra, x)
        finally:
            if rt is not None:
                _resources.phase_end(rt, None, sp)
        sp.set(max_inter=max_inter, max_intra=max_intra)
    with cost.phase("walkdown1"):
        if prep.n - prep.sizes.size - num_intra:
            cost.parallel(width, depth=max(1, max_inter + 1))
    with cost.phase("walkdown2"):
        if num_intra:
            cost.parallel(width, depth=max(1, max_intra + 1))
    return l6e, num_intra


def _check_six_set(prep: _Prep, labels6: np.ndarray) -> None:
    """``check=True`` invariants: six-set partition per list."""
    from ..core.partition import verify_matching_partition

    for b, lst in enumerate(prep.lists):
        o = int(prep.offsets[b])
        raw = labels6[o:o + lst.n].astype(np.int64) - 1
        verify_matching_partition(lst, raw)


def _check_match4_options(iterations: int, strategy: str,
                          step1_table) -> None:
    """Reject the Match4 options the numpy backend does not implement."""
    require(iterations >= 1, f"i must be >= 1, got {iterations}")
    if strategy != "iterate":
        raise InvalidParameterError(
            f"numpy backend implements strategy='iterate' only, got "
            f"{strategy!r}; use backend='reference' for the table strategy"
        )
    if step1_table is not None:
        raise InvalidParameterError(
            "step1_table belongs to the 'table' strategy; the numpy "
            "backend takes neither"
        )


def _match4(prep: _Prep, *, p: int, iterations: int = 2, kind: str = "msb",
            strategy: str = "iterate", memory_limit: int = 1 << 24,
            step1_table=None, check: bool = False,
            ) -> tuple[np.ndarray, CostReport, CutWalkStats, int]:
    """Match4 over the arena, with :func:`match4`'s options: ``(tails,
    report, cutwalk stats, num_intra)``."""
    _check_match4_options(iterations, strategy, step1_table)
    cost = CostModel(p)
    if prep.singles == prep.sizes.size:
        # No list holds a pointer, and the reference opens no phase.
        return (np.empty(0, dtype=np.int64), cost.report(),
                CutWalkStats(0, 0, 0, False), 0)
    l6e, num_intra = _six_set(prep, iterations, kind, cost)
    if check:
        _check_six_set(prep, l6e)
    with cost.phase("cutwalk"):
        tails, cw, chosen = _cut_and_walk(prep, l6e, cost)
    _check_independent(prep, tails, chosen)
    return tails, cost.report(), cw, num_intra


def match4(lst: LinkedList, *, p: int = 1, iterations: int = 2,
           kind: str = "msb", strategy: str = "iterate",
           memory_limit: int = 1 << 24, step1_table=None,
           check: bool = False,
           ) -> tuple[Matching, CostReport, Match4Stats]:
    """Algorithm Match4 on the numpy backend (``strategy="iterate"``).

    Bit-identical tails, stats, and cost report to
    :func:`repro.core.match4.match4` for every supported input.  Unlike
    the reference, ``check`` defaults to ``False``: the engine verifies
    matching independence inline for free, and ``check=True`` adds the
    full six-set partition verification.  The ``"table"`` step-1
    strategy stays reference-only; its ``memory_limit`` is accepted for
    signature parity.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
    if not isinstance(lst, LinkedList):
        lst = LinkedList(lst)
    n = lst.n
    _require_supported(n)
    i = iterations
    tails, report, cw, num_intra = _match4(
        _Prep([lst]), p=p, iterations=i, kind=kind, strategy=strategy,
        step1_table=step1_table, check=check,
    )
    x = max(2, max_label_after(n, i)) if n > 1 else 1
    stats = Match4Stats(
        i=i, strategy=strategy, x=x, y=ceil_div(n, x),
        num_inter=(n - 1) - num_intra, num_intra=num_intra, cutwalk=cw,
    )
    return Matching(lst, tails, pre_verified=True), report, stats
