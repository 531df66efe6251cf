"""The ``"numpy"`` backend engine: whole-array kernels for Han's rounds.

Every PRAM round of the paper's algorithms applies one local rule to
all ``n`` pointers; this module executes each such round as one batch
of vectorized array operations over an *arena*: one list, or many laid
end to end (:mod:`repro.backends.batch`).  A list is an arena of one,
and the same kernels serve both:

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

from collections import OrderedDict
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


def _f_table_round(labels8: np.ndarray, cnext: np.ndarray, m: int,
                   kind: str) -> np.ndarray:
    """One ``f`` round on small labels (``< m``) via the pair table."""
    ft = pair_label_table(kind, m)
    b8 = labels8[cnext]
    idx = labels8.astype(np.int64)
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

    List ``b`` holds the addresses ``offsets[b] .. offsets[b+1]-1``; a
    single list is an arena of one.  Every entry is a pure function of
    the lists' immutable ``NEXT`` arrays.  Slot ``n``, one past the
    arena, is the dummy neighbor: ``ndx`` names it where the successor
    holds no pointer, and masks of length ``n + 1`` keep it false.
    """

    __slots__ = ("lists", "n", "sizes", "offsets", "nxt", "cnext", "ndx",
                 "has_ptr", "interior", "heads", "tails", "last", "before",
                 "derived")

    def __init__(self, lists: Sequence[LinkedList]) -> None:
        sizes = np.array([lst.n for lst in lists], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        n = int(offsets[-1])
        heads = offsets[:-1] + [lst.head for lst in lists]
        if len(lists) == 1:
            nxt = lists[0].next
        else:
            nxt = np.concatenate([lst.next for lst in lists])
            ends = nxt == NIL
            nxt += np.repeat(offsets[:-1], sizes)
            nxt[ends] = NIL
        has_ptr = nxt != NIL
        tails = np.flatnonzero(~has_ptr)  # one per list, in list order
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
        self.n = n
        self.sizes = sizes
        self.offsets = offsets
        self.nxt = nxt
        self.cnext = cnext
        self.ndx = np.where(succ, nxt, np.int64(n))
        self.has_ptr = has_ptr
        self.interior = interior
        self.heads = heads
        self.tails = tails
        self.last = last
        self.before = before
        # Memoized stages (labels, six-set labels) keyed by the
        # parameters they are pure functions of.  Cost charges are
        # replayed on a hit, so CostReports are unaffected.
        self.derived: dict[tuple, tuple] = {}

    def local(self) -> np.ndarray:
        """Each node's address within its own list."""
        addr = np.arange(self.n, dtype=np.int64)
        if self.sizes.size > 1:
            addr -= np.repeat(self.offsets[:-1], self.sizes)
        return addr


_PREP_CACHE: OrderedDict[int, _Prep] = OrderedDict()
_PREP_CACHE_SIZE = 8


def _prep_for(lst: LinkedList) -> _Prep:
    key = id(lst)
    prep = _PREP_CACHE.get(key)
    if prep is not None and prep.lists[0] is lst:
        _PREP_CACHE.move_to_end(key)
        return prep
    prep = _Prep([lst])
    _PREP_CACHE[key] = prep
    while len(_PREP_CACHE) > _PREP_CACHE_SIZE:
        _PREP_CACHE.popitem(last=False)
    return prep


def _remember(prep: _Prep, key: tuple, value: tuple) -> None:
    """Insert into the prep's derived-stage memo, bounded."""
    if len(prep.derived) >= 16:
        prep.derived.clear()
    prep.derived[key] = value


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

    List ``b`` iterates ``rounds[b]`` rounds; its nodes freeze afterwards
    while longer lists continue.  With no rounds at all the labels are
    the local addresses; otherwise they are ``int8``, and a zero-round
    list (a singleton) keeps its local address, 0.
    """
    max_rounds = int(rounds.max())
    a = prep.local()
    if max_rounds == 0:
        return a
    if telemetry_enabled():
        METRICS.counter("engine.f_rounds").inc(max_rounds)
    bound = int(prep.sizes.max())
    b = prep.cnext
    if prep.sizes.size > 1:  # the successor's local address
        b = b - (np.arange(prep.n, dtype=np.int64) - a)
    labels = _f_values(a, b, bound, kind)
    del a, b
    mixed = bool((rounds != max_rounds).any())
    needed = np.repeat(rounds, prep.sizes) if mixed else None
    if mixed:
        labels[needed < 1] = 0
    if cost is not None:
        cost.parallel(int(prep.sizes[rounds >= 1].sum()))
    for r in range(2, max_rounds + 1):
        new = _f_table_round(labels, prep.cnext,
                             max_label_after(bound, r - 1), kind)
        labels = np.where(needed >= r, new, labels) if mixed else new
        if cost is not None:
            cost.parallel(int(prep.sizes[rounds >= r].sum()))
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
    prep = _prep_for(lst)
    return _labels(prep, np.array([rounds]), kind, cost).astype(np.int64)


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
    if cost is not None:
        cost.parallel(n)

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
        if prep.sizes.size == 1:
            cost.sequential(1)
        else:
            cost.parallel(int(prep.sizes.size))

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
    prep = _prep_for(lst)
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

def _match1_labels(prep: _Prep, rounds: np.ndarray, kind: str,
                   cost: CostModel, memo: bool = False) -> np.ndarray:
    """Match1 steps 1-2 over the arena: ``rounds[b]`` f rounds for list
    ``b``, memoized per list when ``memo``."""
    dkey = ("m1", kind, int(rounds[0]))
    hit = prep.derived.get(dkey) if memo else None
    if hit is None:
        labels = _labels(prep, rounds, kind, cost)
        if memo and int(rounds[0]):
            _remember(prep, dkey, (labels,))
        return labels
    for _ in range(int(rounds[0])):
        cost.parallel(prep.n)
    return hit[0]


def _unbounded_list(prep: _Prep, labels: np.ndarray) -> int | None:
    """The first list of two or more nodes whose labels are not
    constant-size, else ``None``."""
    maxima = np.maximum.reduceat(labels, prep.offsets[:-1])
    bad = np.flatnonzero((maxima >= _M1_LABEL_BOUND) & (prep.sizes > 1))
    return int(bad[0]) if bad.size else None


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
    n = lst.n
    _require_supported(n)
    if rounds is None:
        rounds = G(n)
    require(rounds >= 0, f"rounds must be >= 0, got {rounds}")
    cost = CostModel(p)
    if n == 1:
        with cost.phase("iterate"):
            pass
        with cost.phase("cutwalk"):
            pass
        return (Matching(lst, np.empty(0, dtype=np.int64), pre_verified=True),
                cost.report(), CutWalkStats(0, 0, 0, False))
    prep = _prep_for(lst)
    with cost.phase("iterate"):
        labels = _match1_labels(prep, np.array([rounds]), kind, cost,
                                memo=True)
    if _unbounded_list(prep, labels) is not None:
        raise VerificationError(
            f"labels not constant-size after {rounds} rounds "
            f"(max {int(labels.max())}); pass more rounds"
        )
    with cost.phase("cutwalk"):
        tails, stats, chosen = _cut_and_walk(prep, labels, cost)
    _check_independent(prep, tails, chosen)
    return Matching(lst, tails, pre_verified=True), cost.report(), stats


# ---------------------------------------------------------------------------
# Match4: block ranks + WalkDown sweeps.
# ---------------------------------------------------------------------------

#: Keys are ``label * 64 + position``: labels and block widths stay
#: below 62 under :data:`ENGINE_LIMIT`, and a padding slot's label, 63,
#: ranks after every real one.
_PAD_KEY = 63 * 64
#: Bytes of the block-rank kernel's comparison temporary per chunk
#: (``x * x`` per block of ``x`` keys).
_RANK_TEMP = 6 << 20


def _block_ranks(prep: _Prep, labels8: np.ndarray, xs: np.ndarray,
                 ) -> np.ndarray:
    """Stable rank of each node's label within its address block.

    List ``b`` cuts its nodes into blocks of ``xs[b]`` consecutive
    addresses.  The rank equals the row the reference layout's stable
    per-column counting sort assigns: the number of (label, position)
    keys in the block that are smaller.  Every block is padded to the
    widest ``x`` with keys that rank last, and the blocks are ranked as
    the columns of one ``x``-row matrix, a chunk at a time: each chunk
    is one broadcast comparison and one sum.
    """
    n = prep.n
    x = int(xs.max())
    ys = (prep.sizes + xs - 1) // xs
    keys = np.full((int(ys.sum()), x), _PAD_KEY, dtype=np.int16)
    slots = None
    if prep.sizes.size == 1:
        np.multiply(labels8, 64, out=keys.reshape(-1)[:n], dtype=np.int16)
    else:
        # Node -> slot: list b's blocks start at row sum(ys[:b]).
        slots, col = np.divmod(prep.local(), np.repeat(xs, prep.sizes))
        slots += np.repeat(np.cumsum(ys) - ys, prep.sizes)
        slots *= x
        slots += col
        keys.reshape(-1)[slots] = labels8.astype(np.int16) * np.int16(64)
    keys += np.arange(x, dtype=np.int16)
    keys = keys.T.copy()
    rank = np.empty_like(keys, dtype=np.int8)
    w = max(1, _RANK_TEMP // (x * x))
    for j in range(0, keys.shape[1], w):
        k = keys[:, j:j + w]
        np.sum(k[None] < k[:, None], axis=1, dtype=np.int8,
               out=rank[:, j:j + w])
    rank = rank.T.reshape(-1)
    return rank[:n] if slots is None else rank[slots]


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
    xs = np.array([max(2, max_label_after(int(nb), i)) if nb > 1 else 1
                   for nb in prep.sizes.tolist()], dtype=np.int64)
    return xs, (prep.sizes + xs - 1) // xs


def _six_set(prep: _Prep, i: int, kind: str, cost: CostModel,
             memo: bool = False) -> tuple[np.ndarray, int, int, int]:
    """Match4 steps 1-4 over the arena: ``(labels6_encoded, num_intra,
    max_inter_step, max_intra_step)``, memoized per list when ``memo``;
    charges the partition, sort and both WalkDown phases."""
    xs, ys = _match4_widths(prep, i)
    x = int(xs.max())
    width = int(ys[prep.sizes >= 2].sum())
    dkey = ("m4", kind, i)
    hit = prep.derived.get(dkey) if memo else None
    if hit is None:
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
                l6e, max_inter, max_intra = _sweep(prep, labels, row,
                                                   intra, x)
            finally:
                if rt is not None:
                    _resources.phase_end(rt, None, sp)
            sp.set(max_inter=max_inter, max_intra=max_intra)
        hit = (l6e, num_intra, max_inter, max_intra)
        if memo:
            _remember(prep, dkey, hit)
    else:
        with cost.phase("partition"):
            for _ in range(i):
                cost.parallel(prep.n)
        with cost.phase("sort"):
            cost.parallel(width, depth=x)
    _, num_intra, max_inter, max_intra = hit
    with cost.phase("walkdown1"):
        if prep.n - prep.sizes.size - num_intra:
            cost.parallel(width, depth=max(1, max_inter + 1))
    with cost.phase("walkdown2"):
        if num_intra:
            cost.parallel(width, depth=max(1, max_intra + 1))
    return hit


def _check_six_set(prep: _Prep, labels6: np.ndarray) -> None:
    """``check=True`` invariants: six-set partition per list."""
    from ..core.partition import verify_matching_partition

    for b, lst in enumerate(prep.lists):
        o = int(prep.offsets[b])
        raw = labels6[o:o + lst.n].astype(np.int64) - 1
        verify_matching_partition(lst, raw)


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
    strategy stays reference-only.
    """
    require(p >= 1, f"p must be >= 1, got {p}")
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
    _ = memory_limit  # table-strategy budget; accepted for signature parity
    if not isinstance(lst, LinkedList):
        lst = LinkedList(lst)
    n = lst.n
    _require_supported(n)
    i = iterations
    cost = CostModel(p)
    if n == 1:
        return (
            Matching(lst, np.empty(0, dtype=np.int64), pre_verified=True),
            cost.report(),
            Match4Stats(i, strategy, 1, 1, 0, 0, CutWalkStats(0, 0, 0, False)),
        )
    prep = _prep_for(lst)
    l6e, num_intra, _, _ = _six_set(prep, i, kind, cost, memo=True)
    if check:
        _check_six_set(prep, l6e)
    with cost.phase("cutwalk"):
        tails, cw, chosen = _cut_and_walk(prep, l6e, cost)
    _check_independent(prep, tails, chosen)
    x = max(2, max_label_after(n, i))
    stats = Match4Stats(
        i=i, strategy=strategy, x=x, y=ceil_div(n, x),
        num_inter=(n - 1) - num_intra, num_intra=num_intra, cutwalk=cw,
    )
    return Matching(lst, tails, pre_verified=True), cost.report(), stats
