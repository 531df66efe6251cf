"""The ``"numpy"`` backend engine: whole-array kernels for Han's rounds.

Every PRAM round of the paper's algorithms applies one local rule to
all ``n`` pointers; this module executes each such round as one batch
of vectorized array operations:

- an ``f`` round is ``XOR`` + one bit-length table gather
  (:mod:`repro.bits.bitlen_tables`) + one comparison — or, once labels
  are small, a single gather into a cached pair table ``FT[a, b]``;
- Match4's per-column counting sorts become a block-structured
  counting rank (one ``bincount`` + per-position scatters);
- the WalkDown sweeps become one radix sort of a combined
  (class, step) key followed by per-step gather/scatter rounds over
  *push* arrays holding each pointer's already-labeled neighbors;
- the local-minima cut and the alternate-pointer walk are the same
  gather/scatter loops the reference tier runs, over cached
  predecessor/successor index arrays.

Bit-identity and cost parity are the contract: for every supported
input the engine produces exactly the tails, stats, and Brent
:class:`~repro.pram.cost.CostReport` of the reference implementations
(the equivalence test suite and the selfcheck enforce this).  The
reference tier stays the oracle; this tier is how the hot path runs at
hardware speed.

Internal index arrays use ``int64`` (numpy gathers take a fast path
for native ``intp`` indices) while label/row payloads use ``int8`` so
the per-round working set stays cache-resident.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .._util import ceil_div, require
from ..bits.bitlen_tables import LSB16, TWO_MSB16, pair_label_table
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
    "walk_segments",
    "cut_and_walk",
    "match1",
    "match4",
]

#: Exclusive bound on list sizes (and ``f`` inputs) the engine accepts;
#: the two-level 16-bit tables cover values below ``2**32`` and ``2**31``
#: keeps every intermediate in ``int64`` with headroom.  The reference
#: backend remains available beyond it.
ENGINE_LIMIT = 1 << 31

_MASK16 = np.int64(0xFFFF)


# ---------------------------------------------------------------------------
# f rounds on raw value arrays.
# ---------------------------------------------------------------------------

def _f_values(a: np.ndarray, b: np.ndarray, bound: int, kind: str) -> np.ndarray:
    """One ``f`` round on value arrays ``< bound``, as ``int8`` labels.

    No domain validation — internal fast path; callers guarantee
    ``a != b`` elementwise and ``0 <= a, b < bound <= 2**31``.
    """
    xv = a ^ b
    if kind == "msb":
        if bound <= (1 << 16):
            k2 = TWO_MSB16[xv]
        else:
            hi = xv >> 16
            k2 = np.where(hi != 0, TWO_MSB16[hi] + np.int8(32),
                          TWO_MSB16[xv & _MASK16])
        # k = msb(a ^ b): a and b agree above bit k, so a_k = (a > b).
        return k2 + (a > b)
    iso = xv & -xv
    if bound <= (1 << 16):
        k = LSB16[iso]
    else:
        lo = iso & _MASK16
        k = np.where(lo != 0, LSB16[lo], LSB16[iso >> 16] + np.int8(16))
    bit = (a >> k.astype(np.int64)) & 1
    return (2 * k + bit.astype(np.int8)).astype(np.int8)


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
    """Table-driven :func:`repro.core.functions.f_msb` (bit-identical)."""
    a, b, bound = _validate_f_args(a, b)
    return _f_values(a, b, bound, "msb").astype(np.int64)


def f_lsb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table-driven :func:`repro.core.functions.f_lsb` (bit-identical)."""
    a, b, bound = _validate_f_args(a, b)
    return _f_values(a, b, bound, "lsb").astype(np.int64)


# ---------------------------------------------------------------------------
# Cached per-list derived arrays.
# ---------------------------------------------------------------------------

class _ListPrep:
    """Derived index arrays of one list, shared across engine calls.

    Mirrors (and extends) the lazy caches on :class:`LinkedList` itself
    (``pred``, ``order``): all entries are pure functions of the
    immutable ``NEXT`` array.
    """

    __slots__ = ("lst", "n", "tailnodes", "nxt", "cnext", "pdx", "ndx",
                 "has_ptr", "interior", "addr", "xor1", "gt1", "xcache",
                 "derived")

    def __init__(self, lst: LinkedList) -> None:
        n = lst.n
        nxt = lst.next
        pred = lst.pred
        cnext = lst.circular_next()
        has_ptr = nxt != NIL
        self.lst = lst
        self.n = n
        self.tailnodes = np.array([lst.tail], dtype=np.int64)
        self.nxt = nxt
        self.cnext = cnext
        # Dummy slot n absorbs pushes/reads across missing neighbors.
        self.pdx = np.where(pred == NIL, np.int64(n), pred)
        self.ndx = np.where(has_ptr & has_ptr[cnext], cnext, np.int64(n))
        self.has_ptr = has_ptr
        self.interior = has_ptr & (pred != NIL)
        self.addr = np.arange(n, dtype=np.int64)
        # Round 1 of f always XORs each address with its successor's:
        # both operands are list constants, so the XOR (and the a > b
        # bit selector) are cached too.
        self.xor1 = self.addr ^ cnext
        self.gt1 = self.addr > cnext
        self.xcache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Memoized preprocessing stages (labels, ranks, classification),
        # keyed by the parameters they are pure functions of.  Cost
        # charges are replayed on a hit, so CostReports are unaffected.
        self.derived: dict[tuple, tuple] = {}


_PREP_CACHE: OrderedDict[int, _ListPrep] = OrderedDict()
_PREP_CACHE_SIZE = 8


def _prep_for(lst: LinkedList) -> _ListPrep:
    key = id(lst)
    prep = _PREP_CACHE.get(key)
    if prep is not None and prep.lst is lst:
        _PREP_CACHE.move_to_end(key)
        return prep
    prep = _ListPrep(lst)
    _PREP_CACHE[key] = prep
    while len(_PREP_CACHE) > _PREP_CACHE_SIZE:
        _PREP_CACHE.popitem(last=False)
    return prep


def _remember(prep: _ListPrep, key: tuple, value: tuple) -> None:
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

def _iterate_labels(prep: _ListPrep, rounds: int, kind: str,
                    cost: CostModel | None) -> np.ndarray:
    """``rounds`` f-rounds from addresses; ``int8`` labels (``rounds >= 1``)."""
    n = prep.n
    if telemetry_enabled():
        METRICS.counter("engine.f_rounds").inc(rounds)
    if kind == "msb" and n <= (1 << 16):
        labels = TWO_MSB16[prep.xor1] + prep.gt1
    else:
        labels = _f_values(prep.addr, prep.cnext, n, kind)
    if cost is not None:
        cost.parallel(n)
    for r in range(2, rounds + 1):
        labels = _f_table_round(labels, prep.cnext, max_label_after(n, r - 1),
                                kind)
        if cost is not None:
            cost.parallel(n)
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
    return _iterate_labels(prep, rounds, kind, cost).astype(np.int64)


# ---------------------------------------------------------------------------
# Local-minima cut + alternate-pointer walk (Match1 steps 3-4).
# ---------------------------------------------------------------------------

def walk_segments(nxt: np.ndarray, live: np.ndarray, starts: np.ndarray,
                  limit: int) -> tuple[np.ndarray, int]:
    """Walk alternate pointers through the live segments from ``starts``.

    The kernel of Match1 step 4: each start is the first live pointer of
    one cut segment; the walk chooses it, skips the next live pointer,
    and repeats until the segment ends.  Segments never interact — the
    cut guarantees a chosen pointer's neighbors are dead or skipped.

    Parameters are plain arrays (no prep struct): ``nxt`` the NEXT
    array, ``live`` the length-``n`` survived-the-cut mask, ``starts``
    the segment-start addresses to walk, ``limit`` the round bound.

    Returns ``(chosen, rounds)``: the ascending addresses of the chosen
    pointers and the number of lockstep rounds the walk took (the
    maximum over the walked segments).
    """
    chosen = np.zeros(live.size, dtype=bool)
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
    return np.flatnonzero(chosen), rounds


def _cut_and_walk_flat(prep, labels: np.ndarray, cost: CostModel | None,
                       max_walk_rounds: int | None = None,
                       ) -> tuple[np.ndarray, CutWalkStats, np.ndarray]:
    """Shared cut+walk kernel over a prep struct (single list or batch).

    ``labels`` may be any signed integer dtype with values ``>= 0``
    (``-1`` serves as the absent-neighbor sentinel) whose order relation
    matches the reference labels' — the engine's encoded six-set labels
    (``raw + 1``) qualify.  Returns ``(tails, stats, chosen)`` where
    ``chosen`` is the length ``n + 1`` per-node mask (dummy slot false)
    so callers can verify independence without rebuilding it.
    """
    n = prep.n
    nxt = prep.nxt
    lab_next = labels[prep.cnext]
    lext = np.empty(n + 1, dtype=labels.dtype)
    lext[:n] = labels
    lext[n] = -1
    lab_prev = lext[prep.pdx]
    cut = (lab_prev > labels) & (labels < lab_next) & prep.interior
    if cost is not None:
        cost.parallel(n)

    # A pointer is *live* when it survived the cut; liveext's dummy slot
    # makes pred/next probes branch-free.
    liveext = np.zeros(n + 1, dtype=bool)
    np.logical_and(prep.has_ptr, ~cut, out=liveext[:n])
    live = liveext[:n]
    # Segment starts: live pointers not preceded by a live pointer.
    current = np.flatnonzero(live & ~liveext[prep.pdx])
    num_segments = int(current.size)

    chosen = np.zeros(n + 1, dtype=bool)
    limit = max_walk_rounds if max_walk_rounds is not None else n
    idx, rounds = walk_segments(nxt, live, current, limit)
    chosen[idx] = True
    if cost is not None:
        cost.parallel(num_segments, depth=max(1, rounds))

    # End repair, per list (see core.cutwalk's module docstring).
    lp = prep.pdx[prep.tailnodes]
    lp = lp[lp != n]
    lp = lp[~chosen[lp]]
    repair = lp[~chosen[prep.pdx[lp]]]
    chosen[repair] = True
    end_repaired = bool(repair.size)
    if cost is not None:
        if prep.tailnodes.size == 1:
            cost.sequential(1)
        else:
            cost.parallel(int(prep.tailnodes.size))

    tails = np.flatnonzero(chosen[:n])
    stats = CutWalkStats(
        num_cut=int(np.count_nonzero(cut)),
        num_segments=num_segments,
        walk_rounds=rounds,
        end_repaired=end_repaired,
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
    if np.any(labels == labels[prep.cnext]):
        raise VerificationError(
            "node_labels must be distinct on adjacent nodes for the cut"
        )
    tails, stats, _ = _cut_and_walk_flat(
        prep, np.asarray(labels, dtype=np.int64), cost, max_walk_rounds
    )
    return tails, stats


def _fast_matching(lst: LinkedList, prep, tails: np.ndarray,
                   chosen: np.ndarray) -> Matching:
    """Construct a verified :class:`Matching` from engine tails.

    ``tails`` comes out of ``flatnonzero`` — sorted, unique, in-range
    pointer tails — so only independence needs checking, one gather
    against the walk's own ``chosen`` mask.
    """
    if np.any(chosen[prep.pdx[tails]]):
        raise VerificationError(
            "numpy engine produced adjacent matched pointers"
        )
    return Matching(lst, tails, pre_verified=True)


# ---------------------------------------------------------------------------
# Match1.
# ---------------------------------------------------------------------------

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
        if rounds:
            dkey = ("m1", kind, rounds)
            hit = prep.derived.get(dkey)
            if hit is None:
                labels = _iterate_labels(prep, rounds, kind, cost)
                _remember(prep, dkey, (labels,))
            else:
                labels = hit[0]
                for _ in range(rounds):
                    cost.parallel(n)
        else:
            labels = prep.addr
    max_label = int(labels.max())
    if max_label >= max(CONSTANT_LABEL_BOUND, 2 * CONSTANT_LABEL_BOUND):
        raise VerificationError(
            f"labels not constant-size after {rounds} rounds "
            f"(max {max_label}); pass more rounds"
        )
    with cost.phase("cutwalk"):
        tails, stats, chosen = _cut_and_walk_flat(prep, labels, cost)
    return _fast_matching(lst, prep, tails, chosen), cost.report(), stats


# ---------------------------------------------------------------------------
# Match4: block counting ranks + WalkDown sweeps.
# ---------------------------------------------------------------------------

def _block_ranks(prep, labels8: np.ndarray, x: int) -> np.ndarray:
    """Stable rank of each node's label within its address block.

    Equals the row assigned by the reference layout's stable per-column
    counting sort: rank = (#smaller labels in block) + (#equal labels at
    earlier in-block positions).  One bincount builds the per-(block,
    label) start offsets; ``x`` scatter rounds place the positions.
    """
    n = prep.n
    nb = ceil_div(n, x)
    cached = prep.xcache.get(x)
    if cached is None:
        base = (prep.addr // x) * (x + 1)
        bb = np.arange(nb, dtype=np.int64) * (x + 1)
        prep.xcache[x] = cached = (base, bb)
    base, bb = cached
    counts = np.bincount(base + labels8, minlength=nb * (x + 1))
    # Per-block exclusive prefix via one contiguous cumsum: the global
    # exclusive prefix minus each block's start (column x + 1 of each
    # block is an always-empty separator, so blocks never bleed).
    rf = np.empty(nb * (x + 1), dtype=np.int64)
    rf[0] = 0
    np.cumsum(counts[:-1], out=rf[1:])
    starts = rf[:: x + 1].copy()
    rf.reshape(nb, x + 1)[:, :] -= starts[:, None]
    row = np.empty(n, dtype=np.int8)
    for pos in range(x):
        labp = labels8[pos::x]
        if labp.size == 0:
            break
        idx = bb[:labp.size] + labp
        r = rf[idx]
        row[pos::x] = r
        rf[idx] = r + 1
    return row


_MEX_TABLES: tuple[np.ndarray, ...] | None = None


def _mex_tables() -> tuple[np.ndarray, ...]:
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
        tables = (mexi, (mexi * np.int8(7)), mexa, (mexa * np.int8(7)))
        for t in tables:
            t.setflags(write=False)
        _MEX_TABLES = tables
    return _MEX_TABLES


def _sweep_labels6(prep, labels8, row, intra, max_x,
                   num_lists: int = 1,
                   ) -> tuple[np.ndarray, int, int]:
    """Both WalkDown sweeps: encoded six-set labels per node.

    Returns ``(labels6_encoded, max_inter_step, max_intra_step)`` with
    the max steps ``-1`` when the class is empty.  The combined key —
    ``row`` for inter-row pointers, ``max_x + label + row`` for
    intra-row ones — preserves the reference schedule: all inter-row
    steps of a list precede all its intra-row steps (``row < x <=
    max_x``), and steps ascend within each class in lockstep across
    lists, which is safe because pushes never cross list boundaries.
    """
    n = prep.n
    if 3 * max_x - 2 < 255:
        sk = np.where(intra,
                      labels8.view(np.uint8) + row.view(np.uint8)
                      + np.uint8(max_x),
                      row.view(np.uint8))
        sk[~prep.has_ptr] = np.uint8(255)
    else:
        sk = np.where(intra,
                      labels8.astype(np.int16) + row + np.int16(max_x),
                      row.astype(np.int16))
        sk[~prep.has_ptr] = np.int16(32000)
    order = np.argsort(sk, kind="stable")
    num_ptrs = n - num_lists
    tt = order[:num_ptrs]
    sks = sk[tt]
    bounds = np.searchsorted(sks, np.arange(3 * max_x, dtype=np.int64)
                             .astype(sk.dtype)).tolist()
    bounds.append(num_ptrs)
    inter_count = bounds[max_x]
    max_inter = int(sks[inter_count - 1]) if inter_count else -1
    max_intra = (int(sks[num_ptrs - 1]) - max_x
                 if num_ptrs > inter_count else -1)
    pdt = prep.pdx[tt]
    ndt = prep.ndx[tt]
    mexi, mexi7, mexa, mexa7 = _mex_tables()
    cl7 = np.zeros(n + 1, dtype=np.int8)   # 7 * encoded left-neighbor label
    cre = np.zeros(n + 1, dtype=np.int8)   # encoded right-neighbor label
    labout = np.empty(num_ptrs, dtype=np.int8)
    for s in range(3 * max_x):
        lo = bounds[s]
        hi = bounds[s + 1]
        if lo == hi:
            continue
        g = tt[lo:hi]
        idx = cl7[g] + cre[g]
        if s < max_x:
            lab = mexi[idx]
            lab7 = mexi7[idx]
        else:
            lab = mexa[idx]
            lab7 = mexa7[idx]
        labout[lo:hi] = lab
        cre[pdt[lo:hi]] = lab      # tell the left neighbor its right label
        cl7[ndt[lo:hi]] = lab7     # tell the right neighbor its left label
    l6e = np.zeros(n, dtype=np.int8)
    l6e[tt] = labout
    return l6e, max_inter, max_intra


def _check_sweeps(prep, sk_like_labels6, lst_list) -> None:
    """``check=True`` invariants: six-set partition per list."""
    from ..core.partition import verify_matching_partition

    offset = 0
    for lst in lst_list:
        nb = lst.n
        raw = sk_like_labels6[offset:offset + nb].astype(np.int64) - 1
        verify_matching_partition(lst, raw)
        offset += nb


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
    dkey = ("m4", kind, i)
    hit = prep.derived.get(dkey)
    x = max(2, max_label_after(n, i))
    y = ceil_div(n, x)

    if hit is None:
        with cost.phase("partition"):
            labels = _iterate_labels(prep, i, kind, cost)
        with cost.phase("sort"):
            row = _block_ranks(prep, labels, x)
            cost.parallel(y, depth=x)
        intra = prep.has_ptr & (row == row[prep.cnext])
        num_intra = int(np.count_nonzero(intra))
        _remember(prep, dkey, (labels, row, intra, num_intra))
    else:
        labels, row, intra, num_intra = hit
        with cost.phase("partition"):
            for _ in range(i):
                cost.parallel(n)
        with cost.phase("sort"):
            cost.parallel(y, depth=x)
    num_inter = (n - 1) - num_intra

    with telemetry_span("engine.sweep", n=n, x=x, y=y) as sp:
        rt = _resources.phase_begin("engine.sweep")
        try:
            l6e, max_inter, max_intra = _sweep_labels6(prep, labels, row,
                                                       intra, x)
        finally:
            if rt is not None:
                _resources.phase_end(rt, None, sp)
        sp.set(max_inter=max_inter, max_intra=max_intra)
    with cost.phase("walkdown1"):
        if num_inter:
            cost.parallel(y, depth=max(1, max_inter + 1))
    with cost.phase("walkdown2"):
        if num_intra:
            cost.parallel(y, depth=max(1, max_intra + 1))
    if check:
        _check_sweeps(prep, l6e, [lst])

    with cost.phase("cutwalk"):
        tails, cw, chosen = _cut_and_walk_flat(prep, l6e, cost)
    matching = _fast_matching(lst, prep, tails, chosen)
    stats = Match4Stats(
        i=i, strategy=strategy, x=x, y=y,
        num_inter=num_inter, num_intra=num_intra, cutwalk=cw,
    )
    return matching, cost.report(), stats
