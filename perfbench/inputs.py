"""Seeded inputs for every workload, built with numpy alone, so that a
change to the program never changes the benchmark's inputs.

The program under test only ever receives what this module makes: raw
``NEXT`` arrays (``next[v]`` is the successor address of node ``v``,
``-1`` at the tail).  Every generator takes a ``numpy.random.Generator``
derived from the run's ``--seed`` by :func:`rng_for`, so one seed gives
the same inputs on every machine and every commit.
"""

from __future__ import annotations

import json

import numpy as np

NIL = -1

#: Sizes and layouts of the ``batch-mix`` and ``service-100rps`` lists.
MIX_SIZES = (64, 256, 1024, 4096)
MIX_LAYOUTS = ("random", "sequential", "sawtooth", "blocked")

# Stream ids keep the random streams of different purposes apart, so
# adding a draw to one stream never shifts another.
_STREAMS = {
    "list": 1, "warmup": 2, "mix": 3, "sample": 4, "schedule": 5,
    "churn-list": 6, "churn-ops": 7,
}


def rng_for(seed: int, purpose: str, *index: int) -> np.random.Generator:
    """An independent generator for one purpose (and optional index)."""
    return np.random.default_rng([int(seed), _STREAMS[purpose], *index])


def next_from_order(order: np.ndarray) -> np.ndarray:
    """The ``NEXT`` array of the list visiting ``order`` front to back."""
    nxt = np.full(order.size, NIL, dtype=np.int64)
    nxt[order[:-1]] = order[1:]
    return nxt


def _three_runs(order: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Cut ``order`` at two seeded points into runs A, B, C and visit them
    as A C B, B A C or C B A.  All but two pointers keep the layout's
    pattern, and distinct draws give distinct lists."""
    n = order.size
    if n < 3:
        return order
    c1, c2 = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
    runs = (order[:c1], order[c1:c2], order[c2:])
    perm = ((0, 2, 1), (1, 0, 2), (2, 1, 0))[int(rng.integers(3))]
    return np.concatenate([runs[k] for k in perm])


def layout_order(layout: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Visit order of one list of ``n`` nodes in the named layout.

    ``random`` is a uniform permutation, so successors sit anywhere in
    memory; ``blocked`` is random within blocks of ``n // 8`` addresses
    (the service's own layout of that name); ``sequential`` and
    ``sawtooth`` are the program's layouts of those names, cut into three
    seeded runs and reordered so that every draw is a distinct list.
    """
    if layout == "random":
        return rng.permutation(n)
    if layout == "sequential":
        return _three_runs(np.arange(n, dtype=np.int64), rng)
    if layout == "sawtooth":
        m = (n + 1) // 2
        order = np.empty(n, dtype=np.int64)
        order[0::2] = np.arange(m)
        order[1::2] = np.arange(m, n)
        return _three_runs(order, rng)
    if layout == "blocked":
        block = max(1, n // 8)
        order = np.arange(n, dtype=np.int64)
        for start in range(0, n, block):
            stop = min(start + block, n)
            order[start:stop] = start + rng.permutation(stop - start)
        return order
    raise ValueError(f"unknown layout {layout!r}")


def random_next(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random-layout ``NEXT`` array of ``n`` nodes."""
    return next_from_order(rng.permutation(n))


def mix_lists(rng: np.random.Generator, count: int,
              sizes=MIX_SIZES) -> list[np.ndarray]:
    """``count`` lists drawn from ``sizes`` x :data:`MIX_LAYOUTS`.

    The draw is stratified: each (size, layout) pair appears equally
    often, up to the remainder, in a seeded order.  Every batch of the
    same count then holds the same number of nodes, so batch times
    differ by layout luck and host noise only.
    """
    combos = [(n, lay) for n in sizes for lay in MIX_LAYOUTS]
    picks = combos * (count // len(combos))
    extra = rng.choice(len(combos), size=count % len(combos), replace=False)
    picks += [combos[int(k)] for k in extra]
    out = []
    for k in rng.permutation(len(picks)):
        n, lay = picks[int(k)]
        out.append(next_from_order(layout_order(lay, n, rng)))
    return out


def request_bytes(nxt: np.ndarray) -> bytes:
    """One complete ``POST /v1/match`` request carrying ``nxt``."""
    body = json.dumps({"next": nxt.tolist()}, separators=(",", ":")).encode()
    head = (f"POST /v1/match HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
    return head + body


def service_requests(seed: int, count: int, *, repeat_share: float = 0.25,
                     recent: int = 64, sizes=MIX_SIZES):
    """``count`` requests of the service mix, as ``(next, raw_request)``.

    A ``repeat_share`` of the requests repeat one of the last ``recent``
    distinct lists (the response cache's hits); every other request
    carries a list never sent before in this run.
    """
    rng = rng_for(seed, "mix")
    fresh_iter = iter(())
    distinct: list[tuple[np.ndarray, bytes]] = []
    seen: set[bytes] = set()
    out = []
    for _ in range(count):
        if distinct and rng.random() < repeat_share:
            pool = distinct[-recent:]
            out.append(pool[int(rng.integers(len(pool)))])
            continue
        while True:
            nxt = next(fresh_iter, None)
            if nxt is None:
                fresh_iter = iter(mix_lists(rng, 16 * 16, sizes))
                continue
            key = nxt.tobytes()
            if key not in seen:
                break
        seen.add(key)
        item = (nxt, request_bytes(nxt))
        distinct.append(item)
        out.append(item)
    return out


def poisson_offsets(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` per second."""
    rng = rng_for(seed, "schedule")
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]
