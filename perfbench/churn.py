"""The ``churn-64k`` edit trace: made once in set-up, then replayed.

:func:`make_trace` drives :class:`repro.dynamic.ChurnSession` over a
session built from the benchmark's own seeded list.  The op mix, bursts
and hotspot skew are ``benchmarks/bench_churn.py``'s, passed as an
explicit :class:`repro.dynamic.ChurnConfig`.  ``ChurnSession`` chooses
each edit's operands by scanning the whole arena, about 1 ms per edit
at 2**16 nodes, some 20 times the edits themselves; so the trace is made
once per run, before any timed region, and the replays time the edits
alone.

:func:`replay` applies a trace to a fresh session through the public
``DynamicList`` methods and checks that every returned address is the
recorded one.
"""

from __future__ import annotations

import time
from array import array

#: ``bench_churn``'s op mix and skew, copied rather than taken from the
#: program's defaults, so that a change to those never changes the
#: benchmark's workload.
OP_WEIGHTS = (
    ("insert_after", 4.0), ("delete", 3.0), ("split", 1.0),
    ("concat", 1.0), ("splice_out", 0.5), ("splice_in", 0.5),
    ("add_node", 0.5),
)
BURSTINESS = 0.2
BURST_LEN = 8
HOTSPOT = 0.5


def make_trace(dyn, steps: int, seed: int) -> list[tuple]:
    """Churn ``dyn`` through ``steps`` seeded edits; return the trace.

    Each entry is ``(op, x, y, ret)``: the public method, its operands
    (``None`` where it takes fewer) and the address it returned.
    """
    from repro import ChurnConfig, ChurnSession

    cfg = ChurnConfig(steps=steps, seed=seed, n_initial=dyn.n_live,
                      op_weights=OP_WEIGHTS, burstiness=BURSTINESS,
                      burst_len=BURST_LEN, hotspot=HOTSPOT)
    session = ChurnSession(cfg, dyn=dyn)
    session.run()
    return [_entry(op, args) for _, op, args in session.trace]


def _entry(op: str, args: tuple) -> tuple:
    """One ``ChurnSession.trace`` step as a replay entry."""
    if op in ("insert_after", "split"):  # args: operand, returned address
        return (op, args[0], None, args[1])
    if op == "splice_out":  # returns the detached segment's head
        return (op, args[0], args[1], args[0])
    if op in ("concat", "splice_in"):
        return (op, args[0], args[1], None)
    if op == "delete":
        return (op, args[0], None, None)
    return (op, None, None, args[0])  # add_node: args hold its return


def replay(dyn, trace: list[tuple], deadline: float | None = None,
           on_edit=None):
    """Apply ``trace`` to ``dyn`` through its public methods.

    Returns ``(times_s, ops_done, mismatch)``: the wall time of each
    edit call, how many edits ran (fewer than the trace when
    ``deadline``, a ``perf_counter`` value, passes first), and the
    first returned address that differs from the recorded one, or
    ``None``.  ``on_edit(op, prev, start, end)``, when given, receives
    the end of the previous edit and each edit's interval (the traced
    run's span recorder).
    """
    pc = time.perf_counter
    calls = {
        "insert_after": dyn.insert_after, "delete": dyn.delete,
        "split": dyn.split, "concat": dyn.concat,
        "splice_out": dyn.splice_out, "splice_in": dyn.splice_in,
        "add_node": dyn.add_node,
    }
    times = array("d")  # 8 bytes an edit: memory must not track speed
    mismatch = None
    done = 0
    prev = pc()
    for op, x, y, ret in trace:
        fn = calls[op]
        if y is not None:
            t0 = pc()
            got = fn(x, y)
            t1 = pc()
        elif x is not None:
            t0 = pc()
            got = fn(x)
            t1 = pc()
        else:
            t0 = pc()
            got = fn()
            t1 = pc()
        times.append(t1 - t0)
        if on_edit is not None:
            on_edit(op, prev, t0, t1)
            prev = t1
        done += 1
        if got != ret and mismatch is None:
            mismatch = f"edit {done} ({op}): returned {got}, trace has {ret}"
        if deadline is not None and t1 >= deadline:
            break
    return times, done, mismatch
