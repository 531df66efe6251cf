"""One in-process workload (``list-1m``, ``batch-mix``, ``churn-64k``) in
a process of its own.

``run.py`` starts this script in a new session, once per set-up sample
(``--mode setup``: set up, report, exit) and once for the measured run
(``--mode full``).  It prints one JSON object on its last stdout line.

Set-up time is program-side: importing numpy and the program, starting
the pool, building the first session, and one warm-up op on a list that
is never timed.  The benchmark's own input generation is subtracted.
Set-up and op times are also reported at the host's reference speed
(``hostspeed.py``).  Set-up is read twice, just before the warm-up op
and at the end, since it spans unlike work (imports, forking the pool,
the first call); the reading after it alone tracked ``batch-mix``
set-up badly.  The readings count in no set-up time.

Every op gets a never-seen input as a raw ``NEXT`` array, so each call
builds a new ``LinkedList``.  The engine memoizes per-list preparation
keyed by list object; reusing one list object is how the ROADMAP's
"0.1 s at 2**20" figure arose, and it hides validation and prep.
"""

import time

_T0 = time.perf_counter()  # the set-up clock starts before any import

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: How many edits the churn trace holds.
CHURN_STEPS = 8000
#: The batch's pool size: the core count of the 2-vCPU host the
#: workloads were sized on; fixed so the figures do not change with the host.
BATCH_WORKERS = 2

SIZES = {
    False: {"list_n": 1 << 20, "batch_lists": 256,
            "batch_sizes": (64, 256, 1024, 4096), "churn_n": 1 << 16,
            "churn_steps": CHURN_STEPS},
    True: {"list_n": 1 << 12, "batch_lists": 32, "batch_sizes": (16, 64),
           "churn_n": 512, "churn_steps": 400},
}


def _load_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


class Workload:
    """Shared op loop and reporting; subclasses define ``setup`` and
    ``op`` and may refine the hooks below."""

    name = ""
    #: Ops below which a run keeps going past ``--seconds``, so every
    #: median has a few samples even on a slow host.
    min_ops = 1
    #: Processes an op keeps busy at once, so many the speed is read on.
    busy_processes = 1

    def __init__(self, args) -> None:
        self.seed = args.seed
        self.size = SIZES[args.tiny]
        self.times: list[float] = []       # untraced op times (s)
        self.scaled: list[float] = []      # the same, at reference speed (ms)
        self.traced_times: list[float] = []
        self.speed: HostSpeed | None = None  # made in set-up
        self.setup_slowdowns: list[float] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.layers: list[dict] = []       # one per traced op (ms)
        self.shares: list[float] = []      # unattributed share per traced op
        self.log = None

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.wrong) < 5:
            self.wrong.append(what)

    def keep(self, k: int, rows: list[tuple]) -> dict:
        """Store one traced op's rows in the run's span log, and its
        breakdown in ms."""
        from tracing import layer_times

        base = len(self.log.spans)
        for name, start, end, parent in rows:
            self.log.add(k, name, start, end,
                         None if parent is None else base + parent)
        return {key: v * 1e3
                for key, v in layer_times(rows, self.LAYERS).items()}

    def record(self, ms: dict, op_s: float) -> None:
        ms["op_ms"] = op_s * 1e3
        self.layers.append(ms)
        self.shares.append(ms["unattributed"] / ms["op_ms"])

    def loop(self, seconds: float, trace: bool) -> None:
        from tracing import SpanLog

        self.log = SpanLog() if trace else None
        end = time.perf_counter() + seconds
        k = 0
        while True:
            self.op(k, traced=trace and k % 2 == 1)
            k += 1
            if time.perf_counter() >= end and k >= self.min_ops:
                break

    def attempted(self) -> int:
        return len(self.times) + len(self.traced_times)

    def p50_s(self, traced: bool = False) -> float:
        from tracing import median

        return median(self.traced_times if traced else self.times)

    def read_speed(self) -> float:
        """Read the host's speed for the set-up time; returns the seconds
        the reading took, which set-up must not count."""
        t0 = time.perf_counter()
        if self.speed is None:
            self.speed = HostSpeed(self.busy_processes)
        self.setup_slowdowns.append(self.speed.slowdown(5))
        return time.perf_counter() - t0

    def timed(self, op_s: float) -> None:
        """Record an untraced op's time, and the host's speed right after
        it (outside the op's timed region)."""
        self.times.append(op_s)
        self.scaled.append(op_s * 1e3 / self.speed.slowdown())

    def p99_s(self) -> float:
        from tracing import quantile

        return quantile(self.times, 0.99)

    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    def layer_metrics(self) -> dict:
        """Median of each layer over the traced ops."""
        from tracing import median

        keys = {key for ms in self.layers for key in ms}
        return {key: median(ms.get(key, 0.0) for ms in self.layers)
                for key in keys - {"op_ms", "unattributed"}}

    def sample_check(self) -> None:
        """Checks run once after the timed loop."""

    def close(self) -> None:
        """Stop whatever the workload started."""
        if self.speed is not None:
            self.speed.close()


#: The engine's own spans, by layer.  ``phase.walkdown1/2`` only carry
#: the WalkDown sweep's Brent charges, so they count as the sweep.
PHASES = {
    "phase.partition": "engine.partition_ms",
    "phase.sort": "engine.sort_ms",
    "engine.sweep": "engine.sweep_ms",
    "phase.walkdown1": "engine.sweep_ms",
    "phase.walkdown2": "engine.sweep_ms",
    "phase.cutwalk": "engine.cutwalk_ms",
}


def _program_rows(spans, parent: int, shift: float = 0.0) -> list[tuple]:
    """Program spans as ``(name, start, end, parent)`` rows that follow
    row ``parent``; spans whose parent is not among them hang under it."""
    index = {s.span_id: parent + 1 + i for i, s in enumerate(spans)}
    return [(s.name, s.start + shift, s.end + shift,
             index.get(s.parent_id, parent)) for s in spans]


class ListWorkload(Workload):
    """``list-1m``: one never-seen random 2**20 list per op."""

    name = "list-1m"
    min_ops = 9  # the engine keeps 8 lists' prep: RSS peaks by the 9th
    LAYERS = {"lists.validate": "lists.validate_ms",
              "engine.call": "engine.prep_ms",
              "maximal_matching": "engine.prep_ms", **PHASES}

    def setup(self) -> float:
        from repro import maximal_matching
        from inputs import random_next, rng_for

        g0 = time.perf_counter()
        nxt = random_next(self.size["list_n"], rng_for(self.seed, "warmup"))
        gen = time.perf_counter() - g0 + self.read_speed()
        maximal_matching(nxt, algorithm="match4", backend="numpy")
        return time.perf_counter() - _T0 - gen

    def op(self, k: int, traced: bool) -> None:
        from repro import LinkedList, maximal_matching, telemetry
        from check import matching_error
        from inputs import random_next, rng_for

        nxt = random_next(self.size["list_n"], rng_for(self.seed, "list", k))
        pc = time.perf_counter
        try:
            if not traced:
                t0 = pc()
                res = maximal_matching(nxt, algorithm="match4",
                                       backend="numpy")
                self.timed(pc() - t0)
            else:
                with telemetry.capture() as sink:
                    t0 = pc()
                    lst = LinkedList(nxt)
                    t1 = pc()
                    res = maximal_matching(lst, algorithm="match4",
                                           backend="numpy")
                    t2 = pc()
                self.traced_times.append(t2 - t0)
                rows = [("op", t0, t2, None), ("lists.validate", t0, t1, 0),
                        ("engine.call", t1, t2, 0)]
                ms = self.keep(k, rows + _program_rows(sink.spans, 2))
                ms["pram.time"] = res.report.time
                ms["pram.work"] = res.report.work
                self.record(ms, t2 - t0)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            self.fail(f"op {k} raised {type(exc).__name__}: {exc}")
            return
        err = matching_error(nxt, res.matching.tails)
        if err is not None:
            self.fail(f"op {k}: {err}")

    def layer_metrics(self) -> dict:
        """Adds the per-phase allocation peak, taken on one more op that
        is never timed."""
        from repro import LinkedList, maximal_matching, telemetry
        from inputs import random_next, rng_for

        # Validation is no engine phase; under tracemalloc its walk of a
        # million nodes would take seconds, so the list is built first.
        lst = LinkedList(random_next(self.size["list_n"],
                                     rng_for(self.seed, "warmup", 1)))
        with telemetry.capture() as sink, \
                telemetry.track_resources(memory=True):
            maximal_matching(lst, algorithm="match4", backend="numpy")
        peak = max((s.attributes.get("alloc_peak_b", 0) for s in sink.spans),
                   default=0)
        return {**super().layer_metrics(),
                "engine.alloc_peak_mb": peak / 2**20}

    def sample_check(self) -> None:
        _reference_sample(self, batch=False)


class BatchWorkload(Workload):
    """``batch-mix``: one sharded batch call over 256 never-seen lists."""

    name = "batch-mix"
    min_ops = 10
    busy_processes = BATCH_WORKERS

    def setup(self) -> float:
        from repro import batch_maximal_matching
        from repro.parallel import pools
        from inputs import mix_lists, rng_for

        g0 = time.perf_counter()
        lists = mix_lists(rng_for(self.seed, "warmup"),
                          self.size["batch_lists"], self.size["batch_sizes"])
        gen = time.perf_counter() - g0 + self.read_speed()
        batch_maximal_matching(lists, algorithm="match4", backend="numpy",
                               workers=BATCH_WORKERS)
        self.pool = pools.get_pool(BATCH_WORKERS)
        return time.perf_counter() - _T0 - gen

    def batch(self, k: int):
        from inputs import mix_lists, rng_for

        return mix_lists(rng_for(self.seed, "list", k),
                         self.size["batch_lists"], self.size["batch_sizes"])

    def op(self, k: int, traced: bool) -> None:
        from repro import LinkedList, batch_maximal_matching, telemetry
        from check import batch_error

        lists = self.batch(k)
        pc = time.perf_counter
        try:
            if not traced:
                t0 = pc()
                res = batch_maximal_matching(
                    lists, algorithm="match4", backend="numpy",
                    workers=BATCH_WORKERS)
                self.timed(pc() - t0)
            else:
                with telemetry.capture() as sink, \
                        telemetry.track_resources(memory=False) as ledger:
                    t0 = pc()
                    lls = [LinkedList(a) for a in lists]
                    t1 = pc()
                    res = batch_maximal_matching(
                        lls, algorithm="match4", backend="numpy",
                        workers=BATCH_WORKERS)
                    t2 = pc()
                self.traced_times.append(t2 - t0)
                self.record(self._layers(k, sink, ledger, t0, t1, t2,
                                         res.report), t2 - t0)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            self.fail(f"op {k} raised {type(exc).__name__}: {exc}")
            return
        err = batch_error(lists, [m.tails for m in res.matchings])
        if err is not None:
            self.fail(f"op {k}: {err}")

    LAYERS = {"lists.validate": "lists.validate_ms",
              "parallel.hop": "parallel.hop_ms",
              "batch.call": "batch.driver_ms",
              "batch.maximal_matching": "batch.driver_ms", **PHASES}

    def _layers(self, k, sink, ledger, t0, t1, t2, report) -> dict:
        """Critical-path breakdown: validation, the shard hop, and the
        slowest worker's driver self time and engine phases."""
        walls = {s.attributes["shard"]: s.attributes["worker_wall_s"]
                 for s in sink.spans if s.name.startswith("shard.")}
        rows = [("op", t0, t2, None), ("lists.validate", t0, t1, 0)]
        if walls:
            slow = max(walls, key=walls.get)
            worker = [s for s in sink.spans
                      if s.attributes.get("shard") == slow
                      and not s.name.startswith("shard.")]
            # Worker spans come back with made-up start times; lay them
            # at the end of the call so that the intervals nest.
            shift = t2 - max(s.end for s in worker)
            rows.append(("parallel.hop", t1, t2, 0))
            rows += _program_rows(worker, 2, shift)
        else:  # the pool fell back to the serial driver in this process
            rows.append(("batch.call", t1, t2, 0))
            rows += _program_rows(sink.spans, 2)
        ms = self.keep(k, rows)
        if walls:
            # The hop row's self time is the call minus the worker's
            # span.  The hop is the call minus the worker's whole wall
            # time; the rest of that wall is worker glue, unattributed.
            hop = ((t2 - t1) - walls[slow]) * 1e3
            ms["unattributed"] += ms["parallel.hop_ms"] - hop
            ms["parallel.hop_ms"] = hop
        ms["parallel.bytes_out"] = ledger.bytes_out
        ms["parallel.bytes_in"] = ledger.bytes_in
        ms["parallel.fallbacks"] = sum(
            1 for s in sink.spans if s.name == "parallel.fallback")
        ms["pram.time"] = report.time
        ms["pram.work"] = report.work
        return ms

    def sample_check(self) -> None:
        _reference_sample(self, batch=True)

    def close(self) -> None:
        """Shut the pool down and wait until its workers have exited."""
        from repro.parallel import pools

        super().close()
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        pools.shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(5)


def _reference_sample(wl: Workload, batch: bool) -> None:
    """Small seeded lists: numpy answers must equal the reference tier's,
    in tails and CostReport (and, for batches, the batch's tails)."""
    import numpy as np
    from repro import batch_maximal_matching, maximal_matching
    from inputs import mix_lists, rng_for

    lists = mix_lists(rng_for(wl.seed, "sample"), 4, (64, 256, 1024))
    ref = [maximal_matching(a, algorithm="match4", backend="reference")
           for a in lists]
    fast = [maximal_matching(a, algorithm="match4", backend="numpy")
            for a in lists]
    for k, (r, f) in enumerate(zip(ref, fast)):
        if not np.array_equal(r.matching.tails, f.matching.tails):
            wl.fail(f"sample {k}: numpy tails differ from reference")
        if r.report != f.report:
            wl.fail(f"sample {k}: numpy CostReport differs from reference")
    if batch:
        res = batch_maximal_matching(lists, algorithm="match4",
                                     backend="numpy", workers=BATCH_WORKERS)
        for k, (r, m) in enumerate(zip(ref, res.matchings)):
            if not np.array_equal(r.matching.tails, m.tails):
                wl.fail(f"sample {k}: batch tails differ from reference")


class ChurnWorkload(Workload):
    """``churn-64k``: one public ``DynamicList`` edit per op, replayed."""

    name = "churn-64k"
    min_ops = 9  # replays: each builds a list, and the engine keeps 8

    def setup(self) -> float:
        from repro import DynamicList, LinkedList
        from churn import make_trace, replay
        from inputs import random_next, rng_for

        g0 = time.perf_counter()
        warm = random_next(1024, rng_for(self.seed, "warmup"))
        gen = time.perf_counter() - g0 + self.read_speed()
        dyn = DynamicList.from_list(LinkedList(warm), backend="numpy")
        g1 = time.perf_counter()
        trace = make_trace(DynamicList.from_list(LinkedList(warm),
                                                 backend="numpy"), 64, 0)
        gen += time.perf_counter() - g1
        replay(dyn, trace)
        g2 = time.perf_counter()
        self.initial = random_next(self.size["churn_n"],
                                   rng_for(self.seed, "churn-list"))
        gen += time.perf_counter() - g2
        self.build_s: list[float] = []
        self.first = self.build()
        return time.perf_counter() - _T0 - gen

    def build(self):
        from repro import DynamicList, LinkedList

        t0 = time.perf_counter()
        dyn = DynamicList.from_list(LinkedList(self.initial), backend="numpy")
        self.build_s.append(time.perf_counter() - t0)
        return dyn

    def loop(self, seconds: float, trace: bool) -> None:
        import numpy as np
        from repro import DynamicList, LinkedList, telemetry
        from churn import make_trace, replay
        from inputs import rng_for
        from tracing import SpanLog

        gen_dyn = DynamicList.from_list(LinkedList(self.initial),
                                        backend="numpy")
        op_seed = int(rng_for(self.seed, "churn-ops").integers(2**31))
        self.trace = make_trace(gen_dyn, self.size["churn_steps"], op_seed)
        self.log = SpanLog() if trace else None
        self.ledgers = []
        self.walk_s = self.replay_s = 0.0
        self.by_op: dict[str, list[float]] = {}
        self.edits = self.edit_id = 0
        self.replay_p99: list[float] = []
        self.untraced_wall = 0.0
        self.untraced_edits = 0
        pc = time.perf_counter
        end = pc() + seconds
        k = 0
        dyn = self.first
        while True:
            # The first min_ops replays run whole, whatever the clock says.
            cut = end if k + 1 >= self.min_ops else None
            # Per-replay statistics rather than every edit's time: a run
            # holds up to a million edits, and memory that grows with the
            # host's speed would move the peak RSS metric.
            if trace and k % 2 == 1:
                with telemetry.capture():
                    w0 = pc()
                    times, done, mismatch = replay(dyn, self.trace,
                                                   deadline=cut,
                                                   on_edit=self._span)
                    self.replay_s += pc() - w0
                self.traced_times.append(float(np.median(times)))
            else:
                w0 = pc()
                times, done, mismatch = replay(dyn, self.trace, deadline=cut)
                self.untraced_wall += pc() - w0
                self.untraced_edits += done
                self.timed(float(np.median(times)))
                self.replay_p99.append(float(np.quantile(times, 0.99)))
            self.edits += done
            if mismatch is not None:
                self.fail(f"replay {k}: {mismatch}")
            self._check(k, dyn)
            k += 1
            if pc() >= end and k >= self.min_ops:
                break
            dyn = self.build()

    def _span(self, op: str, prev: float, t0: float, t1: float) -> None:
        """Record one traced edit: the loop step as root, the public
        call as its child."""
        self.edit_id += 1
        root = self.log.add(self.edit_id, "edit", prev, t1)
        self.log.add(self.edit_id, "dynamic." + op, t0, t1, root)
        self.by_op.setdefault(op, []).append(t1 - t0)
        if op in ("concat", "splice_in"):
            self.walk_s += t1 - t0
        self.shares.append((t0 - prev) / (t1 - prev))
        if len(self.layers) < 12:
            self.layers.append({f"dynamic.{op}_ms": (t1 - t0) * 1e3,
                                "op_ms": (t1 - prev) * 1e3,
                                "unattributed": (t0 - prev) * 1e3})

    def _check(self, k: int, dyn) -> None:
        import numpy as np
        from repro.errors import VerificationError
        from check import matching_error

        ledger = dyn.ledger
        self.ledgers.append(ledger)
        try:
            dyn.verify()
        except VerificationError as exc:
            self.fail(f"replay {k}: verify() failed: {exc}")
        if ledger.max_moves_per_edit > 8:
            self.fail(f"replay {k}: {ledger.max_moves_per_edit} moves in "
                      f"one edit, over the O(1) bound 8")
        nxt = np.array([dyn.next_of(v) if dyn.has_node(v) else -1
                        for v in range(dyn.capacity)], dtype=np.int64)
        err = matching_error(nxt, dyn.tails())
        if err is not None:
            self.fail(f"replay {k}: maintained matching: {err}")

    def attempted(self) -> int:
        return self.edits

    # ``times`` holds each replay's median edit time: every replay is the
    # same trace, so their median is the run's median edit.
    def p99_s(self) -> float:
        from tracing import median

        return median(self.replay_p99)

    def ops_per_s(self) -> float:
        return self.untraced_edits / self.untraced_wall

    def layer_metrics(self) -> dict:
        from tracing import median, quantile

        out = {}
        for op, vals in self.by_op.items():
            out[f"dynamic.{op}.p50_us"] = median(vals) * 1e6
            out[f"dynamic.{op}.p99_us"] = quantile(vals, 0.99) * 1e6
        edits = sum(led.edits for led in self.ledgers)
        out.update({
            "dynamic.build_ms": median(self.build_s) * 1e3,
            "dynamic.walk_share": self.walk_s / self.replay_s,
            "dynamic.moves_per_edit": sum(
                led.moves for led in self.ledgers) / edits,
            "dynamic.touched_per_edit": sum(
                led.touched for led in self.ledgers) / edits,
            "dynamic.max_moves_per_edit": max(
                led.max_moves_per_edit for led in self.ledgers),
        })
        return out


def _e2e(wl: Workload) -> dict:
    from tracing import median, peak_rss_mb

    rss = peak_rss_mb()  # before the statistics below allocate
    speed = wl.speed
    return {"metrics": {"peak_rss_mb": rss,
                        "p50_scaled_ms": median(wl.scaled)},
            "p50_ms": wl.p50_s() * 1e3,
            "task_ms": [median(speed.alone_ms),
                        *([median(speed.together_ms)]
                          if speed.together_ms else [])]}


def _per_layer(wl: Workload) -> dict:
    """Per-layer metrics, plus ``p50_ms``, ``p99_ms`` and ``ops_per_s``
    of the untraced ops and the tracing overhead."""
    from tracing import median, quantile

    untraced, traced = wl.p50_s(), wl.p50_s(traced=True)
    return {
        **wl.layer_metrics(),
        "p50_ms": untraced * 1e3,
        "p99_ms": wl.p99_s() * 1e3,
        "ops_per_s": wl.ops_per_s(),
        "unattributed_share": median(wl.shares),
        "unattributed_share_p90": quantile(wl.shares, 0.9),
        "telemetry.overhead_ratio": traced / untraced,
    }


WORKLOADS = {w.name: w for w in (ListWorkload, BatchWorkload, ChurnWorkload)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "full"), default="full")
    parser.add_argument("--spans", default="",
                        help="write the traced run's spans to this file")
    parser.add_argument("--tiny", action="store_true",
                        help="test sizes: every workload in seconds")
    parser.add_argument("--inject", choices=("corrupt",), default=None,
                        help="test seam: corrupt the first answer")
    args = parser.parse_args(argv)
    _load_program()
    wl = WORKLOADS[args.workload](args)
    try:
        setup_s = wl.setup()
        wl.read_speed()
        # At the reference speed, like the op times.
        slowdown = sum(wl.setup_slowdowns) / len(wl.setup_slowdowns)
        out: dict = {"setup_s": setup_s / slowdown}
        if args.mode == "full":
            if args.inject == "corrupt":
                _inject_corruption(wl)
            wl.loop(args.seconds, bool(args.trace))
            wl.sample_check()
            out.update(attempted=wl.attempted(), failed=wl.failed,
                       wrong=wl.wrong)
            if args.trace:
                out["metrics"] = _per_layer(wl)
                out["breakdown"] = wl.layers[:12]
                if args.spans:
                    wl.log.write(args.spans)
            else:
                out.update(_e2e(wl))
    finally:
        wl.close()
    print(json.dumps(out), flush=True)
    return 0


def _inject_corruption(wl: Workload) -> None:
    """Test seam: the program's first answer loses one matched pointer,
    so it is no longer maximal."""
    from dataclasses import replace

    import numpy as np
    import repro

    def drop_one(m):
        return replace(m, tails=np.asarray(m.tails)[1:])

    if wl.name == "list-1m":
        real = repro.maximal_matching

        def patched(*a, **kw):
            repro.maximal_matching = real
            res = real(*a, **kw)
            return replace(res, matching=drop_one(res.matching))

        repro.maximal_matching = patched
    elif wl.name == "batch-mix":
        real = repro.batch_maximal_matching

        def patched(*a, **kw):
            repro.batch_maximal_matching = real
            res = real(*a, **kw)
            return replace(res, matchings=(drop_one(res.matchings[0]),
                                           *res.matchings[1:]))

        repro.batch_maximal_matching = patched
    else:
        import churn

        real = churn.replay

        def patched(dyn, *a, **kw):
            churn.replay = real
            out = real(dyn, *a, **kw)
            dyn.corrupt_bit(int(dyn.tails()[0]))
            return out

        churn.replay = patched


if __name__ == "__main__":
    sys.exit(main())
