"""The repository's benchmark: four seeded workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload list-1m --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with the program's tracing off and prints the
end-to-end metrics; ``--trace 1`` turns the program's existing switches
on, records the benchmark's own spans around every public call, and
prints the per-layer metrics.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 success; 1 a wrong answer (the result line says
``"correct": false``) or an error; 2 no program source; 3 an invalid
measurement; 4 a process the benchmark started was still alive at the
end; 128+N the benchmark got signal N.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from procs import Supervisor, become_subreaper  # noqa: E402
from tracing import median  # noqa: E402

#: Why each workload is in the benchmark (also printed with each run).
WORKLOADS = {
    "list-1m": "validation and the engine kernels on a never-seen random "
               "2^20 list, whose gathers miss cache; no service, pool or "
               "dynamic tier",
    "batch-mix": "256 never-seen lists of mixed size and layout in one "
                 "sharded batch call: per-list overhead and the shard hop; "
                 "the only workload that crosses the process pool",
    "service-100rps": "Poisson HTTP requests at 100/s on 2 keep-alive "
                      "connections: batch window, HTTP/JSON and list "
                      "ingest; a quarter repeat, the only response-cache use",
    "churn-64k": "a replayed seeded edit trace on a 2^16-node dynamic "
                 "list: O(1) repairs and O(component) walks, the only "
                 "writes",
}

#: End-to-end metrics (``--trace 0``), every workload: (name, unit).
#: Set-up and op times are at the host's reference speed (``hostspeed.py``):
#: raw times do not repeat on a shared host.
END_TO_END = (("setup_s", "s"), ("p50_scaled_ms", "ms"),
              ("peak_rss_mb", "MiB"))

_OPS = ("insert_after", "delete", "split", "concat", "splice_out",
        "splice_in", "add_node")
#: Per-layer metrics (``--trace 1``), every workload; a layer that does
#: no work on a workload reads 0 there.  The first three are end-to-end
#: figures that do not repeat within a tenth from run to run on the host
#: the benchmark was sized on, so they are reported here, ungated, from
#: the run's untraced ops.
PER_LAYER = (
    ("p50_ms", "ms"), ("p99_ms", "ms"), ("ops_per_s", "1/s"),
    ("lists.validate_ms", "ms"), ("engine.prep_ms", "ms"),
    ("engine.partition_ms", "ms"), ("engine.sort_ms", "ms"),
    ("engine.sweep_ms", "ms"), ("engine.cutwalk_ms", "ms"),
    ("engine.alloc_peak_mb", "MiB"), ("pram.time", "count"),
    ("pram.work", "count"), ("batch.driver_ms", "ms"),
    ("parallel.hop_ms", "ms"), ("parallel.bytes_out", "bytes"),
    ("parallel.bytes_in", "bytes"), ("parallel.fallbacks", "count"),
    ("service.wait_conn_ms", "ms"), ("service.exchange_ms", "ms"),
    ("service.server_ms", "ms"), ("service.http_ms", "ms"),
    ("service.compute_ms", "ms"), ("service.window_ms", "ms"),
    ("service.lists_per_batch", "count"),
    ("service.cache_hit_ratio", "ratio"), ("service.shed", "count"),
    ("service.timeouts", "count"), ("service.gen_lag_p99_ms", "ms"),
    ("dynamic.build_ms", "ms"),
    *((f"dynamic.{op}.{q}_us", "us") for op in _OPS for q in ("p50", "p99")),
    ("dynamic.walk_share", "ratio"), ("dynamic.moves_per_edit", "count"),
    ("dynamic.max_moves_per_edit", "count"),
    ("dynamic.touched_per_edit", "count"),
    ("telemetry.overhead_ratio", "ratio"), ("unattributed_share", "ratio"),
    ("unattributed_share_p90", "ratio"), ("failed_ratio", "ratio"),
)

#: Set-up samples per end-to-end run; ``setup_s`` is their median.  The
#: measured run's own set-up is one; of the others, half come before it
#: and half after, so that they meet more of the host's speed phases.
SETUPS = 5


def run_limit_s(seconds: float) -> int:
    """Hard limit on one run before clean-up (which may take ~20 s
    more): the measured time twice over, plus set-up."""
    return int(2 * seconds) + 100


class Interrupted(KeyboardInterrupt):
    """SIGINT or SIGTERM reached the benchmark, or its time ran out
    (SIGALRM).  A KeyboardInterrupt, so that asyncio lets it through."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


#: Set as the first statement of clean-up; from then on a signal is
#: ignored, so none can cut clean-up short.
_cleaning = False


def _on_signal(signum, _frame):
    if not _cleaning:
        raise Interrupted(signum)


def host_facts() -> dict:
    import numpy

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text(
            ).strip()
        except OSError:
            continue
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "caches": caches, "python": platform.python_version(),
            "numpy": numpy.__version__}


def _clean_env() -> dict:
    """The caller's environment minus the program's own switches."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _child(sup: Supervisor, cmd: list[str]) -> dict:
    proc = sup.spawn(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                     env=_clean_env(), cwd=ROOT)
    try:
        stdout, _ = proc.communicate()
    finally:
        sup.stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[2]} driver exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def run_driver(sup: Supervisor, args) -> dict:
    base = [sys.executable, str(HERE / "driver.py"), args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")
    if args.inject == "corrupt":
        base += ["--inject", "corrupt"]
    full = base + ["--mode", "full"]
    if args.trace:
        spans = OUT / f"{args.workload}-{args.seed}-spans.jsonl"
        return _child(sup, full + ["--spans", str(spans)])
    setups = [_child(sup, base + ["--mode", "setup"])["setup_s"]
              for _ in range((SETUPS - 1) // 2)]
    res = _child(sup, full)
    setups.append(res["setup_s"])
    while len(setups) < SETUPS:
        setups.append(_child(sup, base + ["--mode", "setup"])["setup_s"])
    res["setup_s"] = median(setups)
    return res


def _leak_probe() -> None:
    """Test seam: leave a detached grandchild behind (double fork)."""
    code = ("import os, sys, time\n"
            "if os.fork(): os._exit(0)\n"
            "os.setsid(); sys.argv[0] = 'perfbench-leak-probe'\n"
            "time.sleep(120)\n")
    subprocess.run([sys.executable, "-c", code, "perfbench-leak-probe"],
                   stdin=subprocess.DEVNULL, check=True)


def _print_breakdown(rows: list[dict]) -> None:
    for k, row in enumerate(rows):
        parts = [f"{key} {val:.3f}" for key, val in sorted(row.items())
                 if key.endswith("_ms") and val]
        share = ""
        if row.get("op_ms"):
            share = f" | unattributed {row['unattributed'] / row['op_ms']:.1%}"
        print(f"traced op {k}: " + ", ".join(parts) + share)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(f"{k}: {v}" for k, v in WORKLOADS.items()))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test sizes: each workload in seconds")
    parser.add_argument("--inject", choices=("corrupt", "leak"),
                        help="test seam: a wrong answer or a leaked process")
    args = parser.parse_args(argv)
    global _cleaning
    _cleaning = False
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}"
                         "; run from a full checkout\n")
        return 2
    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    become_subreaper()
    sup = Supervisor()
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(sig, _on_signal)
    limit = run_limit_s(args.seconds)
    signal.alarm(limit)
    rc, res = 0, None
    try:
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}", flush=True)
        print(f"why: {WORKLOADS[args.workload]}")
        print("host: " + json.dumps(host_facts()), flush=True)
        if args.inject == "leak":
            _leak_probe()
        if args.workload == "service-100rps":
            import service

            try:
                res = service.run(sup, ROOT, OUT, args.seed, args.seconds,
                                  bool(args.trace), args.tiny, SETUPS)
            except service.Invalid as exc:
                sys.stderr.write(f"perfbench: invalid run: {exc}\n")
                rc = 3
        else:
            res = run_driver(sup, args)
    except Interrupted as exc:
        if exc.signum == signal.SIGALRM:
            sys.stderr.write(f"perfbench: run exceeded {limit} s\n")
            rc = 1
        else:
            sys.stderr.write(f"perfbench: interrupted by signal "
                             f"{exc.signum}\n")
            rc = 128 + exc.signum
    except Exception:  # noqa: BLE001 - report, then clean up and fail
        traceback.print_exc()
        rc = 1
    finally:
        _cleaning = True  # no statement before this one: see _on_signal
        signal.alarm(0)
        for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
            signal.signal(sig, signal.SIG_IGN)
        sup.close()
        left = sup.leftovers()
    if left:
        sys.stderr.write("perfbench: processes outlived the run (killed):\n"
                         + "".join(f"  {p}\n" for p in left))
        return rc or 4
    if rc or res is None:
        return rc or 1
    return report(args, res, time.monotonic() - start)


def report(args, res: dict, wall_s: float) -> int:
    """Print the summary and the result line; 1 on a wrong answer."""
    attempted, failed = int(res["attempted"]), int(res["failed"])
    metrics = dict(res["metrics"])
    wanted = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        metrics["failed_ratio"] = failed / attempted if attempted else 1.0
        _print_breakdown(res.get("breakdown", []))
    else:
        metrics["setup_s"] = res["setup_s"]
        print(f"{'p50_ms (not gated)':>28} {res['p50_ms']:14.6g} ms")
        if "task_ms" in res:  # the host's speed over the run
            took = res["task_ms"]
            print(f"reference task (hostspeed.py): median {took[0]:.2f} ms"
                  + (f", {took[1]:.2f} ms in two processes at once"
                     if len(took) > 1 else ""))
    for msg in res.get("wrong", []):
        print(f"WRONG: {msg}")
    correct = not res.get("wrong") and attempted > 0
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in wanted}
    for name, unit in wanted:
        print(f"{name:>28} {out[name]['value']:14.6g} {unit}")
    print(f"run wall time {wall_s:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
