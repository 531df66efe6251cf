"""Open-loop synthetic traffic against the matching service.

A locust-style load generator for ``repro serve``: request arrival
times are drawn *up front* from a seeded exponential process (open
loop — a slow server does not slow the offered load, so overload
actually overloads), workloads mix sizes/layouts from a small seeded
pool (so the response cache sees realistic reuse), and every response
is bucketed by status.  The run's verdict:

- **latency** — p50/p95/p99 over successful responses (gated by
  ``--require-p99-ms`` where hardware warrants a bar);
- **shed accounting (strict)** — every request must be accounted for:
  200s + 429s + 503s + 504s + transport errors == offered, and in
  ``--spawn`` mode the server's final manifest ledger must agree with
  the client-side counts;
- **correctness (strict)** — a sample of successful responses is
  re-verified bit-identical against the reference tier (spec
  workloads are regenerable client-side);
- **error rate (strict)** — 5xx beyond ``--max-error-rate`` fails.

Run against a live server (``--url``) or let the bench own the whole
lifecycle (``--spawn``: start ``repro serve`` on a free port, load it,
SIGTERM it, and check the drain manifest)::

    PYTHONPATH=src python benchmarks/bench_service.py --spawn \\
        --requests 200 --rate 100 --seed 0 --json service-bench.json

Observability extensions (all ``--spawn``-only):

- ``--debug-probe`` — while the server is still up, fetch
  ``/debug/vars`` and check the server's rolling-window rates and SLO
  burn against what this client measured;
- ``--server-telemetry PATH`` — run the server under a JSONL span
  sink (the raw material for trace reconstruction);
- ``--trace-json PATH`` — after the run, reconstruct the first
  request's span tree from the server telemetry and write it as a
  Chrome Trace (``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.service.client import get, post_json

DEFAULT_SIZES = (64, 256, 1024, 4096)
DEFAULT_LAYOUTS = ("random", "sequential", "sawtooth")


def plan_requests(args) -> list[dict]:
    """The seeded open-loop schedule: one dict per request, in order."""
    rng = random.Random(args.seed)
    sizes = [int(s) for s in args.sizes.split(",")]
    layouts = args.layouts.split(",")
    plan = []
    t = 0.0
    for i in range(args.requests):
        if i >= args.burst:  # the first ``burst`` requests arrive at t=0
            t += rng.expovariate(args.rate)
        plan.append({
            "at": t,
            "body": {
                "n": rng.choice(sizes),
                "layout": rng.choice(layouts),
                "seed": rng.randrange(args.seed_pool),
                "deadline_ms": args.deadline_ms,
                "cache": not args.no_cache,
            },
        })
    return plan


async def fire(host: str, port: int, item: dict, results: list) -> None:
    await asyncio.sleep(item["at"])
    t0 = time.perf_counter()
    try:
        resp = await post_json(host, port, "/v1/match", item["body"],
                               timeout=item["body"]["deadline_ms"] / 1000.0
                               + 30.0)
    except Exception as exc:  # noqa: BLE001 - transport failure bucket
        results.append({
            "status": 0, "latency_ms": (time.perf_counter() - t0) * 1e3,
            "error": f"{type(exc).__name__}: {exc}", "body": item["body"],
        })
        return
    entry = {
        "status": resp.status,
        "latency_ms": (time.perf_counter() - t0) * 1e3,
        "body": item["body"],
    }
    if resp.status == 200:
        data = resp.json()
        entry["cache"] = data.get("cache")
        entry["served_by"] = data.get("served_by")
        entry["degraded"] = data.get("degraded")
        entry["tails"] = data.get("tails")
    results.append(entry)


async def run_load(host: str, port: int, plan: list[dict]) -> list[dict]:
    results: list[dict] = []
    await asyncio.gather(*(fire(host, port, item, results)
                           for item in plan))
    return results


def quantiles(values: list[float]) -> dict:
    if not values:
        return {"p50": None, "p95": None, "p99": None}
    ordered = sorted(values)

    def at(q: float) -> float:
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
        return round(ordered[rank], 3)

    return {"p50": at(0.50), "p95": at(0.95), "p99": at(0.99)}


def verify_sample(results: list[dict], sample: int, seed: int) -> int:
    """Recompute ``sample`` successful responses on the reference tier
    and require bit-identical tails.  Returns the number verified."""
    from repro.core.maximal_matching import maximal_matching
    from repro.service.workload import LAYOUTS

    ok = [r for r in results if r["status"] == 200 and r.get("tails")
          is not None]
    rng = random.Random(seed)
    picked = rng.sample(ok, min(sample, len(ok)))
    for r in picked:
        body = r["body"]
        lst = LAYOUTS[body["layout"]](body["n"], body["seed"])
        expect = maximal_matching(lst, algorithm="match4",
                                  backend="reference").matching
        got = np.asarray(r["tails"], dtype=np.int64)
        if not np.array_equal(np.sort(got), np.sort(expect.tails)):
            raise AssertionError(
                f"response for {body} is not bit-identical to reference"
            )
    return len(picked)


def summarize(results: list[dict], verified: int) -> dict:
    by_status: dict[str, int] = {}
    for r in results:
        key = str(r["status"])
        by_status[key] = by_status.get(key, 0) + 1
    total = len(results)
    oks = [r for r in results if r["status"] == 200]
    hits = sum(1 for r in oks if r.get("cache") == "hit")
    degraded = sum(1 for r in oks if r.get("degraded"))
    errors = sum(1 for r in results if 500 <= r["status"] < 600
                 or r["status"] == 0)
    shed = by_status.get("429", 0) + by_status.get("503", 0)
    return {
        "offered": total,
        "by_status": dict(sorted(by_status.items())),
        "latency_ms": quantiles([r["latency_ms"] for r in oks]),
        "latency_ms_all": quantiles([r["latency_ms"] for r in results]),
        "shed_rate": round(shed / total, 4) if total else 0.0,
        "timeout_rate": round(by_status.get("504", 0) / total, 4)
        if total else 0.0,
        "error_rate": round(errors / total, 4) if total else 0.0,
        "cache_hit_rate": round(hits / len(oks), 4) if oks else 0.0,
        "degraded": degraded,
        "verified_bit_identical": verified,
    }


def spawn_server(args, manifest: Path) -> tuple[subprocess.Popen, int]:
    cmd = [sys.executable, "-m", "repro"]
    if args.server_telemetry:
        cmd += ["--telemetry", f"jsonl:{args.server_telemetry}"]
    cmd += [
        "serve", "--port", "0",
        "--max-queue", str(args.max_queue),
        "--max-batch-items", str(args.max_batch_items),
        "--deadline-ms", str(args.deadline_ms),
        "--record", str(manifest),
    ]
    if args.server_workers:
        cmd += ["--workers", str(args.server_workers)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    banner = proc.stdout.readline().strip()
    if "http://" not in banner:
        proc.kill()
        raise SystemExit(f"server failed to start: {banner!r}")
    port = int(banner.rsplit(":", 1)[1])
    return proc, port


def probe_debug(host: str, port: int) -> dict:
    """Hit ``/debug/vars`` while the server is up."""
    from repro.service.client import fetch_json

    status, vars_doc = fetch_json(f"http://{host}:{port}/debug/vars")
    if status != 200 or not isinstance(vars_doc, dict):
        raise AssertionError(f"/debug/vars probe failed: status {status}")
    live = vars_doc["live"]
    return {
        "count": live["count"],
        "latency_ms": live["latency_ms"],
        "rates": live["rates"],
        "slo": live["slo"],
        "served": vars_doc["totals"]["served"],
    }


def check_debug_probe(probe: dict, summary: dict) -> list[str]:
    """The server's rolling window must agree with the client's books.

    Only enforced when the window still covers the whole run (live
    count == every request the server actually saw); transport errors
    (status 0) never reach the server so they are excluded.
    """
    problems = []
    reached = summary["offered"] - summary["by_status"].get("0", 0)
    if probe["count"] != reached:
        return problems  # window rolled past part of the run: no gate
    for live_key, bench_key in (("shed", "shed_rate"),
                                ("timeout", "timeout_rate")):
        got, want = probe["rates"][live_key], summary[bench_key]
        if abs(got - want) > 0.02:
            problems.append(
                f"live {live_key} rate {got} != measured {want}")
    # SLO burn: the bad fraction must at least cover every shed and
    # timeout the client saw (server-side latency can only add badness,
    # never remove it).
    floor = (summary["shed_rate"] + summary["timeout_rate"]) * 0.98
    if probe["slo"]["bad_rate"] + 1e-9 < floor:
        problems.append(
            f"SLO bad rate {probe['slo']['bad_rate']} below the "
            f"shed+timeout floor {round(floor, 4)}")
    return problems


def write_trace_json(telemetry: Path, out: Path) -> dict:
    """Reconstruct the first request's span tree as a Chrome Trace."""
    from repro.telemetry import (
        request_trace_events,
        request_trace_ids,
        spans_from_jsonl,
    )

    spans = spans_from_jsonl(telemetry)
    ids = request_trace_ids(spans)
    if not ids:
        raise AssertionError(
            f"no request traces found in {telemetry} — was the server "
            "running with telemetry enabled?")
    events = request_trace_events(spans, ids[0])
    out.write_text(json.dumps({"traceEvents": events}, indent=2) + "\n")
    return {"traces": len(ids), "trace_id": ids[0], "events": len(events),
            "path": str(out)}


def check_manifest_ledger(manifest: Path, summary: dict) -> dict:
    """Strict shed accounting: the server's final ledger must agree
    with what the client observed."""
    lines = manifest.read_text().splitlines()
    record = json.loads(lines[-1])
    extra = record["extra"]
    server_shed = sum(extra.get("shed", {}).values())
    client_shed = (summary["by_status"].get("429", 0)
                   + summary["by_status"].get("503", 0))
    problems = []
    if extra.get("errors", 0) != sum(
            v for k, v in summary["by_status"].items()
            if k.isdigit() and 500 <= int(k) < 600):
        problems.append(
            f"server errors {extra.get('errors')} != client 5xx count")
    if server_shed != client_shed:
        problems.append(
            f"server shed {server_shed} != client shed {client_shed}")
    served = summary["by_status"].get("200", 0)
    if extra.get("served", 0) != served:
        problems.append(
            f"server served {extra.get('served')} != client 200s {served}")
    if problems:
        raise AssertionError("manifest ledger mismatch: "
                             + "; ".join(problems))
    return {"kind": record["kind"], "drain": extra.get("drain"),
            "served": extra.get("served"), "shed": extra.get("shed"),
            "cache": extra.get("cache")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="",
                        help="target service (http://host:port); "
                             "mutually exclusive with --spawn")
    parser.add_argument("--spawn", action="store_true",
                        help="start/drain a repro serve subprocess")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--rate", type=float, default=100.0,
                        help="mean offered arrivals per second")
    parser.add_argument("--burst", type=int, default=0,
                        help="this many requests arrive at t=0 "
                             "(admission-pressure injection)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)))
    parser.add_argument("--layouts", default=",".join(DEFAULT_LAYOUTS))
    parser.add_argument("--seed-pool", type=int, default=8,
                        help="distinct workload seeds (cache reuse)")
    parser.add_argument("--deadline-ms", type=float, default=5000.0,
                        help="per-request deadline (small values inject "
                             "timeouts)")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--verify", type=int, default=8,
                        help="responses to re-verify against reference")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="--spawn: server admission depth")
    parser.add_argument("--max-batch-items", type=int, default=16)
    parser.add_argument("--server-workers", type=int, default=0,
                        help="--spawn: shard batches across N processes")
    parser.add_argument("--manifest", default="service-runs.jsonl",
                        help="--spawn: server RunRecord manifest path")
    parser.add_argument("--json", default="",
                        help="write the summary JSON here")
    parser.add_argument("--require-p99-ms", type=float, default=0.0,
                        help="fail if success p99 exceeds this (0: off)")
    parser.add_argument("--max-error-rate", type=float, default=0.0,
                        help="fail beyond this 5xx/transport rate "
                             "(default 0: strict)")
    parser.add_argument("--max-shed-rate", type=float, default=1.0,
                        help="fail beyond this 429/503 rate (default: off)")
    parser.add_argument("--debug-probe", action="store_true",
                        help="--spawn: probe /debug/vars and cross-check "
                             "the live rates")
    parser.add_argument("--server-telemetry", default="",
                        help="--spawn: run the server with a JSONL span "
                             "sink at this path")
    parser.add_argument("--trace-json", default="",
                        help="write the first request's reconstructed "
                             "span tree here (needs --server-telemetry)")
    args = parser.parse_args(argv)

    spawn_only = [name for name, on in (
        ("--debug-probe", args.debug_probe),
        ("--server-telemetry", bool(args.server_telemetry)),
    ) if on and not args.spawn]
    if spawn_only:
        raise SystemExit(f"{', '.join(spawn_only)} require --spawn")
    if args.trace_json and not args.server_telemetry:
        raise SystemExit("--trace-json needs --server-telemetry")

    plan = plan_requests(args)
    proc = None
    manifest = Path(args.manifest)
    if args.spawn:
        proc, port = spawn_server(args, manifest)
        host = "127.0.0.1"
    elif args.url:
        host, _, port_s = args.url.removeprefix("http://").partition(":")
        port = int(port_s)
    else:
        raise SystemExit("pass --spawn or --url")

    probe = None
    try:
        # Readiness: the spawned server prints its banner before the
        # first accept, so one probe round-trip suffices.
        asyncio.run(get(host, port, "/readyz"))
        results = asyncio.run(run_load(host, port, plan))
        if args.debug_probe:
            probe = probe_debug(host, port)
    finally:
        if proc is not None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)

    verified = verify_sample(results, args.verify, args.seed)
    summary = summarize(results, verified)
    summary["config"] = {
        "requests": args.requests, "rate": args.rate, "burst": args.burst,
        "seed": args.seed, "sizes": args.sizes, "layouts": args.layouts,
        "seed_pool": args.seed_pool, "deadline_ms": args.deadline_ms,
        "cache": not args.no_cache, "spawn": args.spawn,
    }
    if args.spawn:
        summary["manifest"] = check_manifest_ledger(manifest, summary)

    failures = []
    if probe is not None:
        summary["debug_probe"] = probe
        failures += check_debug_probe(probe, summary)
    if args.trace_json:
        summary["trace"] = write_trace_json(Path(args.server_telemetry),
                                            Path(args.trace_json))

    print(json.dumps({k: v for k, v in summary.items() if k != "config"},
                     indent=2))
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")

    if summary["error_rate"] > args.max_error_rate:
        failures.append(
            f"error rate {summary['error_rate']} > {args.max_error_rate}")
    if summary["shed_rate"] > args.max_shed_rate:
        failures.append(
            f"shed rate {summary['shed_rate']} > {args.max_shed_rate}")
    p99 = summary["latency_ms"]["p99"]
    if args.require_p99_ms and p99 is not None and p99 > args.require_p99_ms:
        failures.append(f"p99 {p99}ms > {args.require_p99_ms}ms")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print(f"OK: {summary['by_status'].get('200', 0)}/{summary['offered']} "
          f"served, shed rate {summary['shed_rate']}, "
          f"p99 {p99}ms, {verified} verified bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
