"""``service-100rps``: ``repro serve`` in a subprocess, one client loop.

The server runs with its default configuration (port 0 aside) in a
session of its own, under the :class:`procs.Supervisor`.  The client is
this process: one asyncio loop, at most :data:`CONNECTIONS` keep-alive
connections, every request body encoded before the clock starts.

- Open loop: Poisson arrivals at :data:`RATE` per second.  A request is
  timed from the moment it was due to the last byte of its response, so
  a stall also charges the requests queued behind it.  When both
  connections are busy a due request waits for one (``wait_conn``).
- Closed loop: the same connections send back to back; completed
  requests per second is the service's capacity.

The generator's own lateness (due time to the moment it queued the
request) is measured; a run in which it fell behind is invalid.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from check import matching_error
from hostspeed import HostSpeed
from inputs import poisson_offsets, random_next, request_bytes, rng_for, \
    service_requests
from tracing import median, peak_rss_mb, quantile

HOST = "127.0.0.1"
#: Arrival rate of the open-loop phase (requests per second).
RATE = 100.0
#: Keep-alive connections: the core count of the host the workload was
#: sized on (2).  Fixed, so that the figures do not change with the host.
CONNECTIONS = 2
#: Shares of ``--seconds`` in the traced run: each server's open loop,
#: and the untraced server's closed loop.
TRACED_OPEN_SHARE = 0.4
TRACED_CLOSED_SHARE = 0.2
#: Ceiling on closed-loop throughput the request pool is sized for.
MAX_RPS = 600
#: A request that takes longer than this counts as timed out.
REQUEST_TIMEOUT_S = 10.0
#: The run is invalid when the generator's 99th-percentile lateness
#: exceeds this: it measured itself, not the server.
GEN_LAG_LIMIT_MS = 20.0
SERVER_START_S = 60.0


class Invalid(RuntimeError):
    """The measurement does not describe the server."""


@dataclass
class Record:
    index: int
    due: float
    lag: float
    send: float
    done: float
    status: int
    body: bytes


def _server_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Server:
    """One ``repro serve`` process: start, wait until ready, stop."""

    def __init__(self, sup, root: Path, out: Path, tag: str, *,
                 telemetry: Path | None = None,
                 record: Path | None = None) -> None:
        cmd = [sys.executable, "-m", "repro"]
        if telemetry is not None:
            cmd += ["--telemetry", f"jsonl:{telemetry}"]
        cmd += ["serve", "--port", "0"]
        if record is not None:
            cmd += ["--record", str(record)]
        self.sup = sup
        self.log = out / f"server-{tag}.log"
        self.t0 = time.perf_counter()
        with open(self.log, "w") as fh:
            self.proc = sup.spawn(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                  stdin=subprocess.DEVNULL,
                                  env=_server_env(root), cwd=root)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = self.t0 + SERVER_START_S
        port = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log.read_text()[-2000:]}")
            if port is None:
                text = self.log.read_text()
                if "serving on http://" in text:
                    port = int(text.split("serving on http://", 1)[1]
                               .split()[0].rsplit(":", 1)[1])
            if port is not None:
                try:
                    with urllib.request.urlopen(
                            f"http://{HOST}:{port}/readyz", timeout=5) as r:
                        if r.status == 200:
                            return port
                except OSError:
                    pass
            time.sleep(0.01)
        raise RuntimeError("server not ready within "
                           f"{SERVER_START_S:.0f} s")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        self.sup.stop(self.proc, grace_s=15.0)


async def _exchange(conn, raw: bytes) -> tuple[int, bytes]:
    reader, writer = conn
    writer.write(raw)
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    status = int(line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class Client:
    """The one client loop; records one :class:`Record` per request."""

    def __init__(self, port: int, raws: list[bytes]) -> None:
        self.port = port
        self.raws = raws
        self.records: list[Record] = []

    async def _open(self):
        return await asyncio.open_connection(HOST, self.port)

    async def _send(self, conn, i: int, due: float, lag: float):
        loop = asyncio.get_running_loop()
        send = loop.time()
        status, body = 0, b""
        try:
            if conn is None:
                conn = await self._open()
            status, body = await asyncio.wait_for(
                _exchange(conn, self.raws[i]), REQUEST_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError, IndexError) as exc:
            body = f"{type(exc).__name__}: {exc}".encode()
            if conn is not None:
                conn[1].close()
            conn = None
        self.records.append(Record(i, due, lag, send, loop.time(), status,
                                   body))
        return conn

    async def open_loop(self, offsets, first: int) -> None:
        """Requests ``first..`` at ``offsets`` seconds after the start."""
        loop = asyncio.get_running_loop()
        conns = [await self._open() for _ in range(CONNECTIONS)]
        queue: asyncio.Queue = asyncio.Queue()
        start = loop.time() + 0.05

        async def generate():
            for k, off in enumerate(offsets):
                due = start + float(off)
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                queue.put_nowait((first + k, due, loop.time() - due))
            for _ in conns:
                queue.put_nowait(None)

        async def work(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return conn
                conn = await self._send(conn, *item)

        results = await asyncio.gather(generate(),
                                       *(work(c) for c in conns))
        for conn in results[1:]:
            if conn is not None:
                conn[1].close()

    async def closed_loop(self, seconds: float, first: int) -> float:
        """Back-to-back requests ``first..`` for ``seconds``; returns the
        phase's elapsed time."""
        loop = asyncio.get_running_loop()
        conns = [await self._open() for _ in range(CONNECTIONS)]
        start = loop.time()
        end = start + seconds
        counter = iter(range(first, len(self.raws)))

        async def work(conn):
            while loop.time() < end:
                i = next(counter, None)
                if i is None:
                    break
                now = loop.time()
                conn = await self._send(conn, i, now, 0.0)
            return conn

        first_rec = len(self.records)
        results = await asyncio.gather(*(work(c) for c in conns))
        for conn in results:
            if conn is not None:
                conn[1].close()
        return max((r.done for r in self.records[first_rec:]),
                   default=loop.time()) - start


def check_records(records, nexts) -> tuple[int, list[str], list[dict]]:
    """Check every 200 answer against the list its request carried.
    Returns (failed, wrong answers, parsed bodies of the 200s)."""
    failed, wrong, bodies = 0, [], []
    for rec in records:
        if rec.status != 200:
            failed += 1
            bodies.append({})
            continue
        doc = json.loads(rec.body)
        err = matching_error(nexts[rec.index], doc.get("tails", []))
        if err is not None:
            failed += 1
            wrong.append(f"request {rec.index}: {err}")
        bodies.append(doc)
    return failed, wrong, bodies


def _latencies_ms(records, bodies) -> list[float]:
    """Due-to-last-byte times; a failed request is slower than any
    success (it is charged the request timeout)."""
    return [(r.done - r.due) * 1e3 if b else REQUEST_TIMEOUT_S * 1e3
            for r, b in zip(records, bodies)]


def run(sup, root: Path, out: Path, seed: int, seconds: float,
        trace: bool, tiny: bool, setups: int) -> dict:
    """The whole workload; returns the driver-shaped result dict.

    Untraced: the open loop for ``seconds``.  Traced: an untraced server
    runs the open loop then the closed loop (``p50_ms``, ``p99_ms``,
    ``ops_per_s``, the overhead baseline), then a traced server runs the
    same open-loop schedule for the per-layer figures.
    """
    sizes = (16, 64) if tiny else (64, 256, 1024, 4096)
    open_s = seconds * (TRACED_OPEN_SHARE if trace else 1.0)
    offsets = poisson_offsets(seed, RATE, open_s)
    closed_s = seconds * TRACED_CLOSED_SHARE if trace else 0.0
    reqs = service_requests(seed, len(offsets) + int(MAX_RPS * closed_s),
                            sizes=sizes)
    nexts = [nxt for nxt, _ in reqs]
    raws = [raw for _, raw in reqs]
    warm_next = random_next(1024, rng_for(seed, "warmup"))
    warm = request_bytes(warm_next)
    speed = HostSpeed()

    def start(tag, **kw) -> tuple[Server, float]:
        server = Server(sup, root, out, tag, **kw)
        status, body = asyncio.run(_warm(server.port, warm))
        if status != 200 or matching_error(
                warm_next, json.loads(body).get("tails", [])) is not None:
            raise RuntimeError(f"warm-up request failed: {status} {body!r}")
        took = time.perf_counter() - server.t0
        # At the reference speed, like the other workloads' set-up.
        return server, took / speed.slowdown(5)

    if trace:
        return _traced(start, out, seed, raws, nexts, offsets, closed_s)

    def setup_sample(k: int) -> float:
        server, took = start(f"setup{k}")
        server.stop()
        return took

    # As for the other workloads: half the extra samples before the
    # measured server, half after it.
    setup = [setup_sample(k) for k in range((setups - 1) // 2)]
    server, took = start("main")
    setup.append(took)
    try:
        client = Client(server.port, raws)
        asyncio.run(client.open_loop(offsets, 0))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    while len(setup) < setups:
        setup.append(setup_sample(len(setup)))
    failed, wrong, bodies = check_records(client.records, nexts)
    _require_on_schedule(client.records)
    p50 = median(_latencies_ms(client.records, bodies))
    return {
        "setup_s": median(setup),
        "attempted": len(client.records),
        "failed": failed,
        "wrong": wrong[:5],
        # Not scaled by host speed: most of a request is the batch
        # window's timer, and the client cannot stop between requests to
        # time the reference task without changing the offered load.
        "metrics": {"peak_rss_mb": rss, "p50_scaled_ms": p50},
        "p50_ms": p50,
    }


async def _warm(port: int, raw: bytes) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        return await asyncio.wait_for(_exchange((reader, writer), raw),
                                      REQUEST_TIMEOUT_S)
    finally:
        writer.close()


def _require_on_schedule(records) -> None:
    lag = quantile([r.lag for r in records], 0.99) * 1e3
    if lag > GEN_LAG_LIMIT_MS:
        raise Invalid(f"the generator ran {lag:.1f} ms late at p99 "
                      f"(limit {GEN_LAG_LIMIT_MS} ms): it measured itself")


def _traced(start, out: Path, seed: int, raws, nexts, offsets,
            closed_s: float) -> dict:
    spans = out / f"service-{seed}-server-spans.jsonl"
    manifest = out / f"service-{seed}-manifest.jsonl"
    for path in (spans, manifest):
        path.unlink(missing_ok=True)
    checked = {}
    for tag in ("untraced", "traced"):
        traced = tag == "traced"
        kw = {"telemetry": spans, "record": manifest} if traced else {}
        server, _ = start(tag, **kw)
        try:
            client = Client(server.port, raws)
            asyncio.run(client.open_loop(offsets, 0))
            n_open = len(client.records)
            if not traced:
                elapsed = asyncio.run(client.closed_loop(closed_s, n_open))
        finally:
            server.stop()
        checked[tag] = (client.records[:n_open], client.records[n_open:],
                        *check_records(client.records, nexts))
    records, _, failed, wrong, bodies = checked["traced"]
    base, closed, f_base, w_base, b_base = checked["untraced"]
    _require_on_schedule(records)
    _require_on_schedule(base)
    metrics, breakdown = _service_layers(records, bodies, spans, manifest)
    lat_base = _latencies_ms(base, b_base[:len(base)])
    metrics["p50_ms"] = median(lat_base)
    metrics["p99_ms"] = quantile(lat_base, 0.99)
    metrics["ops_per_s"] = sum(1 for r in closed if r.status == 200) / elapsed
    metrics["telemetry.overhead_ratio"] = (
        median(_latencies_ms(records, bodies)) / median(lat_base))
    return {
        "attempted": len(records) + len(base) + len(closed),
        "failed": failed + f_base,
        "wrong": (wrong + w_base)[:5],
        "metrics": metrics,
        "breakdown": breakdown,
    }


def _service_layers(records, bodies, spans_path: Path,
                    manifest_path: Path) -> tuple[dict, list[dict]]:
    """Per-request split of the traced open loop, from the client's
    stamps, each response's ``latency_ms``, the server's ``service.batch``
    spans (matched by trace id) and its drain manifest."""
    compute = {}
    with open(spans_path) as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("type") == "span" and doc["name"] == "service.batch":
                for trace_id in doc["attributes"].get("links", ()):
                    compute[trace_id] = doc["duration_s"] * 1e3
    manifest = {}
    with open(manifest_path) as fh:
        for line in fh:
            manifest = json.loads(line)
    extra = manifest["extra"]
    per = {k: [] for k in ("wait_conn", "exchange", "server", "http",
                           "compute", "window", "share")}
    breakdown = []
    for rec, doc in zip(records, bodies):
        if not doc:
            continue
        wait = (rec.send - rec.due) * 1e3
        exchange = (rec.done - rec.send) * 1e3
        server = float(doc["latency_ms"])
        comp = compute.get(doc.get("trace_id"), 0.0)
        row = {"wait_conn": wait, "exchange": exchange, "server": server,
               "http": exchange - server, "compute": comp,
               "window": server - comp}
        total = (rec.done - rec.due) * 1e3
        row["share"] = (total - wait - exchange) / total
        for key, val in row.items():
            per[key].append(val)
        if len(breakdown) < 12:
            shown = {f"service.{k}_ms": v for k, v in row.items()
                     if k != "share"}
            shown.update(op_ms=total, unattributed=total - wait - exchange)
            breakdown.append(shown)
    cache = extra["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics = {f"service.{k}_ms": median(v) for k, v in per.items()
               if k != "share"}
    metrics.update({
        "service.lists_per_batch": (extra["served"] - cache["hits"])
        / max(1, extra["batches"]),
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0,
        "service.shed": sum(extra["shed"].values()),
        "service.timeouts": extra["timeouts"],
        "service.gen_lag_p99_ms": quantile([r.lag for r in records],
                                           0.99) * 1e3,
        "unattributed_share": median(per["share"]),
        "unattributed_share_p90": quantile(per["share"], 0.9),
    })
    return metrics, breakdown
