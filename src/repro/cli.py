"""Command-line interface: ``python -m repro <command> ...``.

Gives the library a shell-usable face:

- ``match``  — run one maximal-matching algorithm, print the summary
  and phase breakdown (``--backend numpy`` for the vectorized engine).
- ``algorithms`` — list the registered algorithms with their backends,
  paper sections, and keyword parameters.
- ``rank``   — list ranking by contraction / Wyllie / sequential.
- ``color``  — 3-coloring summary.
- ``curve``  — sweep the processor axis for one algorithm and print
  the time/efficiency table (the E6-style view).
- ``info``   — the support functions for an ``n``: ``log^(i) n``,
  ``G(n)``, ``log G(n)``, Match4 row counts.
- ``fold``   — data-dependent prefix/suffix folds (sum/max/min).
- ``trace``  — space-time diagram of the instruction-level Match4.
- ``selfcheck`` — the installation check battery.
- ``dynamic`` — churn a live list through a seeded edit stream while
  the matching is repaired locally (or recomputed per batch), with
  optional fault injection and a final uniform-contraction pass (see
  ``docs/dynamic.md``).
- ``profile`` — one-shot profiler: run an algorithm under telemetry
  capture (plus an instruction-level machine twin), write a Perfetto
  trace, a ProfileReport JSON, and a RunRecord manifest.
- ``report`` — render RunRecord JSONL manifests into a self-contained
  static HTML dashboard (no external resources).
- ``fig1``   — render the paper's Fig. 1 (or any small list) as an
  ASCII arc diagram, optionally with Fig. 2's bisector.
- ``resilience`` — inject processor crashes / memory bit-flips /
  dropped writes into an instruction-level run and recover via
  checkpoint-restart, the self-stabilizing repair pass, or the
  degradation ladder (see ``docs/resilience.md``).
- ``serve`` — the matching-as-a-service HTTP server: bounded
  admission, micro-batching, deadlines, response cache, graceful
  drain (see ``docs/service.md``).

Everything prints deterministic output for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


LAYOUT_CHOICES = ["random", "sequential", "reversed", "sawtooth",
                  "blocked", "gray", "bitrev", "interleaved"]


def _make_list(n: int, layout: str, seed: int):
    from .lists import (
        bit_reversal_list,
        blocked_list,
        gray_code_list,
        interleaved_list,
        random_list,
        reversed_list,
        sawtooth_list,
        sequential_list,
    )

    makers: dict[str, Callable] = {
        "random": lambda: random_list(n, rng=seed),
        "sequential": lambda: sequential_list(n),
        "reversed": lambda: reversed_list(n),
        "sawtooth": lambda: sawtooth_list(n),
        "blocked": lambda: blocked_list(n, block=max(1, n // 8), rng=seed),
        "gray": lambda: gray_code_list(n),
        "bitrev": lambda: bit_reversal_list(n),
        "interleaved": lambda: interleaved_list(n, ways=max(1, n // 16)),
    }
    return makers[layout]()


def _cmd_match(args: argparse.Namespace) -> int:
    import time

    from .core.maximal_matching import maximal_matching
    import repro.baselines  # noqa: F401  (registers baselines)

    lst = _make_list(args.n, args.layout, args.seed)
    kwargs = {}
    if args.algorithm == "match4":
        kwargs["iterations"] = args.i
    t0 = time.perf_counter()
    result = maximal_matching(
        lst, algorithm=args.algorithm, backend=args.backend,
        p=args.p, **kwargs
    )
    wall_s = time.perf_counter() - t0
    matching, report = result.matching, result.report
    requested = result.extras.get("requested_backend")
    print(f"algorithm : {args.algorithm}")
    print(f"backend   : {result.backend}"
          + (f" (requested {requested})" if requested else ""))
    print(f"n, p      : {args.n}, {args.p}")
    print(f"matched   : {matching.size} of {args.n - 1} pointers")
    print(f"maximal   : {matching.is_maximal}")
    print(f"PRAM time : {report.time} steps")
    print(f"work      : {report.work} ({report.work / args.n:.2f} per node)")
    if report.phases:
        print("phases    :")
        for ph in report.phases:
            print(f"  {ph.name:<12} {ph.time:>8}")
    if args.record:
        from .telemetry.runrecord import RunRecord, append_record
        from .telemetry import resources as _resources

        extra = {}
        if _resources.enabled():
            extra["resources"] = _resources.build_report(
                backend=result.backend).to_dict()
        record = RunRecord.from_result(
            result, seed=args.seed, wall_s=wall_s, layout=args.layout,
            **extra,
        )
        path = append_record(args.record, record)
        print(f"recorded  : {path}")
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    from .core.maximal_matching import ALGORITHMS
    import repro.baselines  # noqa: F401  (registers baselines)

    records = ALGORITHMS.describe()
    if args.list:
        for rec in records:
            print(rec["name"])
        return 0
    for rec in records:
        print(rec["name"] + (" (optimal)" if rec["optimal"] else ""))
        print(f"  backends : {', '.join(rec['backends'])}")
        if rec["paper_section"]:
            print(f"  paper    : {rec['paper_section']}")
        if rec["params"]:
            print(f"  kwargs   : {', '.join(rec['params'])}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    from .apps.ranking import list_ranks, sequential_ranks

    lst = _make_list(args.n, args.layout, args.seed)
    ranks, report = list_ranks(lst, p=args.p, algorithm=args.algorithm)
    ok = np.array_equal(ranks, sequential_ranks(lst))
    print(f"algorithm : {args.algorithm}")
    print(f"n, p      : {args.n}, {args.p}")
    print(f"PRAM time : {report.time} steps")
    print(f"work      : {report.work} ({report.work / args.n:.2f} per node)")
    print(f"verified  : {ok}")
    return 0 if ok else 1


def _cmd_color(args: argparse.Namespace) -> int:
    from .apps.coloring import three_coloring

    lst = _make_list(args.n, args.layout, args.seed)
    colors, report = three_coloring(lst, p=args.p)
    hist = np.bincount(colors, minlength=3)
    print(f"n, p      : {args.n}, {args.p}")
    print(f"PRAM time : {report.time} steps")
    print(f"classes   : {hist.tolist()}")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from .analysis.experiments import powers_up_to
    from .analysis.report import format_table
    from .core.maximal_matching import maximal_matching
    import repro.baselines  # noqa: F401

    lst = _make_list(args.n, args.layout, args.seed)
    rows = []
    kwargs = {"iterations": args.i} if args.algorithm == "match4" else {}
    for p in powers_up_to(args.n, base=args.base):
        _, report, _ = maximal_matching(
            lst, algorithm=args.algorithm, backend=args.backend,
            p=p, **kwargs
        )
        rows.append({
            "p": p,
            "time": report.time,
            "cost": report.cost,
            "eff": args.n / report.cost,
        })
    print(format_table(
        rows,
        ["p", "time", ("cost", "time*p"), ("eff", "n/(time*p)")],
        title=f"{args.algorithm} on n={args.n} ({args.layout})",
    ))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .bits.iterated_log import G, ilog2, log_G
    from .core.match4 import plan_rows

    n = args.n
    print(f"n          : {n}")
    print(f"G(n)       : {G(n)}")
    print(f"log G(n)   : {log_G(n)}")
    for i in range(1, G(n)):
        try:
            val = ilog2(n, i)
        except Exception:
            break
        print(f"log^({i}) n  : {val:.4f}   (Match4 rows x = {plan_rows(n, i)})")
    return 0


def _cmd_fold(args: argparse.Namespace) -> int:
    from .apps.fold import list_prefix_fold, list_suffix_fold

    lst = _make_list(args.n, args.layout, args.seed)
    values = np.arange(args.n, dtype=np.int64)
    fn = list_prefix_fold if args.direction == "prefix" else list_suffix_fold
    out, report, stats = fn(lst, values, op=args.op, p=args.p)
    print(f"{args.direction} {args.op} over {args.n} nodes "
          f"({stats.levels} contraction levels)")
    print(f"PRAM time : {report.time} steps")
    print(f"work      : {report.work} ({report.work / args.n:.2f} per node)")
    anchor = lst.tail if args.direction == "prefix" else lst.head
    print(f"full fold : {int(out[anchor])}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .lists import random_list
    from .pram.algorithms import run_match4
    from .pram.trace import processor_activity, utilization

    lst = random_list(args.n, rng=args.seed)
    tails, report = run_match4(lst, i=args.i, trace=True)
    print(f"instruction-level Match4: n={args.n}, "
          f"{report.nprocs} column processors, {report.steps} EREW steps, "
          f"utilization {utilization(report):.3f}")
    print(processor_activity(report, max_procs=args.rows,
                             step_range=(args.start, args.start + args.span)))
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from ._buildinfo import version_string
    from .selfcheck import run_selfcheck

    print(version_string())
    report = run_selfcheck(n=args.n, seed=args.seed)
    print(report.summary)
    return 0 if report.passed else 1


def _cmd_dynamic(args: argparse.Namespace) -> int:
    import json

    from .core.matching import verify_maximal_matching
    from .dynamic import ChurnConfig, ChurnSession
    from .pram.faults import FaultPlan

    cfg = ChurnConfig(
        steps=args.steps, seed=args.seed, n_initial=args.n,
        layout=args.layout, burstiness=args.burstiness,
        burst_len=args.burst_len, hotspot=args.hotspot)

    plan = None
    if args.flips or args.drops:
        plan = FaultPlan.random(
            seed=args.seed, nprocs=1, memory_size=max(args.n * 2, 8),
            max_step=max(args.steps, 1), crashes=0,
            flips=args.flips, drops=args.drops)

    sess = ChurnSession(cfg, fault_plan=plan,
                        maintain=(args.maintain == "repair"))
    if args.maintain == "recompute":
        batch = max(args.batch, 1)

        def on_edit(s: ChurnSession, k: int, op: str) -> None:
            if k % batch == 0:
                s.dyn.recompute(backend=args.backend)

        result = sess.run(on_edit=on_edit)
        if sess.dyn.ledger.edits % batch:
            sess.dyn.recompute(backend=args.backend)
    else:
        result = sess.run()

    if plan is not None:
        rep = sess.dyn.stabilize()
        print(f"faults: {result.faults_injected} injected "
              f"({result.writes_suppressed} writes dropped), "
              f"stabilize: {rep.moves} moves over {rep.components} "
              f"components, {rep.dead_bits_cleared} dead bits cleared")

    sess.dyn.verify()
    for snap in sess.dyn.components():
        verify_maximal_matching(snap.lst, snap.tails)
    led = sess.dyn.ledger
    print(f"churn: {result.steps_run} edits on layout={cfg.layout} "
          f"(seed={cfg.seed}, burstiness={cfg.burstiness}, "
          f"hotspot={cfg.hotspot})")
    ops = ", ".join(f"{k}={v}" for k, v in sorted(result.applied.items()))
    print(f"ops: {ops}")
    print(f"repair: {led.moves} moves / {led.edits} edits "
          f"(amortized {led.amortized_moves():.2f}, "
          f"max {led.max_moves_per_edit}/edit, "
          f"touched max {led.max_touched_per_edit}), "
          f"recomputes={led.recomputes}")
    print(f"arena: {sess.dyn.n_live} live nodes, "
          f"{sess.dyn.heads().size} components, "
          f"{sess.dyn.tails().size} matched pointers — "
          f"all components verified maximal")

    if args.contract:
        from .apps import contract_dynamic
        rounds = [stats.rounds
                  for _, _, _, stats in contract_dynamic(sess.dyn)]
        print(f"contraction: {len(rounds)} components contracted to "
              f"one node in {max(rounds) if rounds else 0} rounds "
              f"(max), round 0 seeded by the maintained matching")

    if args.json:
        out = result.to_dict()
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .telemetry import (
        RunRecord,
        append_record,
        chrome_trace_events,
        machine_trace_events,
        profile_matching,
        resource_counter_events,
        write_chrome_trace,
    )
    from .telemetry.sinks import json_default
    import repro.baselines  # noqa: F401  (registers baselines)
    import json

    lst = _make_list(args.n, args.layout, args.seed)
    kwargs = {}
    if args.algorithm == "match4":
        kwargs["iterations"] = args.i
    machine_trace = (args.machine_n > 0
                     and args.algorithm in ("match1", "match4"))
    machine_list = None
    if machine_trace and args.machine_n < args.n:
        machine_list = _make_list(args.machine_n, args.layout, args.seed)

    run = profile_matching(
        lst, algorithm=args.algorithm, backend=args.backend, p=args.p,
        machine_trace=machine_trace, machine_list=machine_list,
        resources=args.memory, **kwargs,
    )
    profile = run.profile.validate()
    print(profile.summary())
    if run.resources is not None:
        print(run.resources.summary())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    events = chrome_trace_events(run.spans)
    if run.resources is not None:
        events += resource_counter_events(run.spans)
    if run.machine_report is not None:
        events += machine_trace_events(run.machine_report)
    trace_path = write_chrome_trace(
        out / "trace.json", events,
        metadata={"algorithm": args.algorithm, "backend": args.backend,
                  "n": args.n, "p": args.p, "seed": args.seed},
    )
    profile_path = out / "profile.json"
    profile_path.write_text(
        json.dumps(profile.to_dict(), indent=2, default=json_default) + "\n",
        encoding="utf-8")
    extra = {}
    if run.resources is not None:
        extra["resources"] = run.resources.to_dict()
    record = RunRecord.from_result(
        run.result, seed=args.seed, wall_s=profile.wall_s,
        layout=args.layout,
        utilization=profile.utilization,
        occupancy=[list(row) for row in profile.occupancy]
        if profile.occupancy is not None else None,
        **extra,
    )
    manifest_path = append_record(out / "runs.jsonl", record)
    print("written   :")
    for p in (trace_path, profile_path, manifest_path):
        print(f"  {p}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .telemetry import read_records, write_report

    records = read_records(args.manifests[-1])
    baseline = None
    if len(args.manifests) > 1:
        baseline = []
        for path in args.manifests[:-1]:
            baseline.extend(read_records(path))
    path = write_report(args.out, records, baseline=baseline,
                        title=args.title)
    print(f"report    : {path} ({len(records)} record(s))")
    return 0


def _parse_fault_specs(args: argparse.Namespace):
    """Build a FaultPlan from --crash-at / --flip / --drop-write specs."""
    from .pram.faults import BitFlip, DroppedWrite, FaultPlan, ProcessorCrash

    def ints(spec: str, parts: int, flag: str) -> list[int]:
        toks = spec.split(":")
        if len(toks) != parts:
            raise SystemExit(
                f"{flag} wants {parts} colon-separated integers, "
                f"got {spec!r}"
            )
        return [int(t) for t in toks]

    faults = []
    for spec in args.crash_at:
        step, pid = ints(spec, 2, "--crash-at STEP:PID")
        faults.append(ProcessorCrash(step=step, pid=pid))
    for spec in args.flip:
        step, addr, bit = ints(spec, 3, "--flip STEP:ADDR:BIT")
        faults.append(BitFlip(step=step, addr=addr, bit=bit))
    for spec in args.drop_write:
        step, pid = ints(spec, 2, "--drop-write STEP:PID")
        faults.append(DroppedWrite(step=step, pid=pid))
    return FaultPlan(faults)


def _cmd_resilience(args: argparse.Namespace) -> int:
    from .core.matching import verify_maximal_matching
    from .errors import VerificationError
    from .pram.algorithms import run_match1, run_match4
    from .resilience import repair_matching, resilient_matching

    lst = _make_list(args.n, args.layout, args.seed)
    plan = _parse_fault_specs(args)
    runner = run_match4 if args.algorithm == "match4" else run_match1
    kwargs = {"i": args.i} if args.algorithm == "match4" else {}

    if args.strategy == "ladder":
        # Degradation-ladder demo: the first --fail-first attempts are
        # sabotaged (one matched pointer deleted), the ladder recovers.
        fail_first = args.fail_first
        result = resilient_matching(
            lst,
            backend=args.backend,
            perturb=lambda tails, i: tails[1:] if i < fail_first else tails,
            repair=args.repair,
            tries_per_rung=args.tries_per_rung,
        )
        print(result.log.summary)
        print(f"matched   : {result.matching.size} of {args.n - 1} pointers")
        print(f"degraded  : {result.degraded}")
        print("verified  : True")
        return 0

    clean, _ = runner(lst, **kwargs)
    if args.strategy == "restart":
        tails, report = runner(
            lst, fault_plan=plan, recover=True,
            checkpoint_interval=args.checkpoint_interval, **kwargs,
        )
        print(f"algorithm : instruction-level {args.algorithm}")
        print(f"faults    : {len(report.faults)} injected")
        for e in report.faults:
            print(f"  step {e.step:>5}  {e.kind:<13} "
                  f"{'effective' if e.effective else 'no-op':<9}  {e.detail}")
    else:  # repair
        tails, report = runner(lst, fault_plan=plan, **kwargs)
        print(f"algorithm : instruction-level {args.algorithm}")
        print(f"faults    : {len(report.faults)} injected (no restart)")
        try:
            verify_maximal_matching(lst, tails)
            print("corrupted : no (faults did not damage the matching)")
        except VerificationError as exc:
            print(f"corrupted : yes — {exc}")
        tails, stats = repair_matching(lst, tails)
        print(f"repair    : {stats.n_sanitized} sanitized, "
              f"{stats.n_dropped} dropped, {stats.n_added} re-matched "
              f"in {stats.rounds} round(s)")
    try:
        verify_maximal_matching(lst, tails)
        verified = True
    except VerificationError as exc:
        verified = False
        print(f"FAILED    : {exc}")
    print(f"matched   : {tails.size} of {args.n - 1} pointers")
    print(f"identical : {np.array_equal(tails, clean)} (vs fault-free run)")
    print(f"verified  : {verified}")
    return 0 if verified else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import MatchingService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        algorithm=args.algorithm,
        backend=args.backend,
        workers=args.workers,
        max_queue_depth=args.max_queue,
        max_inflight_bytes=int(args.max_inflight_mb * (1 << 20)),
        max_batch_items=args.max_batch_items,
        default_deadline_ms=args.deadline_ms,
        cache_size=args.cache_size,
        drain_deadline_s=args.drain_deadline_s,
        retry_after_s=args.retry_after_s,
        manifest_path=args.record,
    )
    return MatchingService(config).run()


def _cmd_fig1(args: argparse.Namespace) -> int:
    from .lists import LinkedList
    from .lists.diagram import arc_diagram

    if args.order:
        order = [int(tok) for tok in args.order.split(",")]
        lst = LinkedList.from_order(order)
    else:
        # the paper's Fig. 1: x0..x6 at addresses 0,2,4,1,5,3,6... the
        # figure shows order 0 -> 2 -> 4 -> 1 -> 5 -> 3 -> 6.
        lst = LinkedList.from_order([0, 2, 4, 1, 5, 3, 6])
    print(arc_diagram(lst, bisector=args.bisector))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests and docs)."""
    from ._buildinfo import version_string

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Maximal matching of linked lists on a simulated PRAM "
            "(Han, SPAA 1989)."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=version_string())
    parser.add_argument(
        "--telemetry", default=None, metavar="MODE",
        help="telemetry sink: off, log/stderr, or jsonl:PATH "
             "(default: the REPRO_TELEMETRY environment variable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=1 << 14,
                       help="list size (default 16384)")
        p.add_argument("--p", type=int, default=256,
                       help="processor count (default 256)")
        p.add_argument("--layout", default="random",
                       choices=LAYOUT_CHOICES)
        p.add_argument("--seed", type=int, default=0)

    from .backends import backend_choices, backend_names

    m = sub.add_parser("match", help="run one matching algorithm")
    common(m)
    m.add_argument("--algorithm", default="match4",
                   choices=["match1", "match2", "match3", "match4",
                            "sequential", "random_mate"])
    m.add_argument("--backend", default="reference",
                   choices=backend_choices(),
                   help="execution backend (default reference; 'auto': "
                        "numpy where it implements the algorithm)")
    m.add_argument("--i", type=int, default=2,
                   help="Match4's iterations parameter")
    m.add_argument("--record", default="", metavar="PATH",
                   help="append a RunRecord JSON line to PATH")
    m.set_defaults(fn=_cmd_match)

    al = sub.add_parser("algorithms",
                        help="list registered algorithms + metadata")
    al.add_argument("--list", action="store_true",
                    help="names only, one per line")
    al.set_defaults(fn=_cmd_algorithms)

    r = sub.add_parser("rank", help="list ranking")
    common(r)
    r.add_argument("--algorithm", default="contraction",
                   choices=["contraction", "wyllie", "sequential"])
    r.set_defaults(fn=_cmd_rank)

    c = sub.add_parser("color", help="3-coloring")
    common(c)
    c.set_defaults(fn=_cmd_color)

    cv = sub.add_parser("curve", help="sweep the processor axis")
    common(cv)
    cv.add_argument("--algorithm", default="match4",
                    choices=["match1", "match2", "match3", "match4"])
    cv.add_argument("--backend", default="reference",
                    choices=backend_names(),
                    help="execution backend (default reference)")
    cv.add_argument("--i", type=int, default=2)
    cv.add_argument("--base", type=int, default=4,
                    help="geometric step of the p sweep")
    cv.set_defaults(fn=_cmd_curve)

    info = sub.add_parser("info", help="support functions for an n")
    info.add_argument("--n", type=int, default=1 << 20)
    info.set_defaults(fn=_cmd_info)

    fo = sub.add_parser("fold", help="data-dependent prefix/suffix fold")
    common(fo)
    fo.add_argument("--op", default="sum", choices=["sum", "max", "min"])
    fo.add_argument("--direction", default="suffix",
                    choices=["suffix", "prefix"])
    fo.set_defaults(fn=_cmd_fold)

    tr = sub.add_parser("trace", help="space-time trace of Match4")
    tr.add_argument("--n", type=int, default=96)
    tr.add_argument("--i", type=int, default=1)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--layout", default="random")
    tr.add_argument("--rows", type=int, default=10)
    tr.add_argument("--start", type=int, default=1)
    tr.add_argument("--span", type=int, default=70)
    tr.set_defaults(fn=_cmd_trace)

    sc = sub.add_parser("selfcheck", help="verify the installation")
    sc.add_argument("--n", type=int, default=2048)
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(fn=_cmd_selfcheck)

    dy = sub.add_parser(
        "dynamic",
        help="churn a dynamic list, maintaining its matching")
    dy.add_argument("--n", type=int, default=256,
                    help="initial list size (0 = empty arena)")
    dy.add_argument("--layout", default="random",
                    choices=["rings", "runs", "gray", "bitrev", "random"],
                    help="initial layout (gray/bitrev need power-of-2 n)")
    dy.add_argument("--seed", type=int, default=0)
    dy.add_argument("--steps", type=int, default=500,
                    help="number of edits (default 500)")
    dy.add_argument("--burstiness", type=float, default=0.0,
                    help="probability an op starts a burst (default 0)")
    dy.add_argument("--burst-len", type=int, default=8)
    dy.add_argument("--hotspot", type=float, default=0.0,
                    help="operand skew toward low addresses (default 0)")
    dy.add_argument("--maintain", default="repair",
                    choices=["repair", "recompute"],
                    help="maintenance strategy (default repair)")
    dy.add_argument("--batch", type=int, default=1,
                    help="edits per recompute")
    dy.add_argument("--backend", default="reference",
                    choices=["reference", "numpy"],
                    help="engine for recompute passes")
    dy.add_argument("--flips", type=int, default=0,
                    help="random bit-flip faults on the matching array")
    dy.add_argument("--drops", type=int, default=0,
                    help="random dropped-write faults (lost repairs)")
    dy.add_argument("--contract", action="store_true",
                    help="finish with uniform contraction per component")
    dy.add_argument("--json", default="", metavar="PATH",
                    help="write the churn result as JSON to PATH")
    dy.set_defaults(fn=_cmd_dynamic)

    pf = sub.add_parser(
        "profile",
        help="profile one run: Perfetto trace + profile JSON + "
             "RunRecord manifest",
    )
    pf.add_argument("algorithm", nargs="?", default="match4",
                    choices=["match1", "match2", "match3", "match4",
                             "sequential", "random_mate"])
    pf.add_argument("--n", type=int, default=1 << 12,
                    help="list size (default 4096)")
    pf.add_argument("--p", type=int, default=256)
    pf.add_argument("--layout", default="random", choices=LAYOUT_CHOICES)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--backend", default="reference",
                    choices=backend_names())
    pf.add_argument("--i", type=int, default=2,
                    help="Match4's iterations parameter")
    pf.add_argument("--machine-n", type=int, default=96, metavar="N",
                    help="size of the traced instruction-level twin "
                         "(0 disables; only match1/match4 have one)")
    pf.add_argument("--memory", action="store_true",
                    help="resource accounting: per-phase tracemalloc "
                         "peaks, byte ledger, bandwidth estimates "
                         "(adds the account to the RunRecord and "
                         "counter tracks to the Chrome Trace)")
    pf.add_argument("--out", default="prof", metavar="DIR",
                    help="output directory (default prof/)")
    pf.set_defaults(fn=_cmd_profile)

    rp = sub.add_parser(
        "report",
        help="render RunRecord JSONL manifest(s) to a static HTML "
             "dashboard",
    )
    rp.add_argument("manifests", nargs="+", metavar="MANIFEST",
                    help="RunRecord JSONL file(s); with several, the "
                         "last is current and the rest are the baseline")
    rp.add_argument("--out", default="report.html", metavar="PATH")
    rp.add_argument("--title", default="repro run report")
    rp.set_defaults(fn=_cmd_report)

    rz = sub.add_parser(
        "resilience",
        help="inject faults into an instruction-level run and recover",
    )
    rz.add_argument("--n", type=int, default=96,
                    help="list size (default 96; instruction-level)")
    rz.add_argument("--layout", default="random", choices=LAYOUT_CHOICES)
    rz.add_argument("--seed", type=int, default=0)
    rz.add_argument("--algorithm", default="match4",
                    choices=["match1", "match4"])
    rz.add_argument("--i", type=int, default=2,
                    help="Match4's iterations parameter")
    rz.add_argument("--backend", default="reference",
                    choices=backend_choices(),
                    help="first-attempt backend for the ladder strategy "
                         "('auto': numpy where it implements the "
                         "algorithm)")
    rz.add_argument("--crash-at", action="append", default=[],
                    metavar="STEP:PID",
                    help="crash-stop processor PID at step STEP (repeatable)")
    rz.add_argument("--flip", action="append", default=[],
                    metavar="STEP:ADDR:BIT",
                    help="flip BIT of cell ADDR after step STEP (repeatable)")
    rz.add_argument("--drop-write", action="append", default=[],
                    metavar="STEP:PID",
                    help="lose PID's write at step STEP (repeatable)")
    rz.add_argument("--strategy", default="restart",
                    choices=["restart", "repair", "ladder"],
                    help="recovery strategy (default checkpoint-restart)")
    rz.add_argument("--checkpoint-interval", type=int, default=32,
                    help="steps between snapshots (restart strategy)")
    rz.add_argument("--fail-first", type=int, default=3,
                    help="ladder demo: sabotage this many attempts")
    rz.add_argument("--tries-per-rung", type=int, default=2)
    rz.add_argument("--repair", action="store_true",
                    help="ladder: try local repair before degrading")
    rz.set_defaults(fn=_cmd_resilience)

    sv = sub.add_parser(
        "serve",
        help="run the matching-as-a-service HTTP server "
             "(see docs/service.md)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8080,
                    help="bind port (0: OS-assigned, printed on start)")
    sv.add_argument("--algorithm", default="match4",
                    choices=["match1", "match4"],
                    help="default algorithm for requests that name none")
    sv.add_argument("--backend", default="numpy", choices=backend_choices(),
                    help="default backend for requests that name none "
                         "('auto': numpy where it implements the "
                         "algorithm)")
    sv.add_argument("--workers", type=int, default=None,
                    help="shard batches across this many worker processes")
    sv.add_argument("--max-queue", type=int, default=64,
                    help="admission queue depth before shedding (429)")
    sv.add_argument("--max-inflight-mb", type=float, default=64.0,
                    help="in-flight workload bytes before shedding (429)")
    sv.add_argument("--max-batch-items", type=int, default=16,
                    help="most requests (one list each) one "
                         "micro-batch takes")
    sv.add_argument("--deadline-ms", type=float, default=1000.0,
                    help="default per-request deadline")
    sv.add_argument("--cache-size", type=int, default=128,
                    help="LRU response-cache entries (0 disables)")
    sv.add_argument("--drain-deadline-s", type=float, default=5.0,
                    help="SIGTERM flush budget before hard stop")
    sv.add_argument("--retry-after-s", type=float, default=1.0,
                    help="Retry-After hint on 429/503 responses")
    sv.add_argument("--record", default="",
                    help="append the final service RunRecord manifest here")
    sv.set_defaults(fn=_cmd_serve)

    f = sub.add_parser("fig1", help="render the paper's Fig. 1")
    f.add_argument("--order", default="",
                   help="comma-separated visit order (default: Fig. 1)")
    f.add_argument("--bisector", action="store_true",
                   help="draw Fig. 2's bisecting line and F/B marks")
    f.set_defaults(fn=_cmd_fig1)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .telemetry import configure_from_env, configure_resources_from_env

    parser = build_parser()
    args = parser.parse_args(argv)
    configure_from_env(spec=args.telemetry)
    configure_resources_from_env()
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
