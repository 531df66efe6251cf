"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from check import batch_error, matching_error  # noqa: E402
from inputs import mix_lists, next_from_order, rng_for, \
    service_requests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, timeout=170, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=timeout, stdin=subprocess.DEVNULL)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def alive(match) -> list[int]:
    """Pids of live processes whose argument vector satisfies ``match``.
    Whole arguments are compared, so a shell whose command string merely
    mentions a program does not count."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            argv = Path(f"/proc/{name}/cmdline").read_bytes().decode(
                errors="replace").split("\0")[:-1]
            state = Path(f"/proc/{name}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        if argv and match(argv) and state.split()[0] != "Z":
            found.append(int(name))
    return found


def server(argv) -> bool:
    return argv[1:3] == ["-m", "repro"] and "serve" in argv


def driver(argv) -> bool:
    return argv[1:2] == [str(BENCH / "driver.py")]


def leak_probe(argv) -> bool:
    return "perfbench-leak-probe" in argv


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    res = result_line(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and res["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:  # end-to-end metrics are never 0
        for name, m in res["metrics"].items():
            assert m["value"] > 0, name
    else:
        for name in ("p50_ms", "p99_ms", "ops_per_s",
                     "telemetry.overhead_ratio"):
            assert res["metrics"][name]["value"] > 0, name
    # The output records the seed, host facts and the workload's reason.
    head = proc.stdout.splitlines()
    assert f"{workload} seed=3" in head[0]
    assert head[1].startswith("why: ")
    host = json.loads(head[2].split("host: ", 1)[1])
    assert {"nproc", "caches", "python", "numpy"} <= set(host)
    # Nothing the run started is still alive.
    assert alive(server) == []
    assert alive(driver) == []


def test_traced_list_run_breaks_down_every_phase():
    proc = run_bench("--workload", "list-1m", "--seed", "4", "--seconds",
                     "0.5", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = result_line(proc)["metrics"]
    for name in ("lists.validate_ms", "engine.prep_ms", "engine.partition_ms",
                 "engine.sort_ms", "engine.sweep_ms", "engine.cutwalk_ms",
                 "engine.alloc_peak_mb", "pram.time", "pram.work",
                 "telemetry.overhead_ratio"):
        assert metrics[name]["value"] > 0, name
    assert "traced op 0:" in proc.stdout and "unattributed" in proc.stdout


@pytest.mark.parametrize("workload", ["list-1m", "batch-mix", "churn-64k"])
def test_corrupted_answer_fails_the_run(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds",
                     "0.3", "--tiny", "--inject", "corrupt")
    assert proc.returncode == 1, proc.stderr
    res = result_line(proc)
    assert res["correct"] is False and res["failed"] >= 1
    assert "WRONG:" in proc.stdout


def test_leaked_child_process_fails_the_run():
    proc = run_bench("--workload", "list-1m", "--seed", "6", "--seconds",
                     "0.3", "--tiny", "--inject", "leak")
    assert proc.returncode == 4
    assert "perfbench-leak-probe" in proc.stderr
    assert not proc.stdout.strip().splitlines()[-1].startswith("{")
    assert alive(leak_probe) == []


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_service_run_leaves_no_process(sig):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
           "service-100rps", "--seed", "7", "--seconds", "60", "--tiny"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not alive(server) and time.monotonic() < deadline:
            time.sleep(0.1)
        time.sleep(1.0)  # into the measured phase
        proc.send_signal(sig)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 128 + sig, (proc.returncode, err[-3000:])
    assert alive(server) == [], err[-3000:]
    assert alive(driver) == [], err[-3000:]


def test_a_signal_during_clean_up_does_not_cut_it_short():
    import run

    with pytest.raises(run.Interrupted):
        run._on_signal(signal.SIGTERM, None)
    run._cleaning = True
    try:
        run._on_signal(signal.SIGTERM, None)  # returns: clean-up goes on
    finally:
        run._cleaning = False


def test_without_program_source_it_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "list-1m",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_run_prints():
    import run

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER)


def test_checker_accepts_maximal_and_rejects_the_rest():
    nxt = next_from_order(np.array([3, 0, 4, 1, 2]))  # 3->0->4->1->2
    assert matching_error(nxt, [3, 4]) is None      # <3,0>, <4,1>
    assert matching_error(nxt, [0, 1]) is None      # <0,4>, <1,2>
    assert "not maximal" in matching_error(nxt, [3])
    assert "matched twice" in matching_error(nxt, [3, 0])
    assert "without successor" in matching_error(nxt, [2])
    assert "listed twice" in matching_error(nxt, [3, 3])
    lists = [nxt, next_from_order(np.array([1, 0]))]
    assert batch_error(lists, [[3, 4], [1]]) is None
    assert batch_error(lists, [[3, 4], []]) is not None


def test_inputs_are_seeded_and_never_repeat_by_accident():
    a = mix_lists(rng_for(9, "list", 0), 64)
    b = mix_lists(rng_for(9, "list", 0), 64)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert len({x.tobytes() for x in a}) == len(a)
    reqs = service_requests(9, 400, sizes=(16, 64))
    distinct = {raw for _, raw in reqs}
    repeats = len(reqs) - len(distinct)
    assert 0.15 * len(reqs) < repeats < 0.35 * len(reqs)


def test_churn_trace_replays_on_a_fresh_session():
    from repro import DynamicList, LinkedList

    from churn import make_trace, replay
    from inputs import random_next

    for n, steps, seed in [(300, 600, 1), (1, 40, 2)]:
        def fresh():
            return DynamicList.from_list(
                LinkedList(random_next(n, rng_for(seed, "churn-list"))),
                backend="numpy")

        made = fresh()
        trace = make_trace(made, steps, seed)
        assert len(trace) == steps
        assert len({op for op, *_ in trace}) > 1 or n == 1
        dyn = fresh()
        times, done, mismatch = replay(dyn, trace)
        assert done == steps and mismatch is None and len(times) == steps
        dyn.verify()
        assert list(dyn.tails()) == list(made.tails())
        # A trace replayed on a different list fails the address check.
        if n > 1:
            other = DynamicList.from_list(
                LinkedList(random_next(n, rng_for(seed + 1, "churn-list"))),
                backend="numpy")
            try:
                _, _, mismatch = replay(other, trace)
            except Exception:  # noqa: BLE001 - an edit the list refuses
                mismatch = "raised"
            assert mismatch is not None
