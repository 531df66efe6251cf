"""A seeded fuzzer for ``POST /v1/match`` bodies.

Each case is a valid body with one mutation: a dropped key, a value
swapped for another JSON type, nesting (down to far past the JSON
decoder's recursion limit), ``NaN``, a huge or a negative integer, a
truncated document, a ``lists`` body, or bytes that are not UTF-8.
Every answer is 200 or 4xx, never 5xx, and arrives within the
client's timeout; afterwards no admission bytes are held,
``service.errors`` has not moved, and the drain manifest's ``served``
equals the number of 200 answers.
"""

import json
import random

import repro
from repro.service import ServiceConfig
from repro.service.client import get, http_request
from repro.telemetry.metrics import METRICS

from .conftest import HOST, run_service

SEED = 23
CASES = 300

VALID = (
    {"n": 64, "layout": "random", "seed": 3, "algorithm": "match4",
     "backend": "numpy", "deadline_ms": 2000, "cache": True},
    {"n": 33, "layout": "sawtooth", "algorithm": "match1",
     "backend": "auto", "cache": False},
    {"next": repro.random_list(12, rng=1).next.tolist(),
     "algorithm": "match2", "backend": "reference"},
)
SWAPS = ([1, 2], {"k": 1}, "7", 4096.5, True, None)
HUGE = (2**63, 10**30, 10**400)
NEGATIVE = (-1, -(2**63) - 1)
NON_UTF8 = (b"\xff", b"\xc3\x28", b"\xed\xa0\x80")
KINDS = ("drop", "swap", "nest", "nan", "huge", "negative", "truncate",
         "lists", "non-utf8")


def _encode(body, key, raw):
    """``body`` as JSON text, with the JSON text ``raw`` as ``key``'s
    value (``json.dumps`` cannot write ``NaN`` into a chosen place, nor
    nest past Python's recursion limit)."""
    return "{" + ", ".join(
        f"{json.dumps(k)}: {raw if k == key else json.dumps(v)}"
        for k, v in body.items()) + "}"


def _number(rng, body, key, values):
    value = rng.choice(values)
    if key == "next":  # one element of the array
        nxt = list(body["next"])
        nxt[rng.randrange(len(nxt))] = value
        return json.dumps(nxt)
    return str(value)


def mutate(rng):
    """One seeded mutation of a valid body, as the bytes to send."""
    body = rng.choice(VALID)
    key = rng.choice(sorted(body))
    kind = rng.choice(KINDS)
    if kind == "negative" and key == "deadline_ms":
        # A deadline is clamped to >= 1 ms, and a request may then
        # rightly answer 504: deadlines are fuzzed upward only.
        key = "next" if "next" in body else "n"
    if kind == "drop":
        text = json.dumps({k: v for k, v in body.items() if k != key})
    elif kind == "swap":
        text = _encode(body, key, json.dumps(rng.choice(SWAPS)))
    elif kind == "nest":
        depth = rng.choice((1, 3, 100_000))
        opens, closes = rng.choice((("[", "]"), ('{"v": ', "}")))
        if rng.random() < 0.5:
            text = opens * depth + json.dumps(body) + closes * depth
        else:
            raw = opens * depth + json.dumps(body[key]) + closes * depth
            text = _encode(body, key, raw)
    elif kind == "nan":
        text = _encode(body, key,
                       rng.choice(("NaN", "Infinity", "-Infinity")))
    elif kind in ("huge", "negative"):
        values = HUGE if kind == "huge" else NEGATIVE
        text = _encode(body, key, _number(rng, body, key, values))
    elif kind == "truncate":
        full = json.dumps(body)
        text = full[:rng.randrange(len(full))]
    elif kind == "lists":
        text = json.dumps({"lists": [body, body]})
    else:  # non-utf8
        raw = json.dumps(body).encode()
        cut = rng.randrange(len(raw) + 1)
        return kind, raw[:cut] + rng.choice(NON_UTF8) + raw[cut:]
    return kind, text.encode()


def test_mutated_bodies_answer_200_or_4xx(tmp_path):
    manifest = tmp_path / "runs.jsonl"
    rng = random.Random(SEED)
    cases = [mutate(rng) for _ in range(CASES)]

    async def scenario(service):
        answers = []
        for kind, raw in cases:
            resp = await http_request(HOST, service.port, "POST",
                                      "/v1/match", body=raw, timeout=3.0)
            answers.append((kind, raw, resp.status))
        ready = await get(HOST, service.port, "/readyz")
        await service.drain(reason="test")
        return answers, ready

    errors = METRICS.counter("service.errors").value
    config = ServiceConfig(port=0, cache_size=16,
                           manifest_path=str(manifest))
    answers, ready = run_service(config, scenario)
    bad = [(kind, raw[:80], status) for kind, raw, status in answers
           if status != 200 and not 400 <= status < 500]
    assert not bad, bad
    assert {kind for kind, _ in cases} == set(KINDS)
    served = sum(status == 200 for _, _, status in answers)
    assert 0 < served < CASES
    assert ready.json()["inflight_bytes"] == 0
    assert METRICS.counter("service.errors").value == errors
    record = json.loads(manifest.read_text().splitlines()[-1])
    assert record["extra"]["served"] == served
