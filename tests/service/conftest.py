"""Shared helpers for the service tests.

Every test drives a real :class:`~repro.service.MatchingService` bound
to an OS-assigned port on the loopback interface, inside one
``asyncio.run`` per test (the suite has no async test runner plugin,
and does not need one).
"""

import asyncio
import threading
import time

import numpy as np

import repro
from repro.backends.batch import batch_maximal_matching
from repro.service import MatchingService
from repro.service.client import post_json

HOST = "127.0.0.1"


class GatedBatch:
    """``batch_fn`` that holds each of its first ``held`` calls until
    :meth:`release`.

    The service computes on one thread, so requests sent while a call
    is held queue up and fuse into the next call: tests get a batch of
    their choosing without any timer.  ``calls`` records each call's
    list sizes.
    """

    def __init__(self, held=1):
        self.calls = []
        self._gates = [threading.Event() for _ in range(held)]

    def __call__(self, lists, **kwargs):
        k = len(self.calls)
        self.calls.append([lst.n for lst in lists])
        if k < len(self._gates):
            self._gates[k].wait(timeout=30)
        return batch_maximal_matching(lists, **kwargs)

    def release(self, k=None):
        """Open gate ``k``, or every gate."""
        for gate in self._gates if k is None else [self._gates[k]]:
            gate.set()


async def until(predicate, timeout=3.0):
    """Poll ``predicate`` until it holds; fail after ``timeout`` s."""
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition not reached in time"
        await asyncio.sleep(0.002)


def run_service(config, scenario, **service_kwargs):
    """Start a service, run ``await scenario(service)``, always stop.

    ``scenario`` may itself drain the service (e.g. via SIGTERM); the
    helper only drains if nothing else already did.  Shutdown gets the
    drain deadline plus a few seconds, so a drain that never finishes
    fails the test instead of hanging it.
    """

    async def main():
        service = MatchingService(config, **service_kwargs)
        await service.start()
        try:
            return await scenario(service)
        finally:
            service.initiate_drain("test-teardown")  # no-op if draining
            await asyncio.wait_for(service.wait_stopped(),
                                   service.config.drain_deadline_s + 5.0)

    return asyncio.run(main())


async def match(service, body, **kwargs):
    return await post_json(HOST, service.port, "/v1/match", body, **kwargs)


def reference_tails(spec):
    """The reference-tier answer for a spec-form workload — the bit
    that every served response must be identical to."""
    from repro.service.workload import LAYOUTS

    lst = LAYOUTS[spec.get("layout", "random")](spec["n"],
                                                spec.get("seed", 0))
    result = repro.maximal_matching(lst, algorithm="match4",
                                    backend="reference")
    return np.sort(result.matching.tails)


def assert_bit_identical(payload, spec):
    got = np.sort(np.asarray(payload["tails"], dtype=np.int64))
    assert np.array_equal(got, reference_tails(spec)), (
        f"response for {spec} diverges from the reference tier"
    )
