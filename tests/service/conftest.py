"""Shared helpers for the service tests.

Every test drives a real :class:`~repro.service.MatchingService` bound
to an OS-assigned port on the loopback interface, inside one
``asyncio.run`` per test (the suite has no async test runner plugin,
and does not need one).
"""

import asyncio

import numpy as np

import repro
from repro.service import MatchingService
from repro.service.client import post_json

HOST = "127.0.0.1"


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
