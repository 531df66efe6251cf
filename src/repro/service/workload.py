"""Request workloads: parsing, validation, and canonical identity.

A client describes each list either *explicitly* (``{"next": [...]}``,
the successor array :class:`~repro.lists.linked_list.LinkedList`
takes) or as a *spec* (``{"n": 4096, "layout": "random", "seed": 7}``)
the server generates with the same layout makers the CLI uses.  Both
forms normalize into a :class:`Workload` carrying the built list and a
**canonical identity**: the very key
:meth:`repro.telemetry.runrecord.RunRecord.key` defines, so the
response cache, the run manifest, and the perf gate all agree on what
"the same workload" means.  Explicit lists are identified by a SHA-256
digest of their pointer bytes; specs by ``(n, layout, seed)``.

Parsing raises :class:`WorkloadError` (→ HTTP 400) on anything
malformed — a structurally invalid list is a *client* error here,
caught before admission, so it can never surface as a 500 later.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from ..core.maximal_matching import ALGORITHMS
from ..errors import InvalidListError, InvalidParameterError, ReproError
from ..lists import (
    bit_reversal_list,
    blocked_list,
    gray_code_list,
    interleaved_list,
    random_list,
    reversed_list,
    sawtooth_list,
    sequential_list,
)
from ..lists.linked_list import LinkedList
from ..telemetry.runrecord import RunRecord

__all__ = ["WorkloadError", "Workload", "parse_workload", "LAYOUTS"]

#: Hard bound on a single list's size; a spec beyond it is a client
#: error (explicit lists are already bounded by the HTTP body limit).
MAX_SPEC_N = 1 << 22

#: Server-side layout makers, mirroring the CLI's ``--layout`` choices.
LAYOUTS: dict[str, Callable[[int, int], LinkedList]] = {
    "random": lambda n, seed: random_list(n, rng=seed),
    "sequential": lambda n, seed: sequential_list(n),
    "reversed": lambda n, seed: reversed_list(n),
    "sawtooth": lambda n, seed: sawtooth_list(n),
    "blocked": lambda n, seed: blocked_list(n, block=max(1, n // 8),
                                            rng=seed),
    "gray": lambda n, seed: gray_code_list(n),
    "bitrev": lambda n, seed: bit_reversal_list(n),
    "interleaved": lambda n, seed: interleaved_list(n, ways=max(1, n // 16)),
}


class WorkloadError(ReproError, ValueError):
    """A request described an invalid workload (HTTP 400)."""


@dataclass(frozen=True)
class Workload:
    """One validated list plus the identity it is cached/recorded under.

    ``backend`` is always a *concrete* backend name: a request asking
    for ``"auto"`` is resolved through
    :func:`~repro.backends.auto_backend` during parsing — before
    admission, and in particular before the micro-batcher's
    per-(algorithm, backend) fusion groups requests — with the original
    ask kept in ``requested_backend``.  Cache/record identity uses the
    resolved backend, so an ``"auto"`` request and an explicit request
    for the chosen backend share cache entries (they are the same
    computation).
    """

    lst: LinkedList
    algorithm: str
    backend: str
    #: ``("spec", n, layout, seed)`` or ``("digest", sha256hex)``.
    identity: tuple
    #: ``"auto"`` when the request asked for it; else ``None``.
    requested_backend: str | None = None

    @property
    def n(self) -> int:
        return int(self.lst.n)

    @property
    def nbytes(self) -> int:
        """Admission weight: the ``int64`` pointer arena of the list."""
        return int(self.lst.n) * 8

    def record(self, **extra: Any) -> RunRecord:
        """The workload as a ``kind="service"`` :class:`RunRecord` stub."""
        kind, *rest = self.identity
        if kind == "spec":
            n, layout, seed = rest
            ident_extra = {"layout": layout}
        else:
            seed = None
            ident_extra = {"digest": rest[0]}
        return RunRecord(
            kind="service", algorithm=self.algorithm, backend=self.backend,
            n=self.n, p=1, seed=seed, time=0, work=0,
            extra={**ident_extra, **extra},
        )

    def cache_key(self) -> tuple:
        """Canonical identity — :meth:`RunRecord.key` of the stub record."""
        return self.record().key()


def _parse_explicit(next_field: Any) -> tuple[LinkedList, tuple]:
    # ``type`` and not ``isinstance``: JSON true is a bool, and numpy
    # would silently coerce true, 1.7 and "1" to the integer 1.
    if not isinstance(next_field, list) or set(map(type, next_field)) != {int}:
        raise WorkloadError("'next' must be a non-empty array of integers")
    try:
        arr = np.asarray(next_field, dtype=np.int64)
    except OverflowError as exc:
        raise WorkloadError(f"'next' is not an int64 array: {exc}") from None
    try:
        lst = LinkedList(arr)
    except (InvalidListError, InvalidParameterError) as exc:
        raise WorkloadError(f"invalid linked list: {exc}") from None
    digest = hashlib.sha256(np.ascontiguousarray(lst.next).tobytes())
    return lst, ("digest", digest.hexdigest())


def _field(body: Mapping[str, Any], name: str, kind: type, default: Any):
    """``body[name]`` (or ``default``), required to be a JSON ``kind``.

    JSON ``true`` decodes to a Python ``bool``, a subclass of ``int``,
    so bools are rejected where an integer is asked for.
    """
    value = body.get(name, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        what = "an integer" if kind is int else "a string"
        raise WorkloadError(f"{name!r} must be {what}, got {value!r}")
    return value


def _parse_spec(body: Mapping[str, Any]) -> tuple[LinkedList, tuple]:
    n = _field(body, "n", int, None)
    layout = _field(body, "layout", str, "random")
    if layout not in LAYOUTS:
        raise WorkloadError(
            f"unknown layout {layout!r}; choose from {sorted(LAYOUTS)}"
        )
    seed = _field(body, "seed", int, 0)
    if not 1 <= n <= MAX_SPEC_N:
        raise WorkloadError(f"'n' must be in [1, {MAX_SPEC_N}], got {n}")
    try:
        lst = LAYOUTS[layout](n, seed)
    except (InvalidParameterError, ValueError) as exc:
        raise WorkloadError(f"cannot build {layout}({n}): {exc}") from None
    return lst, ("spec", n, layout, seed)


def parse_workload(
    body: Mapping[str, Any],
    *,
    default_algorithm: str,
    default_backend: str,
) -> Workload:
    """Normalize one request body to a :class:`Workload`, raising
    :class:`WorkloadError` on bad input."""
    if not isinstance(body, Mapping):
        raise WorkloadError(
            f"workload must be a JSON object, got {type(body).__name__}"
        )
    algorithm = _field(body, "algorithm", str, default_algorithm)
    backend = _field(body, "backend", str, default_backend)
    if algorithm not in ALGORITHMS:
        raise WorkloadError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        )
    from ..backends import AUTO, auto_backend, backend_choices

    if backend not in backend_choices():
        raise WorkloadError(
            f"unknown backend {backend!r}; choose from "
            f"{backend_choices()}"
        )
    if "next" in body:
        lst, identity = _parse_explicit(body["next"])
    elif "n" in body:
        lst, identity = _parse_spec(body)
    else:
        raise WorkloadError(
            "workload needs either 'next' (explicit successor array) or "
            "'n' (+ optional 'layout'/'seed' spec)"
        )
    requested_backend = None
    if backend == AUTO:
        requested_backend = AUTO
        backend = auto_backend(algorithm, (lst.n,))
    return Workload(lst=lst, algorithm=algorithm, backend=backend,
                    identity=identity,
                    requested_backend=requested_backend)
