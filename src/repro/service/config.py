"""Service tuning knobs, frozen at construction.

Every limit the admission/batching/drain machinery enforces lives in
one validated, immutable :class:`ServiceConfig`, so a running server
can be described by a single object (it is echoed into the final
RunRecord manifest).  The defaults suit an interactive demo; the CLI
(``repro serve``) and the traffic benchmark override them per run.

All deadlines and delays are wall-clock seconds unless the name says
``_ms``; byte limits count the ``int64`` node arenas of queued lists
(8 bytes per node), the quantity that actually bounds resident memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from ..errors import InvalidParameterError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration of one :class:`~repro.service.server.MatchingService`.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` asks the OS for a free port (the
        bound port is reported by
        :attr:`~repro.service.server.MatchingService.port`).
    algorithm / backend / workers:
        Default compute path for requests that do not choose their
        own: forwarded to
        :func:`repro.backends.batch.batch_maximal_matching`.
    max_queue_depth:
        Admission bound on *queued* requests.  Beyond it new requests
        are shed with 429 + ``Retry-After`` — never buffered.
    max_inflight_bytes:
        Admission bound on the summed node-arena bytes of queued plus
        in-compute requests (8 bytes per node).
    max_batch_items:
        The most requests (one list each) one micro-batch takes, and
        so the most lists one fused engine call gets.  The batcher never
        waits to fill a batch: it takes what queued while the previous
        batch computed.
    default_deadline_ms / max_deadline_ms:
        Per-request deadline when the client sends none, and the cap
        on what a client may ask for.
    max_request_bytes:
        HTTP body size bound (413 beyond it) — the parser never
        buffers more than this per connection.
    retry_after_s:
        Hint sent in ``Retry-After`` on 429/503 responses.
    cache_size:
        LRU response-cache capacity in entries (0 disables caching).
    drain_deadline_s:
        On SIGTERM/SIGINT the server stops accepting and flushes the
        queue for at most this long; whatever is still queued then is
        answered 503.
    manifest_path:
        Where the final RunRecord manifest is appended on drain
        (empty string: no manifest).

    Every float must be finite: NaN passes no ``<= 0`` check, and a
    NaN deadline would reach the event loop as a timeout.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    algorithm: str = "match4"
    backend: str = "numpy"
    workers: int | None = None
    max_queue_depth: int = 64
    max_inflight_bytes: int = 64 << 20
    max_batch_items: int = 16
    default_deadline_ms: float = 1000.0
    max_deadline_ms: float = 30000.0
    max_request_bytes: int = 32 << 20
    retry_after_s: float = 1.0
    cache_size: int = 128
    drain_deadline_s: float = 5.0
    manifest_path: str = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParameterError(
                    f"{f.name} must be finite, got {value}"
                )
        positive = (
            "max_queue_depth", "max_inflight_bytes", "max_batch_items",
            "default_deadline_ms", "max_deadline_ms", "max_request_bytes",
            "retry_after_s", "drain_deadline_s",
        )
        for name in positive:
            value = getattr(self, name)
            if value <= 0:
                raise InvalidParameterError(
                    f"{name} must be > 0, got {value}"
                )
        if self.cache_size < 0:
            raise InvalidParameterError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        if self.port < 0:
            raise InvalidParameterError(
                f"port must be >= 0, got {self.port}"
            )
        if self.default_deadline_ms > self.max_deadline_ms:
            raise InvalidParameterError(
                f"default_deadline_ms ({self.default_deadline_ms}) exceeds "
                f"max_deadline_ms ({self.max_deadline_ms})"
            )
        if self.workers is not None and self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {self.workers}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (echoed into the final manifest)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
