"""Where finished spans and run records go.

A sink receives every *finished* span (and any explicitly emitted run
record) from the process tracer.  Four implementations cover the
intended deployments:

- :class:`NullSink` — the disabled default; drops everything.
- :class:`InMemorySink` — collects spans/records in lists; what tests
  and the selfcheck assert against.
- :class:`JsonlSink` — appends one JSON object per line to a file
  (``{"type": "span", ...}`` / ``{"type": "run", ...}``); the format
  ``benchmarks/compare.py`` and the CI artifact use.
- :class:`LogSink` — human-readable lines through the stdlib
  ``logging`` machinery (logger ``repro.telemetry``), for watching a
  run live on stderr.

:func:`read_jsonl` is the one reader of the JSONL format, shared by
:func:`~repro.telemetry.runrecord.read_records` and
:func:`~repro.telemetry.export.spans_from_jsonl`.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import warnings
from typing import IO, TYPE_CHECKING, Any, Callable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spans imports us)
    from .spans import Span

__all__ = [
    "Sink",
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "LogSink",
    "json_default",
    "read_jsonl",
]

T = TypeVar("T")


def json_default(obj: Any):
    """JSON fallback coercing numpy scalars (and anything int/float-like)."""
    for cast in (int, float):
        try:
            return cast(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


def read_jsonl(path, line_type: str, build: Callable[[dict], T], *,
               strict: bool = False) -> list[T]:
    """``build(obj)`` for every ``line_type`` line of a JSONL file.

    A line's type is its ``"type"`` field (``"run"`` when absent);
    lines of other types (spans and runs sharing one file) are
    skipped silently.  A line
    that is not a JSON object, or whose ``build`` fails for a missing
    or ill-typed field — the truncated trailing line a killed writer
    leaves behind, or a hand-edited one — is *skipped with a*
    :class:`RuntimeWarning`, so an interrupted run's file stays
    readable.  ``strict=True`` raises instead (tests that must notice
    corruption).
    """
    out: list[T] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    raise ValueError(
                        f"expected a JSON object, got {type(data).__name__}")
                if data.get("type", "run") != line_type:
                    continue
                out.append(build(data))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                if strict:
                    raise
                warnings.warn(
                    f"{path}:{lineno}: skipping malformed/truncated "
                    f"JSONL line ({type(exc).__name__}: {exc})",
                    RuntimeWarning,
                    stacklevel=3,
                )
    return out


class Sink:
    """Base sink: ignores everything.  Subclass what you need."""

    def emit_span(self, span: "Span") -> None:  # noqa: B027 - optional hook
        pass

    def emit_record(self, record: dict[str, Any]) -> None:  # noqa: B027
        pass

    def close(self) -> None:  # noqa: B027 - optional hook
        pass


class NullSink(Sink):
    """The disabled-telemetry sink (explicitly named for readability)."""


class InMemorySink(Sink):
    """Collects spans and records in order; for tests and selfchecks."""

    def __init__(self) -> None:
        self.spans: list["Span"] = []
        self.records: list[dict[str, Any]] = []

    def emit_span(self, span: "Span") -> None:
        self.spans.append(span)

    def emit_record(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def span_names(self) -> list[str]:
        return [s.name for s in self.spans]


class JsonlSink(Sink):
    """Appends spans and records as JSON lines to ``path``.

    Writes are crash- and concurrency-hardened: each record is
    serialized first and then written as **one** ``os.write`` on an
    ``O_APPEND`` descriptor, unbuffered.  On POSIX, ``O_APPEND``
    appends are atomic with respect to other appenders, so several
    processes (a batch driver's workers, an interrupted run restarted
    over the same manifest) can share one file without interleaving
    partial lines — and every record is durable as soon as
    ``emit_*`` returns, with nothing held in userspace buffers for a
    crash to lose.  A reader's worst case is one *truncated trailing
    line* from a writer killed mid-``write``, which
    :func:`read_jsonl` skips with a warning.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self._fd: int | None = None

    def _file(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path,
                os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                0o644,
            )
        return self._fd

    def _write(self, obj: dict[str, Any]) -> None:
        data = (json.dumps(obj, default=json_default) + "\n").encode("utf-8")
        os.write(self._file(), data)

    def emit_span(self, span: "Span") -> None:
        self._write({"type": "span", **span.to_dict()})

    def emit_record(self, record: dict[str, Any]) -> None:
        self._write({"type": "run", **record})

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class LogSink(Sink):
    """Human-readable spans through ``logging`` (stderr by default)."""

    def __init__(self, *, level: int = logging.INFO,
                 stream: IO[str] | None = None) -> None:
        self.logger = logging.getLogger("repro.telemetry")
        self.logger.setLevel(level)
        if not self.logger.handlers:
            handler = logging.StreamHandler(stream or sys.stderr)
            handler.setFormatter(
                logging.Formatter("%(name)s %(levelname)s %(message)s")
            )
            self.logger.addHandler(handler)
        self.level = level

    def emit_span(self, span: "Span") -> None:
        attrs = " ".join(f"{k}={v}" for k, v in span.attributes.items())
        self.logger.log(
            self.level,
            "span %-28s %8.3f ms  %s",
            span.name, span.duration * 1e3, attrs,
        )

    def emit_record(self, record: dict[str, Any]) -> None:
        self.logger.log(self.level, "run %s",
                        json.dumps(record, default=json_default))

