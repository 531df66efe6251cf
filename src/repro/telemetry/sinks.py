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
"""

from __future__ import annotations

import json
import logging
import os
import sys
from typing import IO, TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spans imports us)
    from .spans import Span

__all__ = [
    "Sink",
    "NullSink",
    "InMemorySink",
    "JsonlSink",
    "LogSink",
    "TeeSink",
    "json_default",
    "rotated_chain",
]


def json_default(obj: Any):
    """JSON fallback coercing numpy scalars (and anything int/float-like)."""
    for cast in (int, float):
        try:
            return cast(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


def rotated_chain(path) -> list[str]:
    """All generations of a rotated JSONL file, oldest first.

    Size rotation (:class:`JsonlSink` ``max_bytes``) renames the live
    file to ``<path>.1``; external rotators may stack deeper
    (``<path>.2`` and up, higher suffix = older, logrotate-style).
    Returns ``[<path>.N, ..., <path>.1, <path>]`` filtered to the
    generations that exist — except the live path, which is always
    included, so a missing file still raises the usual ``FileNotFound``
    at ``open`` time rather than silently reading nothing.
    """
    base = str(path)
    gens: list[tuple[int, str]] = []
    directory = os.path.dirname(base) or "."
    name = os.path.basename(base)
    try:
        entries = os.listdir(directory)
    except OSError:
        entries = []
    for entry in entries:
        if entry.startswith(name + "."):
            suffix = entry[len(name) + 1:]
            if suffix.isdigit():
                gens.append((int(suffix), os.path.join(directory, entry)))
    chain = [p for _, p in sorted(gens, reverse=True)]
    chain.append(base)
    return chain


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
    :func:`repro.telemetry.runrecord.read_records` skips with a
    warning.

    ``max_bytes`` adds single-roll size rotation: before a write
    would push the file past the bound, the file is renamed to
    ``<path>.1`` (replacing any previous roll) and a fresh one
    started — a long-running traced service caps its telemetry at
    ``2 * max_bytes`` on disk.  Rotation assumes this sink is the
    file's only writer (multi-process appenders should leave it off).
    """

    def __init__(self, path, *, max_bytes: int | None = None) -> None:
        self.path = str(path)
        self.max_bytes = max_bytes
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
        fd = self._file()
        if self.max_bytes is not None:
            size = os.fstat(fd).st_size
            if size and size + len(data) > self.max_bytes:
                os.close(fd)
                self._fd = None
                os.replace(self.path, self.path + ".1")
                fd = self._file()
        os.write(fd, data)

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


class TeeSink(Sink):
    """Fans every emission out to several sinks."""

    def __init__(self, *sinks: Sink) -> None:
        self.sinks = tuple(sinks)

    def emit_span(self, span: "Span") -> None:
        for sink in self.sinks:
            sink.emit_span(span)

    def emit_record(self, record: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit_record(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
