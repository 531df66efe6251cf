"""A minimal asyncio HTTP/1.1 client for the matching service.

Just enough protocol for the test suite and the traffic benchmark to
talk to :class:`~repro.service.server.MatchingService` without any
third-party dependency: one request per call, ``Connection: close``,
JSON bodies in and out.  Not a general HTTP client on purpose.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "HttpResponse",
    "http_request",
    "post_json",
    "get",
    "fetch_json",
]


@dataclass(frozen=True)
class HttpResponse:
    """Status, headers, and raw body of one exchange."""

    status: int
    headers: Mapping[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))

    @property
    def retry_after(self) -> float | None:
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: bytes | None = None,
    content_type: str = "application/json",
    timeout: float = 30.0,
) -> HttpResponse:
    """One request/response exchange on a fresh connection."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        payload = body or b""
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            f"Content-Length: {len(payload)}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + payload)
        await writer.drain()

        async def read_response() -> HttpResponse:
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(maxsplit=2)
            if len(parts) < 2:
                raise ConnectionError(
                    f"malformed status line: {status_line!r}")
            status = int(parts[1])
            headers: dict[str, str] = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            data = await reader.readexactly(length) if length else b""
            return HttpResponse(status=status, headers=headers, body=data)

        return await asyncio.wait_for(read_response(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 - server already hung up
            pass


async def post_json(
    host: str, port: int, path: str, obj: Any, *, timeout: float = 30.0,
) -> HttpResponse:
    """POST ``obj`` as JSON."""
    return await http_request(
        host, port, "POST", path,
        body=json.dumps(obj).encode("utf-8"), timeout=timeout,
    )


async def get(
    host: str, port: int, path: str, *, timeout: float = 30.0,
) -> HttpResponse:
    """Plain GET."""
    return await http_request(host, port, "GET", path, timeout=timeout)


def _split_url(url: str) -> tuple[str, int, str]:
    parsed = urllib.parse.urlsplit(
        url if "//" in url else "http://" + url)
    path = parsed.path or "/"
    if parsed.query:
        path += "?" + parsed.query
    return parsed.hostname or "127.0.0.1", parsed.port or 80, path


def fetch_json(url: str, *, timeout: float = 30.0) -> tuple[int, Any]:
    """Synchronous one-shot GET: ``(status, parsed JSON or None)``.

    The form the benchmark's debug probe uses from plain (non-async)
    code.
    """
    host, port, path = _split_url(url)
    resp = asyncio.run(get(host, port, path, timeout=timeout))
    try:
        return resp.status, resp.json()
    except ValueError:
        return resp.status, None

