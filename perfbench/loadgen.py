"""HTTP load generator for the archive API: one process, one thread.

A closed loop: ``max_in_flight`` connections, each taking the next request
as soon as its previous response has ended. Requests are pre-encoded and
sent over non-blocking sockets multiplexed with :mod:`selectors`. The
server answers one request per connection and then closes it, so a
response ends at EOF.

The loop never sleeps: it polls the sockets, so a finished response is
seen within microseconds rather than after the generator's own wake-up
delay, which on a small virtual machine reaches milliseconds. It reports
how late it sent each request after a connection slot became free
(``lag``): the generator's own delay, not the server's. A measurement
where lag grows is not valid.
"""

from __future__ import annotations

import errno
import gc
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Callable

#: Seconds a request may take before it counts as timed out.
REQUEST_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class Request:
    """One pre-encoded request and the check its response must pass."""

    kind: str
    data: bytes
    check: Callable[[int, bytes], bool]


def encode_get(path: str, client_id: str, etag: str | None = None) -> bytes:
    """A minimal HTTP/1.1 GET carrying the per-client id header."""
    lines = [
        f"GET {path} HTTP/1.1",
        "Host: 127.0.0.1",
        f"X-Client-Id: {client_id}",
        "Connection: close",
    ]
    if etag is not None:
        lines.append(f"If-None-Match: {etag}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def split_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    """Status code, lower-cased headers and body of one raw response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        return 0, {}, b""
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


@dataclass
class Outcome:
    """Timing and verdict of one request (monotonic seconds)."""

    kind: str = ""
    start: float = 0.0
    end: float = 0.0
    lag: float = 0.0
    status: int = 0
    ok: bool = False
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from sending the request until its response ended."""
        return self.end - self.start


@dataclass
class RunResult:
    """Everything one schedule produced."""

    outcomes: list[Outcome]
    started: float
    finished: float
    in_flight_max: int
    raw: list[bytes] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.finished - self.started

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)


class _Conn:
    __slots__ = ("index", "sock", "buf", "sent")

    def __init__(self, index: int, sock: socket.socket) -> None:
        self.index = index
        self.sock = sock
        self.buf = bytearray()
        self.sent = 0


def run(
    port: int,
    requests: list[Request],
    max_in_flight: int,
    keep_raw: bool = False,
) -> RunResult:
    """Send ``requests`` in order over ``max_in_flight`` connections.

    The generator's garbage collector is off while it runs, so a collection
    of its own objects never delays seeing a response."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(port, requests, max_in_flight, keep_raw)
    finally:
        if collecting:
            gc.enable()


def _run(port: int, requests: list[Request], max_in_flight: int,
         keep_raw: bool) -> RunResult:
    count = len(requests)
    selector = selectors.DefaultSelector()
    started = time.monotonic()
    outcomes = [Outcome(request.kind) for request in requests]
    raw: list[bytes] = [b""] * count if keep_raw else []
    open_conns: dict[int, _Conn] = {}
    free_since = started
    in_flight_max = 0
    next_index = 0
    done = 0

    def finish(conn: _Conn, now: float, error: str = "") -> None:
        nonlocal free_since, done
        if conn.sock.fileno() in selector.get_map():
            selector.unregister(conn.sock)
        conn.sock.close()
        if len(open_conns) == max_in_flight:
            free_since = now
        del open_conns[conn.index]
        outcome = outcomes[conn.index]
        outcome.end = now
        done += 1
        if error:
            outcome.error = error
            return
        status, _headers, body = split_response(bytes(conn.buf))
        outcome.status = status
        outcome.ok = requests[conn.index].check(status, body)
        if not outcome.ok:
            outcome.error = f"status {status}" if status else "malformed"
        if keep_raw:
            raw[conn.index] = bytes(conn.buf)

    while done < count:
        now = time.monotonic()
        while next_index < count and len(open_conns) < max_in_flight:
            outcome = outcomes[next_index]
            outcome.lag = now - free_since
            outcome.start = now
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            code = sock.connect_ex(("127.0.0.1", port))
            conn = _Conn(next_index, sock)
            open_conns[next_index] = conn
            next_index += 1
            in_flight_max = max(in_flight_max, len(open_conns))
            if code not in (0, errno.EINPROGRESS):
                finish(conn, now, error=f"connect: {errno.errorcode.get(code)}")
                continue
            selector.register(sock, selectors.EVENT_WRITE, conn)
        events = selector.select(0) if open_conns else []
        now = time.monotonic()
        for key, mask in events:
            conn = key.data
            try:
                if mask & selectors.EVENT_WRITE:
                    data = requests[conn.index].data
                    conn.sent += conn.sock.send(data[conn.sent:])
                    if conn.sent == len(data):
                        selector.modify(conn.sock, selectors.EVENT_READ, conn)
                    continue
                chunk = conn.sock.recv(65536)
            except (ConnectionError, OSError) as exc:
                finish(conn, now, error=type(exc).__name__)
                continue
            if chunk:
                conn.buf += chunk
            else:
                finish(conn, now)
        for conn in list(open_conns.values()):
            if now - outcomes[conn.index].start > REQUEST_TIMEOUT_S:
                finish(conn, now, error="timeout")
    selector.close()
    return RunResult(
        outcomes=outcomes,
        started=started,
        finished=time.monotonic(),
        in_flight_max=in_flight_max,
        raw=raw,
    )


def get(port: int, path: str, client_id: str = "bench", etag: str | None = None):
    """One request outside any schedule: ``(status, headers, body)``."""
    request = Request("probe", encode_get(path, client_id, etag), lambda s, b: True)
    result = run(port, [request], 1, keep_raw=True)
    outcome = result.outcomes[0]
    if outcome.error and not outcome.status:
        return 0, {}, b""
    return split_response(result.raw[0])
