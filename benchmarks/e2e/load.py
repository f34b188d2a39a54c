"""Open-loop HTTP load for the placement service, from one process.

Requests follow a seeded schedule of due times.  At most two sender threads
each hold at most one connection at a time (the service answers one request
per connection), so a slow server makes later requests late instead of
opening more connections.  Latency is timed from each request's *due* time,
which counts the wait a stall imposes on every request queued behind it;
how late the sender itself ran is reported separately.  Refused, reset and
timed-out requests are failures and are never retried.

Standard library only: it speaks the service's HTTP subset directly rather
than through ``repro.service.ServiceClient``, so its timing does not depend
on the code under test.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Status recorded for a request whose connection was refused, reset or
#: closed before a full response arrived.
CONNECTION_ERROR = 0
#: Status recorded for a request that hit the client timeout.
TIMEOUT = -1


@dataclass
class Request:
    """One scheduled request: due ``due_s`` after the phase starts."""

    due_s: float
    kind: str
    raw: bytes
    #: Parse the JSON answer (bound queries carry the fields the checks read).
    parse: bool = False


@dataclass
class Outcome:
    """What happened to one request; times are ``time.perf_counter()``."""

    kind: str
    due: float
    sent: float
    done: float
    status: int
    answer: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent - self.due) * 1000.0

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def http_bytes(host: str, port: int, method: str, path: str,
               body: Optional[Dict[str, object]] = None) -> bytes:
    """The request bytes for one HTTP/1.1 ``Connection: close`` exchange."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode() + payload


def query_bytes(host: str, port: int, query: Dict[str, object]) -> bytes:
    return http_bytes(host, port, "POST", "/query", query)


def exchange(host: str, port: int, raw: bytes, timeout_s: float) -> Tuple[int, bytes]:
    """Send one request; return ``(status, body)``.

    Raises ``socket.timeout`` on the client timeout and ``OSError`` (or
    ``ValueError`` for a truncated answer) when the connection fails.
    """
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("connection closed before the response head")
    status_line = head.split(b"\r\n", 1)[0].split(b" ")
    return int(status_line[1]), body


def get_json(host: str, port: int, path: str, timeout_s: float = 10.0) -> Dict[str, object]:
    """One synchronous GET returning the parsed JSON body (probes, /stats)."""
    status, body = exchange(host, port, http_bytes(host, port, "GET", path), timeout_s)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def run_phase(host: str, port: int, requests: Sequence[Request],
              threads: int = 2, timeout_s: float = 5.0) -> Tuple[float, List[Outcome]]:
    """Send ``requests`` on their schedule; return ``(start, outcomes)``.

    Every request is sent exactly once, however late; outcomes come back in
    schedule order.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.01

    def sender() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            req = requests[i]
            due = start + req.due_s
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            answer = None
            try:
                status, body = exchange(host, port, req.raw, timeout_s)
                if req.parse and 200 <= status < 300:
                    answer = json.loads(body)
            except socket.timeout:
                status = TIMEOUT
            except (OSError, ValueError):
                status = CONNECTION_ERROR
            outcomes[i] = Outcome(req.kind, due, sent, time.perf_counter(), status, answer)

    workers = [threading.Thread(target=sender, daemon=True) for _ in range(threads)]
    # A full collection of the client's heap would stall both senders and
    # show up as server latency; the phase allocates nothing cyclic.
    gc.disable()
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        gc.enable()
    return start, [o for o in outcomes if o is not None]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; nan if empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
