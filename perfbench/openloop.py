"""Open-loop load generator that times each request from its due time.

Request ``i`` is due at ``epoch + i / rate`` whatever happened before
it.  At most ``connections`` requests are in flight, one per keep-alive
connection; when every connection is busy the next due request waits,
and that wait counts in its latency.  A stall therefore shows in every
request queued behind it, instead of being hidden by a client that
simply sends later.  ``late`` says how far behind schedule the
generator sent each request.

(The program's own ``LoadGenerator.run_open`` starts each clock at
send time and opens one connection per request, so it cannot show
such stalls.)
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Sample:
    """One request as the generator saw it."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Seconds from due time to the complete response."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent this request behind its due time."""
        return max(0.0, self.sent - self.due)

    @property
    def service(self) -> float:
        """Seconds from send to the complete response."""
        return self.done - self.sent


#: send(connection, request) -> (status, body); status 0 = transport error
Send = Callable[[object, object], Tuple[int, bytes]]


class OpenLoop:
    """Replays requests at a fixed rate over a few connections."""

    def __init__(
        self,
        rate: float,
        connections: int,
        connect: Callable[[], object],
        send: Send,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        lead: float = 0.05,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if connections < 1:
            raise ValueError(f"connections must be >= 1, got {connections}")
        self.rate = rate
        self.connections = connections
        self.connect = connect
        self.send = send
        self.clock = clock
        self.sleep = sleep
        self.lead = lead

    def run(self, requests: Sequence[object]) -> List[Sample]:
        samples: List[Optional[Sample]] = [None] * len(requests)
        lock = threading.Lock()
        cursor = [0]
        epoch = self.clock() + self.lead
        errors: List[Exception] = []

        def worker() -> None:
            connection = None
            try:
                connection = self.connect()
                while True:
                    with lock:
                        index = cursor[0]
                        if index >= len(requests):
                            return
                        cursor[0] += 1
                    due = epoch + index / self.rate
                    wait = due - self.clock()
                    if wait > 0:
                        self.sleep(wait)
                    sent = self.clock()
                    status, body = self.send(connection, requests[index])
                    samples[index] = Sample(
                        index, due, sent, self.clock(), status, body
                    )
            except Exception as exc:  # re-raised after the join
                errors.append(exc)
            finally:
                close = getattr(connection, "close", None)
                if close is not None:
                    close()

        if self.connections == 1:
            worker()
        else:
            threads = [
                threading.Thread(target=worker, name=f"openloop-{n}")
                for n in range(self.connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return [sample for sample in samples if sample is not None]


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class HttpConnection:
    """A lean keep-alive HTTP/1.1 client (Content-Length framing only)
    that reconnects after transport errors.  It parses no more than the
    status line and the framing headers, so the generator spends little
    of the host's CPU on its own side of the socket."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        """Send one request; (status, body), or (0, b"") on a transport
        error."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Content-Type: application/json\r\n" if body else "")
            + "\r\n"
        ).encode("latin-1")
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                self._file = self._sock.makefile("rb")
            self._sock.sendall(head + body)
            status = int(self._file.readline().split()[1])
            length, close = 0, False
            while True:
                line = self._file.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            payload = self._file.read(length)
            if close:
                self.close()
            return status, payload
        except (OSError, ValueError, IndexError):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
