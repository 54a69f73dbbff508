"""Transports: how the fleet coordinator reaches a worker.

A :class:`Transport` carries one request/reply exchange of the service
wire contract (:mod:`repro.service.messages`) to a named worker and
returns the decoded JSON body. Two implementations:

- :class:`HttpTransport` — real sockets against ``repro serve``
  instances, workers named ``host:port``;
- :class:`LoopbackTransport` — in-memory workers
  (:class:`~repro.service.facade.AnalysisService` instances) routed
  through the *same* routing table as the HTTP server
  (:func:`repro.service.http.route_get` / ``route_post``), with every
  payload round-tripped through ``json`` so anything that would not
  survive the wire fails here too. Fault injection (:meth:`kill`,
  :meth:`fail_next`, :meth:`delay`) makes the dispatcher's retry,
  rebalance and merge logic fully unit-testable without sockets.

Failure taxonomy — the distinction the dispatcher's retry policy is
built on:

- :class:`TransportError` — the worker could not be reached or did not
  answer usably (connection refused, timeout, truncated/invalid reply).
  Retryable: the coordinator re-probes the worker and either retries
  or rebalances the shard.
- :class:`WireError` — the worker answered with a structured error
  payload (HTTP status >= 400). The request itself is at fault; not
  retryable.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple)

from ..errors import ReproError


class TransportError(ReproError):
    """A worker was unreachable or its reply was unusable."""

    def __init__(self, worker: str, message: str):
        super().__init__(f"worker {worker}: {message}")
        self.worker = worker


class WireError(ReproError):
    """A worker answered with a structured error payload."""

    def __init__(self, worker: str, status: int, error: Mapping):
        code = error.get("code", "error")
        message = error.get("message", "")
        super().__init__(
            f"worker {worker} answered {status} {code}: {message}")
        self.worker = worker
        self.status = status
        self.code = code
        self.error = dict(error)


class Transport:
    """Protocol of a coordinator-to-worker transport (structural)."""

    def request(self, worker: str, method: str, path: str,
                payload: Optional[dict] = None,
                timeout: float = 30.0) -> dict:
        """One exchange; the decoded JSON reply body.

        Raises :class:`TransportError` when the worker cannot be
        reached and :class:`WireError` when it answers an error
        payload.
        """
        raise NotImplementedError

    def stream(self, worker: str, path: str,
               payload: Optional[dict] = None,
               timeout: float = 30.0) -> Iterator[dict]:
        """One streaming POST; yields decoded ndjson line dicts.

        The exchange targets the service's streaming routes
        (``POST /v1/sweep?stream=1``): each yielded dict is one
        result line, the last one the summary; a stream that ends
        before its summary is a lost connection. A pre-commit refusal
        (the worker answered an error status before streaming) and a
        mid-stream error line both raise :class:`WireError`; a
        connection lost mid-stream raises :class:`TransportError`,
        which the dispatcher recovers like any other transport fault:
        lines already consumed stand, and only the indices the stream
        had not answered are retried or rebalanced. Every read is
        bounded by ``timeout``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any held connections (optional)."""


class HttpTransport(Transport):
    """Real HTTP against ``repro serve`` workers named ``host:port``."""

    def __init__(self, scheme: str = "http"):
        self.scheme = scheme

    def request(self, worker: str, method: str, path: str,
                payload: Optional[dict] = None,
                timeout: float = 30.0) -> dict:
        data = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        http_request = urllib.request.Request(
            f"{self.scheme}://{worker}{path}", data=data,
            headers={"Content-Type": "application/json"},
            method=method)
        try:
            with urllib.request.urlopen(http_request,
                                        timeout=timeout) as reply:
                body = reply.read()
        except urllib.error.HTTPError as error:
            # The worker answered; surface its structured error.
            try:
                decoded = json.loads(error.read().decode("utf-8"))
                detail = decoded["error"]
            except Exception:  # noqa: BLE001 — error-path decode
                detail = {"code": "http_error", "message": str(error)}
            raise WireError(worker, error.code, detail) from error
        except (urllib.error.URLError, socket.timeout,
                ConnectionError, OSError) as error:
            raise TransportError(worker, str(error)) from error
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise TransportError(
                worker, f"reply is not valid JSON: {error}") from error

    def stream(self, worker: str, path: str,
               payload: Optional[dict] = None,
               timeout: float = 30.0) -> Iterator[dict]:
        """``POST <path>?stream=1``; the socket timeout bounds the
        connect and every line read. A broken or stalled stream
        raises :class:`TransportError` — recoverable per index, not
        fatal to the sweep — and closing the iterator mid-stream
        closes the connection."""
        sep = "&" if "?" in path else "?"
        http_request = urllib.request.Request(
            f"{self.scheme}://{worker}{path}{sep}stream=1",
            data=json.dumps(payload or {}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST")
        try:
            reply = urllib.request.urlopen(http_request,
                                           timeout=timeout)
        except urllib.error.HTTPError as error:
            try:
                decoded = json.loads(error.read().decode("utf-8"))
                detail = decoded["error"]
            except Exception:  # noqa: BLE001 — error-path decode
                detail = {"code": "http_error", "message": str(error)}
            raise WireError(worker, error.code, detail) from error
        except (urllib.error.URLError, socket.timeout,
                ConnectionError, OSError) as error:
            raise TransportError(worker, str(error)) from error

        def lines() -> Iterator[dict]:
            # http.client strips the chunked framing; each read line
            # is one ndjson record.
            try:
                with reply:
                    line: dict = {}
                    for raw in reply:
                        raw = raw.strip()
                        if not raw:
                            continue
                        try:
                            line = json.loads(raw.decode("utf-8"))
                        except (UnicodeDecodeError,
                                json.JSONDecodeError) as error:
                            raise TransportError(
                                worker,
                                f"stream line is not valid JSON: "
                                f"{error}") from error
                        if set(line.keys()) == {"error"}:
                            raise WireError(worker, 500,
                                            line["error"])
                        yield line
                    if "summary" not in line:
                        # http.client reads a connection dropped at a
                        # chunk boundary as a clean end of stream.
                        raise TransportError(
                            worker, "stream ended before its summary")
            except (socket.timeout, ConnectionError,
                    http.client.HTTPException, OSError) as error:
                raise TransportError(
                    worker,
                    f"stream broken: {error}") from error

        return lines()


class LoopbackTransport(Transport):
    """In-memory workers behind the HTTP server's routing table.

    ``workers`` maps worker id to a live
    :class:`~repro.service.facade.AnalysisService`. Requests JSON
    round-trip both ways and parse with the wire's path policy, so the
    dispatcher exercises byte-for-byte the code path a socket would —
    minus the socket.

    Fault injection, per worker:

    - :meth:`kill` — permanently unreachable, from the next request
      or streamed line (until :meth:`revive`);
    - :meth:`fail_next` — the next *n* requests raise
      :class:`TransportError`, then the worker recovers (a transient
      network drop);
    - :meth:`fail_after` — healthy for *n* more requests or streamed
      lines, then permanently dead (a worker lost mid-sweep, or
      mid-stream);
    - :meth:`delay` — sleep before serving each request (a slow
      worker; pair with a small dispatcher timeout).

    ``calls`` records every attempted exchange as
    ``(worker, method, path)`` for test assertions, including ones
    that failed by injection.
    """

    def __init__(self, workers: Mapping[str, object]):
        self.workers = dict(workers)
        self.calls: List[Tuple[str, str, str]] = []
        self._dead: Dict[str, bool] = {}
        self._fail_next: Dict[str, int] = {}
        self._fail_after: Dict[str, int] = {}
        self._delay: Dict[str, float] = {}
        self._sleep: Callable[[float], None] = time.sleep
        #: Reader threads and health probes share the fault counters.
        self._lock = threading.Lock()

    # -- fault injection ---------------------------------------------------

    def kill(self, worker: str) -> None:
        self._dead[worker] = True

    def revive(self, worker: str) -> None:
        self._dead.pop(worker, None)
        self._fail_after.pop(worker, None)

    def fail_next(self, worker: str, count: int = 1) -> None:
        self._fail_next[worker] = count

    def fail_after(self, worker: str, count: int) -> None:
        self._fail_after[worker] = count

    def delay(self, worker: str, seconds: float) -> None:
        self._delay[worker] = seconds

    def _check_alive(self, worker: str) -> None:
        """Kill and :meth:`fail_after` faults, per request or line."""
        if self._dead.get(worker):
            raise TransportError(worker, "connection refused (killed)")
        with self._lock:
            remaining = self._fail_after.get(worker)
            if remaining is not None:
                if remaining <= 0:
                    raise TransportError(
                        worker, "connection refused (lost mid-sweep)")
                self._fail_after[worker] = remaining - 1

    def _connect(self, worker: str, timeout: float):
        """Every injected fault of one exchange's start; the worker's
        service if it survives them."""
        service = self.workers.get(worker)
        if service is None:
            raise TransportError(worker, "unknown worker")
        self._check_alive(worker)
        with self._lock:
            pending = self._fail_next.get(worker, 0)
            if pending > 0:
                self._fail_next[worker] = pending - 1
                raise TransportError(worker, "transient network drop")
        lag = self._delay.get(worker, 0.0)
        if lag:
            self._sleep(lag)
            if lag > timeout:
                # The caller's clock ran out first; behave like a
                # socket timeout (the worker-side effect, if any,
                # already happened).
                raise TransportError(
                    worker, f"timed out after {timeout}s")
        return service

    # -- the exchange ------------------------------------------------------

    def request(self, worker: str, method: str, path: str,
                payload: Optional[dict] = None,
                timeout: float = 30.0) -> dict:
        self.calls.append((worker, method, path))
        service = self._connect(worker, timeout)

        from ..service.http import route_get, route_post
        from ..service.messages import error_reply

        if method not in ("GET", "POST"):
            raise TransportError(worker,
                                 f"unsupported method {method!r}")
        # The wire discipline: only JSON-encodable payloads travel.
        payload = json.loads(json.dumps(payload)) \
            if payload is not None else {}
        try:
            if method == "GET":
                status, body = route_get(service, path)
            else:
                status, body = route_post(service, path, payload)
        except ReproError as error:
            # Answer what the HTTP front-end would; anything that is
            # not a ReproError is a bug and propagates.
            status, body = error_reply(error)
            raise WireError(worker, status, body["error"]) from error
        body = json.loads(json.dumps(body))
        if status >= 400:
            raise WireError(worker, status,
                            body.get("error", {"code": "error"}))
        return body

    def stream(self, worker: str, path: str,
               payload: Optional[dict] = None,
               timeout: float = 30.0) -> Iterator[dict]:
        self.calls.append((worker, "POST", f"{path}?stream=1"))
        service = self._connect(worker, timeout)

        from ..service.http import route_post_stream
        from ..service.messages import error_reply

        payload = json.loads(json.dumps(payload)) \
            if payload is not None else {}
        try:
            lines = route_post_stream(service, path, payload)
        except ReproError as error:
            status, body = error_reply(error)
            raise WireError(worker, status, body["error"]) from error

        def relay() -> Iterator[dict]:
            try:
                for line in lines:
                    # Each line is a read: a worker can die mid-stream.
                    self._check_alive(worker)
                    yield json.loads(json.dumps(line))
            except TransportError:
                raise
            except ReproError as error:
                # Mid-stream the HTTP front-end sends a final error
                # line, which HttpTransport surfaces as a 500
                # WireError whatever the error — match that here.
                raise WireError(worker, 500,
                                error_reply(error)[1]["error"]) \
                    from error

        return relay()
