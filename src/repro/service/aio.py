"""The asyncio HTTP front-end: the server ``repro serve`` runs.

Stdlib only — one event loop, ``asyncio.start_server`` — in front of
the routing table of :mod:`repro.service.http`
(:func:`~repro.service.http.route_get` / ``route_post`` /
``route_post_stream``), with every failure mapped onto its wire error
by :func:`~repro.service.messages.error_reply`. Around the routing it
adds:

- **Backpressure.** Blocking engine work runs on a bounded executor
  (``max_inflight`` threads); up to ``queue_limit`` further requests
  may wait for a slot. Beyond that the request is *shed* with a typed
  429 ``overloaded`` error instead of stalling every client behind a
  growing queue.
- **Streaming.** ``POST /v1/sweep?stream=1`` answers
  ``application/x-ndjson``: one ``{"index", "fingerprint", "result"}``
  line per job as it completes, then a ``{"summary": ...}`` line —
  the first result is on the wire before the second job has started,
  so fleet-sized sweeps pipeline into their consumers.
- **Timeouts and cancellation.** ``request_timeout`` bounds both
  reading a request and running it. A body that stalls, or a
  buffered request whose work overruns, answers a typed 408
  ``deadline_exceeded``; a request head that has started arriving
  but stalls closes the connection. An idle keep-alive connection
  waits without a deadline. A client that disconnects cancels its
  pending job future — work that has not yet reached an executor
  thread never runs at all, and a streaming sweep stops between
  jobs.
- **Rate limiting and auth.** A global token bucket
  (``rate_limit`` requests/second, ``rate_burst`` capacity) answers
  429 ``rate_limited`` when drained, and an optional ``auth`` hook
  (or the ``auth_token`` bearer-token convenience) answers 401
  ``unauthorized``. ``GET /v1/health`` is exempt from both —
  liveness must stay observable to fleet coordinators under load.

With ``verbose`` the server logs one stderr line per request in the
stdlib :mod:`http.server` shape
(``host - - [date] "METHOD target HTTP/1.1" status -``).

The server registers a load provider on the facade, so the health
body's ``load`` block reports ``queue_depth`` (requests waiting for
an executor slot), ``shed_total`` (429s so far) and
``inflight_limit`` alongside the pre-existing fields —
:class:`~repro.service.messages.WorkerLoad` decodes all of them.

Shutdown is graceful: SIGINT/SIGTERM stop the accept loop, idle
keep-alive connections close immediately, and in-flight requests
drain (bounded by ``drain_timeout``) before the socket goes away.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Callable, Dict, Optional, Tuple

from .facade import AnalysisService
from .http import (
    DEFAULT_REQUEST_TIMEOUT,
    MAX_BODY_BYTES,
    STREAM_ROUTES,
    route_get,
    route_post,
    route_post_stream,
    split_target,
    wants_stream,
)
from .messages import (
    DeadlineError,
    OverloadedError,
    RateLimitedError,
    RequestError,
    ServiceError,
    UnauthorizedError,
    error_reply,
)

#: Socket read size for the connection buffer.
_READ_CHUNK = 65536
#: Header-section cap (the body has its own MAX_BODY_BYTES bound).
_MAX_HEAD_BYTES = 65536


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` cap.

    ``try_take`` never blocks — the front-end's contract is to shed
    with a typed 429, not to stall the event loop. Thread-safe so
    executor-side callers could consult it too.
    """

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None \
            else max(1.0, self.rate)
        if self.burst < 1.0:
            raise ValueError(
                f"burst must be >= 1, got {self.burst}")
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()
        self._lock = threading.Lock()

    def try_take(self, amount: float = 1.0) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst,
                self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False


def bearer_auth(token: str):
    """The ``--auth-token`` hook: require ``Authorization: Bearer``.

    Comparison is constant-time-ish via ``hmac.compare_digest`` —
    a front-end credential check should not leak length/prefix
    timing even if the stakes here are modest.
    """
    import hmac
    expected = f"Bearer {token}"

    def check(method: str, path: str,
              headers: Dict[str, str]) -> bool:
        return hmac.compare_digest(
            headers.get("authorization", ""), expected)

    return check


class _BadRequest(Exception):
    """A request so malformed it has no usable frame."""


class _Connection:
    """One client connection: buffered parsing plus pushback.

    The parser owns its own byte buffer (rather than using
    ``StreamReader.readuntil``) so the disconnect watcher can *feed
    back* any pipelined bytes it read while a request was in flight
    — nothing is ever lost between requests on a keep-alive
    connection.
    """

    __slots__ = ("reader", "writer", "buffer", "busy", "task",
                 "pending_read", "deadline", "request_line")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.buffer = bytearray()
        self.busy = False
        self.task: Optional[asyncio.Task] = None
        #: The one in-flight socket read. Every read goes through
        #: :meth:`watch_read`, so a disconnect watch left pending
        #: when its request completes is simply *re-awaited* by the
        #: next request's parser — no per-request task churn, no
        #: double-read races on the StreamReader.
        self.pending_read: Optional[asyncio.Task] = None
        #: Loop time by which the current request must have arrived,
        #: armed by the first read of it that has to wait.
        self.deadline: Optional[float] = None
        #: The current request's raw first line, for the verbose log.
        self.request_line = ""

    def feed(self, data: bytes) -> None:
        self.buffer.extend(data)

    def watch_read(self) -> asyncio.Task:
        """The connection's single outstanding socket read."""
        if self.pending_read is None:
            self.pending_read = asyncio.ensure_future(
                self.reader.read(_READ_CHUNK))
        return self.pending_read

    async def _fill(self, timeout: Optional[float]) -> bool:
        """Read more bytes into the buffer; ``False`` at EOF.

        With a ``timeout``, a read that has to wait arms the request's
        deadline (once) and raises :class:`DeadlineError` past it. The
        unfinished read stays parked on the connection for teardown.
        """
        task = self.watch_read()
        if timeout is not None and not task.done():
            loop = asyncio.get_running_loop()
            if self.deadline is None:
                self.deadline = loop.time() + timeout
            await asyncio.wait(
                (task,), timeout=max(0.0, self.deadline - loop.time()))
            if not task.done():
                raise DeadlineError(
                    f"request not received within {timeout}s")
        try:
            data = await task
        finally:
            self.pending_read = None
        if not data:
            return False
        self.buffer.extend(data)
        return True

    async def read_request(self, timeout: Optional[float]
                           ) -> Optional[Tuple[str, str,
                                               Dict[str, str]]]:
        """``(method, target, headers)`` — or ``None`` at EOF.

        Waiting for a request's first byte has no deadline (an idle
        keep-alive connection); once bytes are buffered, the rest of
        the request must arrive within ``timeout``.
        """
        self.deadline = None
        self.request_line = ""
        while b"\r\n\r\n" not in self.buffer:
            if len(self.buffer) > _MAX_HEAD_BYTES:
                raise _BadRequest("request head exceeds "
                                  f"{_MAX_HEAD_BYTES} bytes")
            if not await self._fill(timeout if self.buffer else None):
                if self.buffer:
                    raise _BadRequest("truncated request head")
                return None
        head, _, _ = bytes(self.buffer).partition(b"\r\n\r\n")
        del self.buffer[:len(head) + 4]
        lines = head.decode("latin-1").split("\r\n")
        self.request_line = lines[0]
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    async def read_body(self, headers: Dict[str, str],
                        timeout: Optional[float]) -> bytes:
        """The request body, honouring the wire's body policy.

        No chunked request bodies, a sane Content-Length, and the
        rest of the request within ``timeout``; a typed error (with
        the connection dropped) otherwise.
        """
        if headers.get("transfer-encoding") is not None:
            raise RequestError(
                "chunked request bodies are not supported; send a "
                "Content-Length")
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            raise RequestError(
                "request body needs a Content-Length between 0 and "
                f"{MAX_BODY_BYTES} bytes")
        while len(self.buffer) < length:
            if not await self._fill(timeout):
                raise RequestError(
                    "request body truncated by the client")
        body = bytes(self.buffer[:length])
        del self.buffer[:length]
        return body


class AsyncServiceServer:
    """The asyncio front-end over one :class:`AnalysisService`.

    Construct, then ``await start()`` inside a running loop; the
    bound address is ``(host, port)`` afterwards (``port=0`` resolves
    to the ephemeral port actually bound). ``await shutdown()``
    drains and closes. :class:`AsyncServerThread` wraps the lifecycle
    for synchronous callers (tests, benchmarks), :func:`serve_async`
    for the CLI.
    """

    def __init__(self, service: AnalysisService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 verbose: bool = False,
                 max_inflight: int = 8,
                 queue_limit: int = 64,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 auth=None,
                 auth_token: Optional[str] = None,
                 request_timeout: Optional[float]
                 = DEFAULT_REQUEST_TIMEOUT,
                 drain_timeout: float = 10.0):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {queue_limit}")
        if auth is None and auth_token is not None:
            auth = bearer_auth(auth_token)
        self.service = service
        self.host = host
        self.port = port
        self.verbose = verbose
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.request_timeout = request_timeout or None
        self.drain_timeout = drain_timeout
        self._bucket = TokenBucket(rate_limit, rate_burst) \
            if rate_limit else None
        self._auth = auth
        # Counters (event-loop-owned; read cross-thread by health).
        self.requests_total = 0
        self.shed_total = 0
        self.cancelled_total = 0
        self.timeouts_total = 0
        self._inflight = 0
        self._conns: set = set()
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            self.max_inflight, thread_name_prefix="repro-aio")
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port)
        self.host, self.port = \
            self._server.sockets[0].getsockname()[:2]
        self.service.set_load_provider(self.load_snapshot)

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight work, release the pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        idle = [conn for conn in list(self._conns) if not conn.busy]
        for conn in idle:
            if conn.task is not None:
                conn.task.cancel()
        tasks = [conn.task for conn in list(self._conns)
                 if conn.task is not None]
        if tasks and drain:
            await asyncio.wait(tasks, timeout=self.drain_timeout)
        elif tasks:
            for task in tasks:
                task.cancel()
            await asyncio.wait(tasks, timeout=1.0)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        self.service.set_load_provider(None)

    def load_snapshot(self) -> dict:
        """The front-end half of the health body's ``load`` block."""
        return {
            "queue_depth": max(0, self._inflight - self.max_inflight),
            "shed_total": self.shed_total,
            "inflight_limit": self.max_inflight,
        }

    # -- per-connection loop -----------------------------------------------

    async def _client_connected(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        conn.task = asyncio.current_task()
        self._conns.add(conn)
        try:
            while not self._draining:
                conn.busy = False
                try:
                    request = await conn.read_request(
                        self.request_timeout)
                except asyncio.CancelledError:
                    break        # drain cancelled an idle read
                except DeadlineError:
                    self.timeouts_total += 1
                    break        # a stalled request head: hang up
                except _BadRequest as error:
                    conn.busy = True
                    await self._send_json(
                        conn, 400,
                        {"error": {"code": "bad_request",
                                   "message": str(error)}},
                        close=True)
                    break
                if request is None:
                    break
                conn.busy = True
                if not await self._serve_one(conn, *request):
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(conn)
            await self._reap_watch(conn, conn.pending_read)
            conn.pending_read = None
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 — socket teardown
                pass

    # -- one request -------------------------------------------------------

    def _gate(self, method: str, path: str,
              headers: Dict[str, str]) -> None:
        """Auth, then rate limit. Health stays open — a coordinator
        must be able to probe liveness under any policy."""
        if method == "GET" and path == "/v1/health":
            return
        if self._auth is not None and \
                not self._auth(method, path, headers):
            raise UnauthorizedError(
                "request refused by the auth hook")
        if self._bucket is not None and not self._bucket.try_take():
            raise RateLimitedError(
                "rate limit exceeded; retry after a pause")

    @staticmethod
    def _dispatch(route) -> Tuple[int, dict]:
        """Run a route; a failure answers its wire error."""
        try:
            return route()
        except Exception as error:  # noqa: BLE001 — server boundary
            return error_reply(error)

    async def _serve_one(self, conn: _Connection, method: str,
                         target: str,
                         headers: Dict[str, str]) -> bool:
        """Handle one request; returns keep-alive."""
        self.requests_total += 1
        path, query = split_target(target)
        keep = headers.get("connection", "").lower() != "close"
        # The body must come off the wire before any response or
        # keep-alive desyncs.
        try:
            body = await conn.read_body(headers, self.request_timeout) \
                if method == "POST" else b""
        except ServiceError as error:
            if isinstance(error, DeadlineError):
                self.timeouts_total += 1
            await self._send_json(conn, error.http_status,
                                  error.to_dict(), close=True)
            return False
        try:
            self._gate(method, path, headers)
        except ServiceError as error:
            await self._send_json(
                conn, error.http_status, error.to_dict(),
                close=error.http_status == 401)
            return keep and error.http_status != 401
        if method == "GET":
            # GETs are cheap facade snapshots: answered inline on the
            # loop, never queued behind engine work — health and job
            # polls stay responsive when the executor is saturated.
            status, payload = self._dispatch(
                lambda: route_get(self.service, path))
            await self._send_json(conn, status, payload)
            return keep
        if method != "POST":
            await self._send_json(
                conn, 405, {"error": {
                    "code": "bad_request",
                    "message": f"unsupported method {method}"}},
                close=True)
            return False
        try:
            payload = self._parse_json(body)
        except ServiceError as error:
            await self._send_json(conn, error.http_status,
                                  error.to_dict())
            return keep
        if path in STREAM_ROUTES and wants_stream(query):
            return await self._serve_stream(conn, path, payload, keep)
        return await self._serve_post(conn, path, payload, keep)

    @staticmethod
    def _parse_json(body: bytes) -> dict:
        if not body:
            return {}
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(
                f"request body is not valid JSON: {error}") from error

    def _shed(self) -> bool:
        return self._inflight >= self.max_inflight + self.queue_limit

    def _submit(self, work):
        """Run ``work`` on the bounded executor, inflight-accounted.

        The counter tracks executor occupancy, not awaiting: it drops
        when the work *finishes* (or is cancelled before starting),
        even if the awaiting handler gave up at its deadline — a
        timed-out job still holds its slot until done, and the shed
        threshold must see that.
        """
        self._inflight += 1
        future = self._loop.run_in_executor(self._executor, work)

        def finished(f):
            self._inflight -= 1
            if not f.cancelled():
                f.exception()  # consume; _dispatch already typed it

        future.add_done_callback(finished)
        return future

    async def _serve_post(self, conn: _Connection, path: str,
                          payload: dict, keep: bool) -> bool:
        if self._shed():
            self.shed_total += 1
            error = OverloadedError(
                f"work queue full ({self._inflight} in flight, "
                f"limit {self.max_inflight}+{self.queue_limit}); "
                "retry later or against another worker")
            await self._send_json(conn, error.http_status,
                                  error.to_dict())
            return keep
        future = self._submit(lambda: self._dispatch(
            lambda: route_post(self.service, path, payload)))
        deadline = None if self.request_timeout is None \
            else self._loop.time() + self.request_timeout
        while True:
            # The disconnect watch IS the connection's single read
            # task: when the job wins the race, the still-pending
            # read simply stays parked on the connection and the
            # next request's parser awaits it — no per-request task
            # create/cancel churn on the hot path.
            watch = conn.watch_read()
            timeout = None if deadline is None \
                else max(0.0, deadline - self._loop.time())
            done, _ = await asyncio.wait(
                {future, watch}, timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED)
            if future in done:
                status, reply = future.result()
                await self._send_json(conn, status, reply)
                return keep
            if watch in done:
                conn.pending_read = None
                try:
                    data = watch.result()
                except (ConnectionResetError, BrokenPipeError,
                        OSError):
                    data = b""
                if not data:
                    # Client gone: cancel the pending job future.
                    # Queued work never runs; running work is
                    # abandoned (its executor slot frees on
                    # completion, and its result-cache write
                    # still lands).
                    future.cancel()
                    self.cancelled_total += 1
                    return False
                conn.feed(data)   # pipelined bytes: keep them
                continue
            # Deadline exceeded.
            future.cancel()
            self.timeouts_total += 1
            error = DeadlineError(
                f"request exceeded its {self.request_timeout}s "
                "budget")
            await self._send_json(conn, error.http_status,
                                  error.to_dict(), close=True)
            return False

    async def _reap_watch(self, conn: _Connection,
                          watch: Optional[asyncio.Task]) -> None:
        """Retire the connection's parked read at teardown so a
        still-pending socket read never outlives the connection (an
        unawaited task that fails would log at GC). A watch that
        raced in real bytes hands them back to the connection
        buffer."""
        if watch is None:
            return
        watch.cancel()
        try:
            data = await watch
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError, OSError):
            return
        if data:
            conn.feed(data)

    # -- streaming ---------------------------------------------------------

    async def _serve_stream(self, conn: _Connection, path: str,
                            payload: dict, keep: bool) -> bool:
        """One ndjson streaming response (``/v1/sweep?stream=1``).

        The whole stream occupies one executor slot (it *is* engine
        work), so it sheds exactly like a buffered request. Lines
        flow through a small queue whose blocking put gives the
        producer thread real backpressure from the client's TCP
        window; ``request_timeout`` deliberately does not apply — a
        streaming sweep is bounded by the client staying connected.
        """
        if self._shed():
            self.shed_total += 1
            error = OverloadedError(
                f"work queue full ({self._inflight} in flight, "
                f"limit {self.max_inflight}+{self.queue_limit}); "
                "retry later or against another worker")
            await self._send_json(conn, error.http_status,
                                  error.to_dict())
            return keep
        stop = threading.Event()
        # Validation (and fleet generation) runs on the executor; a
        # refusal here is still a typed pre-commit status.
        build = self._submit(lambda: self._dispatch(
            lambda: (200, route_post_stream(
                self.service, path, payload,
                should_stop=stop.is_set))))
        status, lines = await build
        if status != 200:
            await self._send_json(conn, status, lines)
            return keep

        queue: asyncio.Queue = asyncio.Queue(maxsize=4)
        loop = self._loop

        def produce():
            try:
                try:
                    for line in lines:
                        asyncio.run_coroutine_threadsafe(
                            queue.put(line), loop).result()
                        if stop.is_set():
                            break
                except Exception as error:  # noqa: BLE001 — boundary
                    # The status is committed: the failure travels as
                    # a final error line.
                    asyncio.run_coroutine_threadsafe(
                        queue.put(error_reply(error)[1]), loop).result()
            finally:
                close = getattr(lines, "close", None)
                if close is not None:
                    close()
                asyncio.run_coroutine_threadsafe(
                    queue.put(None), loop).result()

        producer = self._submit(produce)
        self._write_response(
            conn, 200,
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n")
        clean = False
        getter: Optional[asyncio.Task] = None
        try:
            while True:
                if getter is None:
                    getter = asyncio.ensure_future(queue.get())
                watch = conn.watch_read()
                done, _ = await asyncio.wait(
                    {getter, watch},
                    return_when=asyncio.FIRST_COMPLETED)
                if watch in done:
                    conn.pending_read = None
                    try:
                        data = watch.result()
                    except (ConnectionResetError, BrokenPipeError,
                            OSError):
                        data = b""
                    if not data:
                        # Mid-stream disconnect: stop the producer
                        # between jobs.
                        stop.set()
                        self.cancelled_total += 1
                        break
                    conn.feed(data)
                    continue
                item = getter.result()
                getter = None
                if item is None:
                    clean = True
                    break
                data = json.dumps(
                    item,
                    separators=(",", ":")).encode("utf-8") + b"\n"
                try:
                    conn.writer.write(
                        b"%x\r\n%s\r\n" % (len(data), data))
                    await conn.writer.drain()
                except (ConnectionResetError, BrokenPipeError,
                        OSError):
                    stop.set()
                    self.cancelled_total += 1
                    break
        finally:
            if not clean:
                # Unblock a producer stuck on a full queue, then wait
                # for its sentinel so the executor slot is truly free.
                # The in-flight getter is consumed, never cancelled —
                # cancelling could drop the sentinel on the floor.
                while True:
                    if getter is None:
                        getter = asyncio.ensure_future(queue.get())
                    item = await getter
                    getter = None
                    if item is None:
                        break
            elif getter is not None:
                getter.cancel()
        if clean:
            try:
                conn.writer.write(b"0\r\n\r\n")
                await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                return False
            return keep
        return False

    # -- response plumbing -------------------------------------------------

    async def _send_json(self, conn: _Connection, status: int,
                         payload: dict, close: bool = False) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if close:
            head += "Connection: close\r\n"
        self._write_response(conn, status,
                             head.encode("latin-1") + b"\r\n" + body)
        try:
            await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def _write_response(self, conn: _Connection, status: int,
                        data: bytes) -> None:
        """Put a response (or a stream's head) on the wire, logging
        the request first when verbose."""
        if self.verbose:
            host = (conn.writer.get_extra_info("peername")
                    or ("-",))[0]
            sys.stderr.write('%s - - [%s] "%s" %s -\n' % (
                host, time.strftime("%d/%b/%Y %H:%M:%S"),
                conn.request_line, status))
        conn.writer.write(data)


class AsyncServerThread:
    """The asyncio front-end on a dedicated loop thread.

    The synchronous-world wrapper tests and benchmarks use::

        front = AsyncServerThread(service, max_inflight=4)
        front.start()
        ... urllib / http.client against front.base ...
        front.stop()

    ``start()`` blocks until the socket is bound (so ``front.port``
    is the real ephemeral port); ``stop()`` runs the graceful drain
    and joins the loop thread.
    """

    def __init__(self, service: AnalysisService,
                 host: str = "127.0.0.1", port: int = 0, **knobs):
        self.service = service
        self._host = host
        self._port = port
        self._knobs = knobs
        self.server: Optional[AsyncServiceServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._drain = True

    def start(self) -> "AsyncServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-aio-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("asyncio front-end failed to start")
        if self._error is not None:
            raise self._error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = AsyncServiceServer(
            self.service, self._host, self._port, **self._knobs)
        try:
            await self.server.start()
        except Exception as error:  # noqa: BLE001 — startup report
            self._error = error
            self._ready.set()
            return
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown(drain=self._drain)

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def base(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, drain: bool = True) -> None:
        if self._loop is None or self._stop is None:
            return
        self._drain = drain
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass                     # loop already gone
        self._thread.join(timeout=30)


def serve_async(service: AnalysisService, host: str = "127.0.0.1",
                port: int = 8787, verbose: bool = False,
                ready_message: bool = True, **knobs) -> int:
    """Run the asyncio front-end until signalled (the ``repro
    serve`` body).

    SIGINT/SIGTERM trigger the graceful path: stop accepting, drain
    in-flight requests, close the socket, release the engine. The
    ready message prints the actually-bound port (``--port 0`` binds
    an ephemeral one).
    """
    import signal

    async def main() -> None:
        server = AsyncServiceServer(service, host, port,
                                    verbose=verbose, **knobs)
        await server.start()
        if ready_message:
            limits = (f"max_inflight={server.max_inflight}, "
                      f"queue_limit={server.queue_limit}")
            print(f"repro service listening on "
                  f"http://{server.host}:{server.port} "
                  f"(frontend=asyncio, "
                  f"backend={service.describe()['backend']}, "
                  f"cache_dir={service.cache_dir}, {limits})",
                  flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass             # non-main thread or platform limits
        await stop.wait()
        await server.shutdown(drain=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0
