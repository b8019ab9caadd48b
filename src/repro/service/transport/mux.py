"""Multiplexed shard connection: one socket, many tagged in-flight requests.

:class:`MuxConnection` carries every in-flight request to one endpoint
over a single connection driven by a ``selectors`` event loop on a
background thread, so concurrency costs neither a socket nor a thread
blocked in ``recv`` per request:

* Callers (any number of threads) hand :meth:`request` a payload; it is
  assigned a **correlation id**, encoded once, queued, and the caller
  parks on a :class:`~concurrent.futures.Future`.
* The loop thread **coalesces** queued frames into large writes (up to
  :data:`COALESCE_BYTES` per ``send``), so eight callers submitting
  batches simultaneously cost one syscall, not eight.
* Responses complete **out of order**: the loop matches each incoming
  frame to its future by peeking the header id (no body decode on the
  loop).  Bodies are decoded on the *requesting* thread, so one slow
  decode never stalls the loop or other callers.
* Every request carries its own **deadline**; the loop fails overdue
  futures with :class:`FrameTimeoutError` (never retried — a slow peer
  is not a dead peer) while the connection keeps serving other requests.
* When the socket dies, every in-flight future fails with
  :class:`ConnectionClosedError` and the connection marks itself dead;
  the owning client decides whether a retry on a fresh connection is
  safe (only on a connection that existed before the call).
* A frame with id 0 is the server's **connection-level error** (an
  oversized or undecodable request poisoned the stream, and the server
  hangs up after it): every in-flight future fails with the decoded
  typed error — e.g. :class:`FrameTooLargeError`, which is request-shaped
  and so neither retried nor held against the replica.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from ..stats import WireCounters
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FrameTimeoutError,
    ProtocolError,
    frame_raw,
)
from .protocol import decode_error
from .wire import decode_binary, encode_binary, peek_request_id

#: Upper bound on one coalesced ``send`` buffer.
COALESCE_BYTES = 256 * 1024
#: Loop wake-up ceiling when no deadline is nearer (seconds).
_IDLE_POLL = 0.5

_LENGTH = struct.Struct(">I")


class MuxConnection:
    """One multiplexed connection to a shard server.

    Parameters:
        sock: a connected stream socket (the connection takes ownership).
        max_frame_bytes: frame size bound in both directions.
        counters: optional :class:`WireCounters` fed by both directions.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        counters: WireCounters | None = None,
        blob_cache: dict | None = None,
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self.counters = counters
        # May be shared with the owning client so hot decoded results
        # survive a reconnect.
        self.blob_cache: dict = {} if blob_cache is None else blob_cache
        self._sock = sock
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._deadlines: dict[int, float] = {}
        self._outbox: deque[bytes] = deque()
        self._sendbuf: memoryview | None = None
        self._next_id = 1
        self._dead: Exception | None = None
        self._recv_buffer = bytearray()

        sock.setblocking(False)
        self._waker_recv, self._waker_send = socket.socketpair()
        self._waker_recv.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ)
        self._selector.register(self._waker_recv, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-mux")
        self._thread.start()

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------
    @property
    def dead(self) -> bool:
        """True once the connection has failed or been closed."""
        return self._dead is not None

    def request(self, payload: dict, timeout: float) -> dict:
        """Send *payload* and block until its response, error, or deadline.

        Thread-safe; any number of callers may have requests in flight.
        Encoding errors (e.g. an oversized request) raise before anything
        is queued, leaving the connection untouched.
        """
        if self._dead is not None:
            raise ConnectionClosedError(f"multiplexed connection is closed: {self._dead}")
        started = time.perf_counter_ns()
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        frame = frame_raw(
            encode_binary(payload, request_id, self.max_frame_bytes), self.max_frame_bytes
        )
        encode_ns = time.perf_counter_ns() - started
        if self.counters is not None:
            self.counters.record_sent(len(frame), encode_ns)

        future: Future = Future()
        with self._lock:
            if self._dead is not None:
                raise ConnectionClosedError(f"multiplexed connection is closed: {self._dead}")
            self._pending[request_id] = future
            self._deadlines[request_id] = time.monotonic() + timeout
            self._outbox.append(frame)
        self._wake()

        # The loop enforces the deadline; the slack here only covers a
        # wedged loop thread, in which case the connection is torn down.
        try:
            result = future.result(timeout=timeout + _IDLE_POLL * 4)
        except FutureTimeoutError:
            self._fail(FrameTimeoutError("multiplexed event loop stopped responding"))
            raise self._dead from None
        decode_started = time.perf_counter_ns()
        _, decoded = decode_binary(result, self.blob_cache)
        if self.counters is not None:
            self.counters.record_received(
                _LENGTH.size + len(result), time.perf_counter_ns() - decode_started
            )
        return decoded

    def close(self) -> None:
        """Tear the connection down; in-flight requests fail as closed."""
        self._fail(ConnectionClosedError("multiplexed connection closed locally"))
        self._thread.join(timeout=5)

    # ------------------------------------------------------------------
    # Loop side
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._waker_send.send(b"\x00")
        except OSError:
            pass  # loop already tearing down

    def _run(self) -> None:
        try:
            while self._dead is None:
                timeout = self._select_timeout()
                events = self._selector.select(timeout)
                for key, mask in events:
                    if key.fileobj is self._waker_recv:
                        self._drain_waker()
                    else:
                        if mask & selectors.EVENT_READ:
                            self._on_readable()
                        if mask & selectors.EVENT_WRITE:
                            self._on_writable()
                self._update_write_interest()
                self._expire_overdue()
        except ProtocolError as error:
            self._fail(error)
        except OSError as error:
            self._fail(ConnectionClosedError(f"multiplexed connection lost: {error}"))
        except Exception as error:  # defensive: never leave callers parked
            self._fail(ConnectionClosedError(f"multiplexed loop failed: {error!r}"))

    def _select_timeout(self) -> float:
        with self._lock:
            if not self._deadlines:
                return _IDLE_POLL
            nearest = min(self._deadlines.values())
        return max(0.0, min(_IDLE_POLL, nearest - time.monotonic()))

    def _drain_waker(self) -> None:
        try:
            while self._waker_recv.recv(4096):
                pass
        except BlockingIOError:
            pass

    def _update_write_interest(self) -> None:
        with self._lock:
            wants_write = self._sendbuf is not None or bool(self._outbox)
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if wants_write else 0)
        try:
            self._selector.modify(self._sock, events)
        except (KeyError, ValueError, OSError):
            pass  # socket already unregistered during teardown

    def _on_writable(self) -> None:
        if self._sendbuf is None:
            with self._lock:
                if not self._outbox:
                    return
                # Coalesce: drain whole frames up to the cap into one
                # buffer, so N concurrent requests cost one send().
                chunks = [self._outbox.popleft()]
                size = len(chunks[0])
                while self._outbox and size < COALESCE_BYTES:
                    chunk = self._outbox.popleft()
                    chunks.append(chunk)
                    size += len(chunk)
            self._sendbuf = memoryview(b"".join(chunks) if len(chunks) > 1 else chunks[0])
        try:
            sent = self._sock.send(self._sendbuf)
        except BlockingIOError:
            return
        self._sendbuf = self._sendbuf[sent:] if sent < len(self._sendbuf) else None

    def _on_readable(self) -> None:
        while True:
            try:
                chunk = self._sock.recv(256 * 1024)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionClosedError("peer closed the multiplexed connection")
            self._recv_buffer += chunk
            if len(chunk) < 256 * 1024:
                break
        self._deliver_complete_frames()

    def _deliver_complete_frames(self) -> None:
        buffer = self._recv_buffer
        offset = 0
        while len(buffer) - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buffer, offset)
            if length > self.max_frame_bytes:
                raise ProtocolError(
                    f"incoming frame announces {length} bytes, beyond the "
                    f"{self.max_frame_bytes}-byte bound"
                )
            end = offset + _LENGTH.size + length
            if len(buffer) < end:
                break
            body = bytes(buffer[offset + _LENGTH.size : end])
            offset = end
            self._dispatch_body(body)
            if self._dead is not None:
                return  # a connection-level error frame ended the stream
        if offset:
            del buffer[:offset]

    def _dispatch_body(self, body: bytes) -> None:
        request_id = peek_request_id(body)
        if request_id == 0:
            self._fail(_connection_error(body))
            return
        with self._lock:
            future = self._pending.pop(request_id, None)
            self._deadlines.pop(request_id, None)
        if future is not None:
            future.set_result(body)
        # An unknown id is a response whose deadline already fired: drop it.

    def _expire_overdue(self) -> None:
        now = time.monotonic()
        expired: list[tuple[int, Future]] = []
        with self._lock:
            for request_id, deadline in list(self._deadlines.items()):
                if deadline <= now:
                    del self._deadlines[request_id]
                    expired.append((request_id, self._pending.pop(request_id)))
        for request_id, future in expired:
            future.set_exception(
                FrameTimeoutError(f"request {request_id} exceeded its client-side deadline")
            )

    def _fail(self, error: Exception) -> None:
        with self._lock:
            if self._dead is not None:
                return
            self._dead = error
            pending = list(self._pending.values())
            self._pending.clear()
            self._deadlines.clear()
            self._outbox.clear()
        for future in pending:
            if not future.done():
                future.set_exception(error)
        self._wake()
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._sock, self._waker_recv, self._waker_send):
            try:
                sock.close()
            except OSError:
                pass


def _connection_error(body: bytes) -> Exception:
    """The typed error an id-0 (connection-level) frame carries."""
    _, payload = decode_binary(body)
    error = payload.get("error")
    if not isinstance(error, dict):
        return ProtocolError("server sent an id-0 frame that is not an error")
    return decode_error(error)


__all__ = ["COALESCE_BYTES", "MuxConnection"]
