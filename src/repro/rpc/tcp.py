"""Real TCP transport with RFC 1831 record marking.

The virtual network (:mod:`repro.sim.network`) is the default substrate —
deterministic and adversary-instrumentable — but SFS is a network file
system, so the same RPC peers also run over genuine sockets.  Records are
framed with the standard record-marking header: a 4-byte big-endian word
whose high bit marks the final fragment.

`TcpPipe` satisfies the :class:`repro.rpc.peer.Pipe` protocol.  Where a
caller on the virtual network waits for a reply by advancing the clock,
`TcpPipe` pumps the socket; a background listener
(`TcpListener`) accepts connections and runs a service loop per
connection thread.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable

_LAST_FRAGMENT = 0x80000000
_MAX_FRAGMENT = 0x7FFFFFFF


class TcpClosed(Exception):
    """The peer closed the connection."""


def send_record(sock: socket.socket, data: bytes) -> None:
    """Send one record-marked record.

    Header and payload go out with one scatter-gather ``sendmsg`` —
    no ``header + data`` copy of every record just to prepend 4 bytes.
    """
    if len(data) > _MAX_FRAGMENT:
        raise ValueError("record too large for a single fragment")
    header = struct.pack(">I", _LAST_FRAGMENT | len(data))
    buffers = [memoryview(header)]
    if data:
        buffers.append(memoryview(data))
    remaining = 4 + len(data)
    while remaining:
        sent = sock.sendmsg(buffers)
        remaining -= sent
        while sent:
            if sent >= len(buffers[0]):
                sent -= len(buffers[0])
                del buffers[0]
            else:
                buffers[0] = buffers[0][sent:]
                sent = 0


def recv_record(sock: socket.socket) -> bytes:
    """Receive one record (possibly multiple fragments)."""
    fragments = []
    while True:
        header = _recv_exact(sock, 4)
        word = struct.unpack(">I", header)[0]
        length = word & _MAX_FRAGMENT
        body = _recv_exact(sock, length)
        if word & _LAST_FRAGMENT:
            if not fragments:
                return body
            fragments.append(body)
            return b"".join(fragments)
        fragments.append(body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        n = sock.recv_into(view[got:])
        if not n:
            raise TcpClosed("connection closed mid-record")
        got += n
    return bytes(buf)


class TcpPipe:
    """A Pipe over a connected TCP socket.

    ``pump()`` reads and delivers exactly one inbound record; callers that
    expect a synchronous reply (RpcPeer.call) should be wrapped with
    :func:`pumping_call`.  For fully asynchronous service, `serve_loop`
    pumps until the peer closes.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._handler: Callable[[bytes], None] | None = None
        self._lock = threading.Lock()
        #: RpcPeer picks this up so calls pump the socket while waiting.
        self.suggested_reply_waiter = self.pump

    def send(self, data: bytes) -> None:
        with self._lock:
            send_record(self._sock, data)

    def on_receive(self, handler: Callable[[bytes], None]) -> None:
        self._handler = handler

    def pump(self) -> None:
        """Deliver one inbound record to the handler (blocking)."""
        record = recv_record(self._sock)
        if self._handler is None:
            raise RuntimeError("no receive handler installed")
        self._handler(record)

    def serve_loop(self) -> None:
        """Pump records until the peer disconnects."""
        try:
            while True:
                self.pump()
        except (TcpClosed, OSError):
            pass

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def attach_peer(pipe: TcpPipe, peer) -> None:
    """Wire an RpcPeer to a TcpPipe for synchronous-style calls.

    The peer's ``reply_waiter`` pumps the socket until the awaited reply
    (or an inbound call, which gets served) arrives.
    """
    peer.reply_waiter = pipe.pump


class TcpListener:
    """Accepts TCP connections and hands each to a connection factory."""

    def __init__(
        self,
        host: str,
        port: int,
        factory: Callable[[TcpPipe], None],
    ) -> None:
        self._server = socket.create_server((host, port))
        self._factory = factory
        self._threads: list[threading.Thread] = []
        self._running = True
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        self._acceptor.start()

    @property
    def port(self) -> int:
        return self._server.getsockname()[1]

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return
            pipe = TcpPipe(sock)

            def session(pipe: TcpPipe = pipe) -> None:
                self._factory(pipe)
                pipe.serve_loop()

            thread = threading.Thread(target=session, daemon=True)
            thread.start()
            self._threads.append(thread)

    def close(self) -> None:
        self._running = False
        self._server.close()


def connect(host: str, port: int) -> TcpPipe:
    """Open a TcpPipe to a listener."""
    return TcpPipe(socket.create_connection((host, port)))
