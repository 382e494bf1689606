"""Real TCP transport with RFC 1831 record marking, on one selector loop.

Beside the virtual network the same RPC peers run over real sockets,
each record behind a 4-byte big-endian header whose high bit marks the
final fragment.  As in SFS's daemons, a process runs its sockets from
one loop (:data:`LOOP`) and no threads.  A `TcpPipe` never blocks: it
queues what the socket will not take yet, so one thread can serve both
ends of a connection.  TCP is the one transport without a virtual
clock: its description (`TcpPipe.transport`) names `Loop.run_once` as
its wait, so a synchronous RPC caller makes one round of the loop at a
time.  A server master's clock may bind its scheduler to the loop
(`repro.core.tcpstack.TcpServerHost`); the loop's round is then that
scheduler's pump, which polls the sockets before it advances the clock.
"""

from __future__ import annotations

import selectors
import socket
import struct
from typing import Callable

from ..sim.network import Transport

_LAST_FRAGMENT = 0x80000000
_MAX_FRAGMENT = 0x7FFFFFFF
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_CHUNK = 1 << 18  # the most bytes one recv asks for


class TcpClosed(ConnectionError):
    """The peer closed the connection."""


def _header(length: int) -> bytes:
    if length > _MAX_FRAGMENT:
        raise ValueError("record too large for a single fragment")
    return struct.pack(">I", _LAST_FRAGMENT | length)


class RecordReader:
    """The record-marking parser: bytes in, whole records out."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._fragments: list[bytes] = []

    def missing(self) -> int:
        """Bytes the next fragment lacks (at most 0 once it is whole)."""
        buf = self._buf
        if len(buf) < 4:
            return 4 - len(buf)
        return 4 + (int.from_bytes(buf[:4], "big") & _MAX_FRAGMENT) - len(buf)

    def feed(self, data: bytes) -> list[bytes]:
        """Take *data* and return the records it completed."""
        buf = self._buf
        buf += data
        records = []
        while self.missing() <= 0:
            word = int.from_bytes(buf[:4], "big")
            end = 4 + (word & _MAX_FRAGMENT)
            self._fragments.append(bytes(buf[4:end]))
            del buf[:end]
            if word & _LAST_FRAGMENT:
                records.append(b"".join(self._fragments))
                self._fragments.clear()
        return records


def send_record(sock: socket.socket, data: bytes) -> None:
    """Send one record on a blocking socket."""
    sock.sendall(_header(len(data)) + data)


def recv_record(sock: socket.socket) -> bytes:
    """Receive one record from a blocking socket, reading no further."""
    reader, records = RecordReader(), []
    while not records:
        data = sock.recv(min(reader.missing(), _CHUNK))
        if not data:
            raise TcpClosed("connection closed mid-record")
        records = reader.feed(data)
    return records[0]


class Loop:
    """A process's one selector loop; each key's data is its callback."""

    def __init__(self) -> None:
        self.selector: selectors.BaseSelector | None = None
        #: If set, what a synchronous wait pumps: a scheduler polling us.
        self.scheduler = None

    def register(self, sock: socket.socket, callback) -> None:
        if self.selector is None:  # opened on first use, not on import
            self.selector = selectors.DefaultSelector()
        self.selector.register(sock, _READ, callback)

    def poll(self, timeout: float | None) -> bool:
        """Run the callback of each socket ready within *timeout* seconds
        (None: until one is); False at once if none is registered."""
        if self.selector is None or not self.selector.get_map():
            return False
        events = self.selector.select(timeout)
        for key, mask in events:
            key.data(mask)
        return bool(events)

    def run_once(self) -> None:
        """One round, for a synchronous caller: the bound scheduler's
        pump, else a wait for a ready socket."""
        if self.scheduler is not None:
            self.scheduler.legacy_pump()
        else:
            self.poll(None)


#: The loop every socket of this process runs on.
LOOP = Loop()


class TcpPipe:
    """A Pipe over a connected socket; like a ``LinkSide``, it reports
    its close (:meth:`on_close`), whichever end closed."""

    #: No clock: a synchronous caller waits one round of the loop at a
    #: time.
    transport = Transport(wait=LOOP.run_once)

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self._sock = sock
        self._reader = RecordReader()
        self._outbound = bytearray()
        self._handler: Callable[[bytes], None] | None = None
        self._close_handlers: list[Callable[[], None]] = []
        self.is_open = True
        LOOP.register(sock, self._ready)

    def send(self, data: bytes) -> None:
        if not self.is_open:
            raise TcpClosed("connection closed")
        self._outbound += _header(len(data))
        self._outbound += data
        self._flush()

    def on_receive(self, handler: Callable[[bytes], None]) -> None:
        self._handler = handler

    def on_close(self, handler: Callable[[], None]) -> None:
        self._close_handlers.append(handler)

    def _ready(self, mask: int) -> None:
        if mask & _WRITE:
            self._flush()
        if mask & _READ and self.is_open:
            try:
                data = self._sock.recv(_CHUNK)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                self.close()
            for record in self._reader.feed(data):
                self._handler(record)

    def _flush(self) -> None:
        try:
            del self._outbound[:self._sock.send(self._outbound)]
        except BlockingIOError:
            pass
        except OSError:
            self.close()
            return
        events = _READ | (_WRITE if self._outbound else 0)
        if LOOP.selector.get_key(self._sock).events != events:
            LOOP.selector.modify(self._sock, events, self._ready)

    def close(self) -> None:
        """Close, dropping unsent bytes, and run the close handlers."""
        if not self.is_open:
            return
        self.is_open = False
        LOOP.selector.unregister(self._sock)
        self._sock.close()
        handlers, self._close_handlers = self._close_handlers, []
        for handler in handlers:
            handler()


class TcpListener:
    """Accepts TCP connections in the loop and hands each to a factory."""

    def __init__(self, host: str, port: int,
                 factory: Callable[[TcpPipe], None]) -> None:
        self._server = socket.create_server((host, port))
        self._server.setblocking(False)
        self.port = self._server.getsockname()[1]
        self._factory = factory
        LOOP.register(self._server, self._accept)

    def _accept(self, _mask: int) -> None:
        try:
            sock, _addr = self._server.accept()
        except (BlockingIOError, ConnectionAbortedError):
            return
        self._factory(TcpPipe(sock))

    def close(self) -> None:
        if self._server.fileno() != -1:
            LOOP.selector.unregister(self._server)
            self._server.close()


def connect(host: str, port: int) -> TcpPipe:
    """Open a TcpPipe to a listener."""
    return TcpPipe(socket.create_connection((host, port)))
