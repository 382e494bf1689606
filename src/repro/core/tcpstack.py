"""Running the SFS stack over real TCP sockets: the same server master
and client daemons as on the virtual network, with the same byte
streams, on localhost sockets and the process's one selector loop
(:data:`repro.rpc.tcp.LOOP`).
"""

from __future__ import annotations

from ..rpc.tcp import LOOP, TcpListener, TcpPipe, connect
from .server import SfsServerMaster


class TcpServerHost:
    """Accepts TCP connections for a server master.  Its relays wait on
    the master's clock, whose scheduler (:attr:`scheduler`) it binds to
    the socket loop: that scheduler serves ready sockets before it
    advances the clock, TCP waits pump it, and in-process clients run
    as its tasks."""

    def __init__(self, master: SfsServerMaster, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.master = master
        self.host = host
        self.scheduler = LOOP.scheduler = master.clock.scheduler
        self.scheduler.sockets = LOOP
        self._listener = TcpListener(host, port, self._accept)
        self.port = self._listener.port

    def _accept(self, pipe: TcpPipe) -> None:
        try:
            self.master.accept(pipe)
        except ConnectionError:
            pipe.close()  # the master is down: refuse

    def close(self) -> None:
        self._listener.close()
        self.scheduler.sockets = None
        if LOOP.scheduler is self.scheduler:
            LOOP.scheduler = None


class TcpConnector:
    """A Connector (location, service) -> pipe that dials the hosts
    routed under their Location names (cf. ``World.connector``)."""

    def __init__(self) -> None:
        self._routes: dict[str, tuple[str, int]] = {}

    def route(self, location: str, host: TcpServerHost) -> None:
        self._routes[location] = (host.host, host.port)

    def __call__(self, location: str, service: int) -> TcpPipe:
        if location not in self._routes:
            raise ConnectionError(f"no route to host {location}")
        return connect(*self._routes[location])
