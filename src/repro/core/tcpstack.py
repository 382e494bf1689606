"""Running the SFS stack over real TCP sockets.

The virtual network is the default substrate (deterministic, adversary-
instrumentable), but SFS is a network file system: this module binds the
same server master and client daemons to genuine localhost sockets, with
RFC 1831 record marking on the wire.  The byte streams are identical to
the virtual transport's — only the delivery mechanics change (the RPC
peers pump the socket while awaiting replies instead of advancing a
virtual clock).
"""

from __future__ import annotations

from ..rpc.tcp import TcpListener, TcpPipe, connect
from .server import SfsServerMaster


class TcpServerHost:
    """Accepts TCP connections for a server master."""

    def __init__(self, master: SfsServerMaster, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.master = master
        self._connections = []

        def session(pipe: TcpPipe) -> None:
            connection = master.accept(pipe)
            self._connections.append(connection)

        self._listener = TcpListener(host, port, session)
        self.host = host

    @property
    def port(self) -> int:
        return self._listener.port

    def close(self) -> None:
        self._listener.close()


class TcpConnector:
    """A Connector (location, service) -> pipe that dials TCP hosts.

    Drop-in replacement for :meth:`repro.kernel.world.World.connector`;
    register each server's (host, port) under its Location name.
    """

    def __init__(self) -> None:
        self._routes: dict[str, tuple[str, int]] = {}

    def route(self, location: str, host: TcpServerHost) -> None:
        self._routes[location] = (host.host, host.port)

    def __call__(self, location: str, service: int) -> TcpPipe:
        try:
            host, port = self._routes[location]
        except KeyError:
            raise ConnectionError(f"no route to host {location}") from None
        return connect(host, port)
