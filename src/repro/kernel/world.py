"""World builder: whole networks of SFS machines in a few lines.

Examples, tests, and benchmarks all need the same scaffolding — a virtual
clock, a network, server machines exporting file systems, client machines
running sfscd with agents for their users.  :class:`World` assembles it:

    world = World()
    server = world.add_server("sfs.lcs.mit.edu")
    path = server.export_fs()                        # a new file system
    alice = server.add_user("alice", uid=1000)       # account + key pair
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.read_file(str(path) + "/README")            # secure, end to end

The network connector dials server masters by Location, so "anyone can
generate a public key, determine the corresponding HostID, run the SFS
server software, and immediately reference that server by its
self-certifying pathname on any client in the world."
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.agent import Agent
from ..core.authserv import AuthServer
from ..core.client import SfsClientDaemon
from ..core.pathnames import SelfCertifyingPath
from ..core.server import SfsServerMaster
from ..crypto.rabin import PrivateKey, generate_key
from ..fs.memfs import MemFs
from ..nfs3.server import Nfs3Server
from ..obs.registry import MetricsRegistry
from ..rpc.peer import RpcPeer
from ..sim.clock import Clock
from ..sim.disk import Disk, DiskParameters
from ..sim.network import LinkSide, Medium, NetworkParameters, link_pair
from ..sim.sched import Scheduler
from .mounter import NfsMounter
from .vfs import Kernel, KernelError, Process

DEFAULT_KEY_BITS = 768


@dataclass
class UserAccount:
    """A user created on a server: credentials plus a fresh key pair."""

    name: str
    uid: int
    gid: int
    key: PrivateKey


class ServerMachine:
    """One server host: an SfsServerMaster plus its exports."""

    def __init__(self, world: "World", location: str,
                 with_disk: bool = True, metrics=None) -> None:
        self.world = world
        self.location = location
        #: With a control plane, *metrics* is a TeeRegistry writing
        #: through to both the world registry and this machine's own
        #: (``self.registry``, set by World.add_server) — the
        #: collector's per-source view.  Without one it is simply the
        #: world registry, as it always was.
        self.metrics = metrics if metrics is not None else world.metrics
        self.registry = None
        self.master = SfsServerMaster(location, world.clock, world.rng,
                                      metrics=self.metrics)
        self.with_disk = with_disk
        self.exports: dict[str, tuple[SelfCertifyingPath, MemFs, AuthServer]] = {}
        #: This machine's network interface, one shared medium per
        #: direction: when the world enables contention, every client
        #: link terminating here queues for the same rx/tx bandwidth.
        self.nic_rx = Medium(f"{location}:rx")
        self.nic_tx = Medium(f"{location}:tx")

    def _new_fs(self, fsid: int) -> MemFs:
        disk = Disk(self.world.clock, DiskParameters.ibm_18es(),
                    metrics=self.metrics) \
            if self.with_disk else None
        return MemFs(fsid=fsid, disk=disk)

    def export_fs(self, name: str = "default", key_bits: int = DEFAULT_KEY_BITS,
                  lease_duration: float = 30.0,
                  fs: MemFs | None = None) -> SelfCertifyingPath:
        """Create and export a read-write file system; returns its path."""
        key = generate_key(key_bits, self.world.rng)
        fs = fs or self._new_fs(fsid=len(self.exports) + 1)
        authserver = AuthServer(self.world.rng, metrics=self.metrics,
                                clock=self.world.clock)
        path = self.master.add_rw_export(
            key, fs, authserver, lease_duration=lease_duration, name=name
        )
        self.exports[name] = (path, fs, authserver)
        return path

    def export(self, name: str = "default"
               ) -> tuple[SelfCertifyingPath, MemFs, AuthServer]:
        return self.exports[name]

    @property
    def fs(self) -> MemFs:
        return self.exports["default"][1]

    @property
    def authserver(self) -> AuthServer:
        return self.exports["default"][2]

    @property
    def path(self) -> SelfCertifyingPath:
        return self.exports["default"][0]

    # -- crash / restart --

    def crash(self) -> None:
        """Power-fail this machine: every connection drops, every piece
        of volatile state (leases, sessions, reply caches, un-committed
        writes) is lost.  Durable state — the private key, the exports'
        committed data — survives for :meth:`restart`."""
        self.master.crash()

    def restart(self) -> None:
        """Boot the machine back up with the same keypair and exports."""
        self.master.restart()

    def schedule_restart(self, at: float) -> None:
        """Arrange for the machine to come back at absolute time *at*.

        The timer fires from inside Clock.advance — which is where
        time passes while a reconnecting client backs off, so the
        restart happens "during" the client's wait like a real reboot.
        A machine that never went down by then has nothing to do.
        """
        def boot() -> None:
            if self.master.down:
                self.restart()

        self.world.clock.call_at(at, boot)

    def install_crash_injector(self, schedule):
        """Arm deterministic crash points; see sim/crash.py."""
        return self.master.install_crash_injector(schedule)

    def enable_queueing(self, max_depth: int = 32, workers: int = 4,
                        policy: str = "fifo", service_time: float = 0.0):
        """Serve this machine's requests through a bounded queue.

        The worker pool runs as daemon tasks on the world's scheduler.
        See :meth:`repro.core.server.SfsServerMaster.enable_concurrency`.
        """
        return self.master.enable_concurrency(
            self.world.enable_concurrency(), max_depth=max_depth,
            workers=workers, policy=policy, service_time=service_time,
        )

    def add_user(self, name: str, uid: int, gid: int = 100,
                 groups: tuple[int, ...] = (),
                 key_bits: int = DEFAULT_KEY_BITS,
                 export: str = "default") -> UserAccount:
        """Create an account with a fresh key in the export's authserver."""
        key = generate_key(key_bits, self.world.rng)
        authserver = self.exports[export][2]
        record = authserver.add_account(name, uid, gid, groups)
        record.public_key_bytes = key.public_key.to_bytes()
        authserver.local_db.add_user(record)
        return UserAccount(name, uid, gid, key)


class _KernelFsReader:
    """Adapts a root Process to the agent's FsReader protocol."""

    def __init__(self, process: Process) -> None:
        self._process = process

    def readlink(self, path: str) -> str | None:
        try:
            return self._process.readlink(path)
        except KernelError:
            return None

    def readfile(self, path: str) -> bytes | None:
        try:
            return self._process.read_file(path)
        except KernelError:
            return None


class ClientMachine:
    """One client host: kernel, local fs, nfsmounter, sfscd."""

    def __init__(self, world: "World", hostname: str,
                 encrypt: bool = True, caching: bool = True,
                 with_disk: bool = True, metrics=None) -> None:
        self.world = world
        self.hostname = hostname
        #: See ServerMachine: a TeeRegistry under a control plane,
        #: otherwise the world registry.
        self.metrics = metrics if metrics is not None else world.metrics
        self.registry = None
        self.kernel = Kernel(world.clock, hostname, metrics=self.metrics,
                             pump=world._pump)
        disk = Disk(world.clock, DiskParameters.ibm_18es(),
                    metrics=self.metrics) if with_disk else None
        self.local_fs = MemFs(fsid=0x100, disk=disk)
        self.local_server = Nfs3Server(self.local_fs, metrics=self.metrics)
        self.kernel.mount_root(self.local_server.program,
                               self.local_server.root_handle())
        self.mounter = NfsMounter(self.kernel)
        root = Process(self.kernel, uid=0, gid=0)
        root.mkdir("/sfs")
        self.sfscd = SfsClientDaemon(
            world.clock, world.rng, world.connector, self.mounter,
            encrypt=encrypt, caching=caching, metrics=self.metrics,
            pipeline_depth=world.pipeline_depth,
        )
        self.mounter.mount("/sfs", self.sfscd.program,
                           self.sfscd.root_handle())
        self._root = root

    def root_process(self) -> Process:
        return self._root

    def process(self, uid: int, gid: int = 100,
                groups: tuple[int, ...] = ()) -> Process:
        return Process(self.kernel, uid=uid, gid=gid, groups=groups)

    def new_agent(self, user: str, uid: int) -> Agent:
        """Start an agent for *uid* with file system access for key
        management (certification paths, revocation directories)."""
        reader = _KernelFsReader(self.process(uid))
        agent = Agent(user, self.world.rng, fs_reader=reader)
        self.sfscd.attach_agent(uid, agent)
        return agent

    def login_user(self, user: str, key: PrivateKey | None, uid: int,
                   gid: int = 100) -> Process:
        """Convenience: agent + key + process, like logging in."""
        agent = self.new_agent(user, uid)
        if key is not None:
            agent.add_key(key)
        return self.process(uid, gid)

    def ssu(self, uid: int) -> Process:
        """The paper's ssu utility: a super-user process whose SFS
        operations map to *uid*'s agent (section 2.3, footnote 2)."""
        agent = self.sfscd.agents.get(uid)
        if agent is None:
            raise KeyError(f"no agent attached for uid {uid}")
        self.sfscd.attach_agent(0, agent)
        return self.process(0, 0)

    def mount_nfs(self, path: str, server: "ServerMachine",
                  export: str = "default",
                  params: NetworkParameters | None = None,
                  export_dir: str = "/") -> None:
        """Mount a remote file system with plain NFS 3 (the baseline).

        No SFS: the kernel asks the server's MOUNT service for the root
        handle, then speaks NFS straight over the wire — guessable
        handles, no cryptography; the world the paper set out to fix.
        """
        from ..nfs3.mountproto import MountClient, MountServer
        from ..rpc.peer import RpcPeer as _RpcPeer

        _path, fs, _auth = server.exports[export]
        nfsd = Nfs3Server(fs, metrics=self.world.metrics)
        mountd = MountServer()
        mountd.add_export(export_dir, nfsd.root_handle())
        media = ({"a->b": server.nic_rx, "b->a": server.nic_tx}
                 if self.world.contention else None)
        kernel_side, server_side = link_pair(
            self.world.clock, params or self.world.lan_params,
            metrics=self.world.metrics, media=media,
        )
        self.world._wire(kernel_side)
        peer = _RpcPeer(server_side, f"nfsd@{server.location}")
        peer.register(nfsd.program)
        peer.register(mountd.program)
        self._root.makedirs(path)
        # The kernel-side peer serves both the MNT exchange and, once
        # mounted, the NFS traffic — one connection, like NFS-over-TCP.
        kernel_peer = _RpcPeer(kernel_side, f"kernel:{path}")
        root_fh = MountClient(kernel_peer, self.hostname).mnt(export_dir)
        self.kernel.add_mount_peer(path, kernel_peer, root_fh)


class World:
    """A clock, a network, and the machines on it."""

    def __init__(self, seed: int = 2026,
                 lan_params: NetworkParameters | None = None,
                 metrics=None) -> None:
        self.clock = Clock()
        self.rng = random.Random(seed)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(clock=self.clock)
        self.lan_params = lan_params or NetworkParameters.lan_100mbit()
        #: Per-Location overrides of the world's default link timing,
        #: set via :meth:`set_link_params` — how a WAN mirror coexists
        #: with LAN servers, giving the replica tier's latency-ranked
        #: selection something real to rank.
        self.link_params: dict[str, NetworkParameters] = {}
        self.servers: dict[str, ServerMachine] = {}
        self.clients: dict[str, ClientMachine] = {}
        self.adversary_factory = None  # optional: () -> Adversary
        self.links: list[LinkSide] = []
        #: The world's one task engine.  Every wire link pumps it while
        #: a synchronous caller waits for a reply; the first
        #: :meth:`enable_concurrency` call picks its interleaving seed.
        self.scheduler = Scheduler(self.clock, metrics=self.metrics)
        self._scheduler_seeded = False
        #: Set by :meth:`enable_contention`: new links to a server share
        #: its NIC media, so concurrent clients queue for bandwidth.
        self.contention = False
        #: Peers built over new wire links get a send window this deep,
        #: and client daemons read ahead / gather writes this deep
        #: (PROTOCOLS.md §17); :meth:`enable_pipelining` sets it.
        self.pipeline_depth = 1
        #: Created by :meth:`enable_control`; once present, every new
        #: machine gets a per-source registry and a collector heartbeat.
        self.control = None

    # -- concurrency --

    def enable_concurrency(self, seed: int = 0) -> Scheduler:
        """The world's scheduler; the first call seeds its interleaving
        (later calls, from harnesses sharing the world, leave it be)."""
        if not self._scheduler_seeded:
            self._scheduler_seeded = True
            self.scheduler.rng.seed(seed)
        return self.scheduler

    def enable_contention(self) -> None:
        """Make links to each server contend for its NIC bandwidth.

        Off by default: single-client benchmarks keep their original,
        independent per-record charges bit-for-bit."""
        self.contention = True

    def enable_pipelining(self, depth: int = 8, seed: int = 0) -> Scheduler:
        """Set the pipeline depth (PROTOCOLS.md §17).

        RPC peers over links dialed from now on get a send window of
        *depth* in-flight xids, and client daemons run sequential
        readahead and write-gathering at the same depth.  Every world
        runs the same call path and the same relay; the default depth 1
        is a window of 1.  Call before creating the machines that
        should benefit.
        """
        if depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        self.pipeline_depth = depth
        for client in self.clients.values():
            client.sfscd.pipeline_depth = depth
        return self.enable_concurrency(seed=seed)

    def _wire(self, side: "LinkSide") -> None:
        """The single place a wire link meets the world: it gets the
        send window and :meth:`_pump`, so sync entry points (handshakes,
        the kernel's calls, tests) can wait out replies and queued
        servers."""
        side.link.window_depth = self.pipeline_depth
        side.link.pump = self._pump

    def _pump(self) -> None:
        """One unit of progress for a synchronous caller on a wire link:
        a scheduler pump.  Inside a task step (a scenario's kernel
        client calling the still-synchronous VFS) the scheduler may not
        be re-entered, so only the clock runs, to the next timer —
        enough for a reply that needs no other task stepped; with no
        timer left, the pump's assertion names the task."""
        if self.scheduler.current is not None:
            deadline = self.clock.next_deadline()
            if deadline is not None:
                self.clock.advance(max(0.0, deadline - self.clock.now))
                return
        self.scheduler.legacy_pump()

    def enable_control(self, period: float = 0.010, ring_size: int = 64,
                       stale_after: int = 2, dead_after: int = 5,
                       start: bool = True):
        """Create (once) this world's fleet control plane.

        Machines added *after* this call get per-source tee registries
        and collector heartbeats; machines that already exist are
        adopted for liveness tracking only (their instruments are
        already bound to the world registry).  With ``start=True`` the
        control loop runs as a scheduler daemon every *period* virtual
        seconds; pass ``start=False`` to drive :meth:`ControlPlane.tick`
        by hand (tests).  See :mod:`repro.control`.
        """
        if self.control is None:
            from ..control.plane import ControlPlane  # control builds on world

            self.control = ControlPlane(
                self, period=period, ring_size=ring_size,
                stale_after=stale_after, dead_after=dead_after,
            )
            for server in self.servers.values():
                self.control.adopt_server(server)
            for client in self.clients.values():
                self.control.adopt_client(client)
            if start:
                self.control.start()
        return self.control

    # -- topology --

    def _machine_metrics(self):
        """(tee, per-source registry) for a new machine, or (None, None)."""
        if self.control is None:
            return None, None
        from ..obs.registry import TeeRegistry

        registry = self.control.new_registry()
        return TeeRegistry(self.metrics, registry), registry

    def add_server(self, location: str, with_disk: bool = True
                   ) -> ServerMachine:
        metrics, registry = self._machine_metrics()
        server = ServerMachine(self, location, with_disk=with_disk,
                               metrics=metrics)
        self.servers[location] = server
        if registry is not None:
            server.registry = registry
            self.control.adopt_server(server)
        return server

    def add_client(self, hostname: str, encrypt: bool = True,
                   caching: bool = True, with_disk: bool = True
                   ) -> ClientMachine:
        metrics, registry = self._machine_metrics()
        client = ClientMachine(self, hostname, encrypt=encrypt,
                               caching=caching, with_disk=with_disk,
                               metrics=metrics)
        self.clients[hostname] = client
        if registry is not None:
            client.registry = registry
            self.control.adopt_client(client)
        return client

    def set_link_params(self, location: str,
                        params: NetworkParameters) -> None:
        """Give every future link dialed to *location* its own timing.

        Existing connections are unaffected; the override applies at
        dial time in :meth:`connector`.
        """
        self.link_params[location] = params

    def apply_link_profile(self, location: str, params: NetworkParameters,
                           existing: bool = True) -> int:
        """Re-time *location*: future dials and (optionally) open links.

        Unlike :meth:`set_link_params` this also walks the live links
        dialed to *location* and swaps their timing in place — a WAN
        route change landing mid-connection.  Returns how many open
        links were re-timed.
        """
        self.set_link_params(location, params)
        changed = 0
        if existing:
            for side in self.links:
                if side.link.is_open and side.link.location == location:
                    side.link.set_params(params)
                    changed += 1
        return changed

    def set_wire_adversary(self, factory, existing: bool = True,
                           location: str | None = None) -> int:
        """Put an adversary on the wire: future dials and open links.

        *factory* is ``() -> Adversary`` (one instance per link, so
        fault counters stay per-link) or ``None`` to lift the faults
        again.  With *location* the hostile window covers only links to
        that host; otherwise the whole world's wire misbehaves.
        Returns how many open links were touched.
        """
        if location is None:
            self.adversary_factory = factory
        changed = 0
        if existing:
            for side in self.links:
                if not side.link.is_open:
                    continue
                if location is not None and side.link.location != location:
                    continue
                side.link.set_adversary(factory() if factory else None)
                changed += 1
        return changed

    def add_fleet(self, count: int, name: str = "fleet", **kwargs):
        """Spin up *count* shard servers behind one CA-served namespace.

        Returns a :class:`repro.fleet.Fleet`: N ordinary servers whose
        names are sharded by consistent hashing over their HostIDs, a
        certification authority serving one symlink per provisioned
        name, and (after ``publish(mirrors=...)``) an untrusted replica
        tier for the signed namespace image.  See the fleet module for
        the whole story; this is just the front door.
        """
        from ..fleet import Fleet  # runtime import: fleet builds on world

        return Fleet(self, count, name=name, **kwargs)

    def add_auth_fleet(self, count: int, name: str = "auth", **kwargs):
        """Spin up *count* sharded authservers (the scaled auth plane).

        Returns a :class:`repro.auth.AuthFleet`: N authserver machines
        whose user database is sharded by consistent hashing over user
        names, each shard's public half publishable as a signed
        read-only image that file servers import over SFS.  See
        PROTOCOLS.md section 16; this is just the front door.
        """
        from ..auth import AuthFleet  # runtime import: auth builds on world

        return AuthFleet(self, count, name=name, **kwargs)

    def route(self, location: str, server: ServerMachine) -> None:
        """Point *location* at *server* (DNS-style aliasing).

        This is how an untrusted mirror serves a read-only file system
        published for another Location: the name resolves to the mirror,
        and the self-certifying pathname still authenticates the data.
        """
        self.servers[location] = server

    # -- the dialer --

    def connector(self, location: str, service: int) -> LinkSide:
        """Dial an SFS server master by Location name."""
        server = self.servers.get(location)
        if server is None:
            raise ConnectionError(f"no route to host {location}")
        adversary = self.adversary_factory() if self.adversary_factory else None
        media = ({"a->b": server.nic_rx, "b->a": server.nic_tx}
                 if self.contention else None)
        client_side, server_side = link_pair(
            self.clock, self.link_params.get(location, self.lan_params),
            adversary, metrics=server.metrics, media=media,
        )
        client_side.link.location = location
        self._wire(client_side)
        server.master.accept(server_side)
        self.links.append(client_side)
        return client_side
