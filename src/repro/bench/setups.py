"""The five file system configurations measured in the paper's section 4.

* **Local** — FreeBSD's local FFS: our kernel on a local MemFs+disk.
* **NFS 3 (UDP)** — the kernel's NFS client straight over a UDP-profile
  link to the server's NFS server.  No user-level daemons, no crypto.
* **NFS 3 (TCP)** — same over a TCP-profile link.
* **SFS** — the full stack: kernel -> sfscd (loopback NFS) -> secure
  channel over the LAN -> sfssd -> local NFS -> disk.
* **SFS w/o encryption** — identical, with the channel's ARC4+MAC
  disabled, isolating the cost of the user-level relay from the cost of
  cryptography.

Every setup exposes the same interface: a :class:`BenchSetup` with a
Process, a working directory on the measured file system, and the shared
virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fs.memfs import Cred
from ..fs import pathops
from ..kernel.vfs import Process
from ..kernel.world import World
from ..sim.network import NetworkParameters

LOCAL = "Local"
NFS_UDP = "NFS 3 (UDP)"
NFS_TCP = "NFS 3 (TCP)"
SFS = "SFS"
SFS_NOENC = "SFS w/o encryption"

ALL_CONFIGS = [LOCAL, NFS_UDP, NFS_TCP, SFS, SFS_NOENC]
PAPER_CONFIGS = [LOCAL, NFS_UDP, NFS_TCP, SFS]

_BENCH_UID = 1000


@dataclass
class BenchSetup:
    """Everything a workload needs to run against one configuration."""

    name: str
    world: World
    process: Process
    workdir: str

    @property
    def clock(self):
        return self.world.clock

    @property
    def metrics(self):
        return self.world.metrics


def _prepare_export(server, uid: int) -> None:
    """Give the benchmark user a writable directory on the export."""
    work = pathops.mkdirs(server.fs, "/bench")
    server.fs.setattr(work.ino, Cred(0, 0), uid=uid, gid=100)


def make_setup(name: str, seed: int = 7, caching: bool = True,
               pipeline_depth: int = 1,
               params: NetworkParameters | None = None) -> BenchSetup:
    """Build one of the five configurations by display name.

    ``pipeline_depth`` sets the world's pipeline depth (PROTOCOLS.md
    §17) before any machine exists: a send window of that many
    in-flight RPCs, and client-side readahead / write-gathering that
    deep (below 3, no readahead).  ``params`` overrides the default LAN
    profile for every link (e.g. :meth:`NetworkParameters.wan`).
    """
    world = World(seed=seed)
    if params is not None:
        world.lan_params = params
    world.enable_pipelining(depth=pipeline_depth)
    if name == LOCAL:
        client = world.add_client("bench-client")
        proc = client.process(uid=_BENCH_UID)
        client.root_process().makedirs("/bench")
        client.root_process().chown("/bench", _BENCH_UID, 100)
        return BenchSetup(name, world, proc, "/bench")
    server = world.add_server("server.lcs.mit.edu")
    path = server.export_fs()
    _prepare_export(server, _BENCH_UID)
    if name in (NFS_UDP, NFS_TCP):
        client = world.add_client("bench-client")
        params = (NetworkParameters.nfs_udp() if name == NFS_UDP
                  else NetworkParameters.nfs_tcp())
        client.mount_nfs("/remote", server, params=params)
        proc = client.process(uid=_BENCH_UID)
        return BenchSetup(name, world, proc, "/remote/bench")
    if name in (SFS, SFS_NOENC):
        user = server.add_user("bench", uid=_BENCH_UID)
        client = world.add_client(
            "bench-client", encrypt=(name == SFS), caching=caching
        )
        proc = client.login_user("bench", user.key, uid=_BENCH_UID)
        return BenchSetup(name, world, proc, f"{path}/bench")
    raise ValueError(f"unknown configuration {name!r}")
