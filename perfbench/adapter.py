"""The one file under ``perfbench/`` that imports ``repro``.

Everything the benchmark needs from the program goes through here, so
the signatures the performance gate stands on are listed in one place
(:data:`ENTRY_POINTS`; the README prints the same list).  ``repro`` is
imported strictly from ``<checkout>/src``: an installed copy elsewhere
must never be what gets measured, and a checkout without ``src/`` must
fail instead of printing a result.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every attribute of ``repro`` the benchmark calls.  Checked by
#: :func:`load`; a name that no longer resolves fails the run loudly.
ENTRY_POINTS = (
    "repro.kernel.world.World",
    "repro.kernel.world.World.add_server",
    "repro.kernel.world.World.add_client",
    "repro.kernel.world.World.enable_pipelining",
    "repro.kernel.world.ServerMachine.export_fs",
    "repro.kernel.world.ServerMachine.add_user",
    "repro.kernel.world.ClientMachine.login_user",
    "repro.kernel.world.ClientMachine.mount_nfs",
    "repro.kernel.vfs.KernelError",
    "repro.kernel.vfs.Process.open",
    "repro.kernel.vfs.Process.read",
    "repro.kernel.vfs.Process.write",
    "repro.kernel.vfs.Process.lseek",
    "repro.kernel.vfs.Process.fsync",
    "repro.kernel.vfs.Process.close",
    "repro.kernel.vfs.Process.read_file",
    "repro.kernel.vfs.Process.write_file",
    "repro.kernel.vfs.Process.stat",
    "repro.kernel.vfs.Process.chown",
    "repro.kernel.vfs.Process.mkdir",
    "repro.kernel.vfs.Process.unlink",
    "repro.sim.network.NetworkParameters.wan",
    "repro.sim.network.NetworkParameters.nfs_udp",
    "repro.load.LoadConfig",
    "repro.load.LoadHarness",
    "repro.load.LoadHarness.run_closed_loop",
    "repro.rpc.xdr.STATS",
    "repro.crypto.arc4kernel.STATS",
)

_BENCH_UID = 1000
_BENCH_GID = 100


class MissingEntryPoint(RuntimeError):
    """A dotted path into ``repro`` that does not resolve."""


def resolve(dotted: str):
    """``(owner, attribute name, object)`` for a dotted path.

    The longest importable prefix is the module; the rest is an
    attribute chain.  Raises :class:`MissingEntryPoint` naming the path.
    """
    parts = dotted.split(".")
    owner = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:]
        break
    else:
        raise MissingEntryPoint(f"{dotted}: no importable module prefix")
    obj = owner
    for name in rest:
        owner = obj
        try:
            obj = getattr(owner, name)
        except AttributeError:
            raise MissingEntryPoint(f"{dotted}: {owner!r} has no {name!r}") \
                from None
    return owner, rest[-1], obj


def load() -> float:
    """Import ``repro`` from this checkout; returns the CPU seconds spent.

    Exits the run (by raising) when ``src/repro`` is absent, when the
    import resolves to another copy, or when an entry point is missing.
    """
    if not (SRC / "repro").is_dir():
        raise MissingEntryPoint(f"{SRC / 'repro'}: no program to measure")
    sys.path.insert(0, str(SRC))
    started = time.process_time()
    import repro  # noqa: F401 - the import is the measurement
    for dotted in ENTRY_POINTS:
        resolve(dotted)
    spent = time.process_time() - started
    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingEntryPoint(f"repro imported from {origin}, not {SRC}")
    return spent


def kernel_error():
    """The exception class a failed syscall raises (has ``.errno``)."""
    return resolve("repro.kernel.vfs.KernelError")[2]


def process_counters() -> dict:
    """Process-wide fast-lane counters (marshal pool, ARC4 kernels)."""
    xdr_stats = resolve("repro.rpc.xdr.STATS")[2].snapshot()
    arc4_stats = resolve("repro.crypto.arc4kernel.STATS")[2].snapshot()
    out = {f"xdr.{key}": value for key, value in xdr_stats.items()}
    out.update({f"arc4.{key}": value for key, value in arc4_stats.items()})
    return out


class _Stack:
    """A built world: its virtual clock and its counters."""

    def __init__(self, world) -> None:
        self.world = world
        self._clock = world.clock

    def now(self) -> float:
        return self._clock.now

    def counters(self) -> dict:
        return self.world.metrics.snapshot()["metrics"]


class FileStack(_Stack):
    """One client process on one file server, SFS or plain NFS 3.

    ``variant`` is ``"sfs"`` (kernel -> sfscd -> secure channel ->
    sfssd -> nfsd, the measured configuration) or ``"nfs-udp"`` (the
    kernel's NFS client straight over a UDP-profile link: the paper's
    reference configuration).  ``wan_depth`` switches the world to the
    pipelined core over WAN links before any machine exists.
    """

    def __init__(self, seed: int, variant: str = "sfs",
                 wan_depth: int | None = None) -> None:
        from repro.kernel.world import World
        from repro.sim.network import NetworkParameters

        world = World(seed=seed)
        if wan_depth:
            world.lan_params = NetworkParameters.wan()
            world.enable_pipelining(depth=wan_depth, seed=seed)
        server = world.add_server("server.perfbench.test")
        path = server.export_fs()
        client = world.add_client("client.perfbench.test")
        if variant == "sfs":
            # A server-side root account is the only way to hand the
            # bench user a directory through public calls alone.
            root_key = server.add_user("root", uid=0, gid=0).key
            mount = str(path)
        elif variant == "nfs-udp":
            root_key = None
            mount = "/remote"
            client.mount_nfs(mount, server,
                             params=NetworkParameters.nfs_udp())
        else:
            raise ValueError(f"unknown stack variant {variant!r}")
        user = server.add_user("bench", uid=_BENCH_UID, gid=_BENCH_GID)
        root = client.login_user("root", root_key, uid=0, gid=0)
        self.workdir = f"{mount}/bench"
        root.mkdir(self.workdir)
        root.chown(self.workdir, _BENCH_UID, _BENCH_GID)
        self.proc = client.login_user(
            "bench", user.key if variant == "sfs" else None,
            uid=_BENCH_UID, gid=_BENCH_GID)
        super().__init__(world)


class FanoutStack(_Stack):
    """``LoadHarness`` at the ``BENCH_scale.json`` top-point shape:
    closed-loop sessions on the pipelined core against one queued
    server (2 workers x 1 ms), 10 ms exponential think time, the
    default op mix, admission control off."""

    def __init__(self, seed: int, clients: int, depth: int = 8) -> None:
        from repro.load import LoadConfig, LoadHarness

        self.config = LoadConfig(
            clients=clients, ops_per_client=1, seed=seed, workers=2,
            service_time=0.001, think_time=0.010, max_depth=None,
            pipeline_depth=depth,
        )
        self.harness = LoadHarness(self.config)
        super().__init__(self.harness.world)

    def run_rep(self, rep_seed: int):
        """One op per client; returns the harness's ``LoadReport``.

        Each rep draws fresh op streams and think times from
        *rep_seed*.  Finished tasks are dropped first: the scheduler
        scans its whole task list on every step, so leaving them would
        make rep N cost N times rep 1 and no two reps comparable.
        """
        scheduler = self.harness.scheduler
        scheduler.tasks[:] = [t for t in scheduler.tasks if not t.finished]
        self.config.seed = rep_seed
        return self.harness.run_closed_loop()
