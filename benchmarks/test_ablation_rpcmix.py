"""Ablation: the RPC mix behind SFS's caching (paper section 4.2/3.3).

"The SFS read-write protocol ... adds enhanced attribute and access
caching to reduce the number of NFS GETATTR and ACCESS RPCs sent over
the wire."

We run MAB on SFS with leases on and off and count, per NFS procedure,
how many RPCs actually crossed the secure channel.  The reduction must
be concentrated exactly where the paper says: GETATTR, ACCESS, LOOKUP.

MAB names every file by path, so the attributes it uses ride LOOKUP's
reply and the kernel asks for no GETATTR of its own
(tests/integration/test_syscall_budget.py).  The GETATTRs a kernel does
use are the ones by descriptor, so the run ends with an ``fstat`` poll
of MAB's sources: that is the traffic an attribute lease absorbs.
"""

from __future__ import annotations

import pytest

from repro.bench import SFS
from repro.bench.mab import run_mab
from repro.bench.setups import make_setup
from repro.bench.timing import format_table
from repro.nfs3 import const as nfs_const

from conftest import emit_table

_TRACKED = {
    nfs_const.NFSPROC3_GETATTR: "GETATTR",
    nfs_const.NFSPROC3_ACCESS: "ACCESS",
    nfs_const.NFSPROC3_LOOKUP: "LOOKUP",
    nfs_const.NFSPROC3_READ: "READ",
    nfs_const.NFSPROC3_WRITE: "WRITE",
}

_results: dict[str, dict[str, int]] = {}


_FSTAT_POLLS = 4  # as many passes as MAB's attributes phase makes


def _fstat_poll(setup) -> None:
    """Hold MAB's sources open and fstat them: "has it changed?"."""
    proc = setup.process
    for index in range(5):
        subdir = f"{setup.workdir}/mab/src{index}"
        fds = [proc.open(f"{subdir}/{name}", "r")
               for name in proc.readdir(subdir) if name.endswith(".c")]
        for _ in range(_FSTAT_POLLS):
            for fd in fds:
                proc.fstat_fd(fd)
        for fd in fds:
            proc.close(fd)


def _wire_mix(caching: bool) -> dict[str, int]:
    setup = make_setup(SFS, caching=caching)
    run_mab(setup)
    _fstat_poll(setup)
    client = next(iter(setup.world.clients.values()))
    counts: dict[str, int] = {name: 0 for name in _TRACKED.values()}
    for mount in client.sfscd._mounts.values():
        peer = mount.session.peer
        for (prog, proc), count in peer.proc_counts.items():
            if proc in _TRACKED:
                counts[_TRACKED[proc]] += count
    return counts


@pytest.mark.parametrize("caching", [True, False],
                         ids=["leases-on", "leases-off"])
def test_rpc_mix(caching, benchmark):
    counts = benchmark.pedantic(lambda: _wire_mix(caching),
                                rounds=1, iterations=1)
    _results["on" if caching else "off"] = counts


def test_rpc_mix_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(_results) == {"on", "off"}
    names = list(_TRACKED.values())
    rows = [
        tuple(["SFS (leases on)"] + [str(_results["on"][n]) for n in names]),
        tuple(["SFS (leases off)"] + [str(_results["off"][n]) for n in names]),
    ]
    table = format_table(
        "Ablation: wire RPCs by procedure during MAB + an fstat poll",
        ["Configuration"] + names, rows,
    )
    emit_table("ablation_rpcmix", table, capsys)

    on, off = _results["on"], _results["off"]
    # The headline claim: caching removes GETATTR/ACCESS/LOOKUP traffic.
    assert on["GETATTR"] < off["GETATTR"]
    assert on["ACCESS"] < off["ACCESS"]
    assert on["LOOKUP"] < off["LOOKUP"]
    # Data RPCs are NOT cached (no data cache in sfscd): unchanged.
    assert on["READ"] == off["READ"]
    assert on["WRITE"] == off["WRITE"]
