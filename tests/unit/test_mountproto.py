"""Tests for the NFS MOUNT protocol (repro.nfs3.mountproto)."""

import pytest

from repro.fs.memfs import MemFs
from repro.nfs3.mountproto import (
    MountClient,
    MountDenied,
    MountServer,
)
from repro.nfs3.server import Nfs3Server
from repro.rpc.peer import RpcPeer
from repro.sim.clock import Clock
from repro.sim.network import NetworkParameters, link_pair


@pytest.fixture
def stack():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    nfsd = Nfs3Server(MemFs())
    mountd = MountServer()
    mountd.add_export("/", nfsd.root_handle())
    mountd.add_export("/private", b"PRIVATE-HANDLE".ljust(16, b"\x00"),
                      groups=("trusted-host",))
    peer = RpcPeer(b, "server")
    peer.register(nfsd.program)
    peer.register(mountd.program)
    client_peer = RpcPeer(a, "client")
    return nfsd, mountd, client_peer


def test_mnt_returns_root_handle(stack):
    nfsd, _mountd, peer = stack
    client = MountClient(peer, "workstation")
    assert client.mnt("/") == nfsd.root_handle()


def test_mnt_unknown_export(stack):
    _nfsd, _mountd, peer = stack
    client = MountClient(peer, "workstation")
    with pytest.raises(MountDenied):
        client.mnt("/nonexistent")


def test_export_groups_enforced(stack):
    _nfsd, _mountd, peer = stack
    outsider = MountClient(peer, "outsider")
    with pytest.raises(MountDenied):
        outsider.mnt("/private")
    insider = MountClient(peer, "trusted-host")
    assert insider.mnt("/private").startswith(b"PRIVATE-HANDLE")


def test_dump_and_umnt(stack):
    _nfsd, _mountd, peer = stack
    client = MountClient(peer, "host-a")
    client.mnt("/")
    assert ("host-a", "/") in client.dump()
    client.umnt("/")
    assert ("host-a", "/") not in client.dump()


def test_export_listing(stack):
    _nfsd, _mountd, peer = stack
    client = MountClient(peer, "anyone")
    exports = dict(client.export())
    assert "/" in exports and exports["/"] == ()
    assert exports["/private"] == ("trusted-host",)


def test_the_nfs_security_hole(stack):
    """The paper's point about NFS: the handle from MNT is a bearer
    capability — anyone holding it has full access, no questions asked."""
    nfsd, _mountd, peer = stack
    from tests.helpers import SyncNfs3Client
    from repro.rpc.rpcmsg import AuthSys

    stolen_handle = MountClient(peer, "attacker").mnt("/")
    nfs = SyncNfs3Client(peer, AuthSys(uid=0, gid=0))
    # With just the handle, the "attacker" creates files as root.
    created = nfs.create(stolen_handle, "owned")
    assert created.obj is not None
