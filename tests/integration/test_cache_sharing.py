"""The AFS conundrum, resolved (paper section 5.1).

"Two users can both retrieve a self-certifying pathname using their
passwords.  If they end up with the same path, they can safely share the
cache; they are asking for a server with the same public key. ... If, on
the other hand, the users disagree over the file server's public key
(for instance because one user wants to cause trouble), the two will
also disagree on the HostID.  They will end up accessing different files
with different names, which the file system will consequently cache
separately."
"""

import pytest

from repro.core.pathnames import make_path
from repro.crypto.rabin import generate_key
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.world import World


@pytest.fixture
def world():
    return World(seed=95)


def test_agreeing_users_share_one_mount_and_cache(world):
    server = world.add_server("dept.example.com")
    path = server.export_fs()
    pathops.write_file(server.fs, "/shared", b"cached once")
    client = world.add_client("multiuser-box")
    client.new_agent("u1", 1000)
    client.new_agent("u2", 2000)
    p1 = client.process(uid=1000)
    p2 = client.process(uid=2000)
    assert p1.read_file(f"{path}/shared") == b"cached once"
    assert p2.read_file(f"{path}/shared") == b"cached once"
    # One mount object — one shared cache — serves both users.
    assert len(client.sfscd._mounts) == 1
    mount = client.sfscd._mounts[path.hostid]
    # u2's stat hits attributes u1's traffic populated: shared safely.
    hits_before = mount.caches.attrs.hits
    p2.stat(f"{path}/shared")
    assert mount.caches.attrs.hits > hits_before


def test_cache_accounting_lands_in_metrics_registry(world):
    """The mount's cache counters and the world registry must agree:
    stats() is the per-mount view, `cache.*` the aggregated export."""
    server = world.add_server("dept.example.com")
    path = server.export_fs()
    pathops.write_file(server.fs, "/shared", b"cached once")
    client = world.add_client("box")
    client.new_agent("u1", 1000)
    proc = client.process(uid=1000)
    assert proc.read_file(f"{path}/shared") == b"cached once"
    fd = proc.open(f"{path}/shared")
    proc.fstat_fd(fd)  # warm-path hit on the attr cache
    world.clock.advance(1000.0)  # beyond the lease
    proc.fstat_fd(fd)  # expired: a miss, then a fresh lease
    proc.close(fd)
    mount = client.sfscd._mounts[path.hostid]
    stats = mount.caches.stats()
    assert stats["attr_hits"] > 0 and stats["attr_misses"] > 0
    metrics = world.metrics.snapshot()["metrics"]
    assert metrics["cache.attrs.hits"] == stats["attr_hits"]
    assert metrics["cache.attrs.misses"] == stats["attr_misses"]
    assert metrics["cache.access.hits"] == stats["access_hits"]
    assert metrics["cache.access.misses"] == stats["access_misses"]
    assert metrics["cache.lookups.hits"] == stats["lookup_hits"]
    assert metrics["cache.lookups.misses"] == stats["lookup_misses"]
    # Server-driven invalidation shows up too.
    pathops.write_file(server.fs, "/shared", b"changed")
    proc2 = client.process(uid=1000)
    proc2.read_file(f"{path}/shared")
    invalidated = (world.metrics.snapshot()["metrics"]
                   ["cache.attrs.invalidations"])
    assert invalidated == mount.caches.attrs.invalidations


def test_disagreeing_users_get_separate_namespaces(world):
    """A malicious user feeding a victim the 'wrong' HostID only ever
    hurts themselves: the names differ, so the caches never collide."""
    server = world.add_server("dept.example.com")
    honest_path = server.export_fs()
    pathops.write_file(server.fs, "/data", b"real data")

    # Mallory runs her own server and constructs a name for the same
    # Location... but her key gives a different HostID.
    mallory_key = generate_key(768, world.rng)
    mallory_path = make_path("dept.example.com", mallory_key.public_key)
    assert mallory_path.mount_name != honest_path.mount_name

    client = world.add_client("shared-box")
    client.new_agent("victim", 1000)
    client.new_agent("mallory", 2000)
    victim = client.process(uid=1000)
    mallory = client.process(uid=2000)

    assert victim.read_file(f"{honest_path}/data") == b"real data"
    # Mallory "accesses" her name: the real server refuses it (it does
    # not hold that key), so nothing is ever cached under her name.
    with pytest.raises(OSError):
        mallory.read_file(f"{mallory_path}/data")
    # The victim's view is untouched; only the honest mount exists.
    assert victim.read_file(f"{honest_path}/data") == b"real data"
    assert set(client.sfscd._mounts) == {honest_path.hostid}


def test_per_user_access_rights_within_shared_cache(world):
    """Sharing a cache must not share *authority*: cached attributes are
    shared, but permissions still bind to each user's credentials."""
    server = world.add_server("dept.example.com")
    path = server.export_fs()
    owner = server.add_user("owner", uid=1000)
    other = server.add_user("other", uid=2000)
    home = pathops.mkdirs(server.fs, "/home/owner")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)

    client = world.add_client("box")
    owner_proc = client.login_user("owner", owner.key, uid=1000)
    other_proc = client.login_user("other", other.key, uid=2000)
    owner_proc.write_file(f"{path}/home/owner/secret", b"mine", mode=0o600)
    # Both share the mount; only the owner can read the file.
    assert owner_proc.read_file(f"{path}/home/owner/secret") == b"mine"
    with pytest.raises(OSError):
        other_proc.read_file(f"{path}/home/owner/secret")
    assert len(client.sfscd._mounts) == 1
