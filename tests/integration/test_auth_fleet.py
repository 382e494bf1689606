"""Integration tests for the scaled auth plane (repro.auth.fleet):
sharded authservers, signed user-database images imported by file
servers, and revocation/rotation coherence with the fileserver
decision cache — both arrival orders, end to end."""

import os
from dataclasses import replace

import pytest

from repro.bench.auth import STORM_LOAD, AuthConfig, AuthStorm, \
    run_cache_phase
from repro.core import proto
from repro.core.agent import Agent
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.crypto.rabin import generate_key
from repro.keymgmt.rollover import fan_out_revocations, revoke_export


def connect(world, location, path, **kwargs):
    link = world.connector(location, proto.SERVICE_FILESERVER)
    return ServerSession.connect(link, path, EphemeralKeyCache(world.rng),
                                 world.rng, **kwargs)


@pytest.fixture
def fleet_setup(world):
    """A 2-shard auth fleet, a synthetic-padded table, one real account,
    and a file server importing the published user databases."""
    fleet = world.add_auth_fleet(2)
    for index in range(40):
        fleet.add_user(f"user{index:04d}")
    account = fleet.add_real_user("alice", uid=3000)
    server = world.add_server("files.test")
    path = server.export_fs()
    imported = fleet.import_into(server)
    assert imported == 41
    return world, fleet, account, server, path


def login_session(world, account, server, path):
    session = connect(world, server.location, path)
    agent = Agent(account.name, world.rng)
    agent.add_key(account.key)
    return session, agent


def test_placement_covers_every_shard(world):
    fleet = world.add_auth_fleet(4)
    for index in range(200):
        fleet.add_user(f"user{index:04d}")
    counts = fleet.placement()
    assert sum(counts.values()) == 200
    assert len(counts) == 4
    assert all(count > 0 for count in counts.values())
    # Provisioning is consistent: the assignment recorded at add time is
    # the shard the ring still resolves, and the record lives there.
    for index in range(0, 200, 50):
        name = f"user{index:04d}"
        shard = fleet.shard_for(name)
        assert fleet.assignments[name] == shard.location
        assert shard.authserver.local_db.lookup_user(name) is not None
    assert world.metrics.gauge("auth.fleet.shards").value == 4
    assert world.metrics.counter("auth.fleet.users").value == 200


def test_real_login_through_imported_database(fleet_setup):
    world, fleet, account, server, path = fleet_setup
    session, agent = login_session(world, account, server, path)
    assert session.login(agent) > 0
    # alice's record reached the file server through the verified
    # read-only image, not through any local registration.
    assert server.authserver.local_db.lookup_user("alice") is None
    assert world.metrics.counter("auth.fleet.publications").value >= 2
    assert world.metrics.counter("auth.fleet.imports").value == 1
    # Importing again is idempotent: the shared databases are already
    # attached, so no new users arrive.
    assert fleet.import_into(server) == 0


def test_imported_databases_are_shared_across_file_servers(fleet_setup):
    world, fleet, account, _server, _path = fleet_setup
    second = world.add_server("files2.test")
    second_path = second.export_fs()
    fleet.import_into(second)
    session, agent = login_session(world, account, second, second_path)
    assert session.login(agent) > 0


def test_revocation_locks_out_warmed_decision_cache(fleet_setup):
    """Order A: login (decision cached on the file server) -> revoke ->
    login again.  The republish/refresh inside ``revoke_user`` fires the
    imported database's eviction hooks synchronously, so the cached
    decision is dead before the next validate anywhere."""
    world, fleet, account, server, path = fleet_setup
    session, agent = login_session(world, account, server, path)
    assert session.login(agent) > 0
    assert session.login(agent) > 0          # now a cache hit
    assert world.metrics.counter("auth.cache.hits").value >= 1

    assert fleet.revoke_user("alice")
    assert session.login(agent) == 0         # anonymous: locked out
    assert world.metrics.counter("auth.fleet.revocations").value == 1
    # An unrelated real account still logs in.
    bob = fleet.add_real_user("bob", uid=3001)
    fleet.publish()
    bob_session, bob_agent = login_session(world, bob, server, path)
    assert bob_session.login(bob_agent) > 0


def test_revocation_before_first_login_denies(fleet_setup):
    """Order B: the user is revoked before ever authenticating against
    this file server — no decision exists to evict, and none sneaks in."""
    world, fleet, account, server, path = fleet_setup
    assert fleet.revoke_user("alice")
    session, agent = login_session(world, account, server, path)
    assert session.login(agent) == 0
    assert len(server.authserver.decision_cache) == 0


def test_key_rotation_republishes_and_rearms(fleet_setup):
    world, fleet, account, server, path = fleet_setup
    session, agent = login_session(world, account, server, path)
    assert session.login(agent) > 0

    new_key = generate_key(768, world.rng)
    fleet.change_user_key("alice", new_key.public_key.to_bytes())
    # The old key stops authenticating fleet-wide, warmed cache or not...
    assert session.login(agent) == 0
    # ...and the rotated-to key logs in on the same session.
    rotated_agent = Agent("alice", world.rng)
    rotated_agent.add_key(new_key)
    assert session.login(rotated_agent) > 0
    assert world.metrics.counter("auth.fleet.key_changes").value == 1


def test_fan_out_revocations_bumps_decision_cache_epochs(fleet_setup):
    """Server-key revocation fan-out cannot name which cached authids a
    dead server key influenced, so it bumps every listed authserver's
    cache epoch; live users lazily re-verify (a miss, then a success)."""
    world, fleet, account, server, path = fleet_setup
    session, agent = login_session(world, account, server, path)
    assert session.login(agent) > 0

    victim = world.add_server("old.files")
    victim.export_fs()
    cert = revoke_export(victim)
    delivered = fan_out_revocations(
        [cert], authservers=[server.authserver], metrics=world.metrics)
    # Epoch bumps are cache bookkeeping, not certificate deliveries:
    # with no daemons/masters/CA in the sweep, nothing was delivered.
    assert delivered == 0
    assert world.metrics.counter(
        "keymgmt.revocations_fanned_out").value == 0
    assert world.metrics.counter("auth.cache.epoch_bumps").value == 1

    misses_before = world.metrics.counter("auth.cache.misses").value
    assert session.login(agent) > 0
    assert world.metrics.counter("auth.cache.misses").value > misses_before


def test_mini_login_storm_completes_cleanly():
    """A small open-loop storm through the admission queue: every
    arrival resolves as ok/shed (never an error), nothing hangs, and
    the run exercises busy-retry re-signing plus retransmit absorption
    under genuinely concurrent logins."""
    report = AuthStorm(AuthConfig(
        load=replace(STORM_LOAD, clients=4, arrival_rate=300.0,
                     duration=0.1, seed=31337, workers=1, max_depth=8),
        shards=2, users=120,
    )).run()
    assert report.op_errors == 0
    assert report.unfinished_tasks == 0
    assert report.denied == 0
    assert report.ops_completed > 0
    assert report.ops_completed + report.shed == report.offered


def test_login_storm_smoke_run():
    """A 2-shard fleet absorbs a Poisson login storm through bounded
    admission with zero errors and hung tasks; then the decision cache
    hits in steady state, and a mid-run revocation locks its user out
    (cached decision or not) while everyone else keeps logging in.
    CI's figure-smoke job sets ``SFS_AUTH_SEED`` to each of its matrix
    seeds."""
    seed = int(os.environ.get("SFS_AUTH_SEED", "2026"))
    report = AuthStorm(AuthConfig(
        load=replace(STORM_LOAD, clients=8, arrival_rate=600.0,
                     duration=0.2, seed=seed),
        shards=2, users=2000,
    )).run()
    print(f"seed {seed}: {report.offered} offered, "
          f"{report.ops_completed} ok, {report.shed} shed, "
          f"{report.throughput:.1f} logins/s, "
          f"p50 {report.p50 * 1e3:.2f} ms, p99 {report.p99 * 1e3:.2f} ms")
    assert report.unfinished_tasks == 0, "tasks hung at drain"
    assert report.op_errors == 0 and report.denied == 0
    assert report.ops_completed > 0
    assert report.ops_completed + report.shed == report.offered

    cache = run_cache_phase(users=500, login_users=6,
                            logins_per_session=20, seed=seed)
    print(f"cache: hit rate {cache.hit_rate:.1%}, "
          f"revoked {cache.revoked_user!r} -> "
          f"{cache.post_revocation_ok}/"
          f"{cache.post_revocation_attempts} post-revocation")
    assert cache.hit_rate > 0.9
    assert cache.post_revocation_ok == 0
    assert cache.other_user_ok
