"""Tests for split private keys (repro.core.splitkey)."""

import random

import pytest

from repro.core import proto
from repro.core.agent import AgentRefused
from repro.core.splitkey import (
    KeyHalfServer,
    SplitKeyAgent,
    SplitKeyError,
    SplitKeyPair,
)
from repro.crypto.rabin import generate_key
from repro.crypto.sha1 import sha1
from repro.sim.clock import Clock
from tests.helpers import run


@pytest.fixture(scope="module")
def key():
    return generate_key(768, random.Random(111))


@pytest.fixture
def rng():
    return random.Random(112)


def test_split_and_combine(key, rng):
    pair = SplitKeyPair.split(key, rng)
    assert pair.combine() == key


def test_shares_individually_reveal_nothing(key, rng):
    pair = SplitKeyPair.split(key, rng)
    raw = key.to_bytes()
    assert pair.agent_share != raw
    assert pair.server_share != raw
    # XOR split: each share alone is uniform noise w.r.t. the key.
    assert raw not in pair.agent_share
    assert raw not in pair.server_share


def test_refresh_changes_shares_not_key(key, rng):
    pair = SplitKeyPair.split(key, rng)
    old_agent, old_server = pair.agent_share, pair.server_share
    pair.refresh(rng)
    assert pair.agent_share != old_agent
    assert pair.server_share != old_server
    assert pair.combine() == key
    # A stale agent share no longer pairs with the fresh server share.
    stale = SplitKeyPair(old_agent, pair.server_share, len(old_agent))
    try:
        combined = stale.combine()
        assert combined != key
    except Exception:
        pass  # deserialization of noise may simply fail — also fine


def test_split_key_agent_signs_valid_requests(key, rng):
    pair = SplitKeyPair.split(key, rng)
    half_server = KeyHalfServer()
    half_server.store(pair)
    agent = SplitKeyAgent("alice", pair.agent_share, half_server)
    blob = run(agent.sign_request(b"authinfo", 7), Clock())
    msg = proto.AuthMsg.unpack(blob)
    assert msg.public_key == key.public_key.to_bytes()
    assert key.public_key.verify(msg.signed_req, msg.signature)
    signed = proto.SignedAuthReq.unpack(msg.signed_req)
    assert signed.authid == sha1(b"authinfo")
    assert half_server.requests == 1
    assert agent.audit_log[-1].operation == "sign-split"


def test_half_server_revocation_disables_agent(key, rng):
    pair = SplitKeyPair.split(key, rng)
    half_server = KeyHalfServer()
    half_server.store(pair)
    agent = SplitKeyAgent("alice", pair.agent_share, half_server)
    run(agent.sign_request(b"x", 1), Clock())
    half_server.drop(pair.agent_share)
    with pytest.raises(AgentRefused):
        run(agent.sign_request(b"x", 2), Clock())


def test_wrong_share_gets_nothing(key, rng):
    pair = SplitKeyPair.split(key, rng)
    half_server = KeyHalfServer()
    half_server.store(pair)
    with pytest.raises(SplitKeyError):
        half_server.fetch(b"not the agent share")


def test_split_key_agent_single_key(key, rng):
    pair = SplitKeyPair.split(key, rng)
    half_server = KeyHalfServer()
    half_server.store(pair)
    agent = SplitKeyAgent("alice", pair.agent_share, half_server)
    assert agent.key_count == 1
    with pytest.raises(AgentRefused):
        run(agent.sign_request(b"x", 1, key_index=1), Clock())


def test_split_key_agent_in_full_stack(key, rng):
    """The client master uses a SplitKeyAgent exactly like a normal one."""
    from repro.fs import pathops
    from repro.fs.memfs import Cred
    from repro.kernel.world import World

    world = World(seed=113)
    server = world.add_server("split.example.com")
    path = server.export_fs()
    record = server.authserver.add_account("alice", 1000, 100)
    record.public_key_bytes = key.public_key.to_bytes()
    server.authserver.local_db.add_user(record)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)

    pair = SplitKeyPair.split(key, world.rng)
    half_server = KeyHalfServer()
    half_server.store(pair)
    agent = SplitKeyAgent("alice", pair.agent_share, half_server)

    client = world.add_client("laptop")
    client.sfscd.attach_agent(1000, agent)
    proc = client.process(uid=1000)
    proc.write_file(f"{path}/home/alice/f", b"signed by a split key")
    assert proc.stat(f"{path}/home/alice/f").uid == 1000
    assert half_server.requests >= 1
