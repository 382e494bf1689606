"""Tests for sfsagent (repro.core.agent)."""

import random

import pytest

from repro.core import proto
from repro.core.agent import Agent, AgentRefused
from repro.core.revocation import make_revocation_certificate
from repro.crypto.rabin import generate_key
from repro.crypto.sha1 import sha1
from repro.sim.clock import Clock
from tests.helpers import run


class FakeFsReader:
    """An in-memory stand-in for the agent's file system access (its
    reads never wait)."""

    def __init__(self):
        self.links: dict[str, str] = {}
        self.files: dict[str, bytes] = {}
        self.reads: list[str] = []

    def readlink(self, path):
        yield from ()
        self.reads.append(path)
        return self.links.get(path)

    def readfile(self, path):
        yield from ()
        self.reads.append(path)
        return self.files.get(path)


@pytest.fixture(scope="module")
def user_key():
    return generate_key(768, random.Random(81))


@pytest.fixture(scope="module")
def server_key():
    return generate_key(768, random.Random(82))


def call(task):
    """Run one of the agent's methods to its result."""
    return run(task, Clock())


def make_agent(key=None, reader=None):
    agent = Agent("alice", random.Random(83), fs_reader=reader)
    if key is not None:
        agent.add_key(key)
    return agent


# --- signing ----------------------------------------------------------------

def test_sign_request_produces_valid_authmsg(user_key):
    agent = make_agent(user_key)
    info = b"marshaled AuthInfo bytes"
    blob = call(agent.sign_request(info, seqno=3))
    msg = proto.AuthMsg.unpack(blob)
    assert msg.public_key == user_key.public_key.to_bytes()
    assert user_key.public_key.verify(msg.signed_req, msg.signature)
    signed = proto.SignedAuthReq.unpack(msg.signed_req)
    assert signed.authid == sha1(info)
    assert signed.seqno == 3


def test_sign_keeps_audit_trail(user_key):
    agent = make_agent(user_key)
    call(agent.sign_request(b"info", 1))
    call(agent.sign_request(b"info", 2))
    assert len(agent.audit_log) == 2
    assert all(entry.operation == "sign" for entry in agent.audit_log)


def test_sign_without_key_refused():
    agent = make_agent()
    with pytest.raises(AgentRefused):
        call(agent.sign_request(b"info", 1))


def test_sign_selects_key_by_index(user_key, server_key):
    agent = make_agent(user_key)
    agent.add_key(server_key)  # a second identity
    blob = call(agent.sign_request(b"info", 1, key_index=1))
    msg = proto.AuthMsg.unpack(blob)
    assert msg.public_key == server_key.public_key.to_bytes()
    with pytest.raises(AgentRefused):
        call(agent.sign_request(b"info", 1, key_index=5))


# --- resolution ----------------------------------------------------------------

def test_explicit_links_win():
    agent = make_agent()
    agent.add_link("mit", "/sfs/host:" + "2" * 32)
    assert call(agent.resolve("mit")) == "/sfs/host:" + "2" * 32
    assert call(agent.resolve("absent")) is None
    agent.remove_link("mit")
    assert call(agent.resolve("mit")) is None


def test_certification_path_order():
    reader = FakeFsReader()
    reader.links["/first/name"] = "/sfs/first-target"
    reader.links["/second/name"] = "/sfs/second-target"
    agent = make_agent(reader=reader)
    agent.certpaths = ["/first", "/second"]
    assert call(agent.resolve("name")) == "/sfs/first-target"
    agent.certpaths = ["/second", "/first"]
    assert call(agent.resolve("name")) == "/sfs/second-target"


def test_chained_resolvers():
    agent = make_agent()
    calls = []

    def resolver_a(name):
        calls.append(("a", name))
        return None

    def resolver_b(name):
        calls.append(("b", name))
        return f"/sfs/resolved-{name}"

    agent.add_resolver(resolver_a)
    agent.add_resolver(resolver_b)
    assert call(agent.resolve("web.ssl")) == "/sfs/resolved-web.ssl"
    assert calls == [("a", "web.ssl"), ("b", "web.ssl")]


def test_links_beat_certpaths_beat_resolvers():
    reader = FakeFsReader()
    reader.links["/ca/name"] = "/sfs/from-ca"
    agent = make_agent(reader=reader)
    agent.certpaths = ["/ca"]
    agent.add_resolver(lambda name: "/sfs/from-resolver")
    assert call(agent.resolve("name")) == "/sfs/from-ca"
    agent.add_link("name", "/sfs/from-link")
    assert call(agent.resolve("name")) == "/sfs/from-link"


# --- revocation -------------------------------------------------------------------

def test_blocking_is_checked_first(server_key):
    from repro.core.pathnames import compute_hostid

    agent = make_agent()
    hostid = compute_hostid("srv.com", server_key.public_key)
    disc, cert = call(agent.check_revoked("srv.com", hostid))
    assert disc == proto.REVCHECK_CLEAR
    agent.block_hostid(hostid)
    disc, cert = call(agent.check_revoked("srv.com", hostid))
    assert disc == proto.REVCHECK_BLOCKED
    agent.unblock_hostid(hostid)
    disc, _cert = call(agent.check_revoked("srv.com", hostid))
    assert disc == proto.REVCHECK_CLEAR


def test_revocation_directory_lookup(server_key):
    from repro.core.pathnames import compute_hostid, hostid_to_text

    hostid = compute_hostid("srv.com", server_key.public_key)
    cert = make_revocation_certificate(server_key, "srv.com")
    reader = FakeFsReader()
    reader.files[f"/revdir/{hostid_to_text(hostid)}"] = (
        proto.SignedCertificate.pack(cert)
    )
    agent = make_agent(reader=reader)
    agent.revocation_dirs = ["/revdir"]
    disc, found = call(agent.check_revoked("srv.com", hostid))
    assert disc == proto.REVCHECK_REVOKED
    assert found is not None


def test_bad_certificate_in_directory_ignored(server_key, user_key):
    from repro.core.pathnames import compute_hostid, hostid_to_text

    hostid = compute_hostid("srv.com", server_key.public_key)
    # A cert for a DIFFERENT key filed under srv.com's HostID: bogus.
    wrong = make_revocation_certificate(user_key, "srv.com")
    reader = FakeFsReader()
    reader.files[f"/revdir/{hostid_to_text(hostid)}"] = (
        proto.SignedCertificate.pack(wrong)
    )
    reader.files["/revdir2/" + hostid_to_text(hostid)] = b"garbage bytes"
    agent = make_agent(reader=reader)
    agent.revocation_dirs = ["/revdir", "/revdir2"]
    disc, _cert = call(agent.check_revoked("srv.com", hostid))
    assert disc == proto.REVCHECK_CLEAR
