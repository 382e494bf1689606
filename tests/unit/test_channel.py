"""Tests for the SFS secure channel (repro.core.channel)."""

import pytest

from repro.core.channel import SecureChannel
from repro.obs.registry import MetricsRegistry
from repro.rpc.peer import Program, RpcPeer
from repro.rpc.xdr import UInt32
from repro.sim.clock import Clock
from repro.sim.network import (
    DropAdversary,
    NetworkParameters,
    RecordingAdversary,
    ReplayAdversary,
    TamperAdversary,
    Transport,
    link_pair,
)
from tests.helpers import count_calls, settle

K_CS = b"c" * 20
K_SC = b"s" * 20


def make_channel_pair(adversary=None):
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant(), adversary)
    client = SecureChannel(a, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(b, send_key=K_SC, recv_key=K_CS)
    client_in, server_in = [], []
    client.on_receive(client_in.append)
    server.on_receive(server_in.append)
    return client, server, client_in, server_in


def test_bidirectional_delivery():
    client, server, client_in, server_in = make_channel_pair()
    client.send(b"request one")
    server.send(b"reply one")
    client.send(b"request two")
    settle(client.transport.clock)
    assert server_in == [b"request one", b"request two"]
    assert client_in == [b"reply one"]


def test_ciphertext_differs_from_plaintext():
    recorder = RecordingAdversary()
    client, _server, _ci, server_in = make_channel_pair(recorder)
    client.send(b"super secret payload")
    settle(client.transport.clock)
    assert server_in == [b"super secret payload"]
    wire = recorder.transcript[0][1]
    assert b"super secret payload" not in wire
    assert len(wire) == 4 + len(b"super secret payload") + 20


def test_identical_records_encrypt_differently():
    recorder = RecordingAdversary()
    client, _server, _ci, _si = make_channel_pair(recorder)
    client.send(b"same")
    client.send(b"same")
    settle(client.transport.clock)
    assert recorder.transcript[0][1] != recorder.transcript[1][1]


def test_tampered_record_dropped_not_delivered():
    client, server, _ci, server_in = make_channel_pair(
        TamperAdversary(target_index=0)
    )
    client.send(b"payload")
    settle(client.transport.clock)
    assert server_in == []
    assert server.rejected_records == 1


def test_replayed_record_dropped():
    client, _server, _ci, server_in = make_channel_pair(
        ReplayAdversary(replay_after=1, replay_index=0)
    )
    client.send(b"one")
    client.send(b"two")  # adversary appends a replay of "one"
    settle(client.transport.clock)
    assert server_in == [b"one", b"two"]


def test_dropped_record_desynchronizes_stream():
    # A dropped record means subsequent traffic fails the MAC: the
    # attacker achieves denial of service, nothing more.
    client, server, _ci, server_in = make_channel_pair(
        DropAdversary(target_index=0)
    )
    client.send(b"lost")
    client.send(b"after")
    settle(client.transport.clock)
    assert server_in == []
    assert server.rejected_records >= 1


def test_injected_garbage_dropped():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    client = SecureChannel(a, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(b, send_key=K_SC, recv_key=K_CS)
    server_in = []
    server.on_receive(server_in.append)
    client.on_receive(lambda d: None)
    a.send(b"raw injected bytes that are not a valid channel record")
    settle(clock)
    assert server_in == []
    assert server.rejected_records == 1


def test_short_record_dropped():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    SecureChannel(a, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(b, send_key=K_SC, recv_key=K_CS)
    server.on_receive(lambda d: None)
    a.send(b"tiny")
    settle(clock)
    assert server.rejected_records == 1


def test_plaintext_mode_passthrough():
    recorder = RecordingAdversary()
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant(), recorder)
    client = SecureChannel(a, send_key=K_CS, recv_key=K_SC, encrypt=False)
    server = SecureChannel(b, send_key=K_SC, recv_key=K_CS, encrypt=False)
    server_in = []
    server.on_receive(server_in.append)
    client.on_receive(lambda d: None)
    client.send(b"visible")
    settle(client.transport.clock)
    assert server_in == [b"visible"]
    assert recorder.transcript[0][1] == b"visible"


def test_empty_record():
    client, _server, _ci, server_in = make_channel_pair()
    client.send(b"")
    settle(client.transport.clock)
    assert server_in == [b""]


def test_large_record():
    client, _server, _ci, server_in = make_channel_pair()
    blob = bytes(range(256)) * 128
    client.send(blob)
    settle(client.transport.clock)
    assert server_in == [blob]


def test_stats_counters():
    client, server, _ci, _si = make_channel_pair()
    client.send(b"a")
    client.send(b"b")
    server.send(b"c")
    settle(server.transport.clock)
    assert client.records_sent == 2
    assert server.records_received == 2
    assert client.records_received == 1


# --- supervision and recovery -------------------------------------------------

def test_no_handler_counts_instead_of_raising():
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    client = SecureChannel(a, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(b, send_key=K_SC, recv_key=K_CS)
    client.on_receive(lambda d: None)
    client.send(b"nobody is listening")  # server has no handler yet
    settle(client.transport.clock)
    assert server.unhandled_records == 1
    server_in = []
    server.on_receive(server_in.append)
    client.send(b"now they are")
    settle(client.transport.clock)
    assert server_in == [b"now they are"]


def test_desync_signal_after_consecutive_rejects():
    metrics = MetricsRegistry()
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant(),
                     DropAdversary(target_index=0), metrics=metrics)
    client = SecureChannel(a, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(b, send_key=K_SC, recv_key=K_CS)
    server.on_receive(lambda data: None)
    desyncs = metrics.counter("channel.desyncs")
    client.send(b"lost")
    settle(clock)
    assert not server.desynchronized
    client.send(b"fails mac")
    client.send(b"fails mac too")
    settle(clock)
    assert server.desynchronized
    assert desyncs.value == 1  # reported once per desync episode
    client.send(b"still failing")
    settle(clock)
    assert desyncs.value == 1


def test_single_tamper_does_not_signal_desync():
    # One bad record with aligned streams is a lost record, not a broken
    # channel: the next record goes through and resets the count.
    client, server, _ci, server_in = make_channel_pair(
        TamperAdversary(target_index=0)
    )
    client.send(b"mangled")
    settle(client.transport.clock)
    assert server.consecutive_rejects == 1
    client.send(b"fine")
    settle(client.transport.clock)
    assert server_in == [b"fine"]
    assert server.consecutive_rejects == 0
    assert not server.desynchronized


def test_rekey_restores_desynchronized_channel():
    client, server, _ci, server_in = make_channel_pair(
        DropAdversary(target_index=0)
    )
    client.send(b"lost")
    client.send(b"rejected")
    client.send(b"rejected too")
    settle(client.transport.clock)
    assert server.desynchronized
    client.rekey(b"n" * 20, b"m" * 20)
    server.rekey(b"m" * 20, b"n" * 20)
    assert not server.desynchronized
    assert server.rekeys == 1
    client.send(b"fresh streams")
    settle(client.transport.clock)
    assert server_in == [b"fresh streams"]


def test_early_reject_keeps_mac_in_lockstep():
    # A record rejected before MAC verification (bad length after
    # decryption) must still burn a MAC slot: inject garbage, then check
    # legitimate traffic still flows.
    clock = Clock()
    a, b = link_pair(clock, NetworkParameters.instant())
    client = SecureChannel(a, send_key=K_CS, recv_key=K_SC)
    server = SecureChannel(b, send_key=K_SC, recv_key=K_CS)
    server_in = []
    server.on_receive(server_in.append)
    client.on_receive(lambda d: None)
    a.send(b"x" * 40)  # decrypts to garbage: length check fails
    settle(clock)
    assert server.rejected_records == 1
    assert server._recv_mac.slots_consumed == 1  # slot burned, not skipped
    # The *cipher* stream is desynchronized by the 40 injected bytes —
    # that is unavoidable — but MAC and cipher moved together:
    assert server.consecutive_rejects == 1


def test_control_records_route_to_control_handler():
    from repro.core.channel import (
        RESYNC_REQUEST,
        make_control_record,
        parse_control_record,
    )

    client, server, _ci, server_in = make_channel_pair()
    payloads = []
    server.control_handler = payloads.append
    client.send_control(RESYNC_REQUEST)
    settle(client.transport.clock)
    assert payloads == [RESYNC_REQUEST]
    assert server_in == []  # never reaches the data handler
    assert parse_control_record(make_control_record(b"p")) == b"p"
    assert parse_control_record(b"ordinary bytes") is None


def test_control_record_without_handler_is_rejected():
    client, server, _ci, server_in = make_channel_pair()
    client.send_control(b"nobody home")
    settle(client.transport.clock)
    assert server_in == []
    assert server.rejected_records == 1


class _CapturePipe:
    """Holds what a channel sends, and the handler it installs."""

    def __init__(self) -> None:
        self.sent: list = []
        self.handler = None

    def send(self, data) -> None:
        self.sent.append(data)

    def on_receive(self, handler) -> None:
        self.handler = handler


def test_seal_and_open_call_budget():
    """Sealing and opening one 8 KB record: Python-level and built-in
    calls, counted with ``sys.setprofile``.  A Python XOR and a state
    round trip per crank made 121; the cipher in C made 67, and 63 once
    the channel stopped stamping a layer stack around each; the ceiling
    is that with the usual slack."""
    payload = bytes(range(256)) * 32
    out_pipe, in_pipe = _CapturePipe(), _CapturePipe()
    sender = SecureChannel(out_pipe, send_key=K_CS, recv_key=K_SC)
    receiver = SecureChannel(in_pipe, send_key=K_SC, recv_key=K_CS)
    received = []
    receiver.on_receive(received.append)

    def seal_and_open():
        sender.send(payload)
        in_pipe.handler(out_pipe.sent.pop())

    count = count_calls(seal_and_open)
    assert received == [payload, payload]
    assert count <= 71


class _MeteredPipe(_CapturePipe):
    """A capture pipe whose transport carries a live registry."""

    def __init__(self, metrics) -> None:
        super().__init__()
        self.transport = Transport(metrics=metrics)


def test_sealed_rpc_round_trip_call_budget():
    """One sealed RPC round trip between two peers, each over a secure
    channel: the call goes out, the server's ``_on_record`` serves it
    (``serve_queued``), and the reply comes back.  The always-on layer
    stack these paths used to stamp made it 303 calls; without it, 219;
    parsing each record's envelope once, a plain dict for the reply
    cache and one-call named tuples made it 209, run alone or after the
    rest of the suite, pinned here."""
    metrics = MetricsRegistry()
    client_pipe, server_pipe = _MeteredPipe(metrics), _MeteredPipe(metrics)
    client = RpcPeer(SecureChannel(client_pipe, send_key=K_CS,
                                   recv_key=K_SC), "client")
    server = RpcPeer(SecureChannel(server_pipe, send_key=K_SC,
                                   recv_key=K_CS), "server")
    program = Program("echo", 410001, 1)
    program.add_proc(1, "BUMP", UInt32, UInt32, lambda args, ctx: args + 1)
    server.register(program)
    replies = []

    def round_trip():
        done = client.start(client.call_task(410001, 1, 1, UInt32, 7,
                                             UInt32))
        server_pipe.handler(client_pipe.sent.pop())
        client_pipe.handler(server_pipe.sent.pop())
        replies.append(done.value)

    count = count_calls(round_trip)
    assert replies == [8, 8]
    assert count <= 209
