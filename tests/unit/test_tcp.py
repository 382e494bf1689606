"""Tests for the real TCP transport (repro.rpc.tcp)."""

import threading

import pytest

from repro.rpc.peer import Program, RpcPeer
from repro.rpc.tcp import (
    TcpListener,
    TcpPipe,
    connect,
    recv_record,
    send_record,
)
from repro.rpc.xdr import Struct, UInt32

ADD_ARGS = Struct("AddArgs", [("x", UInt32), ("y", UInt32)])


def add_program():
    program = Program("demo", 400000, 2)

    @program.proc(1, "ADD", ADD_ARGS, UInt32)
    def add(args, ctx):
        return args.x + args.y

    return program


def test_record_marking_over_socketpair():
    import socket

    a, b = socket.socketpair()
    send_record(a, b"hello record")
    assert recv_record(b) == b"hello record"
    send_record(a, b"")
    assert recv_record(b) == b""
    big = bytes(range(256)) * 100
    send_record(b, big)
    assert recv_record(a) == big
    a.close()
    b.close()


def test_rpc_over_real_tcp():
    ready = threading.Event()

    def session(pipe: TcpPipe) -> None:
        peer = RpcPeer(pipe, "tcp-server")
        peer.register(add_program())
        ready.set()

    listener = TcpListener("127.0.0.1", 0, session)
    try:
        pipe = connect("127.0.0.1", listener.port)
        client = RpcPeer(pipe, "tcp-client")  # waits on the loop
        result = client.call(400000, 2, 1, ADD_ARGS,
                             {"x": 20, "y": 22}, UInt32)
        assert result == 42
        # multiple sequential calls on one connection
        assert client.call(400000, 2, 1, ADD_ARGS,
                           {"x": 1, "y": 2}, UInt32) == 3
        pipe.close()
    finally:
        listener.close()


def test_fragment_length_guard(monkeypatch):
    import repro.rpc.tcp as tcp_module
    import socket

    a, b = socket.socketpair()
    monkeypatch.setattr(tcp_module, "_MAX_FRAGMENT", 8)
    with pytest.raises(ValueError):
        tcp_module.send_record(a, b"123456789")
    a.close()
    b.close()
