"""The TCP transport's one selector loop: no threads, no blocking send."""

from repro.rpc.tcp import LOOP, TcpListener, connect

from tests.helpers import wall_bound


def test_a_large_record_crosses_each_way_in_one_thread():
    """A 4 MB record each way between a listener and a client that the
    same thread serves: a blocking send of either would wedge it."""
    up = bytes(range(256)) * (4 << 12)
    down = up[::-1] + b"!"
    served = []

    def accept(pipe):
        def echo(record):
            served.append(record)
            pipe.send(down)
        pipe.on_receive(echo)

    listener = TcpListener("127.0.0.1", 0, accept)
    pipe = connect("127.0.0.1", listener.port)
    got = []
    pipe.on_receive(got.append)
    try:
        with wall_bound(20):
            pipe.send(up)
            while not got:
                LOOP.run_once()
        assert served == [up]
        assert got == [down]
    finally:
        pipe.close()
        listener.close()


def test_a_pipe_reports_either_end_closing():
    accepted = []
    listener = TcpListener("127.0.0.1", 0, accepted.append)
    pipe = connect("127.0.0.1", listener.port)
    closed = []
    pipe.on_receive(lambda record: None)
    pipe.on_close(lambda: closed.append("client"))
    try:
        with wall_bound(10):
            while not accepted:
                LOOP.poll(None)
            server = accepted[0]
            server.on_receive(lambda record: None)
            server.on_close(lambda: closed.append("server"))
            assert server.is_open and pipe.is_open
            server.close()
            assert closed == ["server"]
            while pipe.is_open:
                LOOP.poll(None)
        assert closed == ["server", "client"]
    finally:
        pipe.close()
        listener.close()

