"""Virtual time passes by timers, not by stalls.

A component that calls ``clock.advance`` from inside a handler stops
every machine in the World until its charge is over: a seek on one
server would freeze them all.  Devices book their time instead (a
:class:`~repro.sim.network.Medium` for links and NICs, the disk's arm)
and handlers ``yield Sleep``.  The clock is advanced only by the loops
that wait at top level, listed here by file and function; a new call
site fails this test until it is justified and added.
"""

import ast
from pathlib import Path

import repro

ALLOWED = {
    # A synchronous caller waiting for a reply or sleeping out a
    # back-off, at top level.
    ("rpc/peer.py", "RpcPeer.wait_for"),
    ("rpc/peer.py", "RpcPeer._sleep_sync"),
    # The World's and the scheduler's own loops.
    ("kernel/world.py", "World._pump"),
    ("sim/sched.py", "Scheduler.pump_once"),
    # A master served over real sockets: the relay of each record runs
    # on the master's clock until it has replied.
    ("core/tcpstack.py", "TcpServerHost.__init__.session.on_receive.deliver"),
}


def _advance_sites() -> set[tuple[str, str]]:
    root = Path(repro.__file__).parent
    sites = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = scope + (child.name,)
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "advance"):
                    sites.add((path.relative_to(root).as_posix(),
                               ".".join(scope)))
                visit(child, inner)

        visit(tree, ())
    return sites


def test_the_clock_advances_only_where_listed():
    assert _advance_sites() == ALLOWED
