"""Virtual time passes by timers, not by stalls.

A component that calls ``clock.advance`` from inside a handler stops
every machine in the World until its charge is over: a seek on one
server would freeze them all.  Devices book their time instead (a
:class:`~repro.sim.network.Medium` for links and NICs, the disk's arm)
and handlers ``yield Sleep``.  The clock is advanced only by the loop
that waits at top level, listed here by file and function; a new call
site fails this test until it is justified and added.
"""

import ast
from pathlib import Path

import repro

ALLOWED = {
    # The scheduler's own loop, which every synchronous wait pumps (a
    # reply, a top-level sleep, a system call); a master served over
    # real sockets binds its clock's one to the socket loop, which it
    # advances only when no socket is ready.
    ("sim/sched.py", "Scheduler.pump_once"),
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
