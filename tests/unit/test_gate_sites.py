"""The resync window has one gate.

While a session's channel is withdrawn for a resync, the
:class:`~repro.core.server.SwitchablePipe` is the one place that
decides what crosses the raw transport (PROTOCOLS.md §10).  That holds
only while nothing else in ``src/`` sends on the raw transport or takes
its records: this test pins that only the pipe, its gate and the
:class:`~repro.core.channel.SecureChannel` it installs call ``send`` or
``on_receive`` there, and that everyone else touches a pipe's raw
transport only to close it, ask whether it is open, compare it, or
seal a new channel over it.
"""

import ast
from pathlib import Path

import repro

#: The classes that may call ``send``/``on_receive`` on a raw transport:
#: the switchable pipe, its gate while withdrawn, and the channel.
GATE_CLASSES = {
    ("core/server.py", "SwitchablePipe"),
    ("core/server.py", "_Withdrawn"),
    ("core/channel.py", "SecureChannel"),
}

RAW = {"raw", "_raw"}
TAKES_RECORDS = {"send", "on_receive"}
#: What anyone else may do with ``pipe.raw``.
OTHER_USES = {"close", "is_open"}


def _sources():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield (path.relative_to(root).as_posix(),
               ast.parse(path.read_text(), filename=str(path)))


def _raw_uses():
    """(file, enclosing class, the raw attribute, its parent node) per
    mention of an attribute named ``raw`` or ``_raw``."""
    for rel, tree in _sources():
        def visit(node, cls):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, ast.ClassDef) else cls
                if isinstance(child, ast.Attribute) and child.attr in RAW:
                    yield rel, cls, child, node
                yield from visit(child, inner)

        yield from visit(tree, None)


def _is_pipe(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "pipe")
            or (isinstance(node, ast.Attribute) and node.attr == "pipe"))


def test_only_the_pipe_and_the_channel_send_on_a_raw_transport():
    senders = {(rel, cls) for rel, cls, _raw, parent in _raw_uses()
               if isinstance(parent, ast.Attribute)
               and parent.attr in TAKES_RECORDS}
    assert senders and senders <= GATE_CLASSES


def test_everyone_else_only_closes_probes_compares_or_seals_it():
    strays = []
    for rel, cls, raw, parent in _raw_uses():
        if (rel, cls) in GATE_CLASSES or not _is_pipe(raw.value):
            continue
        if ((isinstance(parent, ast.Attribute) and parent.attr in OTHER_USES)
                or isinstance(parent, ast.Compare)):
            continue
        if (isinstance(parent, ast.Call)
                and getattr(parent.func, "id", None) == "SecureChannel"
                and parent.args and parent.args[0] is raw):
            continue
        strays.append(f"{rel}:{raw.lineno}")
    assert strays == []
