"""NFS 3 is described once.

Every NFS 3 dispatch table is built by one function,
:func:`repro.nfs3.program.nfs3_program`, from the declared codecs and
names; the other RPC programs are listed here by file and function, so a
new hand-built table fails this test until it is justified and added.
Where the handles sit in each procedure's records is derived in
:mod:`repro.nfs3.types` and read only by :mod:`repro.core.handlemap`.
"""

import ast
from pathlib import Path

import repro

PROGRAM_SITES = {
    ("nfs3/program.py", "nfs3_program"),
    # The other programs: none of them is NFS 3.
    ("nfs3/mountproto.py", "MountServer._build_program"),
    ("core/agentproxy.py", "AgentServer._build_program"),
    ("core/client.py", "ServerSession._register_callbacks"),
    ("core/server.py", "ServerConnection._connect_program"),
    ("core/server.py", "ServerConnection._authserv_program"),
    ("core/server.py", "ServerConnection._readonly_program"),
}

HANDLE_TABLES = {"ARG_HANDLES", "RES_HANDLES", "ENTRY_HANDLES"}
HANDLE_TABLE_READERS = {"nfs3/types.py", "core/handlemap.py"}


def _sources():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield (path.relative_to(root).as_posix(),
               ast.parse(path.read_text(), filename=str(path)))


def _named(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _program_calls():
    """(file, scope, names the arguments mention) per ``Program(...)``."""
    for rel, tree in _sources():
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = scope + (child.name,)
                if (isinstance(child, ast.Call)
                        and _named(child.func) == "Program"):
                    mentioned = {_named(sub) for arg in child.args
                                 for sub in ast.walk(arg)}
                    yield rel, ".".join(scope), mentioned
                yield from visit(child, inner)

        yield from visit(tree, ())


def test_programs_are_built_only_where_listed():
    calls = list(_program_calls())
    assert {(rel, scope) for rel, scope, _ in calls} == PROGRAM_SITES
    assert not [site for site in calls if "NFS3_PROGRAM" in site[2]]


def test_only_handlemap_reads_the_handle_tables():
    readers = {rel for rel, tree in _sources() for node in ast.walk(tree)
               if _named(node) in HANDLE_TABLES}
    assert readers <= HANDLE_TABLE_READERS
