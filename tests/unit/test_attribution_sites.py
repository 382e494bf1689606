"""Attribution is a measurement a figure asks for, not a tax on every run.

A figure's host time is split by layer only inside its measured window:
the figure runner wraps the callables named in
:data:`repro.obs.trace.BOUNDARIES` on entry and puts them back on exit.
This test pins the three things that keep it so: no module under
``src/`` keeps a layer stack of its own or charges one inline, only the
figure runner reads the boundary table, and every name in the table
still resolves (a renamed function would silently drop out of its
layer, as a stale name does in perfbench's ``trace.unresolved``).
"""

import ast
from pathlib import Path

import repro
from repro.obs.trace import BOUNDARIES, LAYERS, resolve

#: (file, function) that may read the table: the figure runner's window.
READERS = {("bench/__main__.py", "measured")}
STACK_CALLS = {"push", "pop", "book"}


def _sources():
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield (path.relative_to(root).as_posix(),
               ast.parse(path.read_text(), filename=str(path)))


def _walk(tree):
    """(node, enclosing function's dotted scope) for every node."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            yield child, ".".join(scope)
            yield from visit(child, inner)

    yield from visit(tree, ())


def _is_layers(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "layers")
            or (isinstance(node, ast.Attribute) and node.attr == "layers"))


def test_no_module_keeps_a_layer_stack_or_charges_one():
    strays = []
    for rel, tree in _sources():
        for node, _scope in _walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "layers":
                strays.append(f"{rel}:{node.lineno} .layers")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in STACK_CALLS
                  and _is_layers(node.func.value)):
                strays.append(f"{rel}:{node.lineno} layers.{node.func.attr}")
            elif (isinstance(node, ast.ClassDef)
                  and "LayerTracker" in node.name):
                strays.append(f"{rel}:{node.lineno} class {node.name}")
    assert strays == []


def test_only_the_figure_runner_reads_the_boundary_table():
    readers, importers = set(), set()
    for rel, tree in _sources():
        for node, scope in _walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and any(alias.name == "BOUNDARIES"
                            for alias in node.names)):
                importers.add(rel)
            elif ((isinstance(node, ast.Name) and node.id == "BOUNDARIES"
                   and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute)
                      and node.attr == "BOUNDARIES")):
                readers.add((rel, scope))
    assert importers == {rel for rel, _scope in READERS}
    assert readers == READERS


def test_every_boundary_resolves_to_a_callable_its_owner_defines():
    for layer, dotted in BOUNDARIES:
        owner, name, fn = resolve(dotted)
        assert callable(fn), dotted
        # Wrapping the owner must change what callers look up.
        assert name in vars(owner), f"{dotted} is inherited, not defined"
        assert layer in LAYERS and layer != "other", dotted
    assert {layer for layer, _dotted in BOUNDARIES} == set(LAYERS) - {"other"}
