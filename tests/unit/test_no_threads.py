"""One thread, one loop: a process runs its sockets from a selector
loop (:mod:`repro.rpc.tcp`) and its tasks on a scheduler, so nothing in
the package starts a thread.  A new ``threading`` import fails here."""

import ast
from pathlib import Path

import repro


def _threading_importers() -> list[str]:
    root = Path(repro.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "threading" for name in names):
                importers.append(path.relative_to(root).as_posix())
    return importers


def test_nothing_in_the_package_imports_threading():
    assert _threading_importers() == []
