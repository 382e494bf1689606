"""Stateful property testing: MemFs against a dict-of-paths model.

Hypothesis drives random sequences of file system operations against
both the real MemFs and a trivially-correct reference model, checking
they agree after every step.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.fs.memfs import Cred, FsError, MemFs, NF_DIR, NF_REG

ROOT = Cred(0, 0)

_NAMES = st.sampled_from([f"n{i}" for i in range(8)])
_DATA = st.binary(max_size=200)


class MemFsMachine(RuleBasedStateMachine):
    """Random create/write/mkdir/remove/rename against a path model."""

    directories = Bundle("directories")

    @initialize(target=directories)
    def setup(self):
        self.fs = MemFs()
        # model: path tuple -> b"..." for files, None for directories
        self.model: dict[tuple[str, ...], bytes | None] = {(): None}
        return ()

    def _is_dir(self, path: tuple[str, ...]) -> bool:
        """False for a bundle entry since removed — or removed and its
        name reused by a file, which is still ``in self.model``."""
        return self.model.get(path, b"") is None

    def _ino(self, path: tuple[str, ...]) -> int:
        ino = self.fs.root_ino
        for part in path:
            ino = self.fs.lookup(ino, part, ROOT).ino
        return ino

    @rule(target=directories, parent=directories, name=_NAMES)
    def mkdir(self, parent, name):
        if not self._is_dir(parent):
            return parent  # the bundle may hold removed directories
        path = parent + (name,)
        if path in self.model:
            try:
                self.fs.mkdir(self._ino(parent), name, ROOT)
                raise AssertionError("mkdir over existing entry succeeded")
            except FsError:
                pass
            # keep bundle entries valid: return parent unchanged
            return parent if self.model[path] is not None else path
        self.fs.mkdir(self._ino(parent), name, ROOT)
        self.model[path] = None
        return path

    @rule(parent=directories, name=_NAMES, data=_DATA)
    def write_file(self, parent, name, data):
        if not self._is_dir(parent):
            return
        path = parent + (name,)
        if self.model.get(path, b"") is None:
            return  # a directory occupies the name
        inode = self.fs.create(self._ino(parent), name, ROOT)
        self.fs.setattr(inode.ino, ROOT, size=0)
        self.fs.write(inode.ino, 0, data, ROOT)
        self.model[path] = data

    @rule(parent=directories, name=_NAMES)
    def remove(self, parent, name):
        if not self._is_dir(parent):
            return
        path = parent + (name,)
        kind = self.model.get(path, b"missing")
        if kind is None or kind == b"missing" or not isinstance(kind, bytes):
            return
        self.fs.remove(self._ino(parent), name, ROOT)
        del self.model[path]

    @rule(parent=directories, name=_NAMES)
    def rmdir_nonempty_or_missing_fails(self, parent, name):
        if not self._is_dir(parent):
            return
        path = parent + (name,)
        if path not in self.model or self.model[path] is not None:
            # missing or a file: rmdir must fail
            try:
                self.fs.rmdir(self._ino(parent), name, ROOT)
                raise AssertionError("rmdir of non-directory succeeded")
            except FsError:
                return
        children = [p for p in self.model if p[: len(path)] == path and p != path]
        if children:
            try:
                self.fs.rmdir(self._ino(parent), name, ROOT)
                raise AssertionError("rmdir of non-empty dir succeeded")
            except FsError:
                return
        self.fs.rmdir(self._ino(parent), name, ROOT)
        del self.model[path]

    @invariant()
    def model_matches_filesystem(self):
        if not hasattr(self, "fs"):
            return
        for path, content in self.model.items():
            if path in ((),):
                continue
            try:
                ino = self._ino(path)
            except FsError:
                raise AssertionError(f"model has {path} but fs lost it")
            inode = self.fs.get_inode(ino)
            if content is None:
                assert inode.ftype == NF_DIR, f"{path} should be a dir"
            else:
                assert inode.ftype == NF_REG, f"{path} should be a file"
                data, _eof = self.fs.read(ino, 0, max(1, len(content)), ROOT)
                assert data == content, f"{path} content diverged"

    @invariant()
    def listings_match(self):
        if not hasattr(self, "fs"):
            return
        for path, content in list(self.model.items()):
            if content is not None:
                continue
            expected = {
                p[len(path)]
                for p in self.model
                if len(p) == len(path) + 1 and p[: len(path)] == path
            }
            entries, _eof = self.fs.readdir(self._ino(path), ROOT)
            actual = {name for name, _i, _c in entries if name not in (".", "..")}
            assert actual == expected, f"listing of {path} diverged"


MemFsMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestMemFsStateful = MemFsMachine.TestCase
