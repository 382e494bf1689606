"""nfsmounter — the only privileged piece of the SFS client.

"All NFS mounting in the client is performed by a separate program called
nfsmounter.  The NFS mounter is the only part of the client software to
run as root.  It considers the rest of the system untrusted software.  If
the other client processes ever crash, the NFS mounter takes over their
sockets, acts like an NFS server, and serves enough of the defunct file
systems to unmount them all." (paper section 3.3)

:class:`NfsMounter` owns the kernel mount table on behalf of the
unprivileged daemons, and :meth:`takeover` implements the crash path: it
replaces a dead daemon's program with a stub that answers every request
with ESTALE and then unmounts, so a buggy subordinate daemon cannot wedge
the machine.
"""

from __future__ import annotations

from ..nfs3 import const as nfs_const
from ..nfs3.program import PROCS, nfs3_program, refuse
from ..rpc.peer import Program
from .vfs import Kernel, Mount


class NfsMounter:
    """Mounts and unmounts daemon-served file systems into the kernel."""

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self._managed: dict[str, Mount] = {}

    def mount(self, path: str, program: Program, root_fh: bytes,
              covered: bytes | None = None) -> Mount:
        """Graft a daemon's NFS program over the directory at *path*.

        *covered* is the handle of that directory in the managed mount
        that holds it (sfscd's mount points under /sfs): the graft then
        needs no path walk through the daemon asking for it."""
        parent = self._managed.get(path.rpartition("/")[0])
        mount = self._kernel.add_mount(
            path, program, root_fh,
            covered=None if covered is None else (parent.mount_id, covered))
        self._managed[path] = mount
        return mount

    def unmount(self, path: str) -> bool:
        """Unmount *path*; no path walk, so sfscd may from a handler."""
        mount = self._managed.pop(path, None)
        return mount is not None and self._kernel.remove_mount(mount)

    def mounted_paths(self) -> list[str]:
        return sorted(self._managed)

    def takeover(self, path: str) -> bool:
        """Handle a crashed daemon: serve ESTALE for its mount, then unmount.

        Returns True if the path was one of ours.
        """
        mount = self._managed.get(path)
        if mount is None:
            return False
        stale = _stale_program()
        # Re-point the daemon-side dispatcher at the stub: the mounter
        # "takes over their sockets".
        mount.server_peer.register(stale)
        mount.program = stale
        return self.unmount(path)


def _stale_program() -> Program:
    """An NFS program that answers everything with NFS3ERR_STALE."""
    return nfs3_program("nfsmounter-stale",
                        dict.fromkeys(PROCS, refuse(nfs_const.NFS3ERR_STALE)))
