"""`sfsls` — an ls -l that understands cross-realm names.

Renders directory listings through the kernel facade, formatting owners
and groups with libsfs when the directory lives on a remote SFS mount:
remote-only names appear as ``%name`` exactly as the paper describes
(section 3.3), local-matching names appear bare, and unknown ids appear
numerically.
"""

from __future__ import annotations

from ..core.libsfs import LibSfs, LocalAccounts
from ..core.pathnames import SFS_ROOT, PathnameError, parse_path
from ..nfs3 import const as nfs_const
from .vfs import Process, StatResult

_TYPE_CHARS = {
    nfs_const.NF3REG: "-",
    nfs_const.NF3DIR: "d",
    nfs_const.NF3LNK: "l",
}


def _mode_string(st: StatResult) -> str:
    bits = "rwxrwxrwx"
    rendered = "".join(
        bits[i] if st.mode & (0o400 >> i) else "-" for i in range(9)
    )
    return _TYPE_CHARS.get(st.ftype, "?") + rendered


def _libsfs_for(process: Process, directory: str,
                accounts: LocalAccounts) -> LibSfs | None:
    """A LibSfs bound to the mount serving *directory*, if it is SFS."""
    real = process.realpath(directory)
    if not real.startswith(SFS_ROOT + "/"):
        return None
    try:
        path = parse_path(real)
    except PathnameError:
        return None
    # Find the subordinate daemon serving this mount: kernel mounts tag
    # their programs, and MountedRemoteFs programs carry a back-pointer.
    mount = None
    for kernel_mount in process.kernel._mounts:
        program = kernel_mount.program
        if program is None:
            continue
        owner = getattr(program, "_sfs_mount", None)
        if owner is not None and kernel_mount.name.endswith(path.mount_name):
            mount = owner
            break
    if mount is None:
        return None
    return LibSfs(mount, accounts)


def sfsls(process: Process, directory: str,
          accounts: LocalAccounts | None = None) -> list[str]:
    """Render `ls -l` lines for *directory*."""
    accounts = accounts or LocalAccounts()
    libsfs = _libsfs_for(process, directory, accounts)
    lines = []
    for name in sorted(process.readdir(directory)):
        st = process.lstat(f"{directory.rstrip('/')}/{name}")
        if libsfs is not None:
            owner = libsfs.display_user(st.uid)
            group = libsfs.display_group(st.gid)
        else:
            owner = accounts.user_name(st.uid) or str(st.uid)
            group = accounts.group_name(st.gid) or str(st.gid)
        lines.append(
            f"{_mode_string(st)} {st.nlink:3d} {owner:>10s} {group:>10s} "
            f"{st.size:10d} {name}"
        )
    return lines
