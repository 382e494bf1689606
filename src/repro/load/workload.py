"""Workload definitions: operation mixes and seeded op streams.

A workload is a stream of ``(proc, args)`` NFS3 calls against a set of
seeded files — the attribute-heavy GETATTR / READ / WRITE mix the
paper's software-development workload boils down to once the kernel
cache absorbs name lookups.  All randomness flows through a per-client
``random.Random``, so two runs with the same seed issue byte-identical
request streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types

GETATTR = "getattr"
READ = "read"
WRITE = "write"

#: Bytes of content seeded into each workload file.
FILE_SIZE = 65536
FILE_CONTENT = bytes(range(256)) * (FILE_SIZE // 256)


@dataclass(frozen=True)
class OpMix:
    """Relative operation weights (normalized at draw time)."""

    getattr_weight: float = 0.5
    read_weight: float = 0.3
    write_weight: float = 0.2

    def __post_init__(self) -> None:
        if min(self.getattr_weight, self.read_weight,
               self.write_weight) < 0:
            raise ValueError("weights must be non-negative")
        if self.getattr_weight + self.read_weight + self.write_weight <= 0:
            raise ValueError("at least one weight must be positive")

    def draw(self, rng: random.Random) -> str:
        total = (self.getattr_weight + self.read_weight
                 + self.write_weight)
        point = rng.random() * total
        if point < self.getattr_weight:
            return GETATTR
        if point < self.getattr_weight + self.read_weight:
            return READ
        return WRITE


#: The paper's software-development profile: attributes dominate.
DEFAULT_MIX = OpMix()


class OpStream:
    """A deterministic per-client stream of NFS3 operations.

    ``handles`` are the (encrypted) file handles of the seeded workload
    files — valid on every session to the same export, because the
    server's handle map is derived from the export's durable key.
    """

    def __init__(self, handles: list[bytes], mix: OpMix = DEFAULT_MIX,
                 io_size: int = 4096, seed: int = 0) -> None:
        if not handles:
            raise ValueError("need at least one workload file handle")
        if not 0 < io_size <= FILE_SIZE:
            raise ValueError(f"io_size must be in (0, {FILE_SIZE}]")
        self.handles = handles
        self.mix = mix
        self.io_size = io_size
        self.rng = random.Random(seed)

    def next_op(self) -> tuple[int, object]:
        """Draw the next ``(proc, args)`` pair."""
        rng = self.rng
        handle = self.handles[rng.randrange(len(self.handles))]
        kind = self.mix.draw(rng)
        if kind == GETATTR:
            return (nfs_const.NFSPROC3_GETATTR,
                    nfs_types.GetAttrArgs.make(object=handle))
        offset = rng.randrange(0, FILE_SIZE - self.io_size + 1)
        if kind == READ:
            return (nfs_const.NFSPROC3_READ,
                    nfs_types.ReadArgs.make(
                        file=handle, offset=offset, count=self.io_size))
        data = bytes([rng.randrange(256)]) * self.io_size
        return (nfs_const.NFSPROC3_WRITE,
                nfs_types.WriteArgs.make(
                    file=handle, offset=offset, count=len(data),
                    stable=nfs_const.UNSTABLE, data=data))
