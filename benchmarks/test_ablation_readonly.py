"""Ablation: the read-only dialect's crypto economics (paper section 2.4).

"This dialect makes the amount of cryptographic computation required
from read-only servers proportional to the file system's size and rate
of change, rather than to the number of clients connecting."

We measure both sides of that claim:

* publishing cost grows with file system size (one offline signature +
  hashing proportional to content);
* serving N clients performs *zero* private-key operations, versus the
  read-write dialect where every client connection costs the server a
  Rabin decryption during key negotiation.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.keyneg import EphemeralKeyCache
from repro.core.readonly import (ReadOnlyClient, ReadOnlyStore,
                                 local_fetchers, publish, run_local)
from repro.core.client import ServerSession
from repro.core import proto
from repro.crypto.rabin import generate_key
from repro.fs import pathops
from repro.fs.memfs import MemFs
from repro.kernel.world import World
from repro.core.pathnames import make_path
from repro.bench.timing import format_table

from conftest import emit_table


def _build_fs(n_files: int, rng: random.Random) -> MemFs:
    fs = MemFs()
    for index in range(n_files):
        body = bytes(rng.getrandbits(8) for _ in range(512)) * 4
        pathops.write_file(fs, f"/dir{index % 8}/file{index}", body)
    return fs


def test_publish_cost_scales_with_size(benchmark, capsys):
    rng = random.Random(5)
    key = generate_key(768, rng)
    timings = []

    def run() -> None:
        for n_files in (16, 64, 256):
            fs = _build_fs(n_files, rng)
            start = time.perf_counter()
            publish(fs, key, "ro.example.com")
            timings.append((n_files, time.perf_counter() - start))

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        "Ablation: read-only publish cost vs file system size",
        ["files", "publish seconds"],
        [(str(n), t) for n, t in timings],
    )
    emit_table("ablation_ro_publish", table, capsys)
    by_n = dict(timings)
    assert by_n[256] > by_n[16], "publishing more content must cost more"


def test_serving_cost_independent_of_clients(benchmark, capsys):
    """N read-only clients cost the server no private-key operations."""
    rng = random.Random(6)
    key = generate_key(768, rng)
    fs = _build_fs(32, rng)
    image = publish(fs, key, "ro.example.com")
    n_clients = 20

    def serve_all() -> int:
        fetch_root, fetch_data = local_fetchers(ReadOnlyStore(image),
                                                key.public_key.to_bytes())
        path = make_path("ro.example.com", key.public_key)
        served = 0
        for _ in range(n_clients):
            client = ReadOnlyClient(path, run_local(fetch_root()),
                                    fetch_data)
            run_local(client.resolve_path("dir0"))
            served += 1
        return served

    served = benchmark.pedantic(serve_all, rounds=1, iterations=1)
    assert served == n_clients

    # Contrast: every read-write connection costs the server one Rabin
    # decryption (key negotiation).  Count connections accepted.
    world = World(seed=8)
    server = world.add_server("rw.example.com")
    path = server.export_fs()
    for _ in range(5):
        link = world.connector("rw.example.com", proto.SERVICE_FILESERVER)
        session = ServerSession.connect(
            link, path, EphemeralKeyCache(world.rng), world.rng
        )
        assert isinstance(session, ServerSession)
    assert server.master.connections_accepted == 5
    table = format_table(
        "Ablation: server private-key operations per client",
        ["dialect", "clients", "server private-key ops"],
        [("read-only", str(n_clients), "0 (signature precomputed)"),
         ("read-write", "5", "5 (one Rabin decrypt per key negotiation)")],
    )
    emit_table("ablation_ro_clients", table, capsys)
