"""Tests for the read-only dialect (repro.core.readonly)."""

import random

import pytest

from repro.core import proto
from repro.core.pathnames import make_path
from repro.core.readonly import (
    CHUNK_SIZE,
    ReadOnlyClient,
    ReadOnlyError,
    ReadOnlyImage,
    ReadOnlyStore,
    local_fetchers,
    RoDir,
    RoDirEntry,
    RoFile,
    RoNode,
    RO_DIR,
    RO_REG,
    publish,
    run_local,
)
from repro.crypto.sha1 import sha1
from repro.crypto.rabin import generate_key
from repro.fs import pathops
from repro.fs.memfs import MemFs


@pytest.fixture(scope="module")
def key():
    return generate_key(768, random.Random(90))


@pytest.fixture(scope="module")
def image(key):
    fs = MemFs()
    pathops.write_file(fs, "/docs/readme.txt", b"hello read-only world")
    pathops.write_file(fs, "/docs/big.bin", bytes(range(256)) * 100)
    pathops.symlink(fs, "/latest", "docs")
    return publish(fs, key, "ro.example.com", serial=5)


def make_client(image, key, path=None, **kwargs):
    store = ReadOnlyStore(image)
    fetch_root, fetch_data = local_fetchers(store, key.public_key.to_bytes())
    return ReadOnlyClient(
        path or make_path("ro.example.com", key.public_key),
        run_local(fetch_root()), fetch_data, **kwargs,
    ), store


def read(client, path):
    """The verified contents of the file at *path*."""
    return run_local(client.read_file(run_local(client.resolve_path(path))))


def test_publish_produces_signed_root(image, key):
    assert image.serial == 5
    assert key.public_key.verify(image.root_bytes, image.signature)
    assert image.root_digest in image.store


def test_client_verifies_and_navigates(image, key):
    client, _store = make_client(image, key)
    docs = run_local(client.lookup(client.root_digest, "docs"))
    readme = run_local(client.lookup(docs, "readme.txt"))
    assert run_local(client.read_file(readme)) == b"hello read-only world"
    latest = run_local(client.lookup(client.root_digest, "latest"))
    assert run_local(client.readlink(latest)) == "docs"
    listing = run_local(client.listdir(client.root_digest))
    names = [name for name, _d in listing]
    assert names == ["docs", "latest"]


def test_resolve_path(image, key):
    client, _store = make_client(image, key)
    digest = run_local(client.resolve_path("docs/readme.txt"))
    assert run_local(client.read_file(digest)) == b"hello read-only world"


def test_chunked_reads(image, key):
    client, _store = make_client(image, key)
    digest = run_local(client.resolve_path("docs/big.bin"))
    full = bytes(range(256)) * 100
    assert run_local(client.read_file(digest)) == full
    assert run_local(client.read_file(digest, 5, 10)) == full[5:15]
    assert run_local(client.read_file(digest, CHUNK_SIZE - 3, 10)) == (
        full[CHUNK_SIZE - 3 : CHUNK_SIZE + 7]
    )
    assert run_local(client.read_file(digest, len(full) + 10, 5)) == b""


def test_wrong_key_for_pathname_rejected(image, key):
    other = generate_key(768, random.Random(91))
    wrong_path = make_path("ro.example.com", other.public_key)
    with pytest.raises(ReadOnlyError):
        make_client(image, key, path=wrong_path)


def test_wrong_location_rejected(image, key):
    wrong_path = make_path("other.example.com", key.public_key)
    with pytest.raises(ReadOnlyError):
        make_client(image, key, path=wrong_path)


def test_tampered_signature_rejected(image, key):
    evil = image.replicate()
    evil.signature = bytes(len(evil.signature))
    with pytest.raises(ReadOnlyError):
        make_client(evil, key)


def test_tampered_blob_detected(image, key):
    evil = image.replicate()
    # corrupt the blob holding the readme's content
    for digest, blob in evil.store.items():
        if b"hello read-only" in blob:
            evil.store[digest] = blob.replace(b"hello", b"jello")
            break
    client, _store = make_client(evil, key)
    with pytest.raises(ReadOnlyError):
        read(client, "docs/readme.txt")


def test_missing_blob_detected(image, key):
    evil = image.replicate()
    client, _store = make_client(image, key)
    target = run_local(client.resolve_path("docs/big.bin"))
    del evil.store[target]
    client2, _store2 = make_client(evil, key)
    with pytest.raises(ReadOnlyError):
        run_local(client2.node(target))


def test_type_confusion_rejected(image, key):
    client, _store = make_client(image, key)
    file_digest = run_local(client.resolve_path("docs/readme.txt"))
    with pytest.raises(ReadOnlyError):
        run_local(client.lookup(file_digest, "x"))
    with pytest.raises(ReadOnlyError):
        run_local(client.listdir(file_digest))
    with pytest.raises(ReadOnlyError):
        run_local(client.readlink(file_digest))
    dir_digest = run_local(client.resolve_path("docs"))
    with pytest.raises(ReadOnlyError):
        run_local(client.read_file(dir_digest))


def test_lookup_missing_entry(image, key):
    client, _store = make_client(image, key)
    with pytest.raises(ReadOnlyError):
        run_local(client.lookup(client.root_digest, "nonexistent"))


def test_client_caches_blobs(image, key):
    client, store = make_client(image, key)
    read(client, "docs/readme.txt")
    calls_before = store.getdata_calls
    read(client, "docs/readme.txt")
    assert store.getdata_calls == calls_before  # all cache hits


def test_replicate_is_deep_enough(image):
    copy = image.replicate()
    copy.store.clear()
    assert image.store  # original unaffected


def make_signed_image(key, location, file_nodes):
    """Sign a hand-crafted store: an image from a *malicious publisher*.

    Every blob is digest-valid and the root signature verifies — the
    malformations live in the signed metadata itself (size vs chunk
    list), which is exactly what a correctly-signing but hostile
    publisher can produce.
    """
    store = {}

    def put(blob):
        digest = sha1(blob)
        store[digest] = blob
        return digest

    entries = []
    for name, size, chunk_blobs in file_nodes:
        chunks = [put(blob) for blob in chunk_blobs]
        node = put(RoNode.pack((RO_REG, RoFile.make(
            size=size, mode=0o644, chunks=chunks))))
        entries.append(RoDirEntry.make(name=name, digest=node))
    root_digest = put(RoNode.pack((RO_DIR, RoDir.make(
        mode=0o755, entries=entries))))
    root_bytes = proto.ReadOnlyRoot.pack(proto.ReadOnlyRoot.make(
        msg_type="RoRoot", location=location,
        root_digest=root_digest, serial=1,
    ))
    return ReadOnlyImage(location, root_bytes, key.sign(root_bytes),
                         store, key.public_key.to_bytes())


def test_size_exceeding_chunk_list_raises_readonly_error(key):
    """A signed size past the chunk list must not escape as IndexError."""
    evil = make_signed_image(key, "ro.example.com",
                             [("f", 3 * CHUNK_SIZE, [b"x" * CHUNK_SIZE])])
    client, _store = make_client(evil, key)
    with pytest.raises(ReadOnlyError, match="chunk list"):
        read(client, "f")
    # A read that stays inside the existing chunks is just as rejected:
    # the node is malformed, not merely short.
    with pytest.raises(ReadOnlyError):
        run_local(client.read_file(run_local(client.resolve_path("f")), 0, 10))


def test_size_smaller_than_chunk_list_rejected(key):
    evil = make_signed_image(key, "ro.example.com",
                             [("f", 5, [b"x" * CHUNK_SIZE, b"y" * 7])])
    client, _store = make_client(evil, key)
    with pytest.raises(ReadOnlyError, match="chunk list"):
        read(client, "f")


def test_overlength_interior_chunk_rejected(key):
    """An interior chunk longer than CHUNK_SIZE would silently shift
    every subsequent byte; it must raise, never misalign."""
    evil = make_signed_image(
        key, "ro.example.com",
        [("f", CHUNK_SIZE + 100,
          [b"x" * (CHUNK_SIZE + 16), b"y" * 84])],
    )
    client, _store = make_client(evil, key)
    with pytest.raises(ReadOnlyError, match="chunk 0"):
        read(client, "f")


def test_short_final_chunk_mismatch_rejected(key):
    evil = make_signed_image(
        key, "ro.example.com",
        [("f", CHUNK_SIZE + 100, [b"x" * CHUNK_SIZE, b"y" * 10])],
    )
    client, _store = make_client(evil, key)
    with pytest.raises(ReadOnlyError, match="chunk 1"):
        read(client, "f")


def test_wellformed_crafted_image_still_reads(key):
    """The validator accepts exactly what publish() produces."""
    content = bytes(range(256)) * 40  # 10240 bytes: one full + one partial
    image = make_signed_image(
        key, "ro.example.com",
        [("f", len(content), [content[:CHUNK_SIZE], content[CHUNK_SIZE:]])],
    )
    client, _store = make_client(image, key)
    digest = run_local(client.resolve_path("f"))
    assert run_local(client.read_file(digest)) == content
    assert run_local(client.read_file(digest, CHUNK_SIZE - 5, 10)) == (
        content[CHUNK_SIZE - 5 : CHUNK_SIZE + 5]
    )


def distinct_chunk_image(key, chunks=4, tail=1024):
    """An image whose file has *distinct* chunk contents (the fixture's
    repeating pattern dedupes into one blob, which defeats any test of
    cache pressure)."""
    import random as _random

    rng = _random.Random(12345)
    blobs = [bytes(rng.randrange(256) for _ in range(CHUNK_SIZE))
             for _ in range(chunks - 1)]
    blobs.append(bytes(rng.randrange(256) for _ in range(tail)))
    size = (chunks - 1) * CHUNK_SIZE + tail
    image = make_signed_image(key, "ro.example.com", [("f", size, blobs)])
    return image, b"".join(blobs)


def test_cache_is_bounded_lru(key):
    from repro.obs.registry import MetricsRegistry

    image, content = distinct_chunk_image(key)
    metrics = MetricsRegistry()
    client, store = make_client(image, key, cache_bytes=2 * CHUNK_SIZE,
                                metrics=metrics)
    digest = run_local(client.resolve_path("f"))
    assert run_local(client.read_file(digest)) == content
    assert metrics.counter("readonly.cache_evictions").value > 0
    # The cache never exceeds its budget...
    assert client._cached_bytes <= 2 * CHUNK_SIZE
    # ...and an evicted blob is refetched on the next read (the cache
    # does not pretend to still hold the whole image).
    calls_before = store.getdata_calls
    assert run_local(client.read_file(digest)) == content
    assert store.getdata_calls > calls_before


def test_evicted_blob_is_reverified_on_refetch(key):
    """The verify-on-refetch invariant: eviction means the next fetch
    goes back to the (untrusted) server and re-checks the digest, so a
    mirror that turns hostile after the first read is still caught."""
    image, content = distinct_chunk_image(key)
    client, store = make_client(image, key, cache_bytes=2 * CHUNK_SIZE)
    digest = run_local(client.resolve_path("f"))
    assert run_local(client.read_file(digest)) == content
    kind, body = run_local(client.node(digest))
    tampered = body.chunks[0]
    assert tampered not in client._cache  # evicted under the small budget
    store.image.store[tampered] = b"Z" * CHUNK_SIZE
    with pytest.raises(ReadOnlyError, match="digest mismatch"):
        run_local(client.read_file(digest))


def test_cache_keeps_hot_blob_under_pressure(key):
    """LRU, not FIFO: re-touching a blob protects it from eviction."""
    image, _content = distinct_chunk_image(key, chunks=6)
    client, _store = make_client(image, key)
    client._cache_limit = 3 * CHUNK_SIZE
    digest = run_local(client.resolve_path("f"))
    kind, body = run_local(client.node(digest))
    hot = body.chunks[0]
    run_local(client.fetch(hot))
    for chunk in body.chunks[1:]:
        run_local(client.fetch(hot))  # keep the hot blob most-recently-used
        run_local(client.fetch(chunk))
    assert hot in client._cache


def test_publish_content_addressing_dedupes(key):
    fs = MemFs()
    pathops.write_file(fs, "/a", b"same bytes")
    pathops.write_file(fs, "/b", b"same bytes")
    image = publish(fs, key, "dedupe.example.com")
    # identical chunks and identical file nodes share storage
    content_blobs = [b for b in image.store.values() if b == b"same bytes"]
    assert len(content_blobs) == 1
