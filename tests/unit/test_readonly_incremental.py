"""Incremental publication and rollback protection for the read-only
dialect."""

import random

import pytest

from repro.core.pathnames import make_path
from repro.core.readonly import (
    ReadOnlyClient,
    ReadOnlyError,
    ReadOnlyStore,
    local_fetchers,
    publish,
    run_local,
)
from repro.crypto.rabin import generate_key
from repro.fs import pathops
from repro.fs.memfs import MemFs


@pytest.fixture(scope="module")
def key():
    return generate_key(768, random.Random(141))


def build_tree(n_files=32):
    fs = MemFs()
    for index in range(n_files):
        pathops.write_file(
            fs, f"/dir{index % 4}/file{index}",
            (f"contents of file {index} ").encode() * 40,
        )
    return fs


def _client_for(image, key, **kwargs):
    fetch_root, fetch_data = local_fetchers(ReadOnlyStore(image),
                                            key.public_key.to_bytes())
    return ReadOnlyClient(
        make_path(image.location, key.public_key),
        run_local(fetch_root()), fetch_data, **kwargs,
    )


def read(client, path):
    """The verified contents of the file at *path*."""
    return run_local(client.read_file(run_local(client.resolve_path(path))))


def test_incremental_republish_small_delta(key):
    """Changing one file creates O(path depth) new blobs, not O(tree).

    This is the paper's 'proportional to ... rate of change' claim made
    quantitative.
    """
    fs = build_tree()
    image1 = publish(fs, key, "inc.example.com", serial=1)
    baseline = len(image1.store)
    pathops.write_file(fs, "/dir0/file0", b"changed!")
    image2 = publish(fs, key, "inc.example.com", serial=2,
                     previous=image1)
    # New blobs: the changed chunk, the file node, dir0's node, the root.
    assert 0 < image2.new_blobs <= 4
    assert image2.new_blobs < baseline // 4
    # The unchanged content is shared between the images byte for byte.
    shared = set(image1.store) & set(image2.store)
    assert len(shared) >= baseline - 4


def test_incremental_publish_serves_correctly(key):
    fs = build_tree(8)
    image1 = publish(fs, key, "inc.example.com", serial=1)
    pathops.write_file(fs, "/dir1/file1", b"v2")
    image2 = publish(fs, key, "inc.example.com", serial=2, previous=image1)
    client = _client_for(image2, key)
    assert read(client, "dir1/file1") == b"v2"
    # untouched file still reads
    assert b"contents of file 0" in read(client, "dir0/file0")


def test_noop_republish_creates_one_root_blob_at_most(key):
    fs = build_tree(8)
    image1 = publish(fs, key, "inc.example.com", serial=1)
    image2 = publish(fs, key, "inc.example.com", serial=2, previous=image1)
    # Nothing changed below the root; only the signed root differs
    # (serial bumped), which lives outside the blob store.
    assert image2.new_blobs == 0
    assert image2.root_digest == image1.root_digest
    assert image2.root_bytes != image1.root_bytes


def test_rollback_detected_with_min_serial(key):
    fs = build_tree(4)
    image_v1 = publish(fs, key, "inc.example.com", serial=1)
    pathops.write_file(fs, "/dir0/new", b"v2 content")
    image_v2 = publish(fs, key, "inc.example.com", serial=2,
                       previous=image_v1)
    # A client that knows v2 exists refuses a replayed v1.
    client = _client_for(image_v2, key, min_serial=2)
    assert client.serial == 2
    with pytest.raises(ReadOnlyError):
        _client_for(image_v1, key, min_serial=2)
    # Without the freshness hint the stale image still verifies
    # (signatures don't expire by themselves).
    assert _client_for(image_v1, key).serial == 1
