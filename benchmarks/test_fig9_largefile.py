"""Figure 9: Sprite LFS large-file benchmark (40,000 KB in the paper;
scaled size here), 8-KB chunks: sequential write, sequential read,
random write, random read, sequential read again.

Paper's shape (section 4.4): "the large file benchmark stresses
throughput and shows the impact of both SFS's user-level implementation
and software encryption" — SFS 44% slower than NFS/UDP on sequential
write, 145% slower on sequential read; without encryption only 17% / 31%
slower.
"""

from __future__ import annotations

import pytest

from repro.bench import LOCAL, NFS_TCP, NFS_UDP, SFS, SFS_NOENC, make_setup
from repro.bench.sprite import DEFAULT_LARGE_BYTES, LARGE_PHASES, run_large_file
from repro.bench.timing import format_table
from repro.core.client import _RA_BUDGET

from conftest import emit_table

CONFIGS = [LOCAL, NFS_UDP, NFS_TCP, SFS, SFS_NOENC]
#: Larger than sfscd's block cache, as the paper's 40,000 KB file was:
#: the re-reads measure the wire, not the cache.
_SIZE = DEFAULT_LARGE_BYTES
assert _SIZE > _RA_BUDGET

_results: dict[str, object] = {}


@pytest.mark.parametrize("config", CONFIGS)
def test_fig9_largefile(config, benchmark):
    setup = make_setup(config)
    result = benchmark.pedantic(
        lambda: run_large_file(setup, size=_SIZE), rounds=1, iterations=1
    )
    _results[config] = result


def test_fig9_report(benchmark, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert set(_results) == set(CONFIGS)
    rows = []
    for name in CONFIGS:
        result = _results[name]
        rows.append(tuple(
            [name] + [result.phases[p].total for p in LARGE_PHASES]
        ))
    table = format_table(
        f"Figure 9: Sprite LFS large-file benchmark "
        f"({_SIZE >> 20} MB file, 8 KB chunks), seconds per phase",
        ["File system"] + LARGE_PHASES,
        rows,
    )
    emit_table("fig9_largefile", table, capsys)

    def phase(name, p):
        return _results[name].phases[p].total

    # SFS pays for encryption + user-level relay on bulk data.
    assert phase(SFS, "seq write") > phase(NFS_UDP, "seq write")
    assert phase(SFS, "seq read") > phase(NFS_UDP, "seq read")
    # Disabling encryption recovers a large share of the bulk cost.
    assert phase(SFS_NOENC, "seq read") < phase(SFS, "seq read")
    assert phase(SFS_NOENC, "seq write") < phase(SFS, "seq write")
    # Local beats everything on every phase.
    for p in LARGE_PHASES:
        assert phase(LOCAL, p) <= phase(NFS_UDP, p)
