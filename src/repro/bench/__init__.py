"""Benchmark harness regenerating every figure in the paper's section 4.

The figures beyond the paper live here too — ``scale`` and
``pipeline`` in :mod:`repro.bench.__main__`, and :mod:`fleet`,
:mod:`control` and :mod:`auth` — and drive their clients through the
one client engine, :mod:`repro.load`.
"""

from . import compile as compile_bench
from . import mab, micro, setups, sprite, timing
from .setups import (
    ALL_CONFIGS,
    LOCAL,
    NFS_TCP,
    NFS_UDP,
    PAPER_CONFIGS,
    SFS,
    SFS_NOENC,
    BenchSetup,
    make_setup,
)
from .timing import Measurement, Timer, format_table

__all__ = [
    "ALL_CONFIGS",
    "BenchSetup",
    "LOCAL",
    "Measurement",
    "NFS_TCP",
    "NFS_UDP",
    "PAPER_CONFIGS",
    "SFS",
    "SFS_NOENC",
    "Timer",
    "compile_bench",
    "format_table",
    "mab",
    "make_setup",
    "micro",
    "setups",
    "sprite",
    "timing",
]
