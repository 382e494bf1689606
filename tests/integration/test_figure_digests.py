"""The simulated outcome of the figures, pinned.

``bench scale|fleet|control|auth --quick`` are pure functions of their
seed: every row is simulated seconds and counts.  The paper's figures
(``fig5`` .. ``fig9``) add host CPU seconds to virtual ones; with the
host clock stopped, their rows (and Fig. 5's per-layer split) are
virtual seconds alone, just as pure.  Each figure's rows are folded
into a SHA-256 (floats at 9 significant digits, so a last-ULP wobble in
a derived rate is not a change) and compared with the digest committed
here, as ``scenarios/DIGESTS.json`` pins the chaos decks.  A change that
moves a figure on purpose re-pins it here and says why; one that moves
it by accident fails.

To re-pin: run ``figure_digest(name)`` for the figure (under a stopped
``time.perf_counter`` for the paper's figures) and paste the result
below.
"""

import hashlib
import json
import time

import pytest

from repro.bench.__main__ import FIGURES

#: The virtual part of each figure's ``--json`` data (``perf`` counts
#: host-side marshals and keystream bytes; control's artifact carries
#: the control plane's per-tick observations, which shift with the
#: tick's phase against the run's start).
ROWS = {
    "scale": lambda data: data["rows"],
    "fleet": lambda data: {"rows": data["rows"], "tamper": data["tamper"]},
    "control": lambda data: {"baseline": data["baseline"],
                             "managed": data["managed"]},
    "auth": lambda data: {key: data[key] for key in
                          ("storm", "table_sweep", "cache", "cost_sweep")},
}

#: The paper's figures: their rows, and Fig. 5's split of each
#: configuration's time by layer.
PAPER_ROWS = {
    "fig5": lambda data: {
        "rows": data["rows"],
        "layers": {name: entry["layers"]
                   for name, entry in data["attribution"].items()},
    },
    **{figure: lambda data: data["rows"]
       for figure in ("fig6", "fig7", "fig8", "fig9")},
}

DIGESTS = {
    "scale": "1355d36974c9e06cce34100543bfa50d236b44a430886a6f3d14652157e3b26a",
    "fleet": "cc535c34f74c1cbac98b99f4fbda4f41877af29c593d490bb5c825b0e77c567b",
    "control":
        "2e992833c7a9679e21b86e1e3c966ec6f9f3069f3584d6f7b645270acfdc2c26",
    "auth": "1443b0482824f151b48e888f7b844967b422b9760692076a7d47928475e3cf54",
}

PAPER_DIGESTS = {
    "fig5": "bba74938feb572878e2b29db79c54fbf7afbd4f44a272579b7c251f6bd08e249",
    "fig6": "47e98ee32ee740585db9c9ef325d5fe87baf8db0bf1d760e5420d9e9856bca61",
    "fig7": "c192209ef239bfb455a6dfc883c79442e1644b31c2fda0195b5609d728461eee",
    "fig8": "64a6fde4acdae36ff1083a11498fd09c1cf19e80248c35b134f27c18a9541c89",
    "fig9": "662859236f96489f2e1886ccf3a58d619922a0512da060b3f96a01c6a3475197",
}


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def figure_digest(name: str) -> str:
    _table, data = FIGURES[name](True)
    rows = {**ROWS, **PAPER_ROWS}[name]
    encoded = json.dumps(_canonical(rows(data)), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_quick_figure_matches_its_pinned_digest(name):
    assert figure_digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PAPER_DIGESTS))
def test_paper_figure_virtual_seconds_match_their_pinned_digest(
        monkeypatch, name):
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    assert figure_digest(name) == PAPER_DIGESTS[name]
