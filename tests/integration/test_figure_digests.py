"""The simulated outcome of the non-paper figures, pinned.

``bench scale|fleet|control|auth --quick`` are pure functions of their
seed: every row is simulated seconds and counts.  Each figure's rows are
folded into a SHA-256 (floats at 9 significant digits, so a last-ULP
wobble in a derived rate is not a change) and compared with the digest
committed here, as ``scenarios/DIGESTS.json`` pins the chaos decks.  A
change that moves a figure on purpose re-pins it here and says why; one
that moves it by accident fails.

To re-pin: run ``figure_digest(name)`` for the figure and paste the
result below.
"""

import hashlib
import json

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

DIGESTS = {
    "scale": "1355d36974c9e06cce34100543bfa50d236b44a430886a6f3d14652157e3b26a",
    "fleet": "cc535c34f74c1cbac98b99f4fbda4f41877af29c593d490bb5c825b0e77c567b",
    "control":
        "2e992833c7a9679e21b86e1e3c966ec6f9f3069f3584d6f7b645270acfdc2c26",
    "auth": "1443b0482824f151b48e888f7b844967b422b9760692076a7d47928475e3cf54",
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
    encoded = json.dumps(_canonical(ROWS[name](data)), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_quick_figure_matches_its_pinned_digest(name):
    assert figure_digest(name) == DIGESTS[name]
