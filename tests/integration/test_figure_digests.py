"""The simulated outcome of the figures, pinned.

``bench scale|fleet|control|auth --quick`` are pure functions of their
seed: every row is simulated seconds and counts.  The paper's figures
(``fig5`` .. ``fig9``) add host CPU seconds to virtual ones; with the
host clock stopped, their rows are virtual seconds alone, just as pure,
and so is Fig. 5's virtual split by layer.  Each figure's rows are folded
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
#: configuration's virtual time by layer.
PAPER_ROWS = {
    "fig5": lambda data: {
        "rows": data["rows"],
        "virtual": {name: split["virtual"]
                    for name, split in data["attribution"].items()},
    },
    **{figure: lambda data: data["rows"]
       for figure in ("fig6", "fig7", "fig8", "fig9")},
}

#: Re-pinned when the request queue became a count of busy slots and
#: every link to a server began sharing its NIC: a call that finds a
#: slot free no longer counts as queued, so the lightly loaded rows'
#: peak queue depth fell from 1 to 0 (scale, fleet, control); the auth
#: storm's links now contend for the shard NIC (row 0 duration
#: 0.97507 -> 0.97605 s, p99 809.5 -> 814.5 ms, 885 -> 884 rejects).
DIGESTS = {
    "scale": "1e33185266b693cee3d18f948108398302e06aa3da0535fb6b0adeddbcdedc24",
    "fleet": "05167cdc883a293414546034e3108a36c11f0ba805d8677f34b0537452cfac05",
    "control":
        "c8ba83441debb83c220972ab34e3544d3b1cda171162d969a717f60a0a184c06",
    "auth": "178f78805923bff4b603ada0c5153ea48f2b65d5517318a6ae8a09a62dfcad8f",
}

#: Re-pinned when sfscd's name cache began keeping the names its own
#: CREATE/MKDIR/SYMLINK made: every SFS row that moved went down (the
#: table is in EXPERIMENTS.md).  ``fig5`` re-pinned once more when its
#: split became one per clock: the virtual split is now ``network`` and
#: ``disk`` beside their headline, each value unchanged (CHANGES.md).
PAPER_DIGESTS = {
    "fig5": "ad841e290863759d11a17c4bba484de9cf4ff7249876680d9d2287be3afc8cfd",
    "fig6": "b590566439b32f40f5d3b5d1a6bbaf0cdaa8d3e44080031166eb321258421ae8",
    "fig7": "6b733be3d29de65a861ff2cacff50cd011a7bdec2b5202a59fcbd74e45b4baaa",
    "fig8": "991db4fb8365746345303e89696ff39a67e59fd8a155afca0d0011591518ee40",
    "fig9": "d66faf1b58f0e3bbe16afdb52c182cad402223c164817f9eea22353597ab3fec",
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
