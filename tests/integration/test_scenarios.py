"""The scenario engine, run for real.

The shipped chaos deck is exercised by CI's scenario matrix; what these
tests pin is the engine contract itself: a scenario compiles, runs to
completion on the virtual clock, evaluates its assertion set, writes a
machine-readable artifact — and, above all, is **deterministic**: one
seed, one world, one digest, run after run.

The chaos-mixed case is the issue's combined-fault test: a crash point,
an adversary window, and a replica outage all land inside one run under
closed-loop load, and every operation must still complete — on two
different seeds, reproducibly.
"""

import json

import pytest

from repro.scenario import get_scenario, run_scenario
from repro.scenario.library import DIGESTS_FILE, load_library, scenario_dir

CHAOS_SEEDS = (2026, 31337)


def _pinned_digests() -> dict:
    with open(scenario_dir() / DIGESTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


@pytest.mark.parametrize("name,seed", [
    (name, int(seed))
    for name, by_seed in sorted(_pinned_digests().items())
    for seed in sorted(by_seed)
])
def test_shipped_deck_matches_its_pinned_digest(name, seed):
    """"Unchanged" has to be tellable from "changed": every shipped
    scenario's digest is committed per seed.  A change that moves
    virtual time on purpose re-pins ``scenarios/DIGESTS.json`` and says
    why there; one that moves it by accident fails here."""
    result = run_scenario(get_scenario(name), seed=seed)
    assert result.passed, result.failures
    assert result.digest == _pinned_digests()[name][str(seed)]


def test_every_shipped_scenario_is_pinned():
    assert set(_pinned_digests()) == set(load_library())


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_mixed_completes_every_op_deterministically(seed):
    """Crash point + adversary window + replica outage at once: the
    closed loop still completes every offered op, with a digest that is
    a pure function of the seed."""
    spec = get_scenario("chaos-mixed")
    first = run_scenario(spec, seed=seed)
    assert first.passed, first.failures
    assert first.totals["errors"] == 0
    assert first.totals["completed"] == first.totals["offered"]
    # The chaos actually happened; this did not pass by being idle.
    fired = {event["type"] for event in first.artifact["scenario"]["events"]}
    assert "adversary" in fired
    counters = first.artifact["metrics"]["metrics"]
    assert counters.get("scenario.crashes", 0) >= 1
    # Same seed, fresh world: bit-for-bit the same run.
    second = run_scenario(spec, seed=seed)
    assert second.digest == first.digest
    assert second.totals == first.totals


def test_different_seeds_are_different_runs():
    spec = get_scenario("chaos-mixed")
    digests = {run_scenario(spec, seed=seed).digest
               for seed in CHAOS_SEEDS}
    assert len(digests) == 2


def test_run_scenario_accepts_a_plain_dict():
    result = run_scenario({
        "name": "inline",
        "workload": {
            "clients": 2,
            "phases": [{"name": "only", "ops_per_client": 3}],
        },
        "assertions": [
            {"check": "drain"},
            {"check": "all_ops_complete"},
        ],
    })
    assert result.passed, result.failures
    assert result.totals["offered"] == 6
    assert result.totals["completed"] == 6


def test_failed_assertion_fails_the_run_with_a_reason():
    result = run_scenario({
        "name": "doomed",
        "workload": {
            "clients": 1,
            "phases": [{"name": "only", "ops_per_client": 2}],
        },
        "assertions": [
            {"check": "counter", "name": "scenario.crashes",
             "op": ">=", "value": 1},
        ],
    })
    assert not result.passed
    assert result.failures
    assert "scenario.crashes" in result.failures[0]


def test_drain_names_a_task_that_died(monkeypatch):
    """A client task killed by an exception fails ``drain`` with the
    task's name and the exception, not with an AttributeError from the
    check itself."""
    from repro.load import LoadHarness

    def exploding_op(self, session, stream, report):
        raise RuntimeError("planted fault")
        yield  # pragma: no cover

    monkeypatch.setattr(LoadHarness, "_run_op", exploding_op)
    result = run_scenario({
        "name": "dying-task",
        "workload": {
            "clients": 1,
            "phases": [{"name": "only", "ops_per_client": 1}],
        },
        "assertions": [{"check": "drain"}],
    })
    assert not result.passed
    (failure,) = result.failures
    assert "client-0" in failure
    assert "died: RuntimeError('planted fault')" in failure


def test_artifact_written_and_self_describing(tmp_path):
    spec = get_scenario("restart-flap")
    result = run_scenario(spec, out_dir=str(tmp_path))
    assert result.passed, result.failures
    assert result.artifact_path is not None
    with open(result.artifact_path, encoding="utf-8") as handle:
        artifact = json.load(handle)
    assert artifact["meta"]["scenario"] == "restart-flap"
    assert artifact["meta"]["seed"] == spec.seed
    assert artifact["scenario"]["digest"] == result.digest
    entries = artifact["scenario"]["assertions"]
    assert all(entry["passed"] for entry in entries)
    checks = [entry["check"] for entry in entries]
    assert "collector_flaps" in checks
    # The flap evidence itself rode along in the metrics snapshot.
    assert artifact["metrics"]["metrics"]["control.collector.flaps"] == 2


def test_rollover_scenario_retargets_under_load():
    """The deck's rollover case doubles as the redial-reverification
    regression: the pass requires session.retargets >= 1 and a handle
    refresh, which only happen if redialing clients followed the
    pointer onto the new HostID."""
    result = run_scenario(get_scenario("rollover-under-load"))
    assert result.passed, result.failures
    counters = result.artifact["metrics"]["metrics"]
    assert counters.get("session.retargets", 0) >= 1
    assert counters.get("scenario.handle_refreshes", 0) >= 1
