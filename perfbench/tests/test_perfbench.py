import json
import math
import shutil
import subprocess
import sys
import time

import pytest

from conftest import ROOT, SEED
from perfbench import adapter, measure, trace
from perfbench.workloads import WORKLOADS

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SYNCHRONOUS = ("smallfile-lan", "bulk-lan")
HELD_OUT_SEED = 31337


def test_manifest_names_the_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_positive_and_correct(runs, workload):
    result = runs(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["detail"]["metrics"]
    for listed in MANIFEST["end_to_end"]:
        value = metrics[listed["name"]]
        assert math.isfinite(value) and value > 0, listed["name"]
    assert metrics["failed_ops_share"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_present_and_null_only_by_rule(runs, workload):
    result = runs(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["detail"]["metrics"]
    own_phases = WORKLOADS[workload].phases
    for listed in MANIFEST["per_layer"]:
        name = listed["name"]
        value = metrics[name]
        other_phase = (name.startswith("phase.")
                       and name.split(".")[1] not in own_phases)
        no_reference = (name in ("ref.nfs_udp.cpu_us_per_op",
                                 "ref.nfs_udp.virt_us_per_op",
                                 "ref.model_ratio_vs_nfs")
                        and not WORKLOADS[workload].has_reference)
        if other_phase or no_reference:
            assert value is None, name
        else:
            assert value is not None and math.isfinite(value), name
    assert metrics["trace.unresolved"] == 0
    assert metrics["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_every_virtual_number_identical(runs, workload):
    detail = runs(workload, 1)["detail"]
    assert detail["traced_digest"] == detail["virt_digest"]


@pytest.mark.parametrize("workload", ("smallfile-lan", "bulk-wan-d8"))
def test_virtual_numbers_repeat_per_seed_and_move_with_it(
        runs, import_cpu_s, workload, monkeypatch):
    first = runs(workload, 0)["detail"]

    def no_tracer():
        raise AssertionError("the untraced run touched the boundary table")

    # The end-to-end run must not depend on the tracer at all.
    monkeypatch.setattr(trace, "Tracer", no_tracer)
    again = measure.untraced_run(WORKLOADS[workload], SEED, 0.0, True,
                                 import_cpu_s)["detail"]
    assert again["virt_digest"] == first["virt_digest"]
    for name in ("virt_us_per_op", "virt_p50_us", "virt_p99_us"):
        assert again["metrics"][name] == first["metrics"][name]
    other = runs(workload, 0, HELD_OUT_SEED)["detail"]
    assert other["virt_digest"] != first["virt_digest"]
    assert other["metrics"]["virt_us_per_op"] \
        != first["metrics"]["virt_us_per_op"]


@pytest.mark.parametrize("workload", SYNCHRONOUS)
def test_synchronous_workloads_are_covered_and_never_schedule(runs, workload):
    metrics = runs(workload, 1)["detail"]["metrics"]
    assert metrics["trace.coverage_share"] >= 0.95
    assert metrics["trace.virt_coverage_share"] >= 0.99
    assert metrics["sim.sched.steps_per_op"] == 0


def test_fanout_uses_the_scheduler_and_the_queue(runs):
    metrics = runs("fanout-1024", 1)["detail"]["metrics"]
    assert metrics["sim.sched.steps_per_op"] > 0
    assert metrics["core.admission.peak_depth"] > 0
    assert metrics["kernel.rpcs_per_op"] == 0


def test_unresolved_boundary_degrades_to_null(import_cpu_s, monkeypatch,
                                              capsys):
    monkeypatch.setattr(trace, "BOUNDARIES", trace.BOUNDARIES + (
        ("fs", "repro.fs.memfs.MemFs.no_such_call"),))
    result = measure.traced_run(WORKLOADS["smallfile-lan"], SEED, True,
                                import_cpu_s)
    metrics = result["detail"]["metrics"]
    assert result["correct"]
    assert metrics["trace.unresolved"] == 1
    assert metrics["fs.self_us_per_op"] is None
    assert metrics["fs.calls_per_op"] is None
    assert metrics["kernel.self_us_per_op"] is not None
    assert capsys.readouterr().out.count("warning") == 1


def test_planted_slowdown_lands_in_its_layer_and_nowhere_else(
        runs, import_cpu_s, monkeypatch):
    base_bulk = runs("bulk-lan", 1)["detail"]
    base_fanout = runs("fanout-1024", 1)["detail"]
    owner, name, compute = adapter.resolve(
        "repro.crypto.mac.SessionMAC.compute")

    def slowed(self, message):
        until = time.perf_counter() + 200e-6
        while time.perf_counter() < until:
            pass
        return compute(self, message)

    monkeypatch.setattr(owner, name, slowed)
    bulk = measure.traced_run(WORKLOADS["bulk-lan"], SEED, True,
                              import_cpu_s)["detail"]
    fanout = measure.traced_run(WORKLOADS["fanout-1024"], SEED, True,
                                import_cpu_s)["detail"]
    before, after = base_bulk["metrics"], bulk["metrics"]
    assert after["crypto.mac_us_per_op"] \
        > before["crypto.mac_us_per_op"] + 200
    assert after["host.cpu_q1_us_per_op"] \
        > before["host.cpu_q1_us_per_op"] + 200
    assert bulk["virt_digest"] == base_bulk["virt_digest"]
    assert fanout["virt_digest"] == base_fanout["virt_digest"]
    # On fanout the same busy loop must show up under crypto.mac and
    # leave the scheduler's self time where it was, give or take noise
    # that is small beside what was planted.
    before, after = base_fanout["metrics"], fanout["metrics"]
    planted = after["crypto.mac_us_per_op"] - before["crypto.mac_us_per_op"]
    moved = abs(after["sim.sched.self_us_per_op"]
                - before["sim.sched.self_us_per_op"])
    assert planted > 200
    assert moved < 0.25 * planted


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False)


@pytest.mark.parametrize("traced", (0, 1))
def test_command_line_prints_the_contract_line(traced):
    done = _cli(ROOT, "--workload", "smallfile-lan", "--seed", "5",
                "--seconds", "0", "--trace", str(traced), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = MANIFEST["per_layer" if traced else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli(tmp_path, "--workload", "smallfile-lan", "--seed", "5",
                "--seconds", "0", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
