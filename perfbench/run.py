#!/usr/bin/env python3
"""perfbench command line.

    python3 perfbench/run.py --seed 2026
        Every workload, untraced then traced, each run in a fresh
        subprocess, one after another; prints every metric by name.

    python3 perfbench/run.py --repeat N --check
        N full untraced sets; prints each end-to-end metric's median,
        quartiles (N >= 4; else its range) and spread beside its bound,
        and exits non-zero when a spread other than set-up's exceeds its
        bound or a run was preempted too much.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run in this process; the last line of output is one JSON
        object (the contract BENCHMARK.json describes).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Import as the package ``perfbench`` from the checkout root, not as
# loose modules from this directory: a top-level ``trace`` would shadow
# the standard library's.
sys.path[0] = str(ROOT)

from perfbench import adapter, measure  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: A run whose process got less than this share of the wall clock is
#: too disturbed to judge a spread by.
MAX_PREEMPTED_SHARE = 0.25


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float,
                        default=float(MANIFEST["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests")
    parser.add_argument("--out", type=Path,
                        help="directory for spans and full results")
    parser.add_argument("--detail", action="store_true",
                        help="keep every computed metric in the JSON line")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.workload is not None:
        return run_one(args)
    if args.check or args.repeat > 1:
        return run_check(args)
    return run_all(args)


# -- one run, in this process -------------------------------------------------


def run_one(args) -> int:
    try:
        import_cpu_s = adapter.load()
    except adapter.MissingEntryPoint as exc:
        raise SystemExit(f"perfbench: {exc}") from None
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = measure.traced_run(workload, args.seed, args.smoke,
                                    import_cpu_s, args.out)
    else:
        result = measure.untraced_run(workload, args.seed, args.seconds,
                                      args.smoke, import_cpu_s)
    detail = result.pop("detail")
    if detail["error"]:
        print(f"perfbench: {args.workload}: first failure:\n"
              f"{detail['error']}", file=sys.stderr)
    listed = MANIFEST["per_layer" if args.trace else "end_to_end"]
    computed = detail["metrics"]
    missing = [m["name"] for m in listed if m["name"] not in computed]
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json names metrics this "
                         f"run did not compute: {missing}")
    # The contract wants a number for every listed metric: one that is
    # null by rule (a phase this workload lacks, a reference that does
    # not exist) reads 0 here and null under --detail.
    result["metrics"] = {
        m["name"]: {"value": computed[m["name"]] or 0.0, "unit": m["unit"]}
        for m in listed}
    if args.detail:
        result["detail"] = detail
    if args.out is not None:
        name = f"{args.workload}.trace{args.trace}.json"
        (args.out / name).write_text(
            json.dumps({**result, "detail": detail}, indent=1),
            encoding="utf-8")
    print(json.dumps(result))
    return 0


# -- every workload, each in a fresh subprocess -------------------------------


def _child(args, workload: str, trace: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--detail"]
    if args.smoke:
        command.append("--smoke")
    if args.out is not None:
        command += ["--out", str(args.out)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: {workload} (trace {trace}) exited "
                         f"with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


UNITS = {m["name"]: m["unit"]
         for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
UNITS["failed_ops_share"] = "ratio"


def _show(metrics: dict, names: list[str]) -> None:
    for name in names:
        value = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {UNITS[name]}")


def run_all(args) -> int:
    ok = True
    end_to_end = [m["name"] for m in MANIFEST["end_to_end"]]
    for name in WORKLOADS:
        plain = _child(args, name, 0)
        traced = _child(args, name, 1)
        ok = ok and plain["correct"] and traced["correct"]
        detail = plain["detail"]
        print(f"\n== {name}  seed={args.seed}  "
              f"correct={plain['correct'] and traced['correct']}")
        print(f"  attempted={plain['attempted']} failed={plain['failed']} "
              f"batches={detail['batches']} "
              f"pinned={detail['pinned_batches']} "
              f"virt_samples={detail['virt_samples']}")
        print(f"  virt_digest={detail['virt_digest']}")
        print(" end to end (untraced run)")
        _show(detail["metrics"], end_to_end + [
            "virt_p50_us", "failed_ops_share", "ref.model_us_per_op"])
        print(" per layer (traced run: "
              f"{traced['detail']['pinned_batches']} batches)")
        _show(traced["detail"]["metrics"],
              [m["name"] for m in MANIFEST["per_layer"]])
    return 0 if ok else 1


# -- repeatability ------------------------------------------------------------


def run_check(args) -> int:
    """N untraced sets of one seed: is each metric steadier than its bound?

    To compare two commits, run this in a checkout of each, alternating
    which goes first, ten times; the medians printed are the numbers to
    compare against the bounds.
    """
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    bad = False
    for name in WORKLOADS:
        runs = [_child(args, name, 0) for _ in range(max(2, args.repeat))]
        print(f"\n== {name}  seed={args.seed}  runs={len(runs)}")
        digests = {run["detail"]["virt_digest"] for run in runs}
        if len(digests) != 1 or not all(run["correct"] for run in runs):
            print("  FAIL: runs disagree on virt_digest or were not correct")
            bad = True
        for run in runs:
            share = run["detail"]["metrics"]["host.preempted_share"]
            if share > MAX_PREEMPTED_SHARE:
                print(f"  FAIL: host.preempted_share {share:.2f} > "
                      f"{MAX_PREEMPTED_SHARE}")
                bad = True
        print(f"  {'metric':<18} {'median':>12} {'low':>12} {'high':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            values = [run["detail"]["metrics"][metric] for run in runs]
            median = statistics.median(values)
            # The driver's measure: the quartiles' distance as a share of
            # the median.  Quartiles of fewer than four values would be
            # extrapolated, so there the full range stands in.
            if len(values) >= 4:
                low, _, high = statistics.quantiles(values, n=4)
            else:
                low, high = min(values), max(values)
            spread = (high - low) / median
            # Like the driver, judge every spread but set-up's: half a
            # second of CPU once per run is too short to be steady.
            failed = spread > bound and metric != "setup_s"
            bad = bad or failed
            print(f"  {metric:<18} {median:>12.6g} {low:>12.6g} {high:>12.6g} "
                  f"{spread:>8.4f} {bound:>6.2f}{'  FAIL' if failed else ''}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
