#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload figures_fast --seed 7 --seconds 10 --trace 0

Run from the repository root. The script builds the `perfbench` runner
(a cargo package of its own in this directory), then drives it in separate
processes inside a private working directory:

  * `setup`: builds every solve engine the workload uses, five to fifteen
    times, and stores each in the engine cache (the median is `setup_s`);
  * `run`: the timed workload with `VCSEL_CACHE=read`, so studies restore
    the stored engines (`wall_s`, `peak_rss_mb`).

With `--trace 1` the run is repeated untraced, traced (`VCSEL_TRACE=full`)
and on one worker thread (`VCSEL_THREADS=1`), and the per-layer metrics are
printed instead of the end-to-end ones. Outputs are checked against
`reference.json`; every metric name is checked against `BENCHMARK.json`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the machine
fingerprint. `--write-reference` stores the run's outputs as the new
reference instead of checking them.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Whole-invocation limit for the processes after the build, seconds.
RUN_BUDGET_S = 170.0

UNITS = {"control.s": "s", "numerics.ms_per_cg_iteration": "ms", "telemetry.complete": "bool"}
SUFFIX_UNITS = {"_s": "s", "_mb": "MiB", "_ratio": "ratio"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return next((u for s, u in SUFFIX_UNITS.items() if name.endswith(s)), "count")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(root, target, "release", "perfbench")


class Runner:
    """Spawns the runner binary and parses its last stdout line."""

    def __init__(self, binary, workdir, deadline):
        self.binary = binary
        self.workdir = workdir
        self.deadline = deadline

    def __call__(self, *args, **env):
        child_env = {k: v for k, v in os.environ.items() if k != "MG_DEBUG"}
        child_env.update(env)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            fail("time budget exhausted")
        try:
            proc = subprocess.run([self.binary, *map(str, args)], cwd=self.workdir,
                                  env=child_env, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"'{' '.join(map(str, args))}' ran out of time")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"'{' '.join(map(str, args))}' exited with {proc.returncode}")
        return json.loads(lines[-1])


def check_reference(workload, outputs, tally):
    """Counts each referenced output outside its tolerance as a failure."""
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)[workload]
    for name, expected in sorted(reference["values"].items()):
        tolerance = next(tol for part, tol in reference["tolerances"]
                         if part in name or part == "*")
        got = outputs.get(name)
        tally["attempted"] += 1
        if got is None or abs(got - expected) > tolerance:
            tally["failed"] += 1
            print(f"perfbench: {name} = {got}, reference {expected} ± {tolerance}",
                  file=sys.stderr)


def write_reference(workload, outputs):
    path = os.path.join(HERE, "reference.json")
    with open(path) as f:
        reference = json.load(f)
    reference[workload]["values"] = outputs
    with open(path, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")


def fingerprint(root, seed, threads):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass

    def output_of(cmd):
        try:
            out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
            return out.stdout.strip() if out.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    rev = output_of(["git", "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(root, ".git")) else "unknown"
    return {"threads": threads, "cpu": cpu, "rustc": output_of(["rustc", "--version"]),
            "git_rev": rev, "seed": seed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        fail(f"unknown workload '{args.workload}'")

    binary = build(root)
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        runner = Runner(binary, workdir, time.monotonic() + RUN_BUDGET_S)
        metrics, tally, outputs, threads = measure(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
        except OSError:
            pass

    if args.write_reference:
        write_reference(args.workload, outputs[0])
    else:
        for run_outputs in outputs:
            check_reference(args.workload, run_outputs, tally)
    if args.trace:
        metrics["fail_ratio"] = tally["failed"] / tally["attempted"]

    # Self-check: the printed names are exactly the declared ones.
    expected = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        fail(f"metric names differ from BENCHMARK.json: printed but undeclared "
             f"{sorted(set(metrics) - expected)}, declared but missing "
             f"{sorted(expected - set(metrics))}")

    print(json.dumps({"fingerprint": fingerprint(root, args.seed, threads)}))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }))


def measure(runner, args):
    """Runs the phases; returns (metrics, tally, outputs per run, worker threads)."""
    workload, seed, seconds = args.workload, args.seed, args.seconds
    setup = runner("setup", workload)["metrics"]
    run_args = ("run", workload, "--seed", seed, "--seconds", seconds)
    plain = runner(*run_args, VCSEL_TRACE="off", VCSEL_CACHE="read")
    runs = [plain]
    m = plain["metrics"]
    if not args.trace:
        metrics = {"wall_s": m["wall_s"], "setup_s": setup["setup_s"],
                   "peak_rss_mb": m["peak_rss_mb"]}
    else:
        traced = runner(*run_args, VCSEL_TRACE="full", VCSEL_CACHE="read")
        serial = runner(*run_args, VCSEL_TRACE="off", VCSEL_CACHE="read", VCSEL_THREADS="1")
        runs += [traced, serial]
        t = traced["metrics"]
        per_layer = {k: v for k, v in t.items()
                     if k not in ("wall_s", "peak_rss_mb", "threads")}
        metrics = {name: 0.0 for name in (
            "core.study_new_s", "core.reconfigure_s", "core.figures_s", "core.evaluate_s",
            "core.scenario_s", "core.scenario_setup_s", "network.snr_s", "thermal.step_s",
            "control.s", "numerics.warm_cg_iterations")}
        metrics.update(per_layer)
        metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
        iterations = t["numerics.cg_iterations"]
        solve_s = t.get("thermal.step_s") or t.get("core.study_new_s", 0.0)
        metrics["numerics.ms_per_cg_iteration"] = 1e3 * solve_s / max(iterations, 1)
        metrics["numerics.thread_iteration_ratio"] = (
            iterations / max(serial["metrics"]["numerics.cg_iterations"], 1))
        metrics["telemetry.overhead_ratio"] = t["wall_s"] / m["wall_s"]
        metrics["telemetry.complete"] = float(t["telemetry.dropped_events"] == 0)
        if t["telemetry.dropped_events"]:
            print(f"perfbench: {t['telemetry.dropped_events']:.0f} trace events dropped; "
                  "the per-layer numbers are incomplete", file=sys.stderr)
    tally = {"attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs)}
    for r in runs:
        for note in r["notes"]:
            print(f"perfbench: {note}", file=sys.stderr)
    return metrics, tally, [r["outputs"] for r in runs], int(m["threads"])


if __name__ == "__main__":
    main()
