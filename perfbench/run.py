#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the measuring program
(`perfbench/`, a cargo package of its own that depends on the workspace
crates by path) in release mode, times set-up in fresh processes, runs the
workload and prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

Workloads: table1_row, fullchip_7x7, eco_edits (see perfbench/README.md).
The line before the result, `perfbench-context {...}`, records what the
program ran with and on which machine; the same record is written to
perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Set-up is timed this many times per run, each in a fresh process (the
# program's kernel-bank and FFT-plan caches live for one process), and
# reported as the median.
SETUP_SAMPLES = 7
BUILD_TIMEOUT_S = 850
# A run's passes fill --seconds, but its first pass may outlast it; after
# them come a traced pass, unit-cost probes and the reference inspections.
# A pass of the longest workload takes 30-40 s.
RUN_MARGIN_S = 150
SETUP_TIMEOUT_S = 30


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["table1_row", "fullchip_7x7", "eco_edits"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args()


def build():
    """Builds the measuring program; returns the path of the executable."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the workspace crates are missing: run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def call(exe, argv, timeout):
    """Runs the measuring program; returns its stdout lines."""
    try:
        done = subprocess.run([exe, *argv], cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{argv[0]} failed: {e}")
    if done.returncode != 0:
        fail(f"{argv[0]} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{argv[0]} printed nothing")
    return lines


def first_line(path, prefix):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def machine():
    """Fingerprint of the machine and toolchain the numbers came from."""
    return {
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "git_revision": command_output(["git", "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(ROOT, ".git")) else "unknown (not a git checkout)",
    }


def main():
    args = parse_args()
    program_env = sorted(k for k in os.environ if k.startswith("ILT_"))
    if program_env:
        fail("refusing to run with program settings in the environment: " + ", ".join(program_env))
    exe = build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_s = []
    if args.trace == "0":
        for _ in range(SETUP_SAMPLES - 1):
            setup_s.append(json.loads(call(exe, ["setup", *common], SETUP_TIMEOUT_S)[-1])["setup_s"])

    os.makedirs(OUT, exist_ok=True)
    lines = call(exe, ["run", *common, "--seconds", str(args.seconds), "--trace", args.trace,
                       "--out", OUT], args.seconds + RUN_MARGIN_S)
    result = json.loads(lines[-1])
    context = next((json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("perfbench-context ")), {})
    if args.trace == "0":
        setup = result["metrics"]["setup_s"]
        setup_s.append(setup["value"])
        setup["value"] = statistics.median(setup_s)
        context["setup_samples_s"] = setup_s
    context["machine"] = machine()

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    print("perfbench-context " + json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
