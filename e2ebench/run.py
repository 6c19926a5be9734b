#!/usr/bin/env python3
"""End-to-end benchmark runner for distconv.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (e2ebench/CMakeLists.txt, which compiles the checkout's
src/) into $CARGO_TARGET_DIR or .bench_build, runs one workload in its own
process with every DC_* variable removed from its environment, and prints,
as the last line of stdout, the end-to-end metrics (--trace 0) or per-layer
metrics (--trace 1) that BENCHMARK.json names. A per-layer metric the
workload does not exercise reads 0 and is listed as not exercised.
Logs and traces go to .bench_out/. Exit status: 0 on a correct run, 1 when an
output failed its correctness check, 2 on any other error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    return args


def load_contract():
    path = os.path.join(REPO, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure and build the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(REPO, "src", "core", "model.hpp")):
        fail("library sources (src/) are missing from this checkout")
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "e2ebench")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "e2ebench")


def git_revision():
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    head = os.path.join(REPO, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(REPO, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def select(result, contract, traced):
    """The contract's metric set for this mode, taken from the run's result."""
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    metrics, not_exercised = {}, []
    for m in contract["per_layer" if traced else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not traced:
                fail(f"end-to-end metric {name} was not measured")
            not_exercised.append(name)
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name} has unit {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    return out, not_exercised


def main():
    args = parse_args()
    contract = load_contract()
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    dropped = {k: v for k, v in os.environ.items() if k.startswith("DC_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("DC_")}
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"unparsable result line: {e}")
    final, not_exercised = select(result, contract, args.trace == "1")

    provenance = {"git_revision": git_revision(),
                  "dc_env_removed": dropped,
                  "not_exercised": not_exercised,
                  "command": cmd[1:]}
    body = lines[:-1] + [json.dumps({"run_provenance": provenance}),
                         json.dumps(final)]
    log = os.path.join(out_dir, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.log")
    with open(log, "w") as f:
        f.write("\n".join(body) + "\n")
    print("\n".join(body))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
