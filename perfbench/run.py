#!/usr/bin/env python3
"""Repository benchmark: builds the library and the benchmark binary from
source, runs one workload and prints every metric with its unit and clock.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the "end_to_end" list of BENCHMARK.json, with --trace 1 the "per_layer"
list. Everything the run builds or writes stays under the build directory
($CARGO_TARGET_DIR, default .bench_build).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures once and builds the benchmark binary; returns its path."""
    binary_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(binary_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(binary_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", binary_dir, "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)
    return os.path.join(binary_dir, "ttlg_perfbench")


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_determinism(out_dir, key, metrics):
    """Every sim-clock metric must repeat bit for bit across runs of the
    same binary, workload and trace flag. Seeds change data and visiting
    order only, and the binary aggregates simulated results in canonical
    case order, so runs with different seeds are compared too."""
    store = os.path.join(out_dir, "perfbench-fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, key + ".json")
    current = {k: repr(m["value"]) for k, m in metrics.items()
               if m["clock"] == "sim"}
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(current, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        previous = json.load(f)
    return ["sim-clock value %s changed between runs of the same binary: "
            "%s -> %s" % (k, previous.get(k), current.get(k))
            for k in sorted(set(previous) | set(current))
            if previous.get(k) != current.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark binary exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    # The binary's hash is in the key, so only runs of the same code are
    # compared: a change that moves simulated results starts a new record.
    key = "%s-trace%d-%s" % (args.workload, args.trace, file_sha256(binary)[:16])
    errors = list(result["errors"]) + check_determinism(
        out_dir, key, result["metrics"])

    print("# workload %s, seed %d, %g s, trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for k, v in result["config"].items():
        print("# config %-40s %s" % (k, v))
    for name, m in result["metrics"].items():
        print("%-48s %18.6f %-8s %s" % (name, m["value"], m["unit"], m["clock"]))
    for e in errors:
        print("# error " + e)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s was not produced" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": not errors and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
