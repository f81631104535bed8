#!/usr/bin/env python3
"""Runner of the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds netpp_perfbench (perfbench/CMakeLists.txt, Release) from the netpp
sources of the checkout it sits in, runs one workload, checks the reported
metrics against BENCHMARK.json, records the full result under the build
directory, and prints one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exit status: 0 when every correctness check
held, 1 when one failed, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

# The seed used when none is given, and one held-out seed that is never used
# while tuning a change; a claimed gain must also hold on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173

WORKLOADS = ("poisson_fabric", "standing_sharded", "whatif_serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    # CARGO_TARGET_DIR names the build directory the caller provides for
    # compiled artifacts; it is relative to the checkout root.
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures (Release) and builds netpp_perfbench; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                   "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no netpp source tree next to perfbench/ (missing %s)"
                 % needed)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache) or \
            "CMAKE_BUILD_TYPE:STRING=Release" not in open(cache).read():
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "netpp_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(bdir, "netpp_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bdir = build_dir()
    exe = build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(seconds)), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("netpp_perfbench did not finish: %s" % e)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail("netpp_perfbench exited with status %d and no result"
             % done.returncode)
    result = json.loads(lines[-1])

    # The metric set is BENCHMARK.json's: every end-to-end metric must be
    # measured; a per-layer metric a workload does not exercise reads 0.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        fail("netpp_perfbench reported metrics BENCHMARK.json does not list: %s"
             % ", ".join(unknown))
    metrics = {}
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            entry = {"value": 0.0, "unit": m["unit"]}
        if entry["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], entry["unit"], m["unit"]))
        if not math.isfinite(entry["value"]):
            fail("metric %s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": got,
        "context": result["context"], "info": result["info"],
    }
    record_path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for line in lines[:-1]:
        print(line)
    ctx = result["context"]
    print("  context: nproc=%s cpu=%r compiler=%s build=%s NETPP_SIMD=%s "
          "simd=%s workers=%s clients=%s"
          % (ctx["nproc"], ctx["cpu_model"], ctx["compiler"],
             ctx["cmake_build_type"], ctx["netpp_simd"],
             ctx["active_simd_level"], ctx["workers"], ctx["clients"]))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  record: %s" % os.path.relpath(record_path, ROOT))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
