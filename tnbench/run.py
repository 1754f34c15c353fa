#!/usr/bin/env python3
"""tussle-net benchmark (tnbench): build the program from source, then run it.

Run from the root of a checkout:

  python3 tnbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last line of stdout is the JSON result: end-to-end
      metrics with --trace 0, per-layer metrics with --trace 1 (which also
      writes spans and a self-time table under <build dir>/trace).
  python3 tnbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced, printing every end-to-end metric by name
      with its unit, and whether all checks passed.
  python3 tnbench/run.py --self-test
      Shows that the allocation counter is exact and that every output
      check fires when handed a deliberately wrong expectation.
  python3 tnbench/run.py --record-references
      Rewrites tnbench/reference.json: the digest of each workload's
      simulated statistics at the default and the held-out seed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout. Workloads and metrics are documented in tnbench/metrics.json.
"""
import argparse
import fcntl
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["flood", "flood-sharded", "firewall-flows", "model-sweep"]
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds the tnbench program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("tnbench: no tussle-net sources under %s/src" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "tnbench")
    log_path = os.path.join(out, "tnbench-build.log")
    with open(os.path.join(out, "tnbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
            steps.append(["cmake", "--build", cmake_dir, "--target", "tnbench",
                          "-j", str(os.cpu_count() or 1)])
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    sys.exit("tnbench: build failed (%s)" % log_path)
    return os.path.join(cmake_dir, "tnbench")


def references():
    with open(REFERENCE) as f:
        return json.load(f)


def run(binary, workload, seed, seconds, trace, extra=(), check_reference=True):
    """Runs the tnbench program once; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(build_dir(), "trace")]
    digest = references()["digests"].get(workload, {}).get(str(seed))
    if check_reference and digest:
        cmd += ["--expect-digest", digest]
    cmd += list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return p.returncode, p.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test(binary):
    """Every check must pass as written and fail on a wrong expectation."""
    seed = references()["default_seed"]
    cases = [("flood", None), ("flood", "origin"), ("flood", "conservation"),
             ("flood", "digest"), ("flood", "alloc-count"),
             ("flood-sharded", None), ("flood-sharded", "shard-parity"),
             ("firewall-flows", None), ("firewall-flows", "leak"),
             ("firewall-flows", "conservation"),
             ("model-sweep", None), ("model-sweep", "run-check")]
    ok = True
    # The result carries exactly the metrics BENCHMARK.json names.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, out = run(binary, "flood", seed, 1, trace)
        names = list(result(out)["metrics"]) if code == 0 else []
        good = names == [m["name"] for m in bench[key]]
        ok &= good
        print("%-4s %-15s %-13s metric names match BENCHMARK.json %s" % (
            "ok" if good else "FAIL", "flood", "trace %d" % trace, key))
    for workload, broken in cases:
        extra = ["--break", broken] if broken else []
        code, out = run(binary, workload, seed, 1, 0, extra)
        r = result(out) if code == 0 else {}
        fired = r.get("correct") is False and r.get("failed", 0) > 0
        good = code == 0 and (fired if broken else r.get("correct") is True)
        ok &= good
        print("%-4s %-15s %-13s correct=%s failed=%s" % (
            "ok" if good else "FAIL", workload, broken or "(as written)",
            r.get("correct"), r.get("failed")))
    return 0 if ok else 1


def record_references(binary):
    ref = references()
    for workload in WORKLOADS:
        for seed in (ref["default_seed"], ref["held_out_seed"]):
            code, out = run(binary, workload, seed, 1, 0, check_reference=False)
            m = re.search(r"digest ([0-9a-f]{16})", out)
            if code != 0 or not m or not result(out)["correct"]:
                sys.exit("tnbench: %s seed %d failed:\n%s" % (workload, seed, out))
            ref["digests"].setdefault(workload, {})[str(seed)] = m.group(1)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=2)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.self_test or args.record_references):
        ap.error("give --workload, --all, --self-test or --record-references")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record_references:
        return record_references(binary)
    seed = args.seed if args.seed is not None else references()["default_seed"]
    if args.all:
        all_correct = True
        for workload in WORKLOADS:
            code, out = run(binary, workload, seed, args.seconds, 0)
            lines = out.strip().splitlines()
            print("\n".join(lines[:-1]))
            all_correct &= code == 0 and result(out)["correct"]
        print("all checks passed" if all_correct else "SOME CHECKS FAILED")
        return 0 if all_correct else 1
    code, out = run(binary, args.workload, seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
