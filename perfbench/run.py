#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics. --smoke runs every workload briefly in both modes and
checks that every metric BENCHMARK.json names is emitted with its unit.
See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cam88-stream", "hd640-stream", "fleet4-mixed"]
# Set-up time is the median over the measuring process and this many extra
# set-up-only processes.
SETUP_REPEATS = 4
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "vf_perfbench")


def run_binary(binary, args, timeout):
    """Runs vf_perfbench; returns (exit code, report lines, parsed last line)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return proc.returncode, lines[:-1], result


def run_workload(binary, workload, seed, seconds, trace, echo=True):
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            code, _, res = run_binary(binary, base + ["--seconds", "1", "--setup-only"],
                                      RUN_TIMEOUT_S)
            if code != 0 or res is None:
                log("set-up-only run failed")
                return 1, None
            setups.append(res["setup_s"])
    code, report, result = run_binary(
        binary, base + ["--seconds", str(seconds), "--trace", "1" if trace else "0"],
        RUN_TIMEOUT_S)
    if echo:
        for line in report:
            print(line)
    if result is None or "metrics" not in result:
        log("vf_perfbench printed no result")
        return code or 1, None
    if not trace:
        setup = result["metrics"]["setup_s"]
        setups.append(setup["value"])
        setup["value"] = statistics.median(setups)
        if echo:
            print("  setup_s over %d processes: %s" % (
                len(setups), " ".join("%.4f" % s for s in setups)))
    return code, result


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            # Traced runs need a few clips for the closure check.
            code, result = run_workload(binary, workload, 1, 3 if trace else 1, trace,
                                        echo=False)
            want = declared_metrics(trace)
            got = {} if result is None else {
                k: v.get("unit") for k, v in result["metrics"].items()}
            problems = []
            if code != 0 or result is None or not result["correct"]:
                problems.append("run failed (exit %s)" % code)
            problems += ["missing %s" % n for n in want if n not in got]
            problems += ["%s has unit %s, not %s" % (n, got[n], u)
                         for n, u in want.items() if n in got and got[n] != u]
            problems += ["undeclared %s" % n for n in got if n not in want]
            log("smoke %-13s trace %d: %s" % (workload, trace,
                "; ".join(problems) if problems else "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("build failed: %s" % e)
        return 1
    if args.smoke:
        return smoke(binary)
    try:
        code, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                    args.trace == 1)
    except subprocess.TimeoutExpired:
        log("vf_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
