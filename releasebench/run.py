#!/usr/bin/env python3
"""Release benchmark: SQL over the wire into the UPA service, end to end.

Builds `release_bench` from the repository's sources (CMake, Release) into
`.bench_build/releasebench`, then runs it.

  python3 releasebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run of one workload. The last stdout line is a JSON object with
      the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
  python3 releasebench/run.py --all [--seed <n>] [--seconds <s>]
      Every workload, untraced and traced: prints every metric with its unit
      and base, and the tracing overhead. Exits non-zero if any check fails.
  python3 releasebench/run.py --smoke
      Tiny-scale run of every workload; asserts every metric named in
      BENCHMARK.json is printed with a unit and that the output checks ran.

Each workload's offered open-loop rate and closed-loop pool are constants
of the binary (workload.cpp); the binary prints them with the run metadata.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "releasebench")
BINARY = os.path.join(BUILD, "release_bench")
WORK = os.path.join(ROOT, ".bench_build", "releasebench-work")
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not gate; --all and
# --smoke run them too.
UNGATED = {
    "same_dataset": "4 tenants share one alias, so per-dataset dispatch, the "
                    "enforcer and the journal commit carry the cost",
}


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("releasebench: build failed: " + " ".join(cmd))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_workloads(bench):
    """Every workload the binary runs, name -> one-sentence reason."""
    workloads = {w["name"]: w["why"] for w in bench["workloads"]}
    workloads.update(UNGATED)
    return workloads


def command(name, seed, seconds, trace, extra=()):
    return [BINARY, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--work-dir", WORK, *extra]


def run_captured(cmd):
    """Runs one workload; returns (exit code, stdout lines, parsed JSON or None)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def run_one(args, workloads):
    if args.workload not in workloads:
        sys.exit("releasebench: unknown workload " + str(args.workload))
    print("# why: " + workloads[args.workload])
    sys.stdout.flush()
    cmd = command(args.workload, args.seed, args.seconds, args.trace)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("releasebench: run timed out")
    return proc.returncode


def run_all(args, workloads):
    ok = True
    summary = []
    for name, why in workloads.items():
        print("# %s: %s" % (name, why))
        results = {}
        for trace in (False, True):
            code, lines, result = run_captured(
                command(name, args.seed, args.seconds, trace))
            print("\n".join(line for line in lines[:-1]))
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print("# %s trace=%d FAILED (exit %d)" % (name, trace, code))
                continue
            results[trace] = result["metrics"]
        if False in results and True in results:
            untraced = results[False]["release_p50_ms"]["value"]
            traced = results[True]["trace.traced_p50_ms"]["value"]
            summary.append("# tracing overhead %-20s across runs %+.2f%% "
                           "(traced run p50 %.4f ms vs untraced run p50 %.4f ms), "
                           "within the traced run %+.2f%%"
                           % (name, 100 * (traced / untraced - 1), traced, untraced,
                              100 * results[True]["trace.overhead_share"]["value"]))
    print("\n".join(summary))
    return 0 if ok else 1


def run_smoke(bench, workloads):
    expected = {False: bench["end_to_end"], True: bench["per_layer"]}
    failures = []
    for name in workloads:
        for trace in (False, True):
            # 2000 orders: below that, the enforcer's removals reach its cap.
            code, lines, result = run_captured(command(
                name, 1, 2, trace, ("--orders", "2000")))
            tag = "%s trace=%d" % (name, trace)
            if code != 0 or result is None:
                failures.append("%s: exit %d, no result" % (tag, code))
                continue
            checks = [l for l in lines if l.startswith("# checks: ")]
            if not checks or int(checks[0].split()[2]) == 0:
                failures.append(tag + ": output checks did not run")
            if not result["correct"]:
                failures.append(tag + ": output checks failed")
            printed = {l.split()[1] for l in lines if l.startswith("metric ")}
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or metric["name"] not in printed:
                    failures.append("%s: metric %s not printed" % (tag, metric["name"]))
                elif got.get("unit") != metric["unit"]:
                    failures.append("%s: metric %s has unit %r, want %r"
                                    % (tag, metric["name"], got.get("unit"), metric["unit"]))
            extra = set(result["metrics"]) - {m["name"] for m in expected[trace]}
            if extra:
                failures.append("%s: metrics missing from BENCHMARK.json: %s"
                                % (tag, sorted(extra)))
    for failure in failures:
        print("SMOKE FAILED: " + failure)
    print("smoke: %d workloads x 2 runs, %d failures" % (len(workloads), len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    bench = load_benchmark()
    workloads = load_workloads(bench)
    build()
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return run_smoke(bench, workloads)
    if args.all:
        return run_all(args, workloads)
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
