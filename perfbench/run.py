#!/usr/bin/env python3
"""L-IXP benchmark entry point.

Builds perfbench/ (and the Stellar libraries under src/) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and runs one
workload:

    python3 perfbench/run.py --workload flood --seed 1 --seconds 20 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1 (a traced run, which also writes its
spans to <build>/spans-<workload>-<seed>.csv). Exits non-zero if the build
fails, a correctness check fails, or the metrics differ from BENCHMARK.json.

Two more modes:

    python3 perfbench/run.py --all [--seed N --seconds S]
        runs every workload and prints every end-to-end metric with its unit.
    python3 perfbench/run.py --selfcheck [--seconds S]
        per workload: the same seed with the observation hooks off, with them
        on, and traced must give byte-identical digests (final rule-set dump
        and sim-clock results); a second seed must pass every check. Also
        prints the tracing overhead (traced vs untraced ops_per_s).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no Stellar sources next to perfbench/ (expected src/CMakeLists.txt)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(out, "stellar_perfbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (exit code, stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", *extra]
    if trace:
        cmd += ["--span-dump", os.path.join(build_dir(), f"spans-{workload}-{seed}.csv")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def digest(lines):
    for line in lines:
        if line.startswith("digest "):
            # Drop the seed field so runs compare on outcomes only.
            return " ".join(f for f in line.split() if not f.startswith("seed="))
    return None


def check_metrics(result, trace):
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        sys.exit(f"run.py: metrics differ from BENCHMARK.json (missing {missing}, extra {extra})")


def main_single(args):
    binary = build()
    code, lines, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines[:-1]:
        print(line)
    if result is None:
        sys.exit(f"run.py: no result from {args.workload} (exit {code})")
    check_metrics(result, args.trace)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if code == 0 and result.get("correct") else 1


# Per-layer figures an untraced run also prints that --all shows next to the
# end-to-end metrics: memory and the workload's sim-clock results.
SUMMARY_EXTRAS = {
    "flood": ("process.peak_rss_mb", "sim.mitigate_s_p50", "sim.mitigate_s_p80"),
    "signal_churn": ("process.peak_rss_mb", "sim.install_s_p50", "sim.install_s_p99"),
    "route_churn": ("process.peak_rss_mb",),
}


def printed_metrics(lines):
    """Parses the program's `  <name> <value> <unit>` lines."""
    found = {}
    for line in lines:
        fields = line.split()
        if line.startswith("  ") and len(fields) == 3:
            found[fields[0]] = (fields[1], fields[2])
    return found


def main_all(args):
    binary = build()
    ok = True
    for workload in ("flood", "signal_churn", "route_churn"):
        code, lines, result = run_once(binary, workload, args.seed, args.seconds, False)
        for line in lines:
            if line.startswith("FAIL"):
                print(line)
        if result is None:
            print(f"{workload}: no result (exit {code})")
            ok = False
            continue
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_share="
              f"{result['failed'] / max(result['attempted'], 1):.4f}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<22} {metric['value']:>16.6g} {metric['unit']}")
        printed = printed_metrics(lines)
        for name in SUMMARY_EXTRAS[workload]:
            value, unit = printed.get(name, ("?", ""))
            print(f"  {name:<22} {value:>16} {unit}")
        ok = ok and code == 0 and result["correct"]
    return 0 if ok else 1


def main_selfcheck(args):
    binary = build()
    ok = True
    for workload in ("flood", "signal_churn", "route_churn"):
        seed = args.seed
        runs = {
            "hooks off": run_once(binary, workload, seed, args.seconds, False,
                                  ("--hooks", "0", "--setups", "1")),
            "hooks on": run_once(binary, workload, seed, args.seconds, False,
                                 ("--hooks", "1", "--setups", "1")),
            "traced": run_once(binary, workload, seed, args.seconds, True, ("--setups", "1")),
        }
        other = run_once(binary, workload, seed + 1, args.seconds, False, ("--setups", "1"))
        digests = {name: digest(lines) for name, (_, lines, _) in runs.items()}
        same = len(set(digests.values())) == 1 and None not in digests.values()
        passed = all(code == 0 and res and res["correct"] for code, _, res in runs.values())
        other_ok = other[0] == 0 and other[2] is not None and other[2]["correct"]
        untraced = runs["hooks off"][2]["metrics"]["ops_per_s"]["value"] if passed else 0.0
        traced = (runs["traced"][2]["metrics"]["traced.ops_per_s"]["value"] if passed else 0.0)
        print(f"{workload}: digests identical across hooks off/on/traced: {same}")
        for name, value in digests.items():
            print(f"  {name:<9} {value}")
        print(f"  checks pass: seed {seed}: {passed}, seed {seed + 1}: {other_ok}")
        if untraced > 0:
            print(f"  tracing overhead: ops_per_s {untraced:.6g} untraced vs {traced:.6g} traced "
                  f"({(untraced - traced) / untraced:+.1%})")
        ok = ok and same and passed and other_ok
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["flood", "signal_churn", "route_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        args.seconds = args.seconds or 3
        return main_selfcheck(args)
    if args.all:
        with open(SPEC_PATH, encoding="utf-8") as f:
            args.seconds = args.seconds or json.load(f)["run_seconds"]
        return main_all(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required (or --all / --selfcheck)")
    return main_single(args)


if __name__ == "__main__":
    sys.exit(main())
