#!/usr/bin/env python3
"""Paired perfbench runs: a parent commit against a change, on one host.

Builds perfbench/ (with the Stellar sources next to it) twice, in Release with
one fixed code alignment (ALIGN_FLAGS) and out of tree, under --work-dir: the parent from a `git archive` of --parent
(source and build directories named after its revision), the change from the
working tree. No build output goes inside the repository. Then, for every
workload of BENCHMARK.json, it runs 10 pairs of pinned runs (`taskset -c CPU
stellar_perfbench --workload W --seed 1 --seconds N --trace 0`, N being
BENCHMARK.json's run_seconds); even pairs run the parent first, odd pairs the
change first. --sets repeats the whole round.

    python3 tools/bench_pairs.py --pr N --parent HEAD~1 --change-note "..." \\
        [--sets 1] [--cpu 3] [--claim route_churn:ops_per_s] [--work-dir DIR]

It writes BENCH_<pr>.json in the schema of BENCH_28.json: per set, workload
and end-to-end metric of BENCHMARK.json, both sides' runs with their median
and quartiles, the change over the parent median, the pairs the change won,
`worse_by` (how much worse the change's median is, as a share of the
parent's; negative when better) and whether that stays within the metric's
bound. It also compares the `digest` lines: of every timed run, and of one
run per seed 1 and 7 with the observation hooks off and on.

It prints every (set, workload, metric) that breaks its bound, every digest
that differs, and for --claim whether the change won at least 9 of the 10
pairs with a median better than the parent's by more than the parent's
interquartile range. Exits 1 if any of these fails, else 0.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import io

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
SEED = 1
DIGEST_SEEDS = (1, 7)
JOBS = 2  # Build parallelism.
# Both commits are built with one fixed code alignment, so a function that
# only moved to another address between them does not move their timings.
ALIGN_FLAGS = "-falign-functions=64 -falign-loops=64 -falign-jumps=64"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export_tree(rev, dest):
    """Unpacks `git archive rev` into dest (once)."""
    if os.path.isfile(os.path.join(dest, "perfbench", "CMakeLists.txt")):
        return
    os.makedirs(dest, exist_ok=True)
    data = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def build(source_root, build_dir):
    """Configures and builds perfbench from source_root; returns the binary."""
    steps = [["cmake", "-S", os.path.join(source_root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release", f"-DCMAKE_CXX_FLAGS={ALIGN_FLAGS}"],
             ["cmake", "--build", build_dir, f"-j{JOBS}"]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              check=False)
        if done.returncode != 0:
            sys.exit(f"bench_pairs: build failed: {' '.join(step)}\n{done.stderr}")
    return os.path.join(build_dir, "stellar_perfbench")


def run(binary, cpu, workload, seed, seconds, hooks=None):
    """One run; returns (metrics {name: value}, fail share, digest line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    if hooks is not None:
        cmd += ["--hooks", str(hooks)]
    if cpu is not None:
        cmd = ["taskset", "-c", str(cpu), *cmd]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench_pairs: no result from {' '.join(cmd)} (exit {done.returncode})\n"
                 f"{done.stderr}")
    digest = next((line for line in lines if line.startswith("digest ")), None)
    attempted = result.get("attempted", 0)
    fail_share = result.get("failed", 0) / attempted if attempted else 1.0
    if not result.get("correct", False):
        fail_share = max(fail_share, 1.0)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, fail_share, digest


def summary(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "min": min(runs),
            "max": max(runs), "runs": runs}


def compare(parent_runs, change_runs, better, bound):
    parent = summary(parent_runs)
    change = summary(change_runs)
    ratio = change["median"] / parent["median"] if parent["median"] else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    won = sum(1 for p, c in zip(parent_runs, change_runs)
              if (c < p if better == "lower" else c > p))
    return {
        "better": better,
        "pairs": len(parent_runs),
        "parent": parent,
        "change": change,
        "change_over_parent_median": round(ratio, 4),
        "change_better_pairs": won,
        "worse_by": round(worse_by, 4),
        "parent_iqr_over_median": round((parent["q3"] - parent["q1"]) / parent["median"], 4)
        if parent["median"] else None,
        "within_bound": worse_by <= bound,
    }


def host():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    memory_gb = None
    try:
        with open("/proc/meminfo", encoding="utf-8") as f:
            kb = int(f.readline().split()[1])
            memory_gb = round(kb / 1024 / 1024)
    except (OSError, ValueError, IndexError):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "memory_gb": memory_gb}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", default="HEAD~1", help="parent commit (default HEAD~1)")
    parser.add_argument("--change-note", default="", help="one line: what the change does")
    parser.add_argument("--work-dir", default=os.path.join(os.environ.get("TMPDIR", "/tmp"),
                                                           "stellar-bench-pairs"),
                        help="where both trees are built (outside the repository)")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--cpu", type=int, default=3, help="core to pin to; -1 pins nothing")
    parser.add_argument("--claim", default=None, help="workload:metric the change claims to improve")
    args = parser.parse_args()

    work = os.path.abspath(args.work_dir)
    if work == ROOT or work.startswith(ROOT + os.sep):
        sys.exit("bench_pairs: --work-dir must be outside the repository")
    cpu = None if args.cpu < 0 else args.cpu
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    # The parent's tree and build are named after its full revision, so a
    # later run against another parent never reuses them.
    parent_rev = git("rev-parse", "--short", args.parent)
    parent_full = git("rev-parse", args.parent)
    parent_src = os.path.join(work, "parent-src-" + parent_full)
    export_tree(parent_full, parent_src)
    log(f"bench_pairs: building parent {parent_rev} and change under {work}")
    binaries = {
        "parent": build(parent_src, os.path.join(work, "parent-build-" + parent_full)),
        "change": build(ROOT, os.path.join(work, "change-build")),
    }

    problems = []
    pairs = {"command": f"taskset -c {args.cpu} stellar_perfbench --workload W --seed {SEED} "
                        f"--seconds {seconds} --trace 0; parent and change alternate which "
                        "runs first"}
    digests = {}
    claim_result = None
    for s in range(1, args.sets + 1):
        set_out = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    log(f"set {s} {workload} pair {i + 1}/{PAIRS}: {side}")
                    m, fail_share, digest = run(binaries[side], cpu, workload, SEED, seconds)
                    runs[side].append((m, fail_share))
                    key = (workload, SEED)
                    digests.setdefault(key, {"parent": set(), "change": set()})[side].add(digest)
            entry = {}
            for metric in metrics:
                name = metric["name"]
                entry[name] = compare([m[name] for m, _ in runs["parent"]],
                                      [m[name] for m, _ in runs["change"]],
                                      metric["better"], metric["bound"])
                if not entry[name]["within_bound"]:
                    problems.append(f"set {s} {workload} {name}: change/parent median "
                                    f"{entry[name]['change_over_parent_median']}, worse by "
                                    f"{entry[name]['worse_by']} > bound {metric['bound']}")
            entry["fail_share"] = {"parent": max(f for _, f in runs["parent"]),
                                   "change": max(f for _, f in runs["change"])}
            if entry["fail_share"]["change"] > entry["fail_share"]["parent"]:
                problems.append(f"set {s} {workload}: fail_share {entry['fail_share']}")
            set_out[f"{workload}/seed{SEED}"] = entry
            if args.claim and args.claim.split(":")[0] == workload:
                c = entry[args.claim.split(":")[1]]
                parent_iqr = c["parent"]["q3"] - c["parent"]["q1"]
                gain = (c["change"]["median"] - c["parent"]["median"]) * (
                    1 if c["better"] == "higher" else -1)
                holds = c["change_better_pairs"] >= 9 and gain > parent_iqr
                claim_result = (claim_result is not False) and holds
                if not holds:
                    problems.append(f"set {s} claim {args.claim}: won {c['change_better_pairs']}"
                                    f"/{c['pairs']} pairs, median gain {gain:.6g} vs parent "
                                    f"IQR {parent_iqr:.6g}")
        pairs[f"set_{s}"] = set_out

    digest_out = {}
    for (workload, seed), sides in sorted(digests.items()):
        for side in sides:
            if len(sides[side]) != 1:
                problems.append(f"{workload} seed {seed}: {side} printed {len(sides[side])} "
                                "different digests across its runs")
        digest_out.setdefault(workload, {})[f"seed{seed}"] = {
            "parent": sorted(sides["parent"])[0], "change": sorted(sides["change"])[0],
            "identical": sides["parent"] == sides["change"]}
    for workload in workloads:
        for seed in DIGEST_SEEDS:
            for hooks in (0, 1):
                got = {side: run(binaries[side], cpu, workload, seed, seconds, hooks)[2]
                       for side in ("parent", "change")}
                digest_out.setdefault(workload, {})[f"seed{seed}_hooks{hooks}"] = {
                    **got, "identical": got["parent"] == got["change"]}
    for workload, by_seed in digest_out.items():
        for key, d in by_seed.items():
            if not d["identical"]:
                problems.append(f"digest {workload} {key} differs:\n  parent {d['parent']}\n"
                                f"  change {d['change']}")

    out = {
        "pr": args.pr,
        "change": args.change_note,
        "parent_commit": parent_rev,
        "host": {**host(), "note": "shared VM: other tenants run on the same machine, so "
                                   "run-to-run spread is mostly the host's"},
        "build": "perfbench CMake package, Release, for both commits (what perfbench/run.py "
                 f"builds) plus CMAKE_CXX_FLAGS='{ALIGN_FLAGS}', built out of tree by "
                 "tools/bench_pairs.py",
        "claim": args.claim,
        "pairs": pairs,
        "digests": digest_out,
    }
    if args.claim:
        out["claim_holds"] = bool(claim_result)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    log(f"bench_pairs: wrote {path}")
    for p in problems:
        print(p)
    if not problems:
        print("bench_pairs: every set within its bounds, digests identical" +
              (", claim holds" if args.claim else ""))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
