"""Write a BENCH_<name>.json: the benchmark on two commits, in alternated pairs.

    python3 scripts/bench_file.py --parent <rev> --change <rev> --out BENCH_<n>.json [--seed 0]

Run it from the repository root. Each commit's committed files are
exported with `git archive` into a fresh directory under .bench_build/,
so both sides are built the same way and nothing of the working tree
reaches either. Pair k of PAIRS runs `python3 perfbench/run.py
--workload <w> --seed <seed + k> --seconds <s>` once on each side for
every workload of BENCHMARK.json, s being its run_seconds, the parent
first in even pairs and the change first in odd ones. The file holds both
commits, run.py's env block, the pair count, every run's metrics, per
workload and side the median and quartiles of the end-to-end metrics,
and per metric the median pair ratio (change / parent), whether the
change's gain on the medians exceeds the parent's quartile distance, and
whether it counts as a gain: that, in at least nine pairs of ten.
check_schema() checks the file's top-level fields and run records, and
summarize() gives the rest; the tier-1 suite applies both to every
committed BENCH_*.json.

When the newest committed BENCH_<n>.json other than --out was measured
on the same python, numpy, BLAS, CPU and core count, the file also holds
a `previous` block: per workload and metric, the ratio of this file's
parent median to that file's change median, checked against the bound.
The two should measure the same code, so drift that each file hides
inside its own pairs shows there. Otherwise it prints why and writes no
block.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SCHEMA = 1
SIDES = ("parent", "change")
PAIRS = 10
# The env keys that must agree for two files' medians to be compared.
ENV_KEYS = ("python", "numpy", "blas", "cpu", "nproc")


def benchmark() -> dict:
    """BENCHMARK.json: the workloads, their run_seconds and the metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end() -> dict[str, dict]:
    """BENCHMARK.json's end-to-end metrics by name: their unit, better
    direction and regression bound."""
    return {m["name"]: m for m in benchmark()["end_to_end"]}


def quartiles(values: list[float]) -> dict[str, float]:
    """The median and the quartiles (statistics.quantiles, inclusive) of
    two or more values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def worse_ratio(before: float, after: float, better: str) -> float:
    """How far `after` is worse than `before`, relative to it: 0 when it
    is not worse."""
    worse = after - before if better == "lower" else before - after
    return max(worse, 0.0) / abs(before) if before else 0.0


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over pairs (parent[k], change[k]).

    gain is the medians' difference in the better direction (negative
    when the change is worse); it clears the parent's quartile distance
    when it exceeds q3 - q1 of the parent's runs, and it counts as a gain
    when it does and the change is better in at least nine pairs of ten.
    worse_ratio is how far the change's median is worse than the
    parent's, relative to it (0 when it is not worse), and within_bound
    compares it with the bound."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    worse = worse_ratio(p["median"], c["median"], better)
    better_pairs = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return {
        "better": better,
        "median_pair_ratio": statistics.median(b / a for a, b in zip(parent, change)),
        "pairs_better": better_pairs,
        "gain": gain,
        "parent_iqr": iqr,
        "clears_parent_iqr": gain > iqr,
        "gain_counts": gain > iqr and 10 * better_pairs >= 9 * len(parent),
        "bound": bound,
        "worse_ratio": worse,
        "within_bound": worse <= bound,
    }


def summarize(runs: dict[str, list[dict]], metrics: dict[str, dict]) -> dict:
    """The sides and compare blocks of one workload from its runs."""
    sides = {side: {name: quartiles([r["metrics"][name] for r in runs[side]]) for name in metrics}
             for side in SIDES}
    comparisons = {name: compare([r["metrics"][name] for r in runs["parent"]],
                                 [r["metrics"][name] for r in runs["change"]], m["better"], m["bound"])
                   for name, m in metrics.items()}
    return {"sides": sides, "compare": comparisons}


def previous_block(doc: dict, previous: dict, name: str) -> "dict | None":
    """The `previous` block of `doc` against the BENCH file `previous`,
    named `name`: per workload and metric of both, the ratio of doc's
    parent median to previous's change median and how far it is worse,
    against the bound. None, after printing why, when their env blocks
    differ on an ENV_KEYS key."""
    differ = [key for key in ENV_KEYS if doc["env"].get(key) != previous["env"].get(key)]
    if differ:
        print(f"no 'previous' block: {name} ran on another {', '.join(differ)}", file=sys.stderr)
        return None
    workloads = {}
    for workload, block in doc["workloads"].items():
        if workload not in previous["workloads"]:
            continue
        before, after = previous["workloads"][workload]["sides"]["change"], block["sides"]["parent"]
        workloads[workload] = {}
        for metric, m in end_to_end().items():
            if metric in before:
                worse = worse_ratio(before[metric]["median"], after[metric]["median"], m["better"])
                workloads[workload][metric] = {
                    "ratio": after[metric]["median"] / before[metric]["median"],
                    "worse_ratio": worse, "bound": m["bound"], "within_bound": worse <= m["bound"]}
    return {"file": name, "commit": previous["change"]["commit"], "workloads": workloads}


def newest_bench(names: list[str], out: str) -> "str | None":
    """The BENCH_<n>.json of `names` with the largest n, leaving out `out`."""
    numbered = [(int(m[1]), name) for name in names
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(name)))
                and os.path.abspath(os.path.join(ROOT, name)) != os.path.abspath(out)]
    return max(numbered)[1] if numbered else None


def check_schema(doc: dict) -> None:
    """Raise ValueError naming the first top-level field or run record of
    a BENCH file that is missing or of the wrong form. The sides and
    compare blocks are summarize()'s of the runs."""
    def need(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"BENCH file: {what}")

    need(isinstance(doc, dict) and doc.get("schema") == SCHEMA, f"'schema' must be {SCHEMA}")
    for side in SIDES:
        commit = doc.get(side, {}).get("commit") if isinstance(doc.get(side), dict) else None
        need(isinstance(commit, str) and len(commit) == 40, f"'{side}.commit' must be a full commit id")
    need(isinstance(doc.get("env"), dict) and "numpy" in doc["env"], "'env' must be run.py's env block")
    pairs = doc.get("pairs")
    need(isinstance(pairs, int) and not isinstance(pairs, bool) and pairs >= 2, "'pairs' must be >= 2")
    need(isinstance(doc.get("seeds"), list) and len(doc["seeds"]) == pairs, "'seeds' must hold one seed per pair")
    workloads = doc.get("workloads")
    need(isinstance(workloads, dict) and workloads, "'workloads' must be a non-empty object")
    names = set(end_to_end())
    for workload, block in workloads.items():
        for side in SIDES:
            runs = block.get("runs", {}).get(side) if isinstance(block, dict) else None
            need(isinstance(runs, list) and len(runs) == pairs, f"workload {workload!r} needs {pairs} {side} runs")
            for run in runs:
                need(isinstance(run, dict) and isinstance(run.get("correct"), bool)
                     and isinstance(run.get("failed"), int) and isinstance(run.get("metrics"), dict)
                     and set(run["metrics"]) == names
                     and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                             for v in run["metrics"].values()),
                     f"workload {workload!r} {side} run needs correct, failed and every end-to-end metric")


def export(rev: str, directory: str) -> str:
    """The full commit id of rev; its committed files are written to directory."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return commit


def run_once(directory: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench/run.py run: its env block and its run record."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=directory, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py {workload} seed {seed} in {directory} exited {done.returncode}:\n{done.stderr}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return details["env"], {"seed": seed, "correct": result["correct"], "failed": result["failed"],
                            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = benchmark()
    workloads, seconds = [w["name"] for w in bench["workloads"]], bench["run_seconds"]
    metrics = end_to_end()
    dirs = {side: os.path.join(BUILD_DIR, side) for side in SIDES}
    commits = {side: export(getattr(args, side), dirs[side]) for side in SIDES}
    seeds = [args.seed + k for k in range(PAIRS)]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    env = None
    try:
        for k, seed in enumerate(seeds):
            for workload in workloads:
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    run_env, record = run_once(dirs[side], workload, seed, seconds)
                    runs[workload][side].append(record)
                    env = env or {key: v for key, v in run_env.items() if key not in ("git_commit", "seed")}
                    print(f"pair {k} {workload} {side}: {json.dumps(record['metrics'])}", file=sys.stderr)
    finally:
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
    doc = {"schema": SCHEMA, "parent": {"commit": commits["parent"]}, "change": {"commit": commits["change"]},
           "command": bench["command"], "seconds": seconds, "pairs": PAIRS, "seeds": seeds, "env": env,
           "workloads": {w: {"runs": runs[w], **summarize(runs[w], metrics)} for w in workloads}}
    check_schema(doc)
    committed = subprocess.run(["git", "ls-files", "BENCH_*.json"], cwd=ROOT, check=True, capture_output=True,
                               text=True).stdout.split()
    name = newest_bench(committed, args.out)
    if name is None:
        print("no 'previous' block: no BENCH file is committed", file=sys.stderr)
    else:
        with open(os.path.join(ROOT, name)) as fh:
            block = previous_block(doc, json.load(fh), name)
        if block is not None:
            doc["previous"] = block
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
