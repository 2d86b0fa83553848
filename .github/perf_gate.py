#!/usr/bin/env python3
"""Same-runner A/B gate on the end-to-end benchmark.

    python3 .github/perf_gate.py <base-tree>

<base-tree> is a checkout of the base commit; CI adds it as a git
worktree at HEAD^1. The gate copies this checkout's `perfbench/` and
`BENCHMARK.json` over the base tree's, so both sides run the same
benchmark code. Each tree builds into its own target directory. For
seeds 1..5 the gate runs `perfbench/run.py --workload all` once per side,
alternating which side goes first, and reads every result file.

It fails (exit 1) when, on any workload, the change's median of an
`end_to_end` metric of BENCHMARK.json is worse than the base's median by
more than that metric's bound, when a change result is not `correct`,
when the change fails a larger share of its operations than the base, or
when a run, a result file or a metric is missing. It never abstains.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 10


def sync_benchmark(base):
    """Replaces the base tree's benchmark code with this tree's."""
    shutil.rmtree(base / "perfbench", ignore_errors=True)
    shutil.copytree(CHANGE / "perfbench", base / "perfbench",
                    ignore=shutil.ignore_patterns("target", "out", "__pycache__"))
    shutil.copy2(CHANGE / "BENCHMARK.json", base / "BENCHMARK.json")


def run_side(tree, seed, workloads):
    """Runs every workload once in `tree`. Returns run.py's exit code and
    each workload's result file, None where it is missing or unreadable."""
    paths = {w: tree / "perfbench" / "out" / f"{w}-seed{seed}-trace0.json" for w in workloads}
    for path in paths.values():
        path.unlink(missing_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(SECONDS)]
    code = subprocess.run(cmd, cwd=tree, env=env, stdout=sys.stderr).returncode
    results = {}
    for w, path in paths.items():
        try:
            results[w] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            results[w] = None
    return code, results


def metric(result, name):
    return result["result"]["metrics"].get(name, {}).get("value")


def describe(result, names):
    """One run's end-to-end values and failure count, or "missing"."""
    if result is None:
        return "missing"
    values = {n: metric(result, n) for n in names}
    shown = " ".join(f"{n}=missing" if v is None else f"{n}={v:.4g}" for n, v in values.items())
    return f"{shown} failed={result['result']['failed']}/{result['result']['attempted']}"


def failed_share(results):
    attempted = sum(r["result"]["attempted"] for r in results)
    return sum(r["result"]["failed"] for r in results) / max(attempted, 1)


def decide(spec, base, change):
    """Applies the gate's rules. `base` and `change` map each workload to
    its results, one per run, None for a missing result file. Returns the
    failures and one table row (workload, metric, base median, change
    median, ratio, bound) per metric both sides measured."""
    failures, rows = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"base": base.get(workload, []), "change": change.get(workload, [])}
        for side, runs in sides.items():
            missing = sum(r is None for r in runs) if runs else 1
            if missing:
                failures.append(f"{workload}: {missing} {side} result(s) missing")
        b_runs = [r for r in sides["base"] if r is not None]
        c_runs = [r for r in sides["change"] if r is not None]
        if not b_runs or not c_runs:
            continue
        if not all(r["result"]["correct"] for r in c_runs):
            failures.append(f"{workload}: a change result is not correct")
        if failed_share(c_runs) > failed_share(b_runs):
            failures.append(f"{workload}: failed share {failed_share(c_runs):.4f} "
                            f"exceeds the base's {failed_share(b_runs):.4f}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = {"base": [metric(r, name) for r in b_runs],
                      "change": [metric(r, name) for r in c_runs]}
            gaps = [side for side, vals in values.items() if None in vals]
            if gaps:
                failures.append(f"{workload} {name}: missing from a {' and a '.join(gaps)} result")
                continue
            b, c = statistics.median(values["base"]), statistics.median(values["change"])
            worse = c - b if m["better"] == "lower" else b - c
            ratio = c / b if b else float("nan")
            rows.append((workload, name, b, c, ratio, bound))
            if worse > bound * abs(b):
                failures.append(f"{workload} {name}: change median {c:.4g} vs base {b:.4g} "
                                f"(ratio {ratio:.3f}) is worse by more than its bound {bound}")
    return failures, rows


def main(argv):
    if len(argv) != 1:
        print("usage: perf_gate.py <base-tree>", file=sys.stderr)
        return 2
    base_tree = Path(argv[0]).resolve()
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]
    sync_benchmark(base_tree)
    trees = {"base": base_tree, "change": CHANGE}
    results = {side: {w: [] for w in workloads} for side in trees}
    run_failures = []
    for seed in SEEDS:
        order = ("base", "change") if seed % 2 else ("change", "base")
        for side in order:
            code, got = run_side(trees[side], seed, workloads)
            if code != 0:
                run_failures.append(f"{side} seed {seed}: run.py exited with code {code}")
            for w in workloads:
                results[side][w].append(got[w])
                print(f"seed {seed} {side:<6} {w:<12} {describe(got[w], names)}", flush=True)
    failures, rows = decide(spec, results["base"], results["change"])
    failures = run_failures + failures
    print(f"\n{'workload':<12} {'metric':<14} {'base':>12} {'change':>12} {'ratio':>7} bound")
    for workload, name, b, c, ratio, bound in rows:
        print(f"{workload:<12} {name:<14} {b:>12.4f} {c:>12.4f} {ratio:>7.3f} {bound}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("perf gate: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
