#!/usr/bin/env python3
"""Build and run the SDC end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train_step --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload
    python3 perfbench/run.py compare A.json B.json       # stamped comparison

The benchmark binary is built from source (`perfbench/Cargo.toml`, a
workspace of its own) into `$CARGO_TARGET_DIR`, default `.bench_build`.
Every run uses `SDC_THREADS=2` with `SDC_OBS`/`SDC_TRACE` at their shipped
defaults, prints a report, writes its stamped result and (when traced) a
Chrome trace under `perfbench/out/`, and ends with one JSON result line.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("train_step", "round4", "remote_score")
THREADS = "2"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Stamp fields that must match before two results are compared.
HOST_FIELDS = ("nproc", "isa", "sdc_threads")
# Share of CPU time stolen by a VM's host above which a run's times are
# flagged as disturbed.
STEAL_WARN = 0.02


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return target_dir() / "release" / "perfbench"


def source_revision():
    """The git revision when the checkout is a git repository, otherwise a
    hash of every source file the benchmark builds from."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for top in (ROOT / "crates", ROOT / "src", BENCH / "src"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(Path(dirpath) / f for f in sorted(filenames))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def run_one(binary, workload, seed, seconds, trace, rev):
    """Runs one workload, echoing its output; returns its exit code."""
    env = dict(os.environ, SDC_THREADS=THREADS)
    env.pop("SDC_OBS", None)
    env.pop("SDC_TRACE", None)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rev", rev, "--out", str(BENCH / "out")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def compare(a_path, b_path):
    """Prints B against A per metric; refuses results from different hosts
    or settings, or of different workloads or modes."""
    a, b = load(a_path), load(b_path)
    diffs = [f"{k}: {a['stamp'][k]} vs {b['stamp'][k]}"
             for k in HOST_FIELDS if a["stamp"][k] != b["stamp"][k]]
    diffs += [f"{k}: {a[k]} vs {b[k]}" for k in ("workload", "trace") if a[k] != b[k]]
    if diffs:
        print("refusing to compare: " + "; ".join(diffs))
        return 1
    print(f"{a['workload']} (trace {a['trace']}): A = {a['stamp']['rev']} seed {a['seed']}, "
          f"B = {b['stamp']['rev']} seed {b['seed']}")
    for label, r in (("A", a), ("B", b)):
        if r.get("steal_frac", 0) > STEAL_WARN:
            print(f"warning: {label} lost {r['steal_frac']:.1%} of its CPU time to the host")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = f"{vb / va:8.4f}" if va else "     n/a"
        print(f"  {name:<32} {va:>14.4f} {vb:>14.4f} {ratio}  {ma[name]['unit']}")
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description="SDC end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    binary = build()
    if binary is None:
        return 1
    log(f"built in {time.monotonic() - started:.1f} s")
    rev = source_revision()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        code = run_one(binary, workload, args.seed, args.seconds, args.trace, rev)
        if code != 0:
            log(f"{workload} exited with code {code}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
