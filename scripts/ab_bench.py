#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark between two git refs.

    python3 scripts/ab_bench.py <base-ref> [<head-ref>] --workload W \\
        --seeds 1 2 3 4 [--seconds S] [--workdir DIR] [--json OUT]

Each ref is exported (`git archive`) into its own directory under
--workdir and built there by its own perfbench/run.py. Without
<head-ref> the head side is the current checkout, uncommitted changes
included. For every seed the two sides run back to back as one pair,
and the side that goes first alternates from pair to pair, so slow
phases of a shared host fall on both sides alike.

For each end-to-end metric of BENCHMARK.json the script prints the
median of the per-pair ratios head/base, the pairs head won, and each
side's median and interquartile range. It exits 1 when a run fails or
prints no result, and 2 when a metric's paired median ratio is worse
than the metric's BENCHMARK.json bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export_ref(ref, workdir):
    """Directory holding the tree of `ref`; exported once per commit."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    path = os.path.join(workdir, sha[:12])
    if not os.path.isdir(os.path.join(path, "perfbench")):
        os.makedirs(path, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {ref} failed")
    return path, sha[:12]


def run_once(tree, workload, seed, seconds):
    """Metrics dict of one untraced run, or None when it fails."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", help="default: the current checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "mar_ab_bench"))
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    base_tree, base_name = export_ref(args.base, args.workdir)
    if args.head:
        head_tree, head_name = export_ref(args.head, args.workdir)
    else:
        head_tree, head_name = ROOT, "checkout"

    runs = {"base": [], "head": []}
    for i, seed in enumerate(args.seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            tree = base_tree if side == "base" else head_tree
            metrics = run_once(tree, args.workload, seed, seconds)
            if metrics is None:
                print(f"ab_bench: {side} run failed at seed {seed}", file=sys.stderr)
                return 1
            runs[side].append(metrics)
            print(f"pair {i + 1} seed {seed} {side}: " +
                  " ".join(f"{k}={v:.4g}" for k, v in sorted(metrics.items())), flush=True)

    print(f"\n{args.workload}: base {base_name} vs head {head_name}, "
          f"{len(args.seeds)} pairs, {seconds:g} s per run")
    print(f"{'metric':22} {'ratio':>7} {'won':>5}   {'base median [IQR]':>26}   "
          f"{'head median [IQR]':>26}")
    regressed = []
    for m in bench["end_to_end"]:
        name = m["name"]
        if not all(name in r for r in runs["base"] + runs["head"]):
            continue
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        lower = m["better"] == "lower"
        ratios = [h / b for b, h in zip(base, head) if b != 0]
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        ratio = statistics.median(ratios) if ratios else float("nan")
        bq, hq = quartiles(base), quartiles(head)
        print(f"{name:22} {ratio:7.3f} {won:2d}/{len(base):<2d}   "
              f"{statistics.median(base):10.4g} [{bq[0]:.4g}, {bq[1]:.4g}]   "
              f"{statistics.median(head):10.4g} [{hq[0]:.4g}, {hq[1]:.4g}]")
        if ratios and (ratio > 1 + m["bound"] if lower else ratio < 1 - m["bound"]):
            regressed.append(name)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                       "base": base_name, "head": head_name, "runs": runs}, f, indent=1)
    if regressed:
        print("ab_bench: paired median beyond the BENCHMARK.json bound: " + ", ".join(regressed),
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
