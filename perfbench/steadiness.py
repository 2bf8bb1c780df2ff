#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread, or
compare two source trees in alternating runs.

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]
    python3 perfbench/steadiness.py --against BASE [--workload NAME ...] [--seeds 1-10]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints per metric the median, the quartiles (``statistics.quantiles(n=4)``),
the quartile distance as a share of the median, and that share against the
metric's bound from BENCHMARK.json.  Also prints the failed share of
attempted operations per run, which must be identical across runs.

``--against BASE`` names a second source tree, say the parent commit
unpacked with ``git archive``; it must hold ``BENCHMARK.json`` and
``perfbench/`` (copy them in if it predates them).  Each (workload, seed)
is then run in both trees back to back, BASE first on odd seeds and this
tree first on even ones, so that a change in the machine's speed during
the comparison falls on both sides alike.  Per metric it prints both
medians, by how much this tree's median is worse than BASE's, the median
of the per-seed paired shares, and in how many pairs this tree did better,
against the bound.  Runs made at
different times cannot be compared: the machine's speed drifts by far more
than the bounds over an hour.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=tree, timeout=200)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["seed"], res["exit"] = seed, proc.returncode
    print(f"{tree} {workload} seed {seed}: exit {proc.returncode} "
          f"failed {res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
    return res


def _spread_table(label: str, results: list[dict], bounds: dict) -> None:
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"\n{label}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
          f"failed shares {shares}")
    print(f"  {'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} bound")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        print(f"  {name:<48} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.4f} "
              f"{'' if bound is None else bound}")


def _worse(base: float, new: float, better: str) -> float:
    if not base:  # a per-layer figure of a layer the workload never calls
        return 0.0 if new == base else float("nan")
    return (base - new) / base if better == "higher" else (new - base) / base


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    this, base = {}, {}
    for w in args.workload:
        this[w], base[w] = [], []
        for seed in args.seeds:
            if args.against is None:
                this[w].append(_run(ROOT, w, seed, args.trace))
            elif seed % 2:
                base[w].append(_run(args.against.resolve(), w, seed, args.trace))
                this[w].append(_run(ROOT, w, seed, args.trace))
            else:
                this[w].append(_run(ROOT, w, seed, args.trace))
                base[w].append(_run(args.against.resolve(), w, seed, args.trace))

    for w in args.workload:
        if args.against is not None:
            _spread_table(f"{w} (base)", base[w], bounds)
        _spread_table(w, this[w], bounds)
    if args.against is None:
        return 0
    print(f"\n{'workload':<16} {'metric':<20} {'base':>12} {'this':>12} {'worse by':>9} "
          f"{'paired':>9} {'wins':>5} bound")
    for w in args.workload:
        for name in this[w][0]["metrics"]:
            a, b = ([r["metrics"][name]["value"] for r in rs] for rs in (base[w], this[w]))
            worse = _worse(statistics.median(a), statistics.median(b), better[name])
            shares = [_worse(x, y, better[name]) for x, y in zip(a, b)]
            wins = sum(v < 0 for v in shares)
            print(f"{w:<16} {name:<20} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {worse:>9.4f} "
                  f"{statistics.median(shares):>9.4f} {wins:>2}/{len(shares):<2} "
                  f"{bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
