#!/usr/bin/env python3
"""Fail unless every BENCH_<n>.json at the repository root is complete and
shows neither a regression beyond a bound nor an unsupported gain claim.

    python ci/check_bench.py

A perf change commits a ``BENCH_<n>.json`` with the before and after numbers
of ``perfbench/steadiness.py --against <parent tree>``.  Each file must hold:

* ``seeds``: the list of benchmark seeds that were run in pairs;
* ``machine``: a non-empty object describing where it ran (at least
  ``cpus``, ``python`` and ``numpy``);
* ``workloads``: for every workload of ``BENCHMARK.json`` and every one of
  its end-to-end metrics, an object with ``parent`` and ``change`` objects
  that each hold a finite, positive ``median``, plus ``pairs`` (the number
  of alternating pairs) and ``wins`` (how many of them the change won), with
  0 <= wins <= pairs.

Each change median may be worse than its parent median by at most the
metric's ``bound`` in ``BENCHMARK.json`` (relative, in the metric's
``better`` direction).  A file with a ``claim`` (``workload``, ``metric``)
must show that the change median is better, that the claimed entry ran at
least 10 pairs and the change won at least 9 of every 10 of them, and that
the medians lie further apart than the parent's quartile distance
``q3 - q1``.

Exits 0 when at least one such file exists and all of them pass; otherwise
prints each problem and exits 1.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE_KEYS = ("cpus", "python", "numpy")
# a claim needs this many alternating pairs: fewer cannot show 9 wins in 10
MIN_CLAIM_PAIRS = 10


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def worse_by(metric: dict, parent: float, change: float) -> float:
    """Relative loss of the change against the parent; negative is a gain."""
    ratio = change / parent
    return ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio


def problems(bench: dict, spec: dict) -> list[str]:
    """What one BENCH file lacks or shows against the benchmark declaration."""
    out = []
    seeds = bench.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        out.append("no list of seeds")
    machine = bench.get("machine")
    if not isinstance(machine, dict) or not machine:
        out.append("no machine block")
    else:
        out += [f"machine block lacks {key!r}" for key in MACHINE_KEYS if key not in machine]
    workloads = bench.get("workloads")
    if not isinstance(workloads, dict):
        return out + ["no workloads object"]
    complete = {}
    for w in spec["workloads"]:
        metrics = workloads.get(w["name"])
        if not isinstance(metrics, dict):
            out.append(f"workload {w['name']} missing")
            continue
        for m in spec["end_to_end"]:
            where = f"{w['name']}.{m['name']}"
            entry = metrics.get(m["name"])
            if not isinstance(entry, dict):
                out.append(f"{where} missing")
                continue
            medians = [(entry.get(side) or {}).get("median") for side in ("parent", "change")]
            for side, median in zip(("parent", "change"), medians):
                if not (_is_number(median) and median > 0):
                    out.append(f"{where}: no positive {side} median")
            pairs, wins = entry.get("pairs"), entry.get("wins")
            if not (isinstance(pairs, int) and isinstance(wins, int) and 0 <= wins <= pairs
                    and pairs > 0):
                out.append(f"{where}: pairs {pairs!r} and wins {wins!r} do not fit")
            elif all(_is_number(v) and v > 0 for v in medians):
                complete[w["name"], m["name"]] = entry
                loss = worse_by(m, *medians)
                if loss > m["bound"]:
                    out.append(f"{where}: change worse by {loss:.1%}, bound {m['bound']:.0%}")

    claim = bench.get("claim")
    if claim is not None:
        key = (claim.get("workload"), claim.get("metric")) if isinstance(claim, dict) else None
        entry = complete.get(key)
        if entry is None:
            return out + [f"claim {key!r} names no complete workload metric"]
        metric = next(m for m in spec["end_to_end"] if m["name"] == key[1])
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        where = f"claim {key[0]}.{key[1]}"
        if worse_by(metric, parent, change) >= 0:
            out.append(f"{where}: change median {change:g} is not better than {parent:g}")
        if entry["pairs"] < MIN_CLAIM_PAIRS:
            out.append(f"{where}: {entry['pairs']} pairs, a claim needs at least {MIN_CLAIM_PAIRS}")
        if 10 * entry["wins"] < 9 * entry["pairs"]:
            out.append(f"{where}: won {entry['wins']} of {entry['pairs']} pairs, below 9 in 10")
        q1, q3 = entry["parent"].get("q1"), entry["parent"].get("q3")
        if not (_is_number(q1) and _is_number(q3)):
            out.append(f"{where}: no parent quartiles")
        elif abs(change - parent) <= q3 - q1:
            out.append(f"{where}: medians {abs(change - parent):g} apart, within the "
                       f"parent's quartile distance {q3 - q1:g}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    files = sorted(ROOT.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json at the repository root")
        return 1
    failed = False
    for path in files:
        try:
            bench = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            found = [f"not JSON ({exc})"]
        else:
            found = problems(bench, spec) if isinstance(bench, dict) else ["not a JSON object"]
        for text in found:
            print(f"{path.name}: {text}")
        failed |= bool(found)
        if not found:
            print(f"{path.name}: passes")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
