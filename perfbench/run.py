#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of rsgd.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the root of a source checkout.  For each workload the inputs are
generated from the seed into ``perfbench/_work/``, then every measurement
runs in a fresh interpreter (``child.py``), one at a time: an untimed warm-up
import, set-up samples, and the measured run, which measures for
BENCHMARK.json's ``run_seconds``.  Times are CPU times scaled by the
machine-speed probe of ``calibrate.py`` to what they would read at the
probe's nominal speed.  ``--seconds`` is accepted because the
calling convention of BENCHMARK.json benchmarks passes the run length; any
value other than ``run_seconds`` is refused, so that every run of the
benchmark measures for the same time.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload and reports each metric as ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "_work"

import inputs  # noqa: E402  (sibling modules; HERE is sys.path[0])
from calibrate import NOMINAL_S  # noqa: E402

# set-up is measured in this many fresh interpreters (the set-up samples
# plus the measured run) and reported as their median
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PROBE_TIMEOUT_S = 40.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "rsgd").glob("*.py")) + [HERE / "inputs.py",
                                                          HERE / "workloads.py"]:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _child(workload: str, phase: str, work: Path, args, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # one process, no extra threads: keep BLAS from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # numpy asks for transparent huge pages on large arrays; whether the host
    # has free 2 MiB pages at the time moved peak RSS by 4 MiB between runs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--phase", phase,
           "--root", str(ROOT), "--work", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, timeout))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} {phase}: no output (exit {proc.returncode})")
    out = json.loads(lines[-1])
    if proc.returncode != 0 and out.get("correct", True):
        raise RuntimeError(f"{workload} {phase}: exit {proc.returncode}")
    return out


def run_workload(workload: str, args, deadline: float) -> dict:
    """Measure one workload; returns the result object of the contract."""
    work = WORK / f"{workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = inputs.generate(workload, args.seed, work)
        manifest["results_dir"] = str(RESULTS)
        manifest["source_digest"] = _source_digest()
        (work / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))

        def left():
            return deadline - time.monotonic()

        _child(workload, "warm", work, args, min(PROBE_TIMEOUT_S, left()))
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_child(workload, "setup", work, args,
                                     min(PROBE_TIMEOUT_S, left())))
        out = _child(workload, "run", work, args, left())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = out.get("rounds", [])
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if not out["correct"]:
        print(f"{workload}: check failed: {out.get('error')}", file=sys.stderr)
        return {"correct": False, "attempted": max(1, attempted), "failed": failed,
                "metrics": {}}
    spec = _spec()
    if args.trace:
        values = out["per_layer"]
        listed = spec["per_layer"]
    else:
        # the measured run's first probe follows its set-up directly
        measured = {"setup_s": out["setup_s"], "probes": out["probes"][:1]}
        values = _scaled(rounds, out["probes"], setups + [measured])
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def _scaled(rounds: list, probes: list, setups: list) -> dict:
    """End-to-end metrics at the probe's nominal speed.  Round i is scaled
    by the mean of the probes just before and after it, each set-up by the
    median of the probes made right after it; medians over rounds and over
    set-ups.  The median slowdown is printed to standard error."""
    slow = [(a + b) / (2 * NOMINAL_S) for a, b in zip(probes, probes[1:])]
    setup_slow = [statistics.median(s["probes"]) / NOMINAL_S for s in setups]
    print(f"  median slowdown: rounds {statistics.median(slow):.4f}, "
          f"set-ups {statistics.median(setup_slow):.4f}", file=sys.stderr)
    return {
        "seed_steps_per_s": statistics.median(
            r["seed_steps"] / r["run_s"] * k for r, k in zip(rounds, slow)),
        "round_s": statistics.median(r["cpu_s"] / k for r, k in zip(rounds, slow)),
        "setup_s": statistics.median(s["setup_s"] / k for s, k in zip(setups, setup_slow)),
        "peak_rss_mib": rounds[0]["rss_mib"],
    }


def main() -> int:
    spec = _spec() if (ROOT / "BENCHMARK.json").is_file() else {"workloads": []}
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rsgd" / "__init__.py").is_file() or not names:
        print(f"no rsgd source tree with BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"--seconds {args.seconds:g}: this benchmark measures for run_seconds = "
              f"{spec['run_seconds']} of BENCHMARK.json", file=sys.stderr)
        return 2
    args.seconds = spec["run_seconds"]
    RESULTS.mkdir(exist_ok=True)

    start = time.monotonic()
    chosen = names if args.workload == "all" else [args.workload]
    # a single workload must finish inside the per-command limit; ``all``
    # gives each workload the same allowance
    results = {w: run_workload(w, args, start + DEADLINE_S * (i + 1))
               for i, w in enumerate(chosen)}

    for w, res in results.items():
        print(f"{w}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
