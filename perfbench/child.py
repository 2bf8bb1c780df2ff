"""One workload run in a fresh interpreter, started by ``run.py``.

Phases:

* ``warm``   import ``rsgd`` once so that bytecode caches exist; untimed.
* ``setup``  set the workload up; report ``setup_s``, the CPU time of this
             process from its start to the end of set-up, and three
             machine-speed probes (``calibrate.py``) made right after.
* ``run``    set up, run timed rounds with a probe before the first round
             and after each one until ``--seconds`` of wall time have
             passed, check the outputs, and report every round and probe.

Every time is CPU time of this process (``time.process_time``), which other
processes on the machine do not inflate; ``run.py`` scales it by the probes.

``peak_rss_mib`` is ``ru_maxrss`` read right after the first round: set-up
plus one round of the workload.  Later rounds repeat the same work, yet the
allocator's heap grows slowly over them (84.0 MiB after one round of
``sphere_lockstep``, 86.8 after eight), which would tie the figure to how
many rounds the machine's speed allowed.  Reading it there also keeps the
benchmark's own reference computations, made after the rounds, out of it.

The last line of standard output is one JSON object.  A failed check ends
the run with exit code 1 and ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate  # sibling module; this file's directory is sys.path[0]


def _import_rsgd(root: Path):
    sys.path.insert(0, str(root / "src"))
    import rsgd

    where = Path(rsgd.__file__).resolve()
    if (root / "src") not in where.parents:
        raise SystemExit(f"rsgd imported from {where}, not from {root / 'src'}")
    return rsgd


def _timed_rounds(wl, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` of wall time have passed, and the
    probes around them: round i lies between probes i and i+1.  The checks
    of each round's outputs run after its closing probe and are not timed."""
    rounds, probes = [], [calibrate.probe()]
    end = time.monotonic() + seconds
    while time.monotonic() < end or not rounds:
        if tracer is not None:
            tracer.enabled = True
        start = time.process_time()
        rnd = wl.round()
        cpu = time.process_time() - start
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.enabled = False
        probes.append(calibrate.probe())
        wl.verify_round()
        rounds.append({"cpu_s": cpu, "run_s": rnd.run_s, "seed_steps": rnd.seed_steps,
                       "ops": rnd.ops, "failed": rnd.failed, "rss_mib": rss_mib})
    return rounds, probes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--phase", choices=("warm", "setup", "run"), required=True)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(args.work)
    if args.phase == "warm":
        _import_rsgd(args.root)
        print("{}")
        return 0

    import reference
    import workloads

    manifest = json.loads(Path("manifest.json").read_text())
    wl = workloads.WORKLOADS[args.workload](manifest, Path("."))
    tracer = None
    _import_rsgd(args.root)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    wl.setup()
    setup_s = time.process_time()
    if tracer is not None:
        tracer.enabled = False
        tracer.unpatch()
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s,
                          "probes": [calibrate.probe() for _ in range(3)]}))
        return 0

    result = {"setup_s": setup_s, "correct": True}
    try:
        if tracer is None:
            result["rounds"], result["probes"] = _timed_rounds(wl, args.seconds)
        else:
            plain, _ = _timed_rounds(wl, args.seconds / 2)
            tracer.install()
            traced, _ = _timed_rounds(wl, args.seconds / 2, tracer)
            tracer.unpatch()
            result["rounds"] = plain + traced
            result["per_layer"] = tracing.layer_metrics(
                tracer, [r["cpu_s"] for r in traced], [r["cpu_s"] for r in plain])
            results = Path(manifest["results_dir"])
            tracer.write(results / f"trace-{args.workload}-s{manifest['seed']}.npz")
        result["peak_rss_mib"] = result["rounds"][0]["rss_mib"]
        wl.verify_outputs()
    except reference.CheckFailed as exc:
        result["correct"] = False
        result["error"] = str(exc)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
