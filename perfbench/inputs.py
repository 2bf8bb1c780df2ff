"""Seeded input generation for the three workloads.

Everything a workload feeds to ``rsgd`` is derived here from the workload
seed and written into the run's work directory before any set-up timing
starts: data CSVs, the INI config and a ``manifest.json`` with the scalar
inputs (start points, run seeds, sizes).  The same seed gives byte-identical
files.  This module uses numpy only and never imports ``rsgd``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Sizes of each workload.  They are part of the benchmark's definition: a
# change to any of them is a change of benchmark, not of program.
SPHERE = {"dim": 4, "n_outcomes": 16, "batch": 4, "seeds": 100, "horizon": 1000,
          "geometric_horizon": 1800, "check_seeds": 8, "check_horizon": 200,
          "draw_seeds": 20_000}
LSQ = {"dim": 8, "n_outcomes": 100_000, "batch": 8, "seeds": 4, "horizon": 30,
       "tau": 0.1, "c": 0.5, "p": 0.6}
CLI = {"dim": 4, "n_outcomes": 16, "batch": 4, "seeds": 32, "horizon": 4000,
       "tau": 0.2, "c": 0.5, "p": 0.75}


def _write_rows(path: Path, header: list[str], rows: np.ndarray) -> None:
    # %.17g round-trips every float64 exactly
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt((v * v).sum(axis=-1, keepdims=True))


def sphere_lockstep(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    d, n = SPHERE["dim"], SPHERE["n_outcomes"]
    # targets cluster around a random pole so that the target mean is far from
    # zero and every seed's problem converges within the horizon
    pole = _unit(rng.normal(size=d))
    targets = _unit(pole + 0.6 * rng.normal(size=(n, d)))
    _write_rows(work / "targets.csv", [f"a{i}" for i in range(d)], targets)
    # start orthogonal to the target mean: the gradient norm is largest there
    abar = targets.mean(axis=0)
    r = rng.normal(size=d)
    r -= (r @ abar) / (abar @ abar) * abar
    x0 = _unit(r)
    probe = _unit(rng.normal(size=d))
    return {"x0": x0.tolist(), "probe_point": probe.tolist(),
            "run_seed": int(seed) * 1000, **SPHERE}


def lsq_large_n(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    d, n = LSQ["dim"], LSQ["n_outcomes"]
    a = rng.normal(size=(n, d))
    x_true = rng.normal(size=d)
    y = a @ x_true + 0.5 * rng.normal(size=n)
    _write_rows(work / "rows.csv", [f"a{i}" for i in range(d)] + ["y"],
                np.column_stack([a, y]))
    x0 = rng.normal(size=d)
    return {"x0": x0.tolist(), "run_seed": int(seed) * 1000, **LSQ}


def cli_session(seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    d, n, tau = CLI["dim"], CLI["n_outcomes"], CLI["tau"]
    a = _unit(rng.normal(size=(n, d)))
    y = rng.normal(size=n)
    _write_rows(work / "rows.csv", [f"a{i}" for i in range(d)] + ["y"],
                np.column_stack([a, y]))
    # rho(x0) = ||x0||^2 must not exceed rho0 = max y^2 / (4 tau)
    rho0 = float((y * y).max() / (4.0 * tau))
    x0 = _unit(rng.normal(size=d)) * np.sqrt(0.5 * min(1.0, rho0))
    rho1 = 4.0 * rho0
    run_seed = int(seed) * 1000
    ini = f"""[problem]
kind = least_squares
csv = rows.csv
tau = {tau!r}
rho1 = {rho1!r}

[plan]
scheme = segment
batch_size = {CLI["batch"]}

[rate]
kind = power
c = {CLI["c"]!r}
p = {CLI["p"]!r}

[confinement]
enabled = true
variant = plain
rho0 = auto
lambda = 1.0
b = auto
theta = 1.0
samples = 2000

[run]
horizon = {CLI["horizon"]}
seeds = {CLI["seeds"]}
seed = {run_seed}
x0 = {", ".join(repr(float(v)) for v in x0)}
"""
    (work / "session.ini").write_text(ini)
    return {"x0": x0.tolist(), "rho1_declared": rho1, "run_seed": run_seed, **CLI}


GENERATORS = {"sphere_lockstep": sphere_lockstep, "lsq_large_n": lsq_large_n,
              "cli_session": cli_session}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files into ``work``; return its manifest."""
    work.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](seed, work)
    manifest["seed"] = int(seed)
    return manifest
