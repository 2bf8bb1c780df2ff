"""The three workloads: set-up, one timed round, and the checks on its outputs.

A workload object lives in the child interpreter that runs it.  ``setup``
imports ``rsgd`` and builds the problem, plans and configs from the generated
inputs; ``round`` performs the same operations every time it is called and
returns their counts and run-call timings.  ``verify_round`` runs between
rounds and keeps to light checks; ``verify_outputs`` runs once after the
rounds, so the memory of the benchmark's own reference computations never
counts in the peak RSS, which is read right after the first round.  Both compare the program's
outputs with ``reference`` and raise ``CheckFailed`` on any disagreement.
Only ``round`` is timed.

Every call into ``rsgd`` inside ``round`` goes through a module attribute
(``rsgd.driver.run_many``, ``rsgd.diagnostics.convergence_metrics``, ...)
looked up at call time, so the traced mode can wrap it.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference as ref
from reference import require

clock = time.process_time  # CPU time; see calibrate.py


@dataclass
class Round:
    """Counts and run-call time of one round."""

    ops: int = 0
    failed: int = 0
    seed_steps: int = 0
    run_s: float = 0.0


def _trajectory_arrays(tr):
    return (tr.F, tr.grad_norm, tr.step, tr.batch_size, tr.batch_grad_norm, tr.noise_inner)


class SphereLockstep:
    """README problem shape (sphere mean, d=4, N=16, b=4) at S=100 under the
    three schemes and both rate rules, then the verification pass of the
    analysis, plus one single-seed run with geometric batch growth."""

    schemes = ("segment", "no_repetition", "stratified")
    rate_rules = ("power", "adaptive")

    def __init__(self, manifest: dict, work: Path):
        self.m = manifest
        self.work = work
        self.digest = None
        self.kept_rows = {}

    def setup(self):
        import rsgd

        m = self.m
        self.rsgd = rsgd
        self.problem = rsgd.load_sphere_mean_csv(self.work / "targets.csv")
        space, b, n = self.problem.space, m["batch"], m["n_outcomes"]
        self.strata = [(tuple(range(n // 2)), b // 2), (tuple(range(n // 2, n)), b - b // 2)]
        self.plans = {
            "segment": rsgd.SegmentPlan(space, rsgd.BatchSizes.constant(b)),
            "no_repetition": rsgd.SubsetPlan(space, rsgd.BatchSizes.constant(b)),
            "stratified": rsgd.StratifiedPlan(space, [s for s, _ in self.strata],
                                              [c for _, c in self.strata]),
        }
        self.rates = {"power": rsgd.PowerLawSchedule(0.5, 0.75),
                      "adaptive": rsgd.AdaptiveRate(0.5, 1.0, 0.25)}
        x0 = np.array(m["x0"])
        self.cfgs = {
            (s, r): rsgd.RunConfig(oracle=self.problem, plan=self.plans[s], rate=self.rates[r],
                                   x0=x0, horizon=m["horizon"], seed=m["run_seed"])
            for s in self.schemes for r in self.rate_rules
        }
        # The geometric-growth run uses the README instance, which does not
        # depend on the workload seed, so it fails or succeeds on every seed.
        self.readme = rsgd.random_sphere_mean(4, 16, seed=25)
        self.readme_x0 = self.readme.manifold.random_point(np.random.default_rng(100))

    def round(self) -> Round:
        rsgd, m = self.rsgd, self.m
        rnd = Round()
        s_count = m["seeds"]
        self.reports = None  # free the previous round's outputs first
        self.results = {}
        for key, cfg in self.cfgs.items():
            start = clock()
            self.results[key] = rsgd.driver.run_many(cfg, s_count)
            rnd.run_s += clock() - start
            rnd.seed_steps += s_count * cfg.horizon
            rnd.ops += 1

        geometric = rsgd.RunConfig(
            oracle=self.readme, rate=self.rates["power"], x0=self.readme_x0,
            plan=rsgd.SegmentPlan(self.readme.space, rsgd.BatchSizes.geometric(1, 1.5, cap=16)),
            horizon=m["geometric_horizon"], seed=0)
        rnd.ops += 1
        try:
            self.geometric = rsgd.driver.run_deterministic(geometric)
        except OverflowError:
            rnd.failed += 1
            self.geometric = None

        diag = rsgd.diagnostics
        bound_a = self.problem.gradient_bound()
        lip = diag.estimate_lipschitz(self.problem, bound_a, 10_000, seed=m["run_seed"])
        sigma = rsgd.schedules.sum_of_squares(self.rates["power"])
        rnd.ops += 2
        self.reports = {}
        for key, trs in self.results.items():
            descent = [diag.check_descent_inequality(tr, lip.c1, margin=1.2, slack=1e-9)
                       for tr in trs]
            traces = [diag.track_martingale(tr) for tr in trs]
            summary = None
            if key[1] == "power":
                summary = diag.martingale_summary(traces, bound_a, sigma)
                rnd.ops += 1
            conv = diag.convergence_metrics(trs)
            rnd.ops += 2 * len(trs) + 1
            self.reports[key] = (descent, summary, conv)
        return rnd

    def verify_round(self):
        m = self.m
        for key, (descent, summary, conv) in self.reports.items():
            bad = [r.witness for r in descent if not r.passed]
            require(not bad, f"{key}: descent inequality violated: {bad[:1]}")
            if summary is not None:
                require(summary["u_violations"] == 0, f"{key}: |u_t| exceeded 2 A^2")
            require(conv["all_ok"], f"{key}: statuses {set(conv['statuses'])}")
            g0 = float(np.mean([tr.grad_norm[0] ** 2 for tr in self.results[key]]))
            require(conv["mean_square_final"] <= 0.05 * g0,
                    f"{key}: mean ||grad F(x_T)||^2 = {conv['mean_square_final']:.3g} "
                    f"not far below its t=0 value {g0:.3g}")
        if self.geometric is not None:
            tr, t_max = self.geometric, m["geometric_horizon"]
            want = [min(16, math.floor(1.5 ** t)) if t < 20 else 16 for t in range(t_max)]
            require(tr.status == "ok" and list(tr.batch_size[:t_max]) == want,
                    "geometric run: batch sizes do not saturate at the cap")

        arrays = [a for key in self.cfgs for tr in self.results[key]
                  for a in _trajectory_arrays(tr)]
        digest = ref.digest_arrays(arrays)
        if self.digest is None:
            self.digest = digest
            # the last seed of each batch is rerun alone after the timed rounds
            for key, trs in self.results.items():
                self.kept_rows[(key, trs[-1].seed)] = [a.copy() for a in _trajectory_arrays(trs[-1])]
        require(digest == self.digest, "sphere: rounds of the same runs differ")

    def verify_outputs(self):
        rsgd, m = self.rsgd, self.m
        for (key, seed), rows in self.kept_rows.items():
            cfg = replace(self.cfgs[key], seed=seed)
            run = rsgd.run_adaptive if key[1] == "adaptive" else rsgd.run_deterministic
            alone = _trajectory_arrays(run(cfg))
            require(all(ref.bitwise_equal(a, b) for a, b in zip(alone, rows)),
                    f"{key}: seed {seed} run alone differs from its row in the batch")

        targets = ref.read_matrix(self.work / "targets.csv")
        n, b = m["n_outcomes"], m["batch"]
        x = np.array(m["probe_point"])
        table = self.problem.sample_gradients(x, np.arange(n))
        require(np.abs(table - ref.sphere_outcome_grads(targets, x)).max() <= 1e-14,
                "sphere: per-outcome gradients differ from proj_x(x - a_l)")
        exact = ref.sphere_grad(targets, x)
        draw_seeds = m["run_seed"] + np.arange(m["draw_seeds"])
        for scheme in self.schemes:
            plan = self.plans[scheme]
            idx, prob = ref.scheme_outcomes(scheme, n, b, self.strata)
            require(abs(prob.sum() - 1.0) <= 1e-12, f"{scheme}: enumeration misses batches")
            w = plan.weights_at(0)
            batch = (w[:, None] * self.problem.sample_gradients(x, idx)).sum(axis=-2)
            dev = float(np.linalg.norm((prob[:, None] * batch).sum(axis=0) - exact))
            require(dev <= 1e-10, f"{scheme}: enumerated expectation off by {dev:.3g}")

            # the program's own enumeration covers the same batches with the
            # same probabilities
            chunks = list(plan.iter_outcome_chunks(0))
            got_idx, got_prob = ref.sorted_outcomes(np.concatenate([c[0] for c in chunks]),
                                                    np.concatenate([c[1] for c in chunks]))
            want_idx, want_prob = ref.sorted_outcomes(idx, prob)
            require(got_idx.shape == want_idx.shape and np.array_equal(got_idx, want_idx)
                    and np.allclose(got_prob, want_prob, rtol=1e-12, atol=0.0),
                    f"{scheme}: the plan's enumeration differs from itertools")

            # what draw_block actually draws follows the enumerated law: the
            # share of each outcome in each batch slot over many seeds stays
            # within five standard errors of its enumerated probability
            want = ref.slot_marginals(idx, prob, n)
            se = np.sqrt(want * (1.0 - want) / draw_seeds.size)
            for t in (0, 1):
                got = ref.slot_frequencies(plan.draw_block(t, draw_seeds), n)
                require(got.shape == want.shape,
                        f"{scheme}: draw_block at t={t} gives slots x outcomes {got.shape}")
                worst = float((np.abs(got - want) - 5.0 * se).max())
                require(worst <= 1e-12,
                        f"{scheme}: draw_block at t={t} departs from the enumerated "
                        f"slot probabilities by {worst:.3g} beyond five standard errors")

        for scheme in self.schemes:
            cfg = replace(self.cfgs[(scheme, "power")], horizon=m["check_horizon"],
                          store_iterates=True)
            for tr in rsgd.run_many(cfg, m["check_seeds"]):
                xs = tr.iterates
                require(np.abs(np.linalg.norm(xs, axis=-1) - 1.0).max() <= 1e-12,
                        f"{scheme}: iterate left the unit sphere")
                require(np.abs(tr.F - ref.sphere_cost(targets, xs)).max() <= 1e-12,
                        f"{scheme}: recorded F differs from the mean squared distance")
                gn = np.linalg.norm(ref.sphere_grad(targets, xs), axis=-1)
                require(np.abs(tr.grad_norm - gn).max() <= 1e-12,
                        f"{scheme}: recorded ||grad F|| differs from the projected gradient")


class LsqLargeN:
    """Least squares, d=8, N=1e5 rows from a generated CSV, no-repetition
    batches of 8 at small S: the O(N d) exact record and the subset pool
    dominate each step."""

    def __init__(self, manifest: dict, work: Path):
        self.m = manifest
        self.work = work
        self.digest = None

    def setup(self):
        import rsgd

        m = self.m
        self.rsgd = rsgd
        self.problem = rsgd.problems.load_least_squares_csv(self.work / "rows.csv", m["tau"])
        self.plan = rsgd.SubsetPlan(self.problem.space, rsgd.BatchSizes.constant(m["batch"]))
        self.cfg = rsgd.RunConfig(oracle=self.problem, plan=self.plan,
                                  rate=rsgd.PowerLawSchedule(m["c"], m["p"]),
                                  x0=np.array(m["x0"]), horizon=m["horizon"],
                                  seed=m["run_seed"])

    def round(self) -> Round:
        rsgd, m = self.rsgd, self.m
        rnd = Round(ops=2)
        self.trajectories = self.conv = None
        start = clock()
        self.trajectories = rsgd.driver.run_many(self.cfg, m["seeds"])
        rnd.run_s = clock() - start
        rnd.seed_steps = m["seeds"] * m["horizon"]
        self.conv = rsgd.diagnostics.convergence_metrics(self.trajectories)
        return rnd

    def verify_round(self):
        require(self.conv["all_ok"], f"lsq: statuses {set(self.conv['statuses'])}")
        digest = ref.digest_arrays(a for tr in self.trajectories for a in _trajectory_arrays(tr))
        self.digest = self.digest or digest
        require(digest == self.digest, "lsq: rounds of the same run differ")

    def verify_outputs(self):
        # every round produced the same trajectories, so checking the last
        # round's checks them all
        m, trs = self.m, self.trajectories
        alone = self.rsgd.run_deterministic(replace(self.cfg, seed=trs[1].seed))
        require(all(ref.bitwise_equal(a, b) for a, b in zip(_trajectory_arrays(alone),
                                                            _trajectory_arrays(trs[1]))),
                "lsq: seed run alone differs from its row in the batch")

        data = np.loadtxt(self.work / "rows.csv", delimiter=",", skiprows=1)
        a, y, x0 = data[:, :-1], data[:, -1], np.array(m["x0"])
        _, f_star = ref.lsq_minimum(a, y, m["tau"])
        f0 = ref.lsq_cost(a, y, m["tau"], x0)
        g0 = float(np.linalg.norm(ref.lsq_grad(a, y, m["tau"], x0)))
        for tr in trs:
            require(abs(tr.F[0] - f0) <= 1e-10 * abs(f0),
                    f"lsq: F(x0) = {tr.F[0]!r}, own {f0!r}")
            require(abs(tr.grad_norm[0] - g0) <= 1e-10 * g0,
                    f"lsq: ||grad F(x0)|| = {tr.grad_norm[0]!r}, own {g0!r}")
        lowest = min(float(tr.F.min()) for tr in trs)
        require(lowest >= f_star - 1e-9 * max(1.0, abs(f_star)),
                f"lsq: recorded F = {lowest!r} below the minimum {f_star!r}")
        gap = float(np.mean([tr.F[-1] for tr in trs])) - f_star
        require(gap <= 0.05 * (f0 - f_star),
                f"lsq: final F - F* = {gap:.3g} of initial {f0 - f_star:.3g}")

        n, b = m["n_outcomes"], m["batch"]
        seeds = m["run_seed"] + np.arange(m["seeds"])
        for t in (0, 1, m["horizon"] // 2, m["horizon"] - 1):
            draw = self.plan.draw_block(t, seeds)
            require(draw.shape == (len(seeds), b), f"subset draw at t={t} has shape {draw.shape}")
            require(all(len(set(row.tolist())) == b for row in draw),
                    f"subset draw at t={t} repeats an index")
            require(draw.min() >= 0 and draw.max() < n, f"subset draw at t={t} out of range")


class CliSession:
    """``rsgd check unbiasedness``, ``check confinement``, ``run`` and
    ``report`` in-process on a confined least-squares config with many seeds
    and a long horizon: CSV writes and reads, confinement constants and
    enumeration certificates."""

    config = "session.ini"
    out = "out"

    def __init__(self, manifest: dict, work: Path):
        self.m = manifest
        self.work = work
        self.digest = None

    def setup(self):
        import rsgd
        import rsgd.cli

        self.rsgd = rsgd
        cli = rsgd.cli
        cp = cli.load_config(self.work / self.config)
        self.problem = cli.build_problem(cp)
        self.plan = cli.build_plan(cp, self.problem.space, self.m["run_seed"])
        self.rate = cli.build_rate(cp)
        self.confinement = cli.build_confinement(cp, self.problem)

    def round(self) -> Round:
        cli, m = self.rsgd.cli, self.m
        rnd = Round()
        self.codes = []
        for argv in (["check", "unbiasedness"], ["check", "confinement"], ["run"]):
            start = clock()
            self.codes.append(cli.main(argv + ["--config", self.config, "--out", self.out,
                                               "--quiet"]))
            if argv == ["run"]:
                rnd.run_s = clock() - start
                rnd.seed_steps = m["seeds"] * m["horizon"]
        self.codes.append(cli.main(["report", "--out", self.out, "--quiet"]))
        rnd.ops = len(self.codes)
        return rnd

    def verify_round(self):
        require(self.codes == [0, 0, 0, 0], f"cli: exit codes {self.codes}")
        digest = ref.digest_dir(self.work / self.out)
        self.digest = self.digest or digest
        require(digest == self.digest, "cli: output files differ between rounds")

    def verify_outputs(self):
        # every round wrote the same bytes, so checking the last round's
        # files checks them all
        m, out = self.m, self.work / self.out
        summary = json.loads((out / "session_summary.json").read_text())
        k = summary["confinement_constants"]
        rho1 = k["rho0"] + k["lam"] * k["c"] + 0.5 * k["b"] ** 2 * k["sigma"]
        require(abs(rho1 - k["rho1"]) <= 1e-12 * max(1.0, rho1),
                f"cli: rho1 = {k['rho1']!r}, rho0 + lambda c + b^2 sigma/2 = {rho1!r}")
        labels = ref.read_matrix(self.work / "rows.csv")[:, -1]
        rho0 = float((labels * labels).max() / (4.0 * m["tau"]))
        require(abs(k["rho0"] - rho0) <= 1e-12 * rho0, f"cli: rho0 = {k['rho0']!r}, own {rho0!r}")
        require(summary["seeds"] == list(range(m["run_seed"], m["run_seed"] + m["seeds"])),
                "cli: summary seeds")

        files = sorted(out.glob("*_seed*.csv"))
        require(len(files) == m["seeds"], f"cli: {len(files)} trajectory CSVs")
        rerun_seed = m["run_seed"] + m["seeds"] // 2
        seeds, finals, mins, weighted = [], [], [], []
        for f in files:
            cols = ref.read_columns(f)
            seed = int(f.stem.rsplit("_seed", 1)[1])
            seeds.append(seed)
            if seed == rerun_seed:
                self._verify_rerun(summary, seed, cols)
            require(cols["t"] == [str(t) for t in range(m["horizon"] + 1)],
                    f"cli: {f.name} does not hold T+1 rows")
            require(set(cols["in_K"]) == {"1"}, f"cli: {f.name} leaves K")
            rho = np.array([float(v) for v in cols["rho"]])
            require(rho.max() <= min(k["rho1"], m["rho1_declared"]),
                    f"cli: {f.name} reaches rho = {rho.max()!r}")
            gn = [float(v) for v in cols["grad_norm"]]
            step = [float(v) for v in cols["step"]]
            finals.append(gn[-1])
            mins.append(min(gn))
            total = 0.0
            for s, g in zip(step[:-1], gn[:-1]):
                total += s * (g * g)
            weighted.append(total)
        require(sorted(seeds) == summary["seeds"], "cli: CSV files do not match the seeds")

        report = json.loads((out / "report.json").read_text())
        got = report["metrics"]
        thr = got["threshold"]
        require(report["n_files"] == m["seeds"] and got["n_seeds"] == m["seeds"]
                and got["horizon"] == m["horizon"], "cli: report counts")
        require(got["final_grad_norms"] == finals and got["min_grad_norms"] == mins,
                "cli: report per-seed gradient norms differ from the CSVs")
        require(got["fraction_final_below"] == sum(v <= thr for v in finals) / len(finals)
                and got["fraction_min_below"] == sum(v <= thr for v in mins) / len(mins),
                "cli: report fractions differ from the CSVs")
        msf = sum(v * v for v in finals) / len(finals)
        require(abs(got["mean_square_final"] - msf) <= 1e-12 * msf,
                "cli: report mean_square_final differs from the CSVs")
        require(all(abs(a - b) <= 1e-12 * b for a, b in zip(got["weighted_grad_square_sums"],
                                                           weighted)),
                "cli: report weighted gradient sums differ from the CSVs")
        require(got["all_ok"] and set(got["statuses"]) == {"ok"}, "cli: report statuses")
        for key in ("final_grad_norms", "min_grad_norms", "mean_square_final",
                    "weighted_grad_square_sums", "fraction_final_below"):
            require(summary["metrics"][key] == got[key],
                    f"cli: report {key} differs from the run summary")

        # outputs of the same program on the same seed must be byte-identical
        # in every run, not only between rounds of this run
        stored = Path(m["results_dir"]) / f"cli_session-s{m['seed']}-{m['source_digest'][:16]}.digest"
        if stored.is_file():
            require(stored.read_text().strip() == self.digest,
                    "cli: output digest differs from an earlier run with this seed")
        else:
            stored.write_text(self.digest + "\n")

    def _verify_rerun(self, summary, seed, cols):
        """The seed rerun alone through the library equals its CSV bitwise."""
        rsgd, m = self.rsgd, self.m
        constants = rsgd.ConfinementConstants(**summary["confinement_constants"])
        spec = rsgd.norm_squared_confinement(self.confinement["rho0"])
        cfg = rsgd.RunConfig(oracle=self.problem, plan=self.plan, rate=self.rate,
                             x0=np.array(m["x0"]), horizon=m["horizon"], seed=seed,
                             rho=spec.rho)
        tr = rsgd.run_confined_deterministic(cfg, constants)
        for name, values in (("F", tr.F), ("grad_norm", tr.grad_norm), ("step", tr.step),
                             ("batch_grad_norm", tr.batch_grad_norm), ("rho", tr.rho)):
            parsed = np.array([float(v) for v in cols[name]])
            require(ref.bitwise_equal(parsed, values),
                    f"cli: seed {seed} rerun alone differs from its CSV column {name}")
        require([int(v) for v in cols["batch_size"]] == tr.batch_size.tolist(),
                f"cli: seed {seed} batch sizes differ from its CSV")


WORKLOADS = {"sphere_lockstep": SphereLockstep, "lsq_large_n": LsqLargeN,
             "cli_session": CliSession}
