"""Numerical verification of the quantities the convergence analysis relies on.

Estimates the two retraction-Lipschitz constants from samples, checks the
per-step descent inequality and the gradient-square difference bound along
recorded trajectories, tracks the noise martingale z_t, and aggregates
convergence statistics across seeds.  Constants enter the checks as sampled
estimates with explicit margins, because their exact suprema are not
computable; reports carry the margins used.

Every verdict of the package takes its extreme by one rule, ``_at``: the
first minimum or maximum, as ``np.argmin`` / ``np.argmax`` find it, so the
first NaN wins over everything and ties keep the earlier entry.  A NaN
therefore fails every check.  ``_pick`` and ``_first`` apply the rule to
chunks of samples and to the picks of those chunks (see
:mod:`rsgd.confinement`); ``_verdict`` builds the report of each check here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import budget
from .problems import GradientOracle

_U_FLOOR = 1e-8
_FD_STEP = 1e-6
_FD_TOL = 1e-4


@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled Lipschitz constants of the gradient field through the retraction.

    c1 bounds ||pullback(grad F at retracted point) - grad F(x)|| / ||u||,
    c2 bounds the norm-difference ratio |(||grad F(y)|| - ||pullback||)| / ||u||,
    both over the region and tangent radius stated.
    """

    c1: float
    c2: float
    region: str
    radius: float
    n_samples: int
    seed: int


def estimate_lipschitz(oracle: GradientOracle, radius: float, n_samples: int,
                       seed: int = 0) -> LipschitzEstimate:
    """Maximize the two Lipschitz ratios over sampled (x, u) with ||u|| <= radius.

    Uses the identity grad(F o R_x)(u) = adjoint(dR_x|_u)(grad F(R_x(u))).
    Estimates are nondecreasing in n_samples for a fixed seed.
    """
    if not 0 < radius < np.inf or n_samples < 1:
        raise ValueError("radius must be finite and > 0, and n_samples >= 1")
    man = oracle.manifold
    xs = oracle.sample_region(np.random.default_rng([seed, 0]), n_samples)
    dirs = man.project_tangent(xs, np.random.default_rng([seed, 1]).normal(size=xs.shape))
    dirs = dirs / man.norm(xs, dirs)[..., None]
    mags = np.maximum(np.random.default_rng([seed, 2]).uniform(0.0, radius, n_samples), _U_FLOOR)
    u = mags[:, None] * dirs

    y = man.retract(xs, u)
    gy = oracle.full_gradient(y)
    pull = man.retract_adjoint(xs, u, gy)
    gx = oracle.full_gradient(xs)

    c1 = float((man.norm(xs, pull - gx) / mags).max())
    c2 = float((np.abs(man.norm(y, gy) - man.norm(xs, pull)) / mags).max())
    return LipschitzEstimate(c1=c1, c2=c2, region=oracle.region_label,
                             radius=float(radius), n_samples=n_samples, seed=seed)


def _at(values, lower: bool) -> int:
    """Index of the first minimum (lower) or maximum of values, as np.argmin /
    np.argmax find it: the first NaN wins over everything, and ties keep the
    earlier entry."""
    return int(np.argmin(values) if lower else np.argmax(values))


def _pick(values, lower: bool, **rows):
    """The extreme ``_at`` finds in values, with the entry of each array in
    rows at its index.  The entries are copied out, so a pick keeps no chunk
    alive."""
    i = _at(values, lower)
    return values[i], {key: row[i].tolist() for key, row in rows.items()}


def _first(picks, lower: bool):
    """The pick ``_at`` finds over the picks' values, which is the entry it
    finds over all their chunks at once."""
    return picks[_at(np.array([value for value, _ in picks]), lower)]


@dataclass
class CheckReport:
    """Generic pass/fail report with the worst excess seen and its location.

    ``worst`` is the largest value of the checked quantity, which passes iff
    it is at most ``tol``; the margin ``tol - worst`` is the room left under
    the tolerance (negative on a failure).
    """

    check: str
    passed: bool
    worst: float
    witness: dict | None
    details: dict = field(default_factory=dict)
    tol: float = 0.0

    def to_dict(self) -> dict:
        # the report's own keys win over details of the same name
        return self.details | {"check_name": self.check, "pass": self.passed,
                               "margin": self.tol - self.worst,
                               "witnesses": [] if self.witness is None else [self.witness]}


def _verdict(check: str, values, tol: float, index: str, value: str,
             details: dict) -> CheckReport:
    """The report of a check that holds iff no entry of values exceeds tol:
    its worst entry is the one ``_at`` finds, named ``{index: i, value: v}``
    as the witness of a failure."""
    i = _at(values, False)
    worst = float(values[i])
    passed = bool(worst <= tol)
    return CheckReport(check=check, passed=passed, worst=worst, tol=tol, details=details,
                       witness=None if passed else {index: i, value: worst})


def check_descent_inequality(trajectory, c1: float, margin: float = 1.2,
                             slack: float = 1e-9) -> CheckReport:
    """Per-step check of F(x_{t+1}) <= F(x_t) - step * <g, h> + (margin*c1/2) * step^2 ||h||^2.

    Everything is read from the recorded columns; c1 comes from
    estimate_lipschitz and margin covers its sampling error.
    """
    T = trajectory.horizon
    f = trajectory.F
    s = trajectory.step[:T]
    u = trajectory.noise_inner[:T]
    bgn = trajectory.batch_grad_norm[:T]
    if np.any(np.isnan(u)):
        raise ValueError("trajectory lacks recorded noise inner products")
    gdh = u + trajectory.grad_norm[:T] ** 2
    rhs = f[:T] - s * gdh + 0.5 * margin * c1 * s * s * bgn * bgn + slack
    return _verdict("descent_inequality", f[1:] - rhs, 0.0, "t", "excess",
                    {"c1": c1, "margin_factor": margin, "slack": slack, "steps": T})


def check_gradient_square_difference(trajectory, bound_a: float, c1: float, c2: float,
                                     margin: float = 1.5) -> CheckReport:
    """Per-step check of | ||g_{t+1}||^2 - ||g_t||^2 | <= margin * 2 A^2 (c1 + c2) * rate_t."""
    T = trajectory.horizon
    gn = trajectory.grad_norm
    s = trajectory.step[:T]
    diffs = np.abs(gn[1:] ** 2 - gn[:T] ** 2)
    allowance = margin * 2.0 * bound_a**2 * (c1 + c2) * s
    return _verdict("gradient_square_difference", diffs - allowance, 0.0, "t", "excess",
                    {"bound_a": bound_a, "c1": c1, "c2": c2, "margin_factor": margin,
                     "steps": T})


@dataclass(frozen=True)
class MartingaleTrace:
    """Noise martingale along one run: u_t = <g_t, h_t - g_t>, z_t = sum rate*u.

    quadratic_variation accumulates rate_t^2 u_t^2, the empirical counterpart
    of the variance recursion Var(z_t) <= Var(z_{t-1}) + 4 A^4 rate_t^2.
    """

    u: np.ndarray
    z: np.ndarray
    quadratic_variation: np.ndarray

    @property
    def z_final(self) -> float:
        return float(self.z[-1])


def track_martingale(trajectory) -> MartingaleTrace:
    T = trajectory.horizon
    u = trajectory.noise_inner[:T]
    if np.any(np.isnan(u)):
        raise ValueError("trajectory lacks recorded noise inner products")
    w = trajectory.step[:T] * u
    return MartingaleTrace(u=u, z=np.cumsum(w), quadratic_variation=np.cumsum(w * w))


def martingale_summary(traces: list[MartingaleTrace], bound_a: float, sigma: float) -> dict:
    """Across-seed statistics of z_T against the variance bound 4 A^4 sigma."""
    zf = np.array([tr.z_final for tr in traces])
    max_abs_u = float(max(np.abs(tr.u).max() for tr in traces))
    n = len(zf)
    mean = float(zf.mean())
    var = float(zf.var(ddof=1)) if n > 1 else 0.0
    stderr = float(np.sqrt(var / n)) if n > 1 else 0.0
    var_bound = 4.0 * bound_a**4 * sigma
    u_bound = 2.0 * bound_a**2
    return {
        "n_seeds": n,
        "mean_z": mean,
        "stderr_z": stderr,
        "mean_within_3_stderr": bool(abs(mean) <= 3.0 * stderr),
        "var_z": var,
        "var_bound": var_bound,
        "var_within_bound": bool(var <= 1.5 * var_bound),
        "max_abs_u": max_abs_u,
        "u_bound": u_bound,
        "u_violations": int(sum(int((np.abs(tr.u) > u_bound).sum()) for tr in traces)),
    }


def adaptive_square_sums(trajectory) -> tuple[float, float]:
    """(sum_t step_{t+1}^2 ||h_t||^2, sum_t step_t^2 ||h_t||^2) over the run.

    The first sum is deterministically bounded by alpha^2 / (2 eps beta^{2 eps});
    the second additionally by + A^2 alpha^2 / beta^{1 + 2 eps}.
    """
    T = trajectory.horizon
    b2 = trajectory.batch_grad_norm[:T] ** 2
    nxt = float((trajectory.step[1 : T + 1] ** 2 * b2).sum())
    cur = float((trajectory.step[:T] ** 2 * b2).sum())
    return nxt, cur


class ConvergenceFold:
    """``convergence_metrics`` folded over blocks of records, so that no
    array of it grows with the number of seeds times the horizon.

    ``add(t0, i0, grad_norm, step)`` takes the columns t0 .. t0 + k - 1 of
    seeds i0 .. i0 + s - 1 as (s, k) arrays (steps may be one shared row),
    in any order that gives each column its seeds in order: a whole run's
    seeds block by block (``put``, as a sink of ``driver.run_many``, and
    ``convergence_metrics``, all at once), or one seed's whole trajectory
    after another (``rsgd report``).  ``result`` has the
    bits of the list form, because the fold follows numpy's order: the
    mean-square curve's column sums over seeds are sequential, and so is
    each seed's ``cumsum``, which is carried from block to block; at T = 0
    the one column is summed pairwise, as ``np.mean`` sums the finals.
    With ``curve_points``, the curve keeps only the columns
    ``np.unique(np.linspace(0, T, curve_points).astype(int))`` when T + 1
    exceeds it.
    """

    def __init__(self, n_seeds: int, horizon: int, threshold: float = 1e-3,
                 curve_points: int | None = None):
        self.n_seeds, self.horizon, self.threshold = n_seeds, horizon, threshold
        self.finals = np.full(n_seeds, np.nan)
        self.mins = np.full(n_seeds, np.inf)
        self.weighted = np.zeros(n_seeds)
        self.decade = np.zeros(n_seeds)  # the cumsum at int(0.9 T)
        self.statuses = ["ok"] * n_seeds
        self.columns = None
        if curve_points is not None and horizon + 1 > curve_points:
            self.columns = np.unique(np.linspace(0, horizon, curve_points).astype(int))
        self.curve = np.zeros(horizon + 1 if self.columns is None else self.columns.size)

    def add(self, t0: int, i0: int, grad_norm: np.ndarray, step: np.ndarray) -> None:
        T = self.horizon
        k = grad_norm.shape[1]
        rows = slice(i0, i0 + grad_norm.shape[0])
        gsq = grad_norm**2
        self.mins[rows] = np.minimum(self.mins[rows], grad_norm.min(axis=1))
        if t0 + k == T + 1:
            self.finals[rows] = grad_norm[:, -1]
        if self.columns is None:
            cols, part = slice(t0, t0 + k), gsq
        else:
            cols = (self.columns >= t0) & (self.columns < t0 + k)
            part = gsq[:, self.columns[cols] - t0]
        for i, row in enumerate(part, i0):
            if i:
                self.curve[cols] += row
            else:
                self.curve[cols] = row
        m = min(k, T - t0)  # columns with a step
        if m > 0:
            # the squares are spent: the terms and their running sums reuse them
            terms = np.multiply(step[:, :m], gsq[:, :m], out=gsq[:, :m])
            if t0:
                terms = np.concatenate([self.weighted[rows, None], terms], axis=1)
            csum = np.cumsum(terms, axis=1, out=terms)[:, 1 if t0 else 0:]
            j = int(0.9 * T) - t0
            if 0 <= j < m:
                self.decade[rows] = csum[:, j]
            self.weighted[rows] = csum[:, -1]

    def put(self, rec) -> None:
        self.add(rec.t0, 0, rec.grad_norm, rec.step)

    def close(self, seeds, status, abort_t) -> None:
        self.statuses = list(status)

    def result(self) -> dict:
        finals, mins, thr = self.finals, self.mins, self.threshold
        mean_square_final = float((finals**2).mean())
        return {
            "n_seeds": self.n_seeds,
            "horizon": self.horizon,
            "threshold": thr,
            "final_grad_norms": finals.tolist(),
            "fraction_final_below": float((finals <= thr).mean()),
            "min_grad_norms": mins.tolist(),
            "fraction_min_below": float((mins <= thr).mean()),
            "mean_square_final": mean_square_final,
            "mean_square_curve": (self.curve / self.n_seeds if self.horizon
                                  else np.array([mean_square_final])),
            "weighted_grad_square_sums": self.weighted.tolist(),
            "last_decade_increments": (self.weighted - self.decade).tolist(),
            "statuses": self.statuses,
            "all_ok": bool(all(s == "ok" for s in self.statuses)),
        }


def convergence_metrics(trajectories: list, threshold: float = 1e-3) -> dict:
    """Cross-seed convergence summary.

    Reports final and running-minimum gradient norms per seed, the fraction of
    seeds below the threshold under both readings, the mean-square gradient
    curve, and the partial sums sum_t rate_t ||g_t||^2 whose flattening the
    analysis predicts (the last-decade increment should be small): a
    ``ConvergenceFold`` of the trajectories in chunks of at most
    ``budget.WORDS // (T + 1)`` seeds (or one), so that it allocates no
    array of S·T words.  Trajectories that hold one shared step row (a
    ``records.MemorySink`` of a deterministic rate) hand the fold that row.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    T = trajectories[0].horizon
    for tr in trajectories:
        if tr.horizon != T:
            raise ValueError(f"trajectories of horizons {T} and {tr.horizon}")
    fold = ConvergenceFold(len(trajectories), T, threshold)
    step = trajectories[0].step
    shared = all(tr.step is step for tr in trajectories)
    chunk = max(1, budget.WORDS // (T + 1))
    for i0 in range(0, len(trajectories), chunk):
        part = trajectories[i0:i0 + chunk]
        fold.add(0, i0, np.stack([tr.grad_norm for tr in part]),
                 step[None] if shared else np.stack([tr.step for tr in part]))
    fold.statuses = [tr.status for tr in trajectories]
    return fold.result()


def finite_difference_gradient_check(oracle: GradientOracle, n_points: int,
                                     seed: int = 0) -> CheckReport:
    """Directional derivatives of the cost through the retraction vs <grad F, w>.

    Relative error is measured against max(1, ||grad F(x)||) and must stay
    within _FD_TOL.  At u = 0 the retraction differential is the identity, so
    the central difference of F(R_x(h w)) with h = _FD_STEP estimates exactly
    <grad F(x), w>.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    man = oracle.manifold
    xs = oracle.sample_region(np.random.default_rng([seed, 0]), n_points)
    w = man.project_tangent(xs, np.random.default_rng([seed, 1]).normal(size=xs.shape))
    w = w / man.norm(xs, w)[..., None]
    step, tol = _FD_STEP, _FD_TOL
    fd = (oracle.cost(man.retract(xs, step * w)) - oracle.cost(man.retract(xs, -step * w))) / (
        2.0 * step
    )
    g = oracle.full_gradient(xs)
    ip = man.inner(xs, g, w)
    rel = np.abs(fd - ip) / np.maximum(1.0, man.norm(xs, g))
    return _verdict("finite_difference_gradient", rel, tol, "index", "rel_error",
                    {"n_points": n_points, "step": step, "tol": tol, "seed": seed})
