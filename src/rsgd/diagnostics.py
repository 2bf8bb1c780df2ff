"""Numerical verification of the quantities the convergence analysis relies on.

Estimates the two retraction-Lipschitz constants from samples, checks the
per-step descent inequality and the gradient-square difference bound along
recorded trajectories, tracks the noise martingale z_t, and aggregates
convergence statistics across seeds.  Constants enter the checks as sampled
estimates with explicit margins, because their exact suprema are not
computable; reports carry the margins used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    if radius <= 0 or n_samples < 1:
        raise ValueError("radius must be > 0 and n_samples >= 1")
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


@dataclass
class CheckReport:
    """Generic pass/fail report with the worst excess seen and its location.

    ``worst`` is the largest amount by which the checked inequality was
    exceeded (negative means it held everywhere with room to spare).
    """

    check: str
    passed: bool
    worst: float
    witness: dict | None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"check_name": self.check, "pass": self.passed, "margin": -self.worst,
                "witnesses": [] if self.witness is None else [self.witness],
                **self.details}


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
    gaps = f[1:] - rhs
    t = int(np.argmax(gaps))
    worst = float(gaps[t])
    return CheckReport(
        check="descent_inequality",
        passed=bool(worst <= 0.0),
        worst=worst,
        witness=None if worst <= 0.0 else {"t": t, "excess": worst},
        details={"c1": c1, "margin": margin, "slack": slack, "steps": T},
    )


def check_gradient_square_difference(trajectory, bound_a: float, c1: float, c2: float,
                                     margin: float = 1.5) -> CheckReport:
    """Per-step check of | ||g_{t+1}||^2 - ||g_t||^2 | <= margin * 2 A^2 (c1 + c2) * rate_t."""
    T = trajectory.horizon
    gn = trajectory.grad_norm
    s = trajectory.step[:T]
    diffs = np.abs(gn[1:] ** 2 - gn[:T] ** 2)
    allowance = margin * 2.0 * bound_a**2 * (c1 + c2) * s
    gaps = diffs - allowance
    t = int(np.argmax(gaps))
    worst = float(gaps[t])
    return CheckReport(
        check="gradient_square_difference",
        passed=bool(worst <= 0.0),
        worst=worst,
        witness=None if worst <= 0.0 else {"t": t, "excess": worst},
        details={"bound_a": bound_a, "c1": c1, "c2": c2, "margin": margin, "steps": T},
    )


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


def convergence_metrics(trajectories: list, threshold: float = 1e-3) -> dict:
    """Cross-seed convergence summary.

    Reports final and running-minimum gradient norms per seed, the fraction of
    seeds below the threshold under both readings, the mean-square gradient
    curve, and the partial sums sum_t rate_t ||g_t||^2 whose flattening the
    analysis predicts (the last-decade increment should be small).
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    finals = np.array([tr.grad_norm[-1] for tr in trajectories])
    mins = np.array([tr.grad_norm.min() for tr in trajectories])
    T = trajectories[0].horizon
    gsq = np.stack([tr.grad_norm**2 for tr in trajectories])
    weighted = []
    last_decade = []
    for tr in trajectories:
        terms = tr.step[:T] * tr.grad_norm[:T] ** 2
        csum = np.cumsum(terms)
        weighted.append(float(csum[-1]) if T else 0.0)
        last_decade.append(float(csum[-1] - csum[int(0.9 * T)]) if T else 0.0)
    statuses = [tr.status for tr in trajectories]
    return {
        "n_seeds": len(trajectories),
        "horizon": T,
        "threshold": threshold,
        "final_grad_norms": finals.tolist(),
        "fraction_final_below": float((finals <= threshold).mean()),
        "min_grad_norms": mins.tolist(),
        "fraction_min_below": float((mins <= threshold).mean()),
        "mean_square_final": float(gsq[:, -1].mean()),
        "mean_square_curve": gsq.mean(axis=0),
        "weighted_grad_square_sums": weighted,
        "last_decade_increments": last_decade,
        "statuses": statuses,
        "all_ok": bool(all(s == "ok" for s in statuses)),
    }


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
    i = int(np.argmax(rel))
    worst = float(rel[i])
    return CheckReport(
        check="finite_difference_gradient",
        passed=bool(worst <= tol),
        worst=worst,
        witness=None if worst <= tol else {"index": i, "rel_error": worst},
        details={"n_points": n_points, "step": step, "tol": tol, "seed": seed},
    )
