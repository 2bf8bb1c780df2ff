"""Confinement certificates: keep SGD iterates in a compact sublevel set.

A confinement of the stochastic gradient field H is a coercive scalar
function rho whose gradient makes a nonnegative inner product with every
H(x, l) outside the sublevel set {rho <= rho0}.  Under that condition,
scaling a deterministic-rate run by a constant phi computed from sampled
suprema (``ScaledSchedule(schedule, phi)``, run by ``run_many``) keeps every
iterate inside {rho <= rho1} with

    rho1 = rho0 + lambda * c + b^2 * sigma / 2,

where c is the largest rate and sigma the sum of squared rates.  The run
additionally satisfies, at every step t, the induction inequality

    rho(x_t) + (b^2 / 2) * sum_{j >= t} gamma_j^2  <=  rho1,

which is asserted on every recorded step of every confined run.  A second,
kappa-flavored certificate bounds steps of length up to kappa through the
Hessian of rho composed with the retraction and covers the adaptive rule,
whose steps never exceed eta_0.

The suprema entering phi are estimated by sampling plus a safety factor; a
sampled PASS is strong evidence, not a proof, and reports say so.  Directions
ranging over the convex hull of {H(x, l)} are covered by the extreme points
themselves (exact for objectives linear in the direction) plus
Dirichlet-weighted combinations (a heuristic for the quadratic Hessian form).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .driver import RunConfig, Trajectory, run_many
from .errors import ConfinementViolation, InvalidHyperparameters, SamplerFailure
from .problems import GradientOracle
from .schedules import (AdaptiveRate, ScaledSchedule, cumulative_squares, sum_of_squares,
                        validate_robbins_monro)

VARIANTS = ("plain", "kappa", "batch_kappa")

_HESS_STEP = 1e-4
_INVARIANT_SLACK = 1e-9
# safety factor on the sampled suprema behind phi
_SAFETY = 1.5
# Dirichlet convex combinations per sample point (batch directions)
_N_COMBOS = 8
# radius doublings allowed to bracket a rho level
_MAX_DOUBLINGS = 200


@dataclass(frozen=True)
class ConfinementSpec:
    """A candidate confinement: rho, its gradient, and its thresholds."""

    rho: Callable
    grad_rho: Callable
    rho0: float
    rho1: float | None = None
    variant: str = "plain"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant != "plain":
            if self.rho1 is None or not self.rho0 < self.rho1:
                raise ValueError("kappa variants need rho0 < rho1")


def norm_squared_confinement(rho0: float, rho1: float | None = None,
                             variant: str = "plain") -> ConfinementSpec:
    """The workhorse confinement rho(x) = ||x||^2 on flat space."""
    return ConfinementSpec(
        rho=lambda x: (np.asarray(x, dtype=float) ** 2).sum(axis=-1),
        grad_rho=lambda x: 2.0 * np.asarray(x, dtype=float),
        rho0=float(rho0),
        rho1=None if rho1 is None else float(rho1),
        variant=variant,
    )


@dataclass(frozen=True)
class ConfinementConstants:
    """Constants of a confined deterministic run; phi scales the rates down."""

    lam: float
    b: float
    theta: float
    c: float
    sigma: float
    lambda_est: float
    b_est: float
    phi: float
    rho0: float
    rho1: float

    def __post_init__(self):
        if min(self.lam, self.b, self.theta) <= 0:
            raise ValueError("lambda, b, theta must be > 0")
        if self.phi < max(self.lambda_est, self.b_est, self.c / self.theta):
            raise ValueError("phi must dominate max(lambda_est, b_est, c/theta)")
        expected = self.rho0 + self.lam * self.c + 0.5 * self.b**2 * self.sigma
        if abs(self.rho1 - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError("rho1 must equal rho0 + lambda*c + b^2*sigma/2")


@dataclass
class ConfinementReport:
    """Outcome of a sampled confinement check; JSON-ready via to_dict()."""

    check: str
    passed: bool
    min_margin: float
    witness: dict | None
    n_samples: int
    seed: int
    notes: str = ""
    constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def hessian_quadform(manifold, rho: Callable, x, u, v):
    """Hess(rho o R_x)|_u (v, v) by central second differences along v."""

    def f(s):
        return rho(manifold.retract(x, u + s * v))

    return (f(_HESS_STEP) - 2.0 * f(0.0) + f(-_HESS_STEP)) / _HESS_STEP**2


def _unit_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    a = rng.normal(size=(n, dim))
    return a / np.sqrt((a * a).sum(axis=1))[:, None]


def sample_rho_levels(rho: Callable, dim: int, targets: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Points x with rho(x) ~ targets, found by radius bisection along random rays.

    Works directly for radially monotone rho; rows the bisection cannot
    certify fall back to rejection sampling in an enclosing box.  Raises
    SamplerFailure when neither route produces a point.
    """
    targets = np.asarray(targets, dtype=float)
    n = targets.size
    dirs = _unit_directions(rng, n, dim)
    base = float(np.asarray(rho(np.zeros(dim))))
    if np.any(targets < base - 1e-12):
        raise SamplerFailure(f"targets below rho(origin) = {base:g} are unreachable radially")

    hi = np.ones(n)
    for _ in range(_MAX_DOUBLINGS):
        vals = rho(hi[:, None] * dirs)
        short = vals < targets
        if not np.any(short):
            break
        hi = np.where(short, hi * 2.0, hi)
    else:
        raise SamplerFailure("could not bracket the requested rho levels")

    lo = np.zeros(n)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        vals = rho(mid[:, None] * dirs)
        small = vals < targets
        lo = np.where(small, mid, lo)
        hi = np.where(small, hi, mid)
    pts = hi[:, None] * dirs
    resid = np.abs(np.asarray(rho(pts)) - targets)
    bad = resid > 1e-6 * np.maximum(1.0, np.abs(targets))
    if np.any(bad):
        pts[bad] = _rejection_fallback(rho, dim, targets[bad], float(hi.max()), rng)
    return pts


def _rejection_fallback(rho, dim, targets, box_radius, rng, max_rounds: int = 200):
    lo, hi = float(targets.min()), float(targets.max())
    need = targets.size
    found = []
    for _ in range(max_rounds):
        cand = rng.uniform(-box_radius, box_radius, size=(max(64, 4 * need), dim))
        vals = np.asarray(rho(cand))
        keep = cand[(vals >= lo - 1e-9) & (vals <= hi + 1e-9)]
        if keep.size:
            found.append(keep)
            if sum(len(f) for f in found) >= need:
                return np.concatenate(found)[:need]
    raise SamplerFailure("rejection sampling could not hit the requested rho band")


def _band_points(spec, dim, lo, hi, n, key):
    # separate streams for targets and ray directions keep the first n samples
    # identical as n grows, which makes the sup estimates monotone in n
    targets = np.random.default_rng([*key, 0]).uniform(lo, hi, size=n)
    return sample_rho_levels(spec.rho, dim, targets, np.random.default_rng([*key, 1]))


def _sublevel_points(spec, dim, c, n, key):
    base = float(np.asarray(spec.rho(np.zeros(dim))))
    if c < base:
        raise SamplerFailure(f"sublevel {c:g} is below rho(origin) = {base:g}")
    targets = base + (c - base) * np.random.default_rng([*key, 0]).uniform(size=n)
    return sample_rho_levels(spec.rho, dim, targets, np.random.default_rng([*key, 1]))


def _gradient_table(oracle: GradientOracle, xs: np.ndarray) -> np.ndarray:
    """All outcome gradients at each sample point: (n, N, d)."""
    n_out = oracle.space.size
    idx = np.broadcast_to(np.arange(n_out), (xs.shape[0], n_out))
    return oracle.sample_gradients(xs, idx)


def _direction_set(oracle, xs, rng, n_combos: int) -> np.ndarray:
    """Extreme points H(x, l) plus Dirichlet-weighted convex combinations."""
    table = _gradient_table(oracle, xs)
    if n_combos == 0:
        return table
    n, n_out, _ = table.shape
    w = rng.dirichlet(np.ones(n_out), size=(n, n_combos))
    combos = (w[..., None] * table[:, None, :, :]).sum(axis=2)
    return np.concatenate([table, combos], axis=1)


def check_plain_confinement(spec: ConfinementSpec, oracle: GradientOracle,
                            n_samples: int, seed: int = 0) -> ConfinementReport:
    """Sample the band rho0 <= rho <= 10 * rho0 and every outcome l; PASS iff
    the inner product <grad rho(x), H(x, l)> never goes negative."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    dim = oracle.manifold.ambient_dim
    hi = 10.0 * spec.rho0 if spec.rho0 > 0 else spec.rho0 + 1.0
    xs = _band_points(spec, dim, spec.rho0, hi, n_samples, (seed, 0))
    table = _gradient_table(oracle, xs)
    ips = (spec.grad_rho(xs)[:, None, :] * table).sum(axis=-1)
    i, l = np.unravel_index(np.argmin(ips), ips.shape)
    worst = float(ips[i, l])
    return ConfinementReport(
        check="plain_confinement",
        passed=bool(worst >= 0.0),
        min_margin=worst,
        witness=None if worst >= 0.0 else {"x": xs[i].tolist(), "outcome": int(l), "value": worst},
        n_samples=n_samples,
        seed=seed,
        notes="sampled evidence on the band [rho0, 10*rho0]; not a proof",
    )


def estimate_constants(spec: ConfinementSpec, oracle: GradientOracle, schedule,
                       lam: float, b: float, theta: float, n_samples: int,
                       seed: int = 0) -> ConfinementConstants:
    """Sampled suprema behind phi, with the multiplicative safety factor _SAFETY.

    lambda_est bounds (1/lam) * max(0, -<grad rho(x), v>) over {rho <= rho0},
    b_est bounds (1/b) * sqrt(max(0, Hess(rho o R_x)|_{-theta v}(v, v))) over
    {rho <= rho1} and step fractions in [0, theta].  phi may exceed the
    minimal admissible value; any upper bound preserves the guarantee.
    """
    check = validate_robbins_monro(schedule)
    if not check.valid:
        raise ValueError(f"schedule must satisfy the step-size conditions: {check.reason}")
    if min(lam, b, theta) <= 0:
        raise ValueError("lambda, b, theta must be > 0")
    c = schedule.max_gamma()
    sigma = sum_of_squares(schedule)
    rho1 = spec.rho0 + lam * c + 0.5 * b * b * sigma
    dim = oracle.manifold.ambient_dim

    xs0 = _sublevel_points(spec, dim, spec.rho0, n_samples, (seed, 1))
    v0 = _direction_set(oracle, xs0, np.random.default_rng([seed, 2]), _N_COMBOS)
    ips = (spec.grad_rho(xs0)[:, None, :] * v0).sum(axis=-1)
    lambda_est = float(max(0.0, -ips.min())) / lam

    xs1 = _sublevel_points(spec, dim, rho1, n_samples, (seed, 3))
    v1 = _direction_set(oracle, xs1, np.random.default_rng([seed, 4]), _N_COMBOS)
    n_dirs = v1.shape[1]
    flat_x = np.repeat(xs1, n_dirs, axis=0)
    flat_v = v1.reshape(-1, dim)
    thetas = np.random.default_rng([seed, 5]).uniform(0.0, theta, size=flat_v.shape[0])
    q = hessian_quadform(oracle.manifold, spec.rho, flat_x, -thetas[:, None] * flat_v, flat_v)
    b_est = float(np.sqrt(max(0.0, float(np.max(q))))) / b

    phi = max(_SAFETY * lambda_est, _SAFETY * b_est, c / theta)
    return ConfinementConstants(
        lam=lam, b=b, theta=theta, c=c, sigma=sigma,
        lambda_est=lambda_est, b_est=b_est, phi=phi,
        rho0=spec.rho0, rho1=rho1,
    )


def check_kappa_confinement(spec: ConfinementSpec, oracle: GradientOracle,
                            kappa: float, n_samples: int, seed: int = 0) -> ConfinementReport:
    """Sample both defining inequalities of a (batch) kappa-confinement.

    Directions v run over the outcome gradients for the kappa variant and
    additionally over Dirichlet convex combinations for batch_kappa.  Step
    fractions s cover [0, kappa] including the endpoint.
    """
    if spec.variant not in ("kappa", "batch_kappa"):
        raise ValueError("spec.variant must be kappa or batch_kappa")
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    man = oracle.manifold
    dim = man.ambient_dim
    combos = _N_COMBOS if spec.variant == "batch_kappa" else 0

    # inequality 1: from rho(x) <= rho0, steps of length <= kappa stay <= rho1
    xs0 = _sublevel_points(spec, dim, spec.rho0, n_samples, (seed, 1))
    v0 = _direction_set(oracle, xs0, np.random.default_rng([seed, 2]), combos)
    flat_x0 = np.repeat(xs0, v0.shape[1], axis=0)
    flat_v0 = v0.reshape(-1, dim)
    s0 = np.random.default_rng([seed, 3]).uniform(0.0, kappa, size=flat_v0.shape[0])
    s0 = np.concatenate([s0, np.full(flat_v0.shape[0], kappa)])
    flat_x0 = np.concatenate([flat_x0, flat_x0])
    flat_v0 = np.concatenate([flat_v0, flat_v0])
    reached = spec.rho(man.retract(flat_x0, -s0[:, None] * flat_v0))
    margin1 = float(spec.rho1 - np.max(reached))

    # inequality 2: on the band, <grad rho, v> dominates the Hessian term
    xs1 = _band_points(spec, dim, spec.rho0, spec.rho1, n_samples, (seed, 4))
    v1 = _direction_set(oracle, xs1, np.random.default_rng([seed, 5]), combos)
    flat_x1 = np.repeat(xs1, v1.shape[1], axis=0)
    flat_v1 = v1.reshape(-1, dim)
    s1 = np.random.default_rng([seed, 6]).uniform(0.0, kappa, size=flat_v1.shape[0])
    lhs = (spec.grad_rho(flat_x1) * flat_v1).sum(axis=-1)
    quad = hessian_quadform(man, spec.rho, flat_x1, -s1[:, None] * flat_v1, flat_v1)
    rhs = np.maximum(0.0, 0.5 * kappa * quad)
    gaps = lhs - rhs
    margin2 = float(np.min(gaps))

    worst = min(margin1, margin2)
    if worst == margin2:
        i = int(np.argmin(gaps))
        witness = {"x": flat_x1[i].tolist(), "v": flat_v1[i].tolist(),
                   "s": float(s1[i]), "gap": margin2}
    else:
        i = int(np.argmax(reached))
        witness = {"x": flat_x0[i].tolist(), "v": flat_v0[i].tolist(),
                   "s": float(s0[i]), "rho_reached": float(reached[i])}
    passed = bool(worst >= -_INVARIANT_SLACK)
    return ConfinementReport(
        check=f"{spec.variant}_confinement",
        passed=passed,
        min_margin=worst,
        witness=None if passed else witness,
        n_samples=n_samples,
        seed=seed,
        notes="convex-hull directions are sampled (extreme points exact only for "
              "linear objectives); sampled evidence, not a proof",
        constants={"kappa": kappa, "margin_step": margin1, "margin_band": margin2},
    )


def run_confined_deterministic_many(cfg: RunConfig, constants: ConfinementConstants,
                                    n_seeds: int) -> list[Trajectory]:
    """Deterministic-rate runs scaled by 1/phi, with the induction invariant
    asserted at every recorded step of every trajectory."""
    if isinstance(cfg.rate, AdaptiveRate):
        raise TypeError("confined deterministic runs need a deterministic schedule")
    if cfg.rho is None:
        raise ValueError("RunConfig.rho must be set for confined runs")
    start = float(np.asarray(cfg.rho(cfg.x0)))
    if start > constants.rho0 + _INVARIANT_SLACK:
        raise InvalidHyperparameters(
            f"rho(x0) = {start:g} must not exceed rho0 = {constants.rho0:g}")
    out = run_many(replace(cfg, rate=ScaledSchedule(cfg.rate, constants.phi),
                           region_rho1=constants.rho1), n_seeds)
    tail = constants.sigma - cumulative_squares(cfg.rate, cfg.horizon)
    for tr in out:
        lhs = tr.rho + 0.5 * constants.b**2 * tail
        bad = np.flatnonzero(lhs > constants.rho1 + _INVARIANT_SLACK)
        if bad.size:
            t = int(bad[0])
            raise ConfinementViolation(
                f"induction invariant failed at t={t}: rho + b^2/2 * tail = {lhs[t]:.6g} "
                f"> rho1 = {constants.rho1:.6g} (seed {tr.seed}); "
                "lambda_est or b_est likely underestimated",
                t=t, seed=tr.seed,
            )
    return out


def run_confined_deterministic(cfg: RunConfig, constants: ConfinementConstants) -> Trajectory:
    return run_confined_deterministic_many(cfg, constants, 1)[0]


def run_confined_adaptive_many(cfg: RunConfig, spec: ConfinementSpec, kappa: float,
                               n_seeds: int) -> list[Trajectory]:
    """Adaptive runs under a kappa-confinement; every step must stay <= rho1."""
    if not isinstance(cfg.rate, AdaptiveRate):
        raise TypeError("confined adaptive runs need adaptive hyperparameters")
    if spec.rho1 is None:
        raise ValueError("spec.rho1 is required for confined adaptive runs")
    eta0 = cfg.rate.eta0()
    if eta0 > kappa:
        raise InvalidHyperparameters(
            f"eta_0 = {eta0:g} exceeds kappa = {kappa:g}; steps would be too long")
    start = float(np.asarray(spec.rho(cfg.x0)))
    if start > spec.rho1 + _INVARIANT_SLACK:
        raise InvalidHyperparameters(f"rho(x0) = {start:g} must not exceed rho1 = {spec.rho1:g}")
    out = run_many(replace(cfg, rho=spec.rho, region_rho1=spec.rho1), n_seeds)
    for tr in out:
        bad = np.flatnonzero(tr.rho > spec.rho1 + _INVARIANT_SLACK)
        if bad.size:
            t = int(bad[0])
            raise ConfinementViolation(
                f"rho(x_t) = {tr.rho[t]:.6g} > rho1 = {spec.rho1:.6g} at t={t} "
                f"(seed {tr.seed})", t=t, seed=tr.seed,
            )
    return out
