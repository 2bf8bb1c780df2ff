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

Memory: the samplers visit their sample points in chunks whose largest
array holds at most the driver's ``_BLOCK_WORDS`` words (or one point's
arrays, when a single point needs more), so their transient memory does not
grow with the number of samples.  The chunks draw their Dirichlet weights
and step fractions from the same generators in turn, which gives the bits
of one draw over all points.  Suprema combine exactly, and a witness is the
first extreme entry in the order of the points (in the kappa check, every
random step fraction before every endpoint step), the one ``np.argmin`` /
``np.argmax`` would find over all points at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .driver import _BLOCK_WORDS, RunConfig, Trajectory, run_many
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

    The bisection keeps each target between rho(lo) and rho(hi), so it meets
    every target of a rho that is continuous along the rays.  Raises
    SamplerFailure when a target is unreachable or missed (rho jumps over it).
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
    missed = int(np.count_nonzero(resid > 1e-6 * np.maximum(1.0, np.abs(targets))))
    if missed:
        raise SamplerFailure(f"bisection missed {missed} of {n} rho levels: "
                             "rho is not continuous along the rays")
    return pts


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


def _flat_directions(oracle, xs, rng, n_combos: int):
    """Every (point, direction) pair of _direction_set, as two row arrays."""
    v = _direction_set(oracle, xs, rng, n_combos)
    return np.repeat(xs, v.shape[1], axis=0), v.reshape(-1, v.shape[-1])


def _chunk_size(oracle, n_combos: int) -> int:
    """Sample points per chunk: the largest array a sampler makes per point,
    the (n_combos, N, d) Dirichlet product or N + n_combos directions of d
    words, stays within _BLOCK_WORDS words per chunk, or one point's."""
    n_out, dim = oracle.space.size, oracle.manifold.ambient_dim
    return max(1, _BLOCK_WORDS // (dim * max(n_combos * n_out, n_out + n_combos)))


def _chunks(oracle, xs, n_combos: int):
    """The sample points xs in consecutive runs of _chunk_size points."""
    m = _chunk_size(oracle, n_combos)
    return (xs[i:i + m] for i in range(0, len(xs), m))


def _replaces(value, best, lower: bool) -> bool:
    """Whether value, an entry after best's in flattened order, replaces it
    as the first minimum (lower) or maximum, as np.argmin / np.argmax find it
    over both: the first NaN wins over everything, and ties keep best."""
    if best is None:
        return True
    old = best[0]
    if old != old:
        return False
    if value != value:
        return True
    return bool(value < old if lower else value > old)


def check_plain_confinement(spec: ConfinementSpec, oracle: GradientOracle,
                            n_samples: int, seed: int = 0) -> ConfinementReport:
    """Sample the band rho0 <= rho <= 10 * rho0 and every outcome l; PASS iff
    the inner product <grad rho(x), H(x, l)> never goes negative."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    dim = oracle.manifold.ambient_dim
    hi = 10.0 * spec.rho0 if spec.rho0 > 0 else spec.rho0 + 1.0
    low = None
    for xs in _chunks(oracle, _band_points(spec, dim, spec.rho0, hi, n_samples, (seed, 0)), 0):
        ips = (spec.grad_rho(xs)[:, None, :] * _gradient_table(oracle, xs)).sum(axis=-1)
        i, l = np.unravel_index(np.argmin(ips), ips.shape)
        if _replaces(ips[i, l], low, lower=True):
            low = (ips[i, l], {"x": xs[i].tolist(), "outcome": int(l)})
    worst = float(low[0])
    return ConfinementReport(
        check="plain_confinement",
        passed=bool(worst >= 0.0),
        min_margin=worst,
        witness=None if worst >= 0.0 else low[1] | {"value": worst},
        n_samples=n_samples,
        seed=seed,
        notes="sampled evidence on the band [rho0, 10*rho0]; not a proof",
    )


def _hessian_sup(spec, oracle, level, theta, n_samples, seed) -> float:
    """The sampled sup of Hess(rho o R_x)|_{-s v}(v, v) over {rho <= level},
    the directions v of _direction_set and step fractions s in [0, theta]."""
    rng, rng_theta = np.random.default_rng([seed, 4]), np.random.default_rng([seed, 5])
    dim = oracle.manifold.ambient_dim
    highs = []
    for xs in _chunks(oracle, _sublevel_points(spec, dim, level, n_samples, (seed, 3)), _N_COMBOS):
        flat_x, flat_v = _flat_directions(oracle, xs, rng, _N_COMBOS)
        thetas = rng_theta.uniform(0.0, theta, size=flat_v.shape[0])
        highs.append(np.max(hessian_quadform(oracle.manifold, spec.rho, flat_x,
                                             -thetas[:, None] * flat_v, flat_v)))
    return float(np.max(highs))


def estimate_constants(spec: ConfinementSpec, oracle: GradientOracle, schedule,
                       lam: float, b: float | str, theta: float, n_samples: int,
                       seed: int = 0) -> ConfinementConstants:
    """Sampled suprema behind phi, with the multiplicative safety factor _SAFETY.

    lambda_est bounds (1/lam) * max(0, -<grad rho(x), v>) over {rho <= rho0},
    b_est bounds (1/b) * sqrt(max(0, Hess(rho o R_x)|_{-theta v}(v, v))) over
    {rho <= rho1} and step fractions in [0, theta].  phi may exceed the
    minimal admissible value; any upper bound preserves the guarantee.

    b = "auto" takes b = max(b_est, 1e-6) from a first estimate at b = 1: the
    constants equal those of a call with b = 1 followed by a call with that
    b, while sigma and the lambda half, which do not depend on b, are
    computed once.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    check = validate_robbins_monro(schedule)
    if not check.valid:
        raise ValueError(f"schedule must satisfy the step-size conditions: {check.reason}")
    auto = isinstance(b, str)
    if auto and b != "auto":
        raise ValueError(f"b must be a number or 'auto', got {b!r}")
    if min(lam, 1.0 if auto else b, theta) <= 0:
        raise ValueError("lambda, b, theta must be > 0")
    c = schedule.max_gamma()
    sigma = sum_of_squares(schedule)
    dim = oracle.manifold.ambient_dim

    rng = np.random.default_rng([seed, 2])
    lows = []
    for xs in _chunks(oracle, _sublevel_points(spec, dim, spec.rho0, n_samples, (seed, 1)),
                      _N_COMBOS):
        v = _direction_set(oracle, xs, rng, _N_COMBOS)
        lows.append(np.min((spec.grad_rho(xs)[:, None, :] * v).sum(axis=-1)))
    lambda_est = float(max(0.0, -np.min(lows))) / lam

    def b_est_at(b):
        rho1 = spec.rho0 + lam * c + 0.5 * b * b * sigma
        return float(np.sqrt(max(0.0, _hessian_sup(spec, oracle, rho1, theta, n_samples,
                                                   seed)))) / b, rho1

    if auto:
        b = max(b_est_at(1.0)[0], 1e-6)
    b_est, rho1 = b_est_at(b)

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
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if spec.variant not in ("kappa", "batch_kappa"):
        raise ValueError("spec.variant must be kappa or batch_kappa")
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    man = oracle.manifold
    dim = man.ambient_dim
    combos = _N_COMBOS if spec.variant == "batch_kappa" else 0

    # inequality 1: from rho(x) <= rho0, steps of length <= kappa stay <= rho1;
    # the highest rho reached by random step fractions, then by kappa itself
    rng, rng_s = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 3])
    tops = [None, None]
    for xs in _chunks(oracle, _sublevel_points(spec, dim, spec.rho0, n_samples, (seed, 1)), combos):
        flat_x, flat_v = _flat_directions(oracle, xs, rng, combos)
        s_random = rng_s.uniform(0.0, kappa, size=flat_v.shape[0])
        for k, s in enumerate((s_random, np.full(flat_v.shape[0], kappa))):
            reached = spec.rho(man.retract(flat_x, -s[:, None] * flat_v))
            i = int(np.argmax(reached))
            if _replaces(reached[i], tops[k], lower=False):
                tops[k] = (reached[i], {"x": flat_x[i].tolist(), "v": flat_v[i].tolist(),
                                        "s": float(s[i])})
    top = tops[1] if _replaces(tops[1][0], tops[0], lower=False) else tops[0]
    margin1 = float(spec.rho1 - top[0])

    # inequality 2: on the band, <grad rho, v> dominates the Hessian term
    rng, rng_s = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 6])
    low = None
    for xs in _chunks(oracle, _band_points(spec, dim, spec.rho0, spec.rho1, n_samples, (seed, 4)),
                      combos):
        flat_x, flat_v = _flat_directions(oracle, xs, rng, combos)
        s = rng_s.uniform(0.0, kappa, size=flat_v.shape[0])
        lhs = (spec.grad_rho(flat_x) * flat_v).sum(axis=-1)
        quad = hessian_quadform(man, spec.rho, flat_x, -s[:, None] * flat_v, flat_v)
        gaps = lhs - np.maximum(0.0, 0.5 * kappa * quad)
        i = int(np.argmin(gaps))
        if _replaces(gaps[i], low, lower=True):
            low = (gaps[i], {"x": flat_x[i].tolist(), "v": flat_v[i].tolist(),
                             "s": float(s[i])})
    margin2 = float(low[0])

    worst = min(margin1, margin2)
    if worst == margin2:
        witness = low[1] | {"gap": margin2}
    else:
        witness = top[1] | {"rho_reached": float(top[0])}
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
