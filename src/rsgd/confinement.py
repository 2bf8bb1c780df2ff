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

A second, kappa-flavored certificate bounds steps of length up to kappa
through the Hessian of rho composed with the retraction and covers the
adaptive rule, whose steps never exceed eta_0; its runs keep rho(x_t) <= rho1.

One guard asserts a confined run's invariant on every recorded step:
``_guarded`` runs ``run_many`` with a ``_Guard`` sink beside the run's own,
which checks each block as the run hands it over, and once the run is done
raises one ConfinementViolation, for the first failing step of the lowest
failing seed.  Each runner supplies its checks of its inputs, its level,
the invariant's left-hand side and the violation's message.

The suprema entering phi are estimated by sampling plus a safety factor; a
sampled PASS is strong evidence, not a proof, and reports say so.  Directions
ranging over the convex hull of {H(x, l)} are covered by the extreme points
themselves (exact for objectives linear in the direction) plus
Dirichlet-weighted combinations (a heuristic for the quadratic Hessian form).
The samplers draw points along straight rays and step by x - s v, so they
sample flat space only: a non-Euclidean oracle raises ValueError.

One generator, ``_pairs``, draws every sample.  Sampler k takes its rho
levels from the stream [seed, k, 0], its ray directions from [seed, k, 1],
its Dirichlet weights from [seed, k + 1] and its step fractions from
[seed, k + 2]:

    k = 0  plain check          band [rho0, 10 rho0]
    k = 1  lambda half          sublevel {rho <= rho0}
    k = 1  kappa step check     sublevel {rho <= rho0}
    k = 3  Hessian sup (b_est)  sublevel {rho <= rho1}
    k = 4  kappa band check     band [rho0, rho1]

Memory: the samplers visit their sample points in chunks whose largest
array holds at most ``budget.WORDS`` words (or one point's arrays, when a
single point needs more), so their transient memory does not grow with the
number of samples.  The chunks draw their Dirichlet weights
and step fractions from the same generators in turn, which gives the bits
of one draw over all points.  Each chunk keeps its first extreme entry
(``_pick``), and the same rule over those picks (``_first``) finds the
entry it would find over all points at once: the first NaN wins over
everything, and ties keep the earlier entry.  The rule is the package's one
verdict rule and lives in :mod:`rsgd.diagnostics`.  In the
kappa step check every random step fraction comes before every endpoint
step, and the band margin before the step margin.  A NaN fails a check, and
a NaN supremum behind phi raises SamplerFailure.  The samplers compute with
numpy's overflow and invalid warnings off, since the inf or NaN an overflow
leaves is what their verdicts name.  A rho level that 2^_MAX_DOUBLINGS radii
do not reach raises InvalidHyperparameters naming the input that set it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import budget
from .diagnostics import _at, _first, _pick
from .driver import RunConfig, run_many
from .errors import ConfinementViolation, InvalidHyperparameters, SamplerFailure
from .problems import GradientOracle
from .records import MemorySink, Tee, Trajectory
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
        if not np.isfinite([self.rho0, 0.0 if self.rho1 is None else self.rho1]).all():
            raise ValueError(f"rho0 and rho1 must be finite, got {self.rho0}, {self.rho1}")
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
        # a NaN passes every comparison below
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
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


def _hessian_quadform(manifold, rho: Callable, x, u, v):
    """Hess(rho o R_x)|_u (v, v) by central second differences along v."""

    def f(s):
        return rho(manifold.retract(x, u + s * v))

    return (f(_HESS_STEP) - 2.0 * f(0.0) + f(-_HESS_STEP)) / _HESS_STEP**2


def _unit_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    a = rng.normal(size=(n, dim))
    return a / np.sqrt((a * a).sum(axis=1))[:, None]


class _Unbracketed(SamplerFailure):
    """A rho level that _MAX_DOUBLINGS radius doublings do not reach."""


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
        raise _Unbracketed("could not bracket the requested rho levels")

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


def _chunk_size(oracle, n_combos: int) -> int:
    """Sample points per chunk: the largest array a sampler makes per point,
    the (n_combos, N, d) Dirichlet product or N + n_combos directions of d
    words, stays within budget.WORDS words per chunk, or one point's."""
    n_out, dim = oracle.space.size, oracle.manifold.ambient_dim
    return max(1, budget.WORDS // (dim * max(n_combos * n_out, n_out + n_combos)))


def _pairs(spec, oracle, hi, n, seed, k, combos, top, lo=None, step=None):
    """Every (point, direction) pair of n sample points, as row arrays x and
    v per chunk of _chunk_size points, and a step fraction per row drawn
    uniformly from [0, step) when step is given.

    The points have rho levels uniform on [lo, hi], or on the sublevel set
    {rho <= hi} from rho(origin) when lo is None.  The directions at a point
    are the outcome gradients H(x, l), then `combos` Dirichlet-weighted
    convex combinations of them.  A level the radial sampler cannot reach
    raises InvalidHyperparameters naming ``top``, the input that set hi.
    """
    man = oracle.manifold
    if man.kind != "euclidean":
        raise ValueError(f"confinement certificates sample flat space, not the {man.kind}")
    dim, n_out = man.ambient_dim, oracle.space.size
    if lo is None:
        lo = float(np.asarray(spec.rho(np.zeros(dim))))
        if hi < lo:
            raise SamplerFailure(f"sublevel {hi:g} is below rho(origin) = {lo:g}")
    # separate streams for levels and rays keep the first n samples identical
    # as n grows, which makes the sup estimates monotone in n
    levels = np.random.default_rng([seed, k, 0]).uniform(lo, hi, size=n)
    try:
        xs = sample_rho_levels(spec.rho, dim, levels, np.random.default_rng([seed, k, 1]))
    except _Unbracketed:
        raise InvalidHyperparameters(
            f"{top}, a rho level that the radial sampler cannot reach "
            f"in {_MAX_DOUBLINGS} doublings of the radius") from None
    rng_w, rng_s = np.random.default_rng([seed, k + 1]), np.random.default_rng([seed, k + 2])
    m = _chunk_size(oracle, combos)
    for x in (xs[i:i + m] for i in range(0, n, m)):
        v = oracle.sample_gradients(x, np.broadcast_to(np.arange(n_out), (len(x), n_out)))
        if combos:
            w = rng_w.dirichlet(np.ones(n_out), size=(len(x), combos))
            v = np.concatenate([v, (w[..., None] * v[:, None, :, :]).sum(axis=2)], axis=1)
        flat_x, flat_v = np.repeat(x, v.shape[1], axis=0), v.reshape(-1, dim)
        if step is None:
            yield flat_x, flat_v
        else:
            yield flat_x, flat_v, rng_s.uniform(0.0, step, size=len(flat_v))


@np.errstate(over="ignore", invalid="ignore")
def check_plain_confinement(spec: ConfinementSpec, oracle: GradientOracle,
                            n_samples: int, seed: int = 0) -> ConfinementReport:
    """Sample the band rho0 <= rho <= 10 * rho0 and every outcome l; PASS iff
    the inner product <grad rho(x), H(x, l)> never goes negative.  A band
    whose top is not finite raises InvalidHyperparameters."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    hi = 10.0 * spec.rho0 if spec.rho0 > 0 else spec.rho0 + 1.0
    if not np.isfinite(hi):
        raise InvalidHyperparameters(f"rho0 = {spec.rho0:g} makes the band's top 10 rho0 = "
                                     f"{hi:g}, which is not finite")
    n_out = oracle.space.size
    worst, at = _first([_pick((spec.grad_rho(x) * v).sum(axis=-1), True,
                              x=x, outcome=np.arange(len(v)) % n_out)
                        for x, v in _pairs(spec, oracle, hi, n_samples, seed, 0, 0,
                                           f"rho0 = {spec.rho0:g} makes the band's top "
                                           f"10 rho0 = {hi:g}", lo=spec.rho0)], lower=True)
    worst = float(worst)
    return ConfinementReport(
        check="plain_confinement",
        passed=bool(worst >= 0.0),
        min_margin=worst,
        witness=None if worst >= 0.0 else at | {"value": worst},
        n_samples=n_samples,
        seed=seed,
        notes="sampled evidence on the band [rho0, 10*rho0]; not a proof",
    )


def _finite(name: str, pick):
    """The value of a pick, or SamplerFailure naming the quantity and the
    point where it is NaN (max(0.0, nan) would read it as 0)."""
    value, at = pick
    if value != value:
        raise SamplerFailure(f"{name} is NaN at x = {at['x']}")
    return value


@np.errstate(over="ignore", invalid="ignore")
def estimate_constants(spec: ConfinementSpec, oracle: GradientOracle, schedule,
                       lam: float, b: float | str, theta: float, n_samples: int,
                       seed: int = 0) -> ConfinementConstants:
    """Sampled suprema behind phi, with the multiplicative safety factor _SAFETY.

    lambda_est bounds (1/lam) * max(0, -<grad rho(x), v>) over {rho <= rho0},
    b_est bounds (1/b) * sqrt(max(0, Hess(rho o R_x)|_{-theta v}(v, v))) over
    {rho <= rho1} and step fractions in [0, theta].  phi may exceed the
    minimal admissible value; any upper bound preserves the guarantee.  A
    NaN sample raises SamplerFailure, a schedule whose sigma is not finite
    OverflowError, and a lambda, b or theta that makes rho1, lambda_est,
    b_est or c / theta not finite InvalidHyperparameters.

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
    if not np.isfinite(sigma):
        raise OverflowError(f"the schedule's sum of squares sigma = {sigma:g} overflows")

    low = _finite("lambda_est: <grad rho(x), v>", _first(
        [_pick((spec.grad_rho(x) * v).sum(axis=-1), True, x=x)
         for x, v in _pairs(spec, oracle, spec.rho0, n_samples, seed, 1, _N_COMBOS,
                            f"rho0 = {spec.rho0:g}")],
        lower=True))
    lambda_est = float(max(0.0, -low)) / lam

    def b_est_at(b):
        # the sup of Hess(rho o R_x)|_{-s v}(v, v) over {rho <= rho1}, s in [0, theta]
        rho1 = spec.rho0 + lam * c + 0.5 * b * b * sigma
        if not np.isfinite(rho1):
            raise InvalidHyperparameters(f"b = {b:g} makes rho1 = rho0 + lambda c + "
                                         f"b^2 sigma / 2 = {rho1:g}, which is not finite")
        high = _finite("b_est: Hess(rho o R_x)(v, v)", _first(
            [_pick(_hessian_quadform(oracle.manifold, spec.rho, x, -s[:, None] * v, v),
                   False, x=x)
             for x, v, s in _pairs(spec, oracle, rho1, n_samples, seed, 3, _N_COMBOS,
                                   f"b = {b:g} makes rho1 = {rho1:g}", step=theta)],
            lower=False))
        return float(np.sqrt(max(0.0, high))) / b, rho1

    if auto:
        b = max(b_est_at(1.0)[0], 1e-6)
    b_est, rho1 = b_est_at(b)
    for key, value, name, est in (("lambda", lam, "lambda_est", lambda_est),
                                  ("b", b, "b_est", b_est),
                                  ("theta", theta, "c / theta", c / theta)):
        if not np.isfinite(est):
            raise InvalidHyperparameters(f"{key} = {value:g} makes {name} = {est:g}, "
                                         "which is not finite")

    phi = max(_SAFETY * lambda_est, _SAFETY * b_est, c / theta)
    return ConfinementConstants(
        lam=lam, b=b, theta=theta, c=c, sigma=sigma,
        lambda_est=lambda_est, b_est=b_est, phi=phi,
        rho0=spec.rho0, rho1=rho1,
    )


@np.errstate(over="ignore", invalid="ignore")
def check_kappa_confinement(spec: ConfinementSpec, oracle: GradientOracle,
                            kappa: float, n_samples: int, seed: int = 0) -> ConfinementReport:
    """Sample both defining inequalities of a (batch) kappa-confinement.

    Directions v run over the outcome gradients for the kappa variant and
    additionally over Dirichlet convex combinations for batch_kappa.  Step
    fractions s cover [0, kappa] including the endpoint.  The worse margin
    is the first minimum of (band, step), so a NaN margin fails the check.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if spec.variant not in ("kappa", "batch_kappa"):
        raise ValueError("spec.variant must be kappa or batch_kappa")
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    man = oracle.manifold
    combos = _N_COMBOS if spec.variant == "batch_kappa" else 0

    # inequality 1: from rho(x) <= rho0, steps of length <= kappa stay <= rho1;
    # the highest rho reached, every random step fraction before every kappa
    randoms, ends = [], []
    for x, v, s_random in _pairs(spec, oracle, spec.rho0, n_samples, seed, 1, combos,
                                 f"rho0 = {spec.rho0:g}", step=kappa):
        for picks, s in ((randoms, s_random), (ends, np.full(len(v), kappa))):
            reached = spec.rho(man.retract(x, -s[:, None] * v))
            picks.append(_pick(reached, False, x=x, v=v, s=s))
    top, at_top = _first(randoms + ends, lower=False)
    margin1 = float(spec.rho1 - top)

    # inequality 2: on the band, <grad rho, v> dominates the Hessian term
    bands = []
    for x, v, s in _pairs(spec, oracle, spec.rho1, n_samples, seed, 4, combos,
                          f"the band's top rho1 = {spec.rho1:g}", lo=spec.rho0, step=kappa):
        quad = _hessian_quadform(man, spec.rho, x, -s[:, None] * v, v)
        gaps = (spec.grad_rho(x) * v).sum(axis=-1) - np.maximum(0.0, 0.5 * kappa * quad)
        bands.append(_pick(gaps, True, x=x, v=v, s=s))
    low, at_low = _first(bands, lower=True)
    margin2 = float(low)

    worst, witness = _first([(margin2, at_low | {"gap": margin2}),
                             (margin1, at_top | {"rho_reached": float(top)})], lower=True)
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


class _Guard:
    """The sink that watches a confined run's invariant, lhs(records) <=
    level, on each block and keeps every seed's first failing step and value."""

    def __init__(self, n_seeds: int, level: float, lhs: Callable):
        self.level, self.lhs = level, lhs
        self.t = np.full(n_seeds, -1)
        self.value = np.zeros(n_seeds)

    def put(self, rec) -> None:
        lhs = self.lhs(rec)
        bad = lhs > self.level
        for i in np.flatnonzero(bad.any(axis=1) & (self.t < 0)):
            k = _at(bad[i], False)
            self.t[i], self.value[i] = rec.t0 + k, lhs[i, k]

    def close(self, seeds, status, abort_t) -> None:
        pass


def _guarded(cfg: RunConfig, n_seeds: int, sink, start: tuple, lhs: Callable,
             message: str) -> list:
    """``run_many`` of a confined run into sink (a ``MemorySink`` when None),
    with its invariant lhs(records) <= cfg.region_rho1 watched by a ``_Guard``.

    rho(x0) must not exceed the level start, a (name, value) pair.  Once the
    run is done, a broken invariant raises ConfinementViolation for the
    lowest failing seed, with message formatted from its t, seed and value
    and the level."""
    name, bound = start
    rho_x0 = float(np.asarray(cfg.rho(cfg.x0)))
    if rho_x0 > bound + _INVARIANT_SLACK:
        raise InvalidHyperparameters(f"rho(x0) = {rho_x0:g} must not exceed {name} = {bound:g}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    level = cfg.region_rho1
    guard = _Guard(n_seeds, level + _INVARIANT_SLACK, lhs)
    out = run_many(cfg, n_seeds, Tee(MemorySink(cfg, n_seeds) if sink is None else sink, guard))
    failed = np.flatnonzero(guard.t >= 0)
    if failed.size:
        i = failed[0]
        t, seed = int(guard.t[i]), out[i].seed
        raise ConfinementViolation(message.format(t=t, seed=seed, value=float(guard.value[i]),
                                                  level=level), t=t, seed=seed)
    return out


def run_confined_deterministic_many(cfg: RunConfig, constants: ConfinementConstants,
                                    n_seeds: int, sink=None) -> list:
    """Deterministic-rate runs scaled by 1/phi, with the induction invariant
    asserted at every recorded step of every trajectory, block by block as
    the run hands its records to ``sink`` (``run_many``'s).  A violation is
    raised after the run, for the lowest failing seed."""
    if isinstance(cfg.rate, AdaptiveRate):
        raise TypeError("confined deterministic runs need a deterministic schedule")
    if cfg.rho is None:
        raise ValueError("RunConfig.rho must be set for confined runs")
    carry = 0.0  # sum_{j < t0} gamma_j^2 of the next block
    half_b2 = 0.5 * constants.b**2

    def lhs(rec):
        # rho + b^2/2 * sum_{j >= t} gamma_j^2, the tail as sigma - sum_{j < t}
        nonlocal carry
        k = rec.rho.shape[1]
        cum = cumulative_squares(cfg.rate, min(rec.t0 + k, cfg.horizon), rec.t0, carry)
        carry = cum[-1]
        return rec.rho + half_b2 * (constants.sigma - cum[:k])

    return _guarded(replace(cfg, rate=ScaledSchedule(cfg.rate, constants.phi),
                            region_rho1=constants.rho1), n_seeds, sink,
                    ("rho0", constants.rho0), lhs,
                    "induction invariant failed at t={t}: rho + b^2/2 * tail = {value:.6g} "
                    "> rho1 = {level:.6g} (seed {seed}); lambda_est or b_est likely "
                    "underestimated")


def run_confined_deterministic(cfg: RunConfig, constants: ConfinementConstants) -> Trajectory:
    return run_confined_deterministic_many(cfg, constants, 1)[0]


def run_confined_adaptive_many(cfg: RunConfig, spec: ConfinementSpec, kappa: float,
                               n_seeds: int, sink=None) -> list:
    """Adaptive runs under a kappa-confinement; every step must stay <= rho1,
    checked block by block as the run hands its records to ``sink``."""
    if not isinstance(cfg.rate, AdaptiveRate):
        raise TypeError("confined adaptive runs need adaptive hyperparameters")
    if spec.rho1 is None:
        raise ValueError("spec.rho1 is required for confined adaptive runs")
    eta0 = cfg.rate.eta0()
    if eta0 > kappa:
        raise InvalidHyperparameters(
            f"eta_0 = {eta0:g} exceeds kappa = {kappa:g}; steps would be too long")
    return _guarded(replace(cfg, rho=spec.rho, region_rho1=spec.rho1), n_seeds, sink,
                    ("rho1", spec.rho1), lambda rec: rec.rho,
                    "rho(x_t) = {value:.6g} > rho1 = {level:.6g} at t={t} (seed {seed})")
