"""Learning-rate schedules: deterministic with divergence/summability checks,
and the adaptive rule eta_t = alpha / (beta + sum of past squared gradient
norms)^(1/2 + epsilon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidHyperparameters

_SQUARE_SUM_TERMS = 10**6


@dataclass(frozen=True)
class PowerLawSchedule:
    """gamma_t = min(1, c / (t+1)^p); the clamp touches finitely many terms."""

    c: float
    p: float

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise ValueError(f"c must be finite and > 0, got {self.c}")
        if not np.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p}")

    def gamma(self, t: int) -> float:
        return min(1.0, self.c / (t + 1.0) ** self.p)

    def max_gamma(self) -> float:
        # gamma is nonincreasing for p >= 0; for p < 0 it is unbounded but
        # clamped at 1, so the max over t is still gamma at the clamp.
        return self.gamma(0) if self.p >= 0 else 1.0


@dataclass(frozen=True)
class ExplicitSchedule:
    """Finite list of rates; only usable up to its own horizon."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("need at least one rate")
        if any(not 0 < v <= 1 for v in vals):
            raise ValueError("every rate must satisfy 0 < gamma <= 1")
        object.__setattr__(self, "values", vals)

    def gamma(self, t: int) -> float:
        if t >= len(self.values):
            raise IndexError(f"schedule has {len(self.values)} rates, t={t} requested")
        return self.values[t]

    def max_gamma(self) -> float:
        return max(self.values)


@dataclass(frozen=True)
class ScaledSchedule:
    """gamma_t = schedule.gamma(t) / phi, the rates of a confined run."""

    schedule: PowerLawSchedule | ExplicitSchedule
    phi: float

    def gamma(self, t: int) -> float:
        return self.schedule.gamma(t) / self.phi


@dataclass(frozen=True)
class ScheduleCheck:
    valid: bool
    reason: str


def validate_robbins_monro(schedule) -> ScheduleCheck:
    """Whether sum gamma_t diverges while sum gamma_t^2 converges.

    Power law: valid exactly for 1/2 < p <= 1 (p-series test; the clamp to 1
    changes finitely many terms and does not affect either series).  Explicit
    lists are finite, so the divergence requirement can never hold.
    """
    if isinstance(schedule, PowerLawSchedule):
        p = schedule.p
        if 2 * p <= 1:
            return ScheduleCheck(False, f"sum of squares diverges: 2p = {2 * p:g} <= 1")
        if p > 1:
            return ScheduleCheck(False, f"rate sum converges: p = {p:g} > 1")
        return ScheduleCheck(True, f"p = {p:g} in (1/2, 1]")
    if isinstance(schedule, ExplicitSchedule):
        return ScheduleCheck(False, "finite horizon only: a finite rate sum cannot diverge")
    raise TypeError(f"unsupported schedule type {type(schedule).__name__}")


def sum_of_squares(schedule) -> float:
    """Upper bound on sigma = sum_t gamma_t^2, tight to ~1e-9 for power laws.

    Computed as an exact partial sum over ``_SQUARE_SUM_TERMS`` entries plus
    an integral tail bound; requires a square-summable schedule.  The terms
    are built in place in one float64 buffer, so a call holds 8 bytes per
    term and no more.
    """
    if isinstance(schedule, ExplicitSchedule):
        return float(np.sum(np.asarray(schedule.values) ** 2))
    if not isinstance(schedule, PowerLawSchedule):
        raise TypeError(f"unsupported schedule type {type(schedule).__name__}")
    if 2 * schedule.p <= 1:
        raise ValueError("sum of squares diverges for 2p <= 1")
    g = np.arange(1.0, _SQUARE_SUM_TERMS + 1.0)
    np.power(g, schedule.p, out=g)
    np.divide(schedule.c, g, out=g)
    np.minimum(1.0, g, out=g)
    np.multiply(g, g, out=g)
    partial = float(np.sum(g))
    # sum_{t >= M} (t+1)^{-2p} <= integral_{M-1}^{inf} (x+1)^{-2p} dx
    tail = (schedule.c**2 * float(_SQUARE_SUM_TERMS) ** (1.0 - 2.0 * schedule.p)
            / (2.0 * schedule.p - 1.0))
    return partial + tail


def cumulative_squares(schedule, horizon: int) -> np.ndarray:
    """Partial sums: entry t holds sum_{j < t} gamma_j^2, for t = 0 .. horizon."""
    g = np.array([schedule.gamma(t) for t in range(horizon)], dtype=float)
    out = np.zeros(horizon + 1)
    np.cumsum(g * g, out=out[1:])
    return out


@dataclass(frozen=True)
class AdaptiveRate:
    """Hyperparameters of the adaptive rule; validated at construction."""

    alpha: float = 0.5
    beta: float = 1.0
    epsilon: float = 0.25

    def __post_init__(self):
        if not 0 < self.epsilon <= 0.5:
            raise InvalidHyperparameters(f"epsilon must lie in (0, 1/2], got {self.epsilon}")
        if not self.alpha > 0 or not self.beta > 0:
            raise InvalidHyperparameters("alpha and beta must be > 0")
        if self.alpha > self.beta ** (0.5 + self.epsilon):
            raise InvalidHyperparameters(
                f"need alpha <= beta^(1/2+eps): {self.alpha} > {self.beta ** (0.5 + self.epsilon)}"
            )

    @property
    def exponent(self) -> float:
        return 0.5 + self.epsilon

    def eta0(self) -> float:
        return float(self.alpha / self.beta**self.exponent)

    def square_sum_bound(self) -> float:
        """Deterministic bound on sum_t eta_{t+1}^2 ||h_t||^2 over any run."""
        return float(self.alpha**2 / (2.0 * self.epsilon * self.beta ** (2.0 * self.epsilon)))
