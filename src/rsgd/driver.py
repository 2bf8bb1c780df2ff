"""The SGD iteration loop and its per-iteration record keeping.

Both update rules are provided: deterministic rates gamma_t and the adaptive
rule whose step is computed from strictly past gradient norms.  One engine
serves single runs and seed batches; a batch of S trajectories is iterated in
lockstep as (S, d) arrays, and because every draw is a pure function of
(seed, t) and every array operation reduces along fixed axes, the batched run
is bitwise identical to running each seed alone.

The loop runs over blocks of steps.  Since no draw depends on the order of
the steps, each block's batches come from one ``plan.draw_blocks`` call (a
block keeps one batch layout and holds at most ``batching._BLOCK_WORDS``
outcome indices over all seeds, so its memory stays flat), the weights are
computed once per layout and deterministic rates once per block through the
scalar ``gamma(t) / rate_divisor``.  Everything that depends on the iterate,
including the per-step finiteness and degeneracy checks, still runs step by
step, so the records equal those of a step-at-a-time loop bit for bit.

Trajectories record, per iteration: cost, exact gradient norm, step size,
batch size, batch gradient norm, and the noise inner product
<grad F, h - grad F> (enough to rebuild every diagnostic), plus optional rho
values and a region-membership flag.  Compactness of the iterate set is
monitored, not enforced.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .batching import BatchPlan, combine_batch
from .errors import DegenerateRetraction
from .problems import GradientOracle
from .schedules import AdaptiveRate, ExplicitSchedule, PowerLawSchedule

CSV_HEADER = "t,F,grad_norm,step,batch_size,batch_grad_norm,rho,in_K"

DeterministicSchedule = (PowerLawSchedule, ExplicitSchedule)


@dataclass
class RunConfig:
    """Everything one trajectory needs; immutable by convention once built."""

    oracle: GradientOracle
    plan: BatchPlan
    rate: object
    x0: np.ndarray
    horizon: int
    seed: int = 0
    store_iterates: bool = False
    rho: Callable | None = None
    region_rho1: float | None = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        man = self.oracle.manifold
        if self.x0.shape != (man.ambient_dim,):
            raise ValueError(f"x0 must have shape ({man.ambient_dim},)")
        if not bool(np.all(man.contains(self.x0, tol=1e-9))):
            raise ValueError("x0 does not satisfy the manifold's point invariant")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.plan.space.size != self.oracle.space.size or not np.array_equal(
            self.plan.space.weights, self.oracle.space.weights
        ):
            raise ValueError("plan and oracle must share the same sample space")
        if not isinstance(self.rate, (AdaptiveRate, *DeterministicSchedule)):
            raise TypeError(f"unsupported rate type {type(self.rate).__name__}")


@dataclass
class Trajectory:
    """Per-iteration records of one run; arrays have length horizon + 1.

    Entries at index T (the final state) have no step attached: batch columns
    hold NaN there, batch_size holds 0, and step[T] is the rate the next
    iteration would use (defined for power-law and adaptive rates).

    noise_inner holds <grad F(x_t), h_t - grad F(x_t)>, the martingale
    increment numerator; <grad F, h_t> is noise_inner + grad_norm^2.
    """

    seed: int
    F: np.ndarray
    grad_norm: np.ndarray
    step: np.ndarray
    batch_size: np.ndarray
    batch_grad_norm: np.ndarray
    noise_inner: np.ndarray
    in_region: np.ndarray
    rho: np.ndarray | None = None
    status: str = "ok"
    abort_t: int | None = None
    iterates: np.ndarray | None = field(default=None, repr=False)

    @property
    def horizon(self) -> int:
        return len(self.F) - 1

    def running_min_grad_norm(self) -> np.ndarray:
        return np.minimum.accumulate(self.grad_norm)

    def write_csv(self, path) -> None:
        n = len(self.F)
        rho = np.full(n, np.nan) if self.rho is None else self.rho
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            buf = io.StringIO()
            for t in range(n):
                buf.write(
                    f"{t},{self.F[t]:.17g},{self.grad_norm[t]:.17g},{self.step[t]:.17g},"
                    f"{int(self.batch_size[t])},{self.batch_grad_norm[t]:.17g},"
                    f"{rho[t]:.17g},{int(self.in_region[t])}\n"
                )
            fh.write(buf.getvalue())


def read_trajectory_csv(path, seed: int = -1) -> Trajectory:
    """Rebuild the recorded columns of a trajectory written by write_csv."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 8:
        raise ValueError(f"{path}: expected 8 columns, found {data.shape[1]}")
    rho = data[:, 6]
    return Trajectory(
        seed=seed,
        F=data[:, 1],
        grad_norm=data[:, 2],
        step=data[:, 3],
        batch_size=data[:, 4].astype(int),
        batch_grad_norm=data[:, 5],
        noise_inner=np.full(len(data), np.nan),
        in_region=data[:, 7].astype(bool),
        rho=None if np.all(np.isnan(rho)) else rho,
    )


def _run_block(cfg: RunConfig, seeds: np.ndarray, rate_divisor: float = 1.0) -> list[Trajectory]:
    oracle, plan, man = cfg.oracle, cfg.plan, cfg.oracle.manifold
    T = cfg.horizon
    seeds = np.asarray(seeds, dtype=np.int64)
    s_count = seeds.size
    d = man.ambient_dim

    x = np.tile(cfg.x0, (s_count, 1))
    nan = np.nan
    F = np.full((s_count, T + 1), nan)
    gn = np.full((s_count, T + 1), nan)
    step = np.full((s_count, T + 1), nan)
    bgn = np.full((s_count, T + 1), nan)
    noise = np.full((s_count, T + 1), nan)
    bsize = np.zeros(T + 1, dtype=np.int64)
    rho_rec = np.full((s_count, T + 1), nan) if cfg.rho is not None else None
    iterates = np.full((s_count, T + 1, d), nan) if cfg.store_iterates else None

    alive = np.ones(s_count, dtype=bool)
    degenerate = np.zeros(s_count, dtype=bool)
    abort_t = np.full(s_count, -1, dtype=np.int64)

    adaptive = isinstance(cfg.rate, AdaptiveRate)
    if adaptive:
        expo = cfg.rate.exponent
        acc = np.zeros(s_count)
        comp = np.zeros(s_count)

    def record_state(t):
        fx = oracle.cost(x)
        g = oracle.full_gradient(x)
        gnt = man.norm(x, g)
        F[:, t] = np.where(alive, fx, nan)
        gn[:, t] = np.where(alive, gnt, nan)
        if rho_rec is not None:
            rho_rec[:, t] = np.where(alive, cfg.rho(x), nan)
        if iterates is not None:
            iterates[:, t, :] = np.where(alive[:, None], x, nan)
        return g, gnt, fx

    # batch weights per layout, computed on first use
    weights_of = {}

    # overflow/invalid are tolerated: rows going non-finite are caught and retired
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, block in plan.draw_blocks(0, T, seeds):
            layout = plan.layout(t0)
            if layout not in weights_of:
                w = plan.weights_at(t0)
                weights_of[layout] = w, bool(np.all(w == w[0]))
            weights, equal = weights_of[layout]
            n_steps = block.shape[1]
            bsize[t0 : t0 + n_steps] = block.shape[2]
            if not adaptive:
                rates = [cfg.rate.gamma(t) / rate_divisor for t in range(t0, t0 + n_steps)]

            for k in range(n_steps):
                t = t0 + k
                g, gnt, fx = record_state(t)
                blown = alive & ~(np.isfinite(fx) & np.isfinite(gnt))
                if blown.any():
                    abort_t[blown] = t
                    alive &= ~blown

                grads = oracle.sample_gradients(x, block[:, k])
                h = combine_batch(weights, grads, equal)
                bh = man.norm(x, h)
                bgn[:, t] = np.where(alive, bh, nan)
                noise[:, t] = np.where(alive, man.inner(x, g, h - g), nan)

                if adaptive:
                    rate_t = cfg.rate.alpha / np.power(cfg.rate.beta + acc, expo)
                    v = -rate_t[:, None] * h
                else:
                    rate_t = rates[k]
                    v = -rate_t * h
                step[:, t] = np.where(alive, rate_t, nan)

                y, ok = man.retract_flagged(x, v)
                y_finite = np.isfinite(y).all(axis=-1)
                newly_degenerate = alive & ~ok
                newly_blown = alive & ok & ~y_finite
                if newly_degenerate.any() or newly_blown.any():
                    dead = newly_degenerate | newly_blown
                    abort_t[dead] = t
                    degenerate |= newly_degenerate
                    alive &= ~dead
                x = np.where((alive & ok & y_finite)[:, None], y, x)

                if adaptive:
                    # accumulate the realized batch gradient only after the step:
                    # eta_t must depend on strictly past draws
                    g2 = np.where(alive, bh * bh, 0.0)
                    yk = g2 - comp
                    tk = acc + yk
                    comp = (tk - acc) - yk
                    acc = tk

        record_state(T)

    if adaptive:
        step[:, T] = np.where(alive, cfg.rate.alpha / np.power(cfg.rate.beta + acc, expo), nan)
    else:
        try:
            step[:, T] = np.where(alive, cfg.rate.gamma(T) / rate_divisor, nan)
        except IndexError:
            pass

    if rho_rec is not None and cfg.region_rho1 is not None:
        with np.errstate(invalid="ignore"):
            in_reg = rho_rec <= cfg.region_rho1
    else:
        in_reg = np.ones((s_count, T + 1), dtype=bool)

    out = []
    for i, s in enumerate(seeds):
        if degenerate[i]:
            status = "degenerate"
        elif alive[i]:
            status = "ok"
        else:
            status = "nonfinite"
        out.append(
            Trajectory(
                seed=int(s),
                F=F[i],
                grad_norm=gn[i],
                step=step[i],
                batch_size=bsize,
                batch_grad_norm=bgn[i],
                noise_inner=noise[i],
                in_region=in_reg[i],
                rho=None if rho_rec is None else rho_rec[i],
                status=status,
                abort_t=None if abort_t[i] < 0 else int(abort_t[i]),
                iterates=None if iterates is None else iterates[i],
            )
        )
    return out


def _raise_if_degenerate(trajectories):
    bad = [tr.seed for tr in trajectories if tr.status == "degenerate"]
    if bad:
        raise DegenerateRetraction(f"retraction degenerated for seeds {bad}")


def run_deterministic(cfg: RunConfig) -> Trajectory:
    """Iterate x <- retract(x, -gamma_t * batch_gradient); one trajectory."""
    if not isinstance(cfg.rate, DeterministicSchedule):
        raise TypeError("run_deterministic needs a deterministic schedule")
    out = _run_block(cfg, np.array([cfg.seed]))
    _raise_if_degenerate(out)
    return out[0]


def run_adaptive(cfg: RunConfig) -> Trajectory:
    """Iterate with eta_t computed from the accumulated past squared norms."""
    if not isinstance(cfg.rate, AdaptiveRate):
        raise TypeError("run_adaptive needs adaptive hyperparameters")
    out = _run_block(cfg, np.array([cfg.seed]))
    _raise_if_degenerate(out)
    return out[0]


def run_many(cfg: RunConfig, n_seeds: int) -> list[Trajectory]:
    """Independent trajectories with seeds cfg.seed .. cfg.seed + n_seeds - 1.

    Results are identical to running each seed alone (same arithmetic, and
    draws depend only on (seed, t)), merged in seed order.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    out = _run_block(cfg, cfg.seed + np.arange(n_seeds, dtype=np.int64))
    _raise_if_degenerate(out)
    return out
