"""Reference implementations that the package is tested against.

They compute the same quantities as the package the direct way: one step and
one seed at a time, with dense arrays, without the shortcuts the engine takes.
The oracles held here:

* ``DirectLeastSquares``: cost and gradient summed over all N rows, the
  reference for the moment form of ``RegularizedLeastSquaresProblem``;
* ``pool_subsets``: the no-repetition draw as a dense pool shuffle, the
  reference for ``SubsetPlan``;
* ``rowmajor_draw``: a block of any plan's draws with the counters keys
  outermost and slots innermost, each no-repetition batch replayed one swap
  column at a time (``column_replay``) and sorted along its row, and one
  ``randints`` call and one gather per stratum, the reference for the
  slot-major ``draw`` of all three plans;
* ``walked_run_end``: where a run of one batch size ends, found by asking
  for the size of every step, the reference for ``BatchSizes.run_end``;
* ``walked_blocks``: the driver's blocks found the same way, the reference
  for ``driver._blocks``;
* ``dense_outcomes``: every batch of a plan at one step with its probability,
  from ``itertools``, the reference for ``iter_outcome_chunks`` and, through
  the batch coefficients' mean and covariance over it, for ``coefficients``,
  ``enumerate_expectation`` and ``variance_report``;
* ``BatchDraw``, ``draw_batch`` and ``batch_gradient``: one batch for one seed
  and step and its averaged gradient, the step-at-a-time path;
* ``stepwise_run``: the engine's iteration one step at a time on that path,
  the reference for ``run_many`` and every record it keeps;
* ``AdaptiveState``: a scalar, Kahan-compensated accumulator of squared batch
  gradient norms, the reference for the adaptive rule's step sizes;
* ``retract_differential``: dR_x|_u, the reference for ``retract_adjoint``,
  with ``is_tangent`` and ``random_tangent`` for the manifold tests;
* ``sample_gradient``: H(x, l) for one outcome;
* ``running_min_grad_norm``: the running minimum of a trajectory's gradient norm;
* ``rowwise_csv``: the trajectory CSV one row at a time, the reference for
  ``Trajectory.write_csv`` and ``records.CsvSink``;
* ``broadcast_sample_gradients``, ``mean_combine``, ``sum_dot`` and
  ``broadcast_retract_flagged``: the step kernels written with broadcasts and
  ``ndarray.sum`` / ``mean``, the references for both problems'
  ``sample_gradients``, ``combine_batch``, ``manifolds._dot`` and the
  retractions (whose ok array the reference always returns, where the
  package returns None when every row succeeded); ``stepwise_run`` computes
  every step with them;
* ``sum_cost`` and ``sum_full_gradient``: the moment forms of both problems'
  cost and of the least-squares gradient with ``ndarray.sum`` along d, the
  references for the record sums;
* ``one_shot_sum_of_squares``: sigma from a partial sum built in fresh arrays,
  and ``one_buffer_sum_of_squares``, the same terms built in place in one
  buffer and summed by one ``np.sum``, the references for
  ``schedules.sum_of_squares``;
* ``list_convergence_metrics``: the convergence summary over every seed's
  whole trajectory at once, with one (S, T+1) array of squared gradient
  norms and a ``cumsum`` per seed, the reference for
  ``diagnostics.ConvergenceFold``;
* ``one_shot_check_plain_confinement``, ``one_shot_estimate_constants`` and
  ``one_shot_check_kappa_confinement``: the confinement samplers over all
  sample points at once, with one (n, N, d) gradient table, one Dirichlet
  product and ``np.min`` / ``np.argmin`` over whole arrays, the references
  for the chunked samplers of ``rsgd.confinement``.  They draw their points
  with their own copies of the band and sublevel samplers, and a NaN fails
  a check and raises ``SamplerFailure`` in the constants;
* ``looped_verdict``: a check's verdict found by walking its excess values
  one at a time, the reference for ``diagnostics._verdict`` and the rule
  ``diagnostics._at`` behind every verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from rsgd import budget, driver
from rsgd import rng as crng
from rsgd.batching import _STREAM_SEGMENT, _STREAM_STRATIFIED, _STREAM_SUBSET
from rsgd.confinement import (_INVARIANT_SLACK, _N_COMBOS, _SAFETY, ConfinementConstants,
                              ConfinementReport, _hessian_quadform, sample_rho_levels)
from rsgd.errors import InvalidPlan, SamplerFailure
from rsgd.manifolds import DEGENERACY_EPS, Euclidean, Sphere
from rsgd.problems import RegularizedLeastSquaresProblem, SphereMeanProblem
from rsgd.records import CSV_HEADER, Trajectory
from rsgd.schedules import _SQUARE_SUM_TERMS, AdaptiveRate, ExplicitSchedule


class DirectLeastSquares(RegularizedLeastSquaresProblem):
    """Least squares whose cost and exact gradient sum over all N rows:
    F(x) = sum_l w_l r_l^2 / 2 + tau ||x||^2 / 2 with residuals
    r_l = <a_l, x> - y_l, O(N d) per point, instead of the package's moments."""

    def _residuals(self, x):
        return (x[..., None, :] * self.features).sum(axis=-1) - self.labels

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        r = self._residuals(x)
        return 0.5 * (self.space.weights * r * r).sum(axis=-1) + 0.5 * self.tau * (x * x).sum(axis=-1)

    def full_gradient(self, x):
        x = np.asarray(x, dtype=float)
        r = self._residuals(x)
        return ((self.space.weights * r)[..., None] * self.features).sum(axis=-2) + self.tau * x

    @classmethod
    def of(cls, problem: RegularizedLeastSquaresProblem) -> "DirectLeastSquares":
        return cls(problem.features, problem.labels, problem.tau,
                   weights=problem.space.weights, region_rho1=problem.region_rho1,
                   data_seed=problem.data_seed)


def pool_subsets(n: int, b: int, t: int, seeds) -> np.ndarray:
    """The no-repetition draw at step t as a dense partial Fisher-Yates shuffle:
    a pool holding range(n) per seed, swap j exchanging its entries j and
    j + randints(key, j, n - j); rows sorted."""
    keys = crng.stream_keys(seeds, _STREAM_SUBSET + t)
    js = np.arange(b)
    targets = js + crng.randints(keys[:, None], js, n - js)
    out = np.empty((keys.size, b), dtype=np.int64)
    for row, swaps in enumerate(targets.tolist()):
        pool = list(range(n))
        for j, p in enumerate(swaps):
            pool[j], pool[p] = pool[p], pool[j]
        out[row] = sorted(pool[:b])
    return out


def rowmajor_draw(plan, t0: int, t1: int, seeds) -> np.ndarray:
    """``plan.draw(t0, t1, seeds)``, (S, k, b), drawn row-major: the keys of
    the seeds (and steps) outermost against the slots of a batch, ``keys[:,
    None]`` against slots (m,), so that a row holds one seed's slots."""
    seeds = np.asarray(seeds)
    s_count, k, b = seeds.size, t1 - t0, plan.batch_size(t0)
    space = plan.space
    if plan.scheme == "segment":
        # the segment stream's slots of steps t0 .. t1-1 follow those of 0 .. t0-1
        start = sum(plan.batch_size(t) for t in range(t0))
        keys = crng.stream_keys(seeds, _STREAM_SEGMENT)[:, None]
        slots = np.arange(start, start + k * b)
        idx = (crng.randints(keys, slots, space.size) if space.is_uniform
               else crng.weighted_indices(keys, slots, space.cumulative))
        return idx.reshape(s_count, k, b)
    stream = _STREAM_SUBSET if plan.scheme == "no_repetition" else _STREAM_STRATIFIED
    keys = crng.stream_keys(seeds[:, None], stream + np.arange(t0, t1)).reshape(-1, 1)
    if plan.scheme == "no_repetition":
        js = np.arange(b)
        return column_replay(js + crng.randints(keys, js, space.size - js)).reshape(s_count, k, b)
    cols, offset = [], 0
    for group, count in zip(plan.strata, plan.counts):
        members, slots = np.asarray(group), offset + np.arange(count)
        if space.is_uniform:
            pos = crng.randints(keys, slots, members.size)
        else:
            mu = float(space.weights[members].sum())
            pos = crng.weighted_indices(keys, slots, np.cumsum(space.weights[members]) / mu)
        cols.append(members[pos])
        offset += count
    return np.concatenate(cols, axis=1).reshape(s_count, k, b)


def column_replay(pos: np.ndarray) -> np.ndarray:
    """The sorted first b entries of each row's partial Fisher-Yates shuffle,
    from its swap targets pos (m, b): the swaps replayed one column at a
    time, each row then sorted."""
    cols = [pos[:, j] for j in range(pos.shape[1])]
    held = []  # held[i]: what position i held before swap i
    for i in range(len(cols)):
        h = i
        for e in range(i):
            h = np.where(cols[e] == i, held[e], h)
        held.append(h)
    out = np.empty_like(pos)
    for j, p in enumerate(cols):
        v = p
        for i in range(j):
            v = np.where(cols[i] == p, held[i], v)
        out[:, j] = v
    out.sort(axis=1)
    return out


def walked_run_end(sizes, t: int, stop: int) -> int:
    """``BatchSizes.run_end``, one step at a time: the first step in
    (t, stop) whose size differs from the size at t, or stop."""
    b = sizes.at(t)
    t += 1
    while t < stop and sizes.at(t) == b:
        t += 1
    return t


def walked_blocks(plan, T: int, s_count: int, d: int):
    """``driver._blocks``, one step at a time: a block of batch size b grows
    while the next step has size b, up to T and the word bound; horizon 0 is
    the one block (0, 0)."""
    t0 = 0
    while t0 < T:
        b = plan.batch_size(t0)
        t1 = walked_run_end(plan.sizes, t0,
                            min(T, t0 + max(1, budget.WORDS // (s_count * max(b, d)))))
        yield t0, t1
        t0 = t1
    if not T:
        yield 0, 0


def dense_outcomes(plan, t: int):
    """Every batch of ``plan`` at step t, (count, b) indices, and its
    probability, in the order ``iter_outcome_chunks`` yields them:
    ``combinations`` for a subset plan, else ``product`` over each batch
    position's (outcome, conditional probability) pairs, the last position
    varying fastest, with the probabilities multiplied left to right."""
    n, w = plan.space.size, plan.space.weights
    if plan.scheme == "no_repetition":
        b = plan.batch_size(t)
        rows = list(combinations(range(n), b))
        return (np.array(rows, dtype=np.int64).reshape(len(rows), b),
                np.full(len(rows), 1.0 / math.comb(n, b)))
    if plan.scheme == "segment":
        choices = [[(l, w[l]) for l in range(n)]] * plan.batch_size(t)
    else:
        choices = []
        for group, count in zip(plan.strata, plan.counts):
            mu = float(w[np.asarray(group)].sum())
            choices += [[(l, w[l] / mu) for l in group]] * count
    rows = list(product(*choices))
    idx = np.array([[l for l, _ in row] for row in rows], dtype=np.int64)
    prob = np.array([math.prod(p for _, p in row) for row in rows], dtype=float)
    return idx.reshape(len(rows), len(choices)), prob


@dataclass(frozen=True)
class BatchDraw:
    """One realized batch: outcome indices plus their averaging weights."""

    t: int
    outcomes: np.ndarray
    weights: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.outcomes.shape[-1]

    @property
    def equal_weights(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))


def broadcast_sample_gradients(oracle, x, idx):
    """H(x, l) for an index array, x broadcast against the batch and summed
    by ``ndarray.sum``; an oracle whose class has its own sample_gradients (a
    test double) answers itself."""
    own = type(oracle).sample_gradients
    x, idx = np.asarray(x, dtype=float), np.asarray(idx)
    if own is SphereMeanProblem.sample_gradients:
        av = oracle.targets[idx]
        xb = x[..., None, :]
        diff = xb - av
        return diff - (diff * xb).sum(axis=-1)[..., None] * xb
    if own is RegularizedLeastSquaresProblem.sample_gradients:
        av = oracle.features[idx]
        r = (x[..., None, :] * av).sum(axis=-1) - oracle.labels[idx]
        return r[..., None] * av + oracle.tau * x[..., None, :]
    return oracle.sample_gradients(x, idx)


def mean_combine(weights, grads, equal: bool):
    """The batch average by ``ndarray.mean``, or the weighted ``.sum``."""
    if equal:
        return grads.mean(axis=-2)
    return (weights[..., None] * grads).sum(axis=-2)


def sum_dot(u, v):
    """The inner product along the last axis by ``ndarray.sum``."""
    return (u * v).sum(axis=-1)


def sum_cost(problem, x):
    """F(x) of a sphere-mean or least-squares problem from its moments, summed
    by ``ndarray.sum``."""
    x = np.asarray(x, dtype=float)
    if isinstance(problem, SphereMeanProblem):
        xx = (x * x).sum(axis=-1)
        return 0.5 * (xx - 2.0 * (x * problem.target_mean).sum(axis=-1) + problem._sq_mean)
    quad = (x * (x[..., None, :] * problem._gram).sum(axis=-1)).sum(axis=-1)
    lin = (x * problem._cross).sum(axis=-1)
    return (0.5 * (quad - 2.0 * lin + problem._sq_labels)
            + 0.5 * problem.tau * (x * x).sum(axis=-1))


def sum_full_gradient(problem, x):
    """grad F(x) = G x - c + tau x of a least-squares problem, G x summed by
    ``ndarray.sum``."""
    x = np.asarray(x, dtype=float)
    return (x[..., None, :] * problem._gram).sum(axis=-1) - problem._cross + problem.tau * x


def broadcast_retract_flagged(man, x, v):
    """The Euclidean or sphere retraction with its broadcast divide and zero
    test, and its ok array even when every row succeeded; a manifold whose
    class has its own retract_flagged (a test double) answers itself, its
    None read as every row ok."""
    own = type(man).retract_flagged
    if own is Euclidean.retract_flagged:
        y = x + v
        return y, np.ones(np.shape(y)[:-1], dtype=bool)
    if own is not Sphere.retract_flagged:
        y, ok = man.retract_flagged(x, v)
        return y, np.ones(np.shape(y)[:-1], dtype=bool) if ok is None else ok
    y = x + v
    n = np.sqrt(sum_dot(y, y))
    ok = n > DEGENERACY_EPS
    out = y / np.where(ok, n, 1.0)[..., None]
    zero = np.all(np.asarray(v) == 0.0, axis=-1)
    if np.any(zero):
        out = np.where(zero[..., None], x, out)
        ok = ok | zero
    return out, ok


def draw_batch(plan, t: int, seed: int) -> BatchDraw:
    """The scheme's batch at step t for one seed."""
    outcomes = plan.draw_block(t, np.array([int(seed)]))[0]
    return BatchDraw(t=t, outcomes=outcomes, weights=plan.weights_at(t))


def batch_gradient(oracle, x, draw: BatchDraw) -> np.ndarray:
    """The averaged stochastic gradient sum_i w_i H(x, outcome_i)."""
    if np.any(draw.outcomes < 0) or np.any(draw.outcomes >= oracle.space.size):
        raise InvalidPlan("draw contains outcomes outside the oracle's sample space")
    grads = broadcast_sample_gradients(oracle, x, draw.outcomes)
    return mean_combine(draw.weights, grads, draw.equal_weights)


class AdaptiveState:
    """Running accumulator of squared gradient norms for one trajectory.

    The sum uses compensated (Kahan) addition: runs accumulate 1e5+ small
    squares and plain summation would lose them.  Single-owner, sequential.
    """

    def __init__(self, rate: AdaptiveRate):
        self.rate = rate
        self._sum = np.float64(0.0)
        self._comp = np.float64(0.0)

    @property
    def accumulated(self) -> float:
        return float(self._sum)

    def eta(self) -> float:
        return float(self.rate.alpha / np.power(self.rate.beta + self._sum, self.rate.exponent))

    def update(self, grad_norm_sq: float) -> "AdaptiveState":
        if grad_norm_sq < 0:
            raise ValueError("squared norm must be >= 0")
        g = np.float64(grad_norm_sq)
        y = g - self._comp
        t = self._sum + y
        self._comp = (t - self._sum) - y
        self._sum = t
        return self


def retract_differential(man, x, u, w):
    """dR_x|_u applied to w, a tangent vector at retract(x, u); the identity
    on flat space and, at u = 0, on the sphere's tangent space too."""
    if man.kind == "euclidean":
        return np.array(w, dtype=float, copy=True)
    # sphere: dR_x|_u(w) = (I - y y^T) w / ||x + u||  with y = R_x(u)
    n = np.sqrt(((x + u) * (x + u)).sum(axis=-1))
    y = (x + u) / n[..., None]
    return (w - (y * w).sum(axis=-1)[..., None] * y) / n[..., None]


def is_tangent(man, x, v, tol: float = 1e-10):
    """Whether v lies in the tangent space at x, elementwise."""
    if man.kind == "euclidean":
        return np.all(np.isfinite(v), axis=-1)
    return np.abs((x * v).sum(axis=-1)) <= tol


def random_tangent(man, rng: np.random.Generator, x):
    """Standard normal ambient vector projected to the tangent space at x."""
    return man.project_tangent(x, rng.normal(size=np.shape(x)))


def sample_gradient(oracle, x, l: int):
    """H(x, l) for the single outcome l."""
    n = oracle.space.size
    if not 0 <= l < n:
        raise IndexError(f"outcome index {l} outside [0, {n})")
    return oracle.sample_gradients(x, np.array([l]))[..., 0, :]


def running_min_grad_norm(tr: Trajectory) -> np.ndarray:
    return np.minimum.accumulate(tr.grad_norm)


def stepwise_run(cfg, seeds) -> list[Trajectory]:
    """The engine's iteration one step at a time: every batch comes from
    ``draw_batch`` for one seed and step, its gradient from ``batch_gradient``,
    every rate from one scalar ``gamma(t)`` call, every norm and inner product
    from ``sum_dot`` and every retraction from ``broadcast_retract_flagged``."""
    oracle, plan, man = cfg.oracle, cfg.plan, cfg.oracle.manifold
    T, seeds = cfg.horizon, np.asarray(seeds, dtype=np.int64)
    s_count, nan = seeds.size, np.nan
    x = np.tile(cfg.x0, (s_count, 1))
    F, gn, step, bgn, noise = (np.full((s_count, T + 1), nan) for _ in range(5))
    bsize = np.zeros(T + 1, dtype=np.int64)
    rho_rec = np.full((s_count, T + 1), nan) if cfg.rho is not None else None
    alive = np.ones(s_count, dtype=bool)
    degenerate = np.zeros(s_count, dtype=bool)
    abort_t = np.full(s_count, -1, dtype=np.int64)
    adaptive = isinstance(cfg.rate, AdaptiveRate)
    acc, comp = np.zeros(s_count), np.zeros(s_count)

    def norm(v):
        return np.sqrt(sum_dot(v, v))

    def record(t):
        """Record x_t and retire the rows whose record is not finite."""
        fx, g = oracle.cost(x), oracle.full_gradient(x)
        gnt = norm(g)
        F[:, t] = np.where(alive, fx, nan)
        gn[:, t] = np.where(alive, gnt, nan)
        if rho_rec is not None:
            rho_rec[:, t] = np.where(alive, cfg.rho(x), nan)
        blown = alive & ~(np.isfinite(fx) & np.isfinite(gnt))
        abort_t[blown] = t
        alive[blown] = False
        return g

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            g = record(t)
            outcomes = np.stack([draw_batch(plan, t, seed=int(s)).outcomes for s in seeds])
            h = batch_gradient(oracle, x, BatchDraw(t, outcomes, plan.weights_at(t)))
            bh = norm(h)
            bsize[t] = outcomes.shape[1]
            bgn[:, t] = np.where(alive, bh, nan)
            noise[:, t] = np.where(alive, sum_dot(g, h - g), nan)
            if adaptive:
                rate_t = cfg.rate.alpha / np.power(cfg.rate.beta + acc, cfg.rate.exponent)
                v = -rate_t[:, None] * h
            else:
                rate_t = cfg.rate.gamma(t)
                v = -rate_t * h
            step[:, t] = np.where(alive, rate_t, nan)

            y, ok = broadcast_retract_flagged(man, x, v)
            y_finite = np.all(np.isfinite(y), axis=-1)
            newly_degenerate = alive & ~ok
            dead = newly_degenerate | (alive & ok & ~y_finite)
            abort_t[dead] = t
            degenerate |= newly_degenerate
            alive &= ~dead
            x = np.where((alive & ok & y_finite)[:, None], y, x)
            if adaptive:
                yk = np.where(alive, bh * bh, 0.0) - comp
                tk = acc + yk
                comp = (tk - acc) - yk
                acc = tk
        record(T)

    if adaptive:
        step[:, T] = np.where(alive, cfg.rate.alpha / np.power(cfg.rate.beta + acc,
                                                               cfg.rate.exponent), nan)
    else:
        try:
            step[:, T] = np.where(alive, cfg.rate.gamma(T), nan)
        except IndexError:
            pass
    if rho_rec is not None and cfg.region_rho1 is not None:
        with np.errstate(invalid="ignore"):
            in_reg = rho_rec <= cfg.region_rho1
    else:
        in_reg = np.ones((s_count, T + 1), dtype=bool)

    return [
        Trajectory(seed=int(s), F=F[i], grad_norm=gn[i], step=step[i], batch_size=bsize,
                   batch_grad_norm=bgn[i], noise_inner=noise[i], in_region=in_reg[i],
                   rho=None if rho_rec is None else rho_rec[i],
                   status="degenerate" if degenerate[i] else "ok" if alive[i] else "nonfinite",
                   abort_t=None if abort_t[i] < 0 else int(abort_t[i]))
        for i, s in enumerate(seeds)
    ]


def rowwise_csv(tr: Trajectory, path) -> None:
    """The trajectory CSV one row at a time: one f-string per row, every float
    as .17g, a missing rho column as NaN."""
    n = len(tr.F)
    rho = np.full(n, np.nan) if tr.rho is None else tr.rho
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for t in range(n):
            fh.write(
                f"{t},{tr.F[t]:.17g},{tr.grad_norm[t]:.17g},{tr.step[t]:.17g},"
                f"{int(tr.batch_size[t])},{tr.batch_grad_norm[t]:.17g},"
                f"{rho[t]:.17g},{int(tr.in_region[t])}\n"
            )


def one_shot_sum_of_squares(schedule) -> float:
    """sigma = sum_t gamma_t^2 as a partial sum over _SQUARE_SUM_TERMS terms,
    each operation a fresh array, plus the integral tail bound."""
    if isinstance(schedule, ExplicitSchedule):
        return float(np.sum(np.asarray(schedule.values) ** 2))
    t = np.arange(_SQUARE_SUM_TERMS, dtype=float)
    partial = float(np.sum(np.minimum(1.0, schedule.c / (t + 1.0) ** schedule.p) ** 2))
    tail = (schedule.c**2 * float(_SQUARE_SUM_TERMS) ** (1.0 - 2.0 * schedule.p)
            / (2.0 * schedule.p - 1.0))
    return partial + tail


def one_buffer_sum_of_squares(schedule) -> float:
    """sigma with the _SQUARE_SUM_TERMS terms of a power law built in place in
    one float64 buffer and summed by one ``np.sum``, plus the integral tail."""
    g = np.arange(1.0, _SQUARE_SUM_TERMS + 1.0)
    np.power(g, schedule.p, out=g)
    np.divide(schedule.c, g, out=g)
    np.minimum(1.0, g, out=g)
    np.multiply(g, g, out=g)
    tail = (schedule.c**2 * float(_SQUARE_SUM_TERMS) ** (1.0 - 2.0 * schedule.p)
            / (2.0 * schedule.p - 1.0))
    return float(np.sum(g)) + tail


def list_convergence_metrics(trajectories: list, threshold: float = 1e-3) -> dict:
    """The convergence summary with every trajectory's records at once."""
    finals = np.array([tr.grad_norm[-1] for tr in trajectories])
    mins = np.array([tr.grad_norm.min() for tr in trajectories])
    T = trajectories[0].horizon
    gsq = np.stack([tr.grad_norm**2 for tr in trajectories])
    weighted, last_decade = [], []
    for tr in trajectories:
        csum = np.cumsum(tr.step[:T] * tr.grad_norm[:T] ** 2)
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


def looped_verdict(excess, tol: float = 0.0):
    """(passed, worst, witness index or None) of a check that holds iff no
    entry of excess exceeds tol.  The worst entry is the first NaN or, with
    none, the first of the largest entries, found one entry at a time."""
    at = 0
    for i, value in enumerate(excess):
        if value != value:
            at = i
            break
        if value > excess[at]:
            at = i
    worst = float(excess[at])
    passed = worst <= tol
    return passed, worst, None if passed else at


def _band_points(spec, dim, lo, hi, n, key):
    targets = np.random.default_rng([*key, 0]).uniform(lo, hi, size=n)
    return sample_rho_levels(spec.rho, dim, targets, np.random.default_rng([*key, 1]))


def _sublevel_points(spec, dim, c, n, key):
    base = float(np.asarray(spec.rho(np.zeros(dim))))
    if c < base:
        raise SamplerFailure(f"sublevel {c:g} is below rho(origin) = {base:g}")
    targets = base + (c - base) * np.random.default_rng([*key, 0]).uniform(size=n)
    return sample_rho_levels(spec.rho, dim, targets, np.random.default_rng([*key, 1]))


def _gradient_table(oracle, xs):
    """All outcome gradients at each sample point: (n, N, d)."""
    n_out = oracle.space.size
    idx = np.broadcast_to(np.arange(n_out), (xs.shape[0], n_out))
    return oracle.sample_gradients(xs, idx)


def _one_shot_directions(oracle, xs, rng, n_combos: int) -> np.ndarray:
    table = _gradient_table(oracle, xs)
    if n_combos == 0:
        return table
    n, n_out, _ = table.shape
    w = rng.dirichlet(np.ones(n_out), size=(n, n_combos))
    combos = (w[..., None] * table[:, None, :, :]).sum(axis=2)
    return np.concatenate([table, combos], axis=1)


def one_shot_check_plain_confinement(spec, oracle, n_samples: int, seed: int = 0):
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


def one_shot_estimate_constants(spec, oracle, schedule, lam, b, theta, n_samples: int,
                                seed: int = 0):
    c = schedule.max_gamma()
    sigma = one_shot_sum_of_squares(schedule)
    rho1 = spec.rho0 + lam * c + 0.5 * b * b * sigma
    dim = oracle.manifold.ambient_dim

    xs0 = _sublevel_points(spec, dim, spec.rho0, n_samples, (seed, 1))
    v0 = _one_shot_directions(oracle, xs0, np.random.default_rng([seed, 2]), _N_COMBOS)
    ips = (spec.grad_rho(xs0)[:, None, :] * v0).sum(axis=-1)
    if np.isnan(ips.min()):
        x = xs0[np.unravel_index(np.argmin(ips), ips.shape)[0]].tolist()
        raise SamplerFailure(f"lambda_est: <grad rho(x), v> is NaN at x = {x}")
    lambda_est = float(max(0.0, -ips.min())) / lam

    xs1 = _sublevel_points(spec, dim, rho1, n_samples, (seed, 3))
    v1 = _one_shot_directions(oracle, xs1, np.random.default_rng([seed, 4]), _N_COMBOS)
    n_dirs = v1.shape[1]
    flat_x = np.repeat(xs1, n_dirs, axis=0)
    flat_v = v1.reshape(-1, dim)
    thetas = np.random.default_rng([seed, 5]).uniform(0.0, theta, size=flat_v.shape[0])
    q = _hessian_quadform(oracle.manifold, spec.rho, flat_x, -thetas[:, None] * flat_v, flat_v)
    if np.isnan(np.max(q)):
        x = flat_x[np.argmax(q)].tolist()
        raise SamplerFailure(f"b_est: Hess(rho o R_x)(v, v) is NaN at x = {x}")
    b_est = float(np.sqrt(max(0.0, float(np.max(q))))) / b

    phi = max(_SAFETY * lambda_est, _SAFETY * b_est, c / theta)
    return ConfinementConstants(
        lam=lam, b=b, theta=theta, c=c, sigma=sigma,
        lambda_est=lambda_est, b_est=b_est, phi=phi,
        rho0=spec.rho0, rho1=rho1,
    )


def one_shot_check_kappa_confinement(spec, oracle, kappa: float, n_samples: int, seed: int = 0):
    man = oracle.manifold
    dim = man.ambient_dim
    combos = _N_COMBOS if spec.variant == "batch_kappa" else 0

    xs0 = _sublevel_points(spec, dim, spec.rho0, n_samples, (seed, 1))
    v0 = _one_shot_directions(oracle, xs0, np.random.default_rng([seed, 2]), combos)
    flat_x0 = np.repeat(xs0, v0.shape[1], axis=0)
    flat_v0 = v0.reshape(-1, dim)
    s0 = np.random.default_rng([seed, 3]).uniform(0.0, kappa, size=flat_v0.shape[0])
    s0 = np.concatenate([s0, np.full(flat_v0.shape[0], kappa)])
    flat_x0 = np.concatenate([flat_x0, flat_x0])
    flat_v0 = np.concatenate([flat_v0, flat_v0])
    reached = spec.rho(man.retract(flat_x0, -s0[:, None] * flat_v0))
    margin1 = float(spec.rho1 - np.max(reached))

    xs1 = _band_points(spec, dim, spec.rho0, spec.rho1, n_samples, (seed, 4))
    v1 = _one_shot_directions(oracle, xs1, np.random.default_rng([seed, 5]), combos)
    flat_x1 = np.repeat(xs1, v1.shape[1], axis=0)
    flat_v1 = v1.reshape(-1, dim)
    s1 = np.random.default_rng([seed, 6]).uniform(0.0, kappa, size=flat_v1.shape[0])
    lhs = (spec.grad_rho(flat_x1) * flat_v1).sum(axis=-1)
    quad = _hessian_quadform(man, spec.rho, flat_x1, -s1[:, None] * flat_v1, flat_v1)
    rhs = np.maximum(0.0, 0.5 * kappa * quad)
    gaps = lhs - rhs
    margin2 = float(np.min(gaps))

    # the first minimum of (band, step), NaN first
    band = int(np.argmin([margin2, margin1])) == 0
    worst = margin2 if band else margin1
    if band:
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
