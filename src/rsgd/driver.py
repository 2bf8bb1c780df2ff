"""The SGD iteration loop and its per-iteration record keeping.

Both update rules are provided: deterministic rates gamma_t and the adaptive
rule whose step is computed from strictly past gradient norms.  One engine
serves single runs and seed batches; a batch of S trajectories is iterated in
lockstep as (S, d) arrays, and because every draw is a pure function of
(seed, t) and every array operation reduces along fixed axes, the batched run
is bitwise identical to running each seed alone.

The loop runs over blocks of steps, and ``_blocks`` alone decides where they
end: a block keeps one batch size (``plan.batch_size``) and holds at most
``max(1, budget.WORDS // (S * max(b, d)))`` steps, so its outcome indices
(S, k, b) and its buffers (S, k, d) hold at most ``budget.WORDS`` words each
(or one step's) whatever the horizon.  A block is cut at T, at the word
bound or at the size sequence's next change point, whichever comes first;
``BatchSizes.run_end`` finds that point without asking for the size of
every step, except for geometric sizes below their cap.  No draw depends on
the order of the steps, so a block's batches come from one
``plan.draw(t0, t1, seeds)`` call, and its weights and deterministic rates
(a confined run's ``ScaledSchedule`` divides each ``gamma(t)`` by phi) are
computed once per block.  A coordinate-major run reads its outcomes as
(k, b, S) memory, which is how the plans draw them (see :mod:`rsgd.batching`),
so it makes no transposed copy of them; a row-major run copies them to
(k, S, b) once per block.

Per step the loop computes only what the next iterate needs: the batch
gradient, the rate (and, under the adaptive rule, the batch gradient norm),
the retraction and the finiteness of its result.  A row whose retraction
fails stays where it is.  The iterates and batch gradients of a block go
into its (S, k, d) buffers, and the exact record -- cost, gradient and its
norm, batch gradient norm, noise inner product, rho -- is evaluated once per
block on those buffers.  Rows are retired at that point: for each row the
first event wins, a non-finite record at step t coming before a failed
retraction at step t, and everything the row recorded after it is masked
with NaN.  A row whose record went non-finite inside a block keeps iterating
to the block's end, and its values are discarded.  When every row is live
and every retraction succeeded, a step skips the row selects, and a block
after which every row is still alive writes its records without masks.

The state of a run is coordinate-major ((d, S) memory, its buffers and
per-outcome arrays (d, k, S) and (d, b, S)) when
``manifolds.coordinate_major(S, d)``, and row-major otherwise; the choice is
made once per run and explained in :mod:`rsgd.manifolds`, which owns it.  The
kernels of a step (``sample_gradients``, ``combine_batch``, the norms and the
retraction) follow the layout of their inputs, and in either layout they
neither broadcast along nor reduce over a short axis in a way that changes
numpy's order of summation.  Each element is therefore computed as one seed
at a time computes it, and the records equal those of a step-at-a-time loop
bit for bit; ``tests/reference.py`` keeps the broadcast forms as oracles, and
``tests/test_kernels.py`` holds every kernel to them in both layouts.

The engine keeps no record itself: it hands each block's finished, masked
records to a sink of :mod:`rsgd.records`, ``MemorySink`` unless the caller
gives another.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable

import numpy as np

from . import budget
from .batching import BatchPlan, combine_batch
from .errors import DegenerateRetraction
from .manifolds import _empty, coordinate_major
from .problems import GradientOracle
from .records import MemorySink, Records, Trajectory
from .schedules import AdaptiveRate, ExplicitSchedule, PowerLawSchedule, ScaledSchedule

DeterministicSchedule = (PowerLawSchedule, ExplicitSchedule, ScaledSchedule)


@dataclass
class RunConfig:
    """Everything one trajectory needs; immutable by convention once built.

    ``rho`` maps points (..., d) to values (...): like the oracle, it is
    evaluated on (S, k, d) blocks of iterates at once.
    """

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


def _blocks(plan: BatchPlan, T: int, s_count: int, d: int):
    """Split steps 0 .. T-1 into (t0, t1) blocks that keep one batch size b
    and hold at most max(1, budget.WORDS // (S * max(b, d))) steps each,
    S = s_count: each block ends at T, at the word bound or at the size
    sequence's next change point (``BatchSizes.run_end``), whichever is first."""
    t0 = 0
    while t0 < T:
        b = plan.batch_size(t0)
        t1 = plan.sizes.run_end(t0, min(T, t0 + max(1, budget.WORDS // (s_count * max(b, d)))))
        yield t0, t1
        t0 = t1


def _run_block(cfg: RunConfig, seeds: np.ndarray, sink=None) -> list:
    oracle, plan, man = cfg.oracle, cfg.plan, cfg.oracle.manifold
    T = cfg.horizon
    seeds = np.asarray(seeds, dtype=np.int64)
    s_count = seeds.size
    sink = MemorySink(cfg, s_count) if sink is None else sink
    d = man.ambient_dim
    cm = coordinate_major(s_count, d)

    x = _empty((s_count, d), cm)
    x[...] = cfg.x0
    nan = np.nan

    # alive: not retired by the records evaluated so far
    alive = np.ones(s_count, dtype=bool)
    every_alive = True
    degenerate = np.zeros(s_count, dtype=bool)
    abort_t = np.full(s_count, -1, dtype=np.int64)

    adaptive = isinstance(cfg.rate, AdaptiveRate)
    if adaptive:
        alpha, beta, expo = cfg.rate.alpha, cfg.rate.beta, cfg.rate.exponent
        acc = np.zeros(s_count)
        comp = np.zeros(s_count)

    def evaluate(xs):
        g = oracle.full_gradient(xs)
        return oracle.cost(xs), g, man.norm(xs, g)

    def mask(values, keep):
        # keep is None when no row has retired: the values go in unmasked
        return values if keep is None else np.where(keep, values, nan)

    def records(t0, xs, fx, gnt, state_keep, step, sizes, bgn, noise, step_keep):
        rho = None if cfg.rho is None else mask(cfg.rho(xs), state_keep)
        return Records(
            t0=t0, F=mask(fx, state_keep), grad_norm=mask(gnt, state_keep),
            step=mask(step, step_keep), batch_size=sizes,
            batch_grad_norm=mask(bgn, step_keep), noise_inner=mask(noise, step_keep), rho=rho,
            in_region=None if rho is None or cfg.region_rho1 is None else rho <= cfg.region_rho1,
            iterates=None if not cfg.store_iterates
            else mask(xs, None if state_keep is None else state_keep[..., None]))

    # overflow/invalid are tolerated: rows going non-finite are caught and retired
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1 in _blocks(plan, T, s_count, d):
            n_steps = t1 - t0
            block = plan.draw(t0, t1, seeds)
            weights = plan.weights_at(t0)
            equal = bool(np.all(weights == weights[0]))
            sizes = np.full(n_steps, block.shape[2], dtype=np.int64)
            if not adaptive:
                rates = np.array([cfg.rate.gamma(t) for t in range(t0, t1)])
                neg_rates = (-rates).tolist()

            # (k, S, b): the outcomes of one step are one contiguous slab, in
            # (b, S) memory when the state is coordinate-major; plans draw in
            # (k, b, S) memory (k, S, b for subsets of b >= 8), where the
            # matching layout makes these no copy
            if cm:
                block = np.ascontiguousarray(block.transpose(1, 2, 0)).swapaxes(1, 2)
            else:
                block = np.ascontiguousarray(block.swapaxes(0, 1))
            xs = _empty((s_count, n_steps, d), cm)
            hs = _empty((s_count, n_steps, d), cm)
            if adaptive:
                etas = np.empty((s_count, n_steps))
                bhs = np.empty_like(etas)
            # per step, only a failed retraction stops a row (it stays at x)
            live = alive.copy()
            every_live = bool(np.logical_and.reduce(live))
            fail_k = np.full(s_count, n_steps)
            fail_degenerate = np.zeros(s_count, dtype=bool)

            for k in range(n_steps):
                xs[:, k] = x
                h = combine_batch(weights, oracle.sample_gradients(x, block[k]), equal)
                hs[:, k] = h
                if adaptive:
                    bh = man.norm(x, h)
                    eta = alpha / np.power(beta + acc, expo)
                    etas[:, k] = eta
                    bhs[:, k] = bh
                    v = h * -eta[..., None]
                else:
                    v = h * neg_rates[k]

                y, ok = man.retract_flagged(x, v)
                # fast path: every row live, every retraction ok and finite
                # (a finite sum of all entries has no non-finite entry)
                if every_live and np.logical_and.reduce(ok, axis=None) \
                        and isfinite(np.add.reduce(y, axis=None)):
                    x = y
                else:
                    failed = live & ~(ok & np.logical_and.reduce(np.isfinite(y), axis=-1))
                    if np.logical_or.reduce(failed):
                        fail_k[failed] = k
                        fail_degenerate |= failed & ~ok
                        live &= ~failed
                        every_live = False
                    x = np.where(live[:, None], y, x)

                if adaptive:
                    # accumulate the realized batch gradient only after the step:
                    # eta_t must depend on strictly past draws
                    g2 = bh * bh if every_live else np.where(live, bh * bh, 0.0)
                    yk = g2 - comp
                    tk = acc + yk
                    comp = (tk - acc) - yk
                    acc = tk

            # the record of the block, and retirement: per row the first
            # event wins, a non-finite record at k before the retraction at k
            fx, g, gnt = evaluate(xs)
            blown = ~(np.isfinite(fx) & np.isfinite(gnt))
            blown_k = np.where(blown.any(axis=1), blown.argmax(axis=1), n_steps)
            first = np.minimum(blown_k, fail_k)
            last_state = np.where(alive, first, -1)
            last_step = np.where(alive, np.where(blown_k <= fail_k, blown_k - 1, fail_k), -1)
            ended = alive & (first < n_steps)
            abort_t[ended] = t0 + first[ended]
            degenerate |= ended & (fail_k < blown_k) & fail_degenerate
            alive &= ~ended

            every_alive = bool(np.logical_and.reduce(alive))
            ks = np.arange(n_steps)
            sink.put(records(
                t0, xs, fx, gnt, None if every_alive else ks <= last_state[:, None],
                etas if adaptive else rates[None], sizes, bhs if adaptive else man.norm(xs, hs),
                man.inner(xs, g, hs - g), None if every_alive else ks <= last_step[:, None]))

        fx, _, gnt = evaluate(x[:, None])

    # the final state has no step: its rate is the one the next step would use
    if adaptive:
        step_T = np.where(alive, cfg.rate.alpha / np.power(cfg.rate.beta + acc, expo), nan)
    else:
        try:
            step_T = np.where(alive, cfg.rate.gamma(T), nan)
        except IndexError:
            step_T = np.full(s_count, nan)
    no_step = np.full((s_count, 1), nan)
    with np.errstate(over="ignore", invalid="ignore"):
        sink.put(records(T, x[:, None], fx, gnt, None if every_alive else alive[:, None],
                         step_T[:, None], np.zeros(1, dtype=np.int64), no_step, no_step, None))

    status = ["degenerate" if degenerate[i] else "ok" if alive[i] else "nonfinite"
              for i in range(s_count)]
    return sink.close(seeds.tolist(), status,
                      [None if t < 0 else t for t in abort_t.tolist()])


def run_deterministic(cfg: RunConfig) -> Trajectory:
    """Iterate x <- retract(x, -gamma_t * h_t), h_t the batch gradient; one trajectory."""
    if not isinstance(cfg.rate, DeterministicSchedule):
        raise TypeError("run_deterministic needs a deterministic schedule")
    return run_many(cfg, 1)[0]


def run_adaptive(cfg: RunConfig) -> Trajectory:
    """Iterate with eta_t computed from the accumulated past squared norms."""
    if not isinstance(cfg.rate, AdaptiveRate):
        raise TypeError("run_adaptive needs adaptive hyperparameters")
    return run_many(cfg, 1)[0]


def run_many(cfg: RunConfig, n_seeds: int, sink=None) -> list:
    """Independent trajectories with seeds cfg.seed .. cfg.seed + n_seeds - 1.

    Results are identical to running each seed alone (same arithmetic, and
    draws depend only on (seed, t)), merged in seed order: one
    ``Trajectory`` per seed from the default ``MemorySink``, or what the
    given sink's ``close`` returns, one result per seed.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    out = _run_block(cfg, cfg.seed + np.arange(n_seeds, dtype=np.int64), sink)
    bad = [r.seed for r in out if r.status == "degenerate"]
    if bad:
        raise DegenerateRetraction(f"retraction degenerated for seeds {bad}")
    return out
