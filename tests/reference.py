"""Reference implementations that the package is tested against.

They compute the same quantities as the package the direct way: one step and
one seed at a time, with dense arrays, without the shortcuts the engine takes.
"""

from __future__ import annotations

import numpy as np

from rsgd import rng as crng
from rsgd.batching import _STREAM_SUBSET, BatchDraw, batch_gradient, draw_batch
from rsgd.driver import Trajectory
from rsgd.schedules import AdaptiveRate


def pool_subsets(n: int, b: int, t: int, seeds) -> np.ndarray:
    """The no-repetition draw at step t as a dense partial Fisher-Yates shuffle:
    a pool holding range(n) per seed, swap j exchanging its entries j and
    j + randints(key, j, n - j); rows sorted."""
    keys = crng.stream_keys(seeds, _STREAM_SUBSET + t)
    js = np.arange(b)
    targets = js + crng.randints(keys, js, n - js)
    out = np.empty((keys.size, b), dtype=np.int64)
    for row, swaps in enumerate(targets.tolist()):
        pool = list(range(n))
        for j, p in enumerate(swaps):
            pool[j], pool[p] = pool[p], pool[j]
        out[row] = sorted(pool[:b])
    return out


def stepwise_run(cfg, seeds, rate_divisor: float = 1.0) -> list[Trajectory]:
    """The engine's iteration one step at a time: every batch comes from
    ``draw_batch`` for one seed and step, its gradient from ``batch_gradient``,
    every rate from one scalar ``gamma(t)`` call."""
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

    def record(t):
        fx, g = oracle.cost(x), oracle.full_gradient(x)
        gnt = man.norm(x, g)
        F[:, t] = np.where(alive, fx, nan)
        gn[:, t] = np.where(alive, gnt, nan)
        if rho_rec is not None:
            rho_rec[:, t] = np.where(alive, cfg.rho(x), nan)
        return g, gnt, fx

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            g, gnt, fx = record(t)
            blown = alive & ~(np.isfinite(fx) & np.isfinite(gnt))
            abort_t[blown] = t
            alive &= ~blown

            outcomes = np.stack([draw_batch(plan, t, seed=int(s)).outcomes for s in seeds])
            h = batch_gradient(oracle, x, BatchDraw(t, outcomes, plan.weights_at(t)))
            bh = man.norm(x, h)
            bsize[t] = outcomes.shape[1]
            bgn[:, t] = np.where(alive, bh, nan)
            noise[:, t] = np.where(alive, man.inner(x, g, h - g), nan)
            if adaptive:
                rate_t = cfg.rate.alpha / np.power(cfg.rate.beta + acc, cfg.rate.exponent)
                v = -rate_t[:, None] * h
            else:
                rate_t = cfg.rate.gamma(t) / rate_divisor
                v = -rate_t * h
            step[:, t] = np.where(alive, rate_t, nan)

            y, ok = man.retract_flagged(x, v)
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
            step[:, T] = np.where(alive, cfg.rate.gamma(T) / rate_divisor, nan)
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
