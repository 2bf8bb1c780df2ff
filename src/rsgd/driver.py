"""The SGD iteration loop and its per-iteration record keeping.

Both update rules are provided: deterministic rates gamma_t and the adaptive
rule whose step is computed from strictly past gradient norms.  One engine
serves single runs and seed batches; a batch of S trajectories is iterated in
lockstep as (S, d) arrays, and because every draw is a pure function of
(seed, t) and every array operation reduces along fixed axes, the batched run
is bitwise identical to running each seed alone.

The loop runs over blocks of steps, and ``_blocks`` alone decides where they
end: a block keeps one batch size (``plan.batch_size``) and holds at most
``max(1, _BLOCK_WORDS // (S * max(b, d)))`` steps, so its outcome indices
(S, k, b) and its buffers (S, k, d) hold at most ``_BLOCK_WORDS`` words each
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

Trajectories record, per iteration: cost, exact gradient norm, step size,
batch size, batch gradient norm, and the noise inner product
<grad F, h - grad F>, plus optional rho values and a region-membership flag.
The CSV keeps all of them but the noise inner product, so a CSV cannot
rebuild the descent or martingale checks that need it.  ``write_csvs`` is the
one writer (``Trajectory.write_csv`` writes one file through it).  It writes
every float as ``%.17g``, so ``read_trajectory_csv`` gets the same bits back,
and formats the rows in chunks of ``_CSV_CHUNK``, chunks outermost over
groups of at most ``_CSV_FILES`` open files, so files of any length are
written in flat memory.  The ``t``, ``step`` and ``batch_size`` cells of a
chunk are formatted once into a row template, which every trajectory of the
group whose chunk of steps and batch sizes is bitwise equal to the first
one's fills with its own cells; the seeds of a deterministic-rate run share
it, and a retired or adaptive seed formats its own.  Compactness of the
iterate set is monitored, not enforced.
"""

from __future__ import annotations

import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain, repeat
from math import isfinite
from typing import Callable

import numpy as np

from .batching import BatchPlan, combine_batch
from .errors import DegenerateRetraction
from .manifolds import _empty, coordinate_major
from .problems import GradientOracle
from .schedules import AdaptiveRate, ExplicitSchedule, PowerLawSchedule, ScaledSchedule

# one entry per CSV column: header name, Trajectory field, type; the first
# column is the step index t, ints are written as %d and floats as %.17g
_CSV_COLUMNS = (
    ("t", None, int),
    ("F", "F", float),
    ("grad_norm", "grad_norm", float),
    ("step", "step", float),
    ("batch_size", "batch_size", int),
    ("batch_grad_norm", "batch_grad_norm", float),
    ("rho", "rho", float),
    ("in_K", "in_region", bool),
)
CSV_HEADER = ",".join(name for name, _, _ in _CSV_COLUMNS)
# the columns formatted once per chunk into a row template, whose "%%" then
# become the "%" of the cells each trajectory fills in (_CSV_OWN, in order)
_CSV_SHARED = ("t", "step", "batch_size")
_CSV_TEMPLATE = ",".join(("%" if name in _CSV_SHARED else "%%")
                         + (".17g" if kind is float else "d")
                         for name, _, kind in _CSV_COLUMNS) + "\n"
_CSV_OWN = tuple(attr for name, attr, _ in _CSV_COLUMNS if name not in _CSV_SHARED)
# rows per formatted chunk, so a file of any length is written in flat memory
_CSV_CHUNK = 1024
# files open at once while write_csvs walks the chunks
_CSV_FILES = 64
# words per block: its outcome indices over all seeds, and each (S, k, d) buffer;
# also the largest array of a chunk of confinement sample points
_BLOCK_WORDS = 1 << 15

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

    def write_csv(self, path) -> None:
        """Write the ``_CSV_COLUMNS`` of every step: ``write_csvs([self], [path])``."""
        write_csvs([self], [path])


def write_csvs(trajectories, paths) -> None:
    """Write each trajectory's ``_CSV_COLUMNS`` to its path, every float as
    ``%.17g``, in chunks of at most ``_CSV_CHUNK`` rows taken outermost over
    groups of at most ``_CSV_FILES`` open files.

    Per chunk, one ``%`` operation formats the t, step and batch_size cells
    into a row template, and one more fills a trajectory's other cells into
    it.  A trajectory whose steps and batch sizes in the chunk are bitwise
    equal to those of the first trajectory there uses the first one's
    template."""
    trajectories, paths = list(trajectories), list(paths)
    if len(trajectories) != len(paths):
        raise ValueError(f"{len(trajectories)} trajectories but {len(paths)} paths")
    for g in range(0, len(trajectories), _CSV_FILES):
        group = trajectories[g:g + _CSV_FILES]
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "w", newline=""))
                     for path in paths[g:g + _CSV_FILES]]
            for fh in files:
                fh.write(CSV_HEADER + "\n")
            for a in range(0, max(len(tr.F) for tr in group), _CSV_CHUNK):
                first = None  # (steps, batch sizes, template) of the chunk's first trajectory
                for tr, fh in zip(group, files):
                    b = min(len(tr.F), a + _CSV_CHUNK)
                    if b <= a:
                        continue
                    step, sizes = tr.step[a:b], tr.batch_size[a:b]
                    if (first is not None
                            and np.array_equal(step.view(np.int64), first[0].view(np.int64))
                            and np.array_equal(sizes, first[1])):
                        template = first[2]
                    else:
                        template = (_CSV_TEMPLATE * (b - a)) % tuple(chain.from_iterable(
                            zip(range(a, b), step.tolist(), sizes.tolist())))
                        if first is None:
                            first = (step, sizes, template)
                    # a missing rho column is written as NaN; zip stops at the chunk's end
                    rows = zip(*(repeat(np.nan) if c is None else c[a:b].tolist()
                                 for c in (getattr(tr, attr) for attr in _CSV_OWN)))
                    fh.write(template % tuple(chain.from_iterable(rows)))


def read_trajectory_csv(path, seed: int = -1) -> Trajectory:
    """Rebuild the recorded columns of a trajectory written by write_csv.

    ``rsgd run`` writes files only for runs whose seeds ended ok or
    non-finite, and a retired row's records are NaN from its retirement on,
    so a file whose last F is NaN is a non-finite seed.  Its ``abort_t`` is
    its first row whose F or grad_norm is not finite, the driver's own
    retirement test; a retraction that failed at step t writes the same rows
    as a non-finite record at t + 1 can, and may read as t + 1."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        with warnings.catch_warnings():  # a file without rows is named below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not data.size:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != len(_CSV_COLUMNS):
        raise ValueError(f"{path}: expected {len(_CSV_COLUMNS)} columns, found {data.shape[1]}")
    fields = {attr: data[:, i].astype(kind, copy=False)
              for i, (_, attr, kind) in enumerate(_CSV_COLUMNS) if attr is not None}
    rho = fields.pop("rho")
    status, abort_t = "ok", None
    if np.isnan(fields["F"][-1]):
        status = "nonfinite"
        abort_t = int(np.argmin(np.isfinite(fields["F"]) & np.isfinite(fields["grad_norm"])))
    return Trajectory(
        seed=seed,
        noise_inner=np.full(len(data), np.nan),
        rho=None if np.all(np.isnan(rho)) else rho,
        status=status,
        abort_t=abort_t,
        **fields,
    )


def _blocks(plan: BatchPlan, T: int, s_count: int, d: int):
    """Split steps 0 .. T-1 into (t0, t1) blocks that keep one batch size b
    and hold at most max(1, _BLOCK_WORDS // (S * max(b, d))) steps each,
    S = s_count: each block ends at T, at the word bound or at the size
    sequence's next change point (``BatchSizes.run_end``), whichever is first."""
    t0 = 0
    while t0 < T:
        b = plan.batch_size(t0)
        t1 = plan.sizes.run_end(t0, min(T, t0 + max(1, _BLOCK_WORDS // (s_count * max(b, d)))))
        yield t0, t1
        t0 = t1


def record_nbytes(n_seeds: int, horizon: int) -> int:
    """Bytes of the records ``_run_block`` allocates for a run with rho: per
    seed and step six float64 columns (F, grad_norm, step, batch_grad_norm,
    noise_inner, rho) and the bool in_region, and per step the batch size."""
    return (49 * n_seeds + 8) * (horizon + 1)


def _run_block(cfg: RunConfig, seeds: np.ndarray) -> list[Trajectory]:
    oracle, plan, man = cfg.oracle, cfg.plan, cfg.oracle.manifold
    T = cfg.horizon
    seeds = np.asarray(seeds, dtype=np.int64)
    s_count = seeds.size
    d = man.ambient_dim
    cm = coordinate_major(s_count, d)

    x = _empty((s_count, d), cm)
    x[...] = cfg.x0
    nan = np.nan
    F = np.full((s_count, T + 1), nan)
    gn = np.full((s_count, T + 1), nan)
    step = np.full((s_count, T + 1), nan)
    bgn = np.full((s_count, T + 1), nan)
    noise = np.full((s_count, T + 1), nan)
    bsize = np.zeros(T + 1, dtype=np.int64)
    rho_rec = np.full((s_count, T + 1), nan) if cfg.rho is not None else None
    iterates = np.full((s_count, T + 1, d), nan) if cfg.store_iterates else None

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

    def put(rec, cols, values, keep):
        # keep is None when no row has retired: the values go in unmasked
        rec[:, cols] = values if keep is None else np.where(keep, values, nan)

    def write_states(t, xs, fx, gnt, keep):
        cols = slice(t, t + xs.shape[1])
        put(F, cols, fx, keep)
        put(gn, cols, gnt, keep)
        if rho_rec is not None:
            put(rho_rec, cols, cfg.rho(xs), keep)
        if iterates is not None:
            put(iterates, cols, xs, None if keep is None else keep[..., None])

    # overflow/invalid are tolerated: rows going non-finite are caught and retired
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1 in _blocks(plan, T, s_count, d):
            n_steps = t1 - t0
            block = plan.draw(t0, t1, seeds)
            weights = plan.weights_at(t0)
            equal = bool(np.all(weights == weights[0]))
            bsize[t0:t1] = block.shape[2]
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
            write_states(t0, xs, fx, gnt, None if every_alive else ks <= last_state[:, None])
            keep = None if every_alive else ks <= last_step[:, None]
            cols = slice(t0, t1)
            put(bgn, cols, bhs if adaptive else man.norm(xs, hs), keep)
            put(noise, cols, man.inner(xs, g, hs - g), keep)
            put(step, cols, etas if adaptive else rates, keep)

        fx, _, gnt = evaluate(x[:, None])
        write_states(T, x[:, None], fx, gnt, None if every_alive else alive[:, None])

    if adaptive:
        step[:, T] = np.where(alive, cfg.rate.alpha / np.power(cfg.rate.beta + acc, expo), nan)
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


def run_many(cfg: RunConfig, n_seeds: int) -> list[Trajectory]:
    """Independent trajectories with seeds cfg.seed .. cfg.seed + n_seeds - 1.

    Results are identical to running each seed alone (same arithmetic, and
    draws depend only on (seed, t)), merged in seed order.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    out = _run_block(cfg, cfg.seed + np.arange(n_seeds, dtype=np.int64))
    bad = [tr.seed for tr in out if tr.status == "degenerate"]
    if bad:
        raise DegenerateRetraction(f"retraction degenerated for seeds {bad}")
    return out
