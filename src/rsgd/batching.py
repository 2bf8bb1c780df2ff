"""Batch-forming schemes and the exact law of their batch gradient.

Three schemes produce the averaged stochastic gradient used at each step:

* ``SegmentPlan``: one i.i.d. outcome stream per trajectory, cut into
  consecutive segments by strictly increasing cut points; repetitions inside
  a batch are possible.
* ``SubsetPlan``: a uniformly random size-b subset of the outcomes, drawn
  without repetition via a partial Fisher-Yates shuffle (exactly uniform over
  all C(N, b) subsets); requires uniform outcome weights.
* ``StratifiedPlan``: the outcome set is partitioned into strata and each
  stratum contributes a fixed number of i.i.d. conditional draws, weighted by
  stratum probability over per-stratum count.

A batch gradient is h = sum_l c_l H(x, l), where c_l is the total weight
outcome l gets in the batch.  The plan alone fixes the law of c, and
``coefficients(t)`` gives its mean and covariance in a structured form
(Horvitz & Thompson 1952), never as a dense N x N matrix.  From it
``enumerate_expectation`` and ``variance_report`` compute E h and
E ||h - E h||^2 exactly at any batch size, walking the N outcomes rather
than the batches; this is how the unbiasedness of each scheme is certified
(``rsgd check unbiasedness``).  The segment and stratified batches have
independent slots: ``positions(t)`` gives each run of identically
distributed slots as (outcomes, conditional probabilities, count), and
``BatchPlan`` derives from it both the coefficient law and the enumeration
of every batch (``outcome_count`` and ``iter_outcome_chunks``, a
mixed-radix count over the slots) that the tests check the law against.  A
subset batch's slots are not independent, so ``SubsetPlan`` gives its law in
closed form and enumerates its subsets with ``itertools.combinations``.

A plan's batch size alone fixes what it draws at a step: a segment or subset
plan follows its size sequence, and a stratified plan keeps one partition
and one count per stratum for the whole run.  ``BatchSizes`` alone knows how
a size sequence is stored, and its ``run_end``, ``cut`` and ``largest``
never walk it step by step.  Draws are pure functions of (seed, t): see
:mod:`rsgd.rng`.  Nothing depends on the order in which steps are drawn, so
``draw(t0, t1, seeds)`` draws a run of steps of one batch size in one
vectorised call and gives the same bits as drawing them one at a time;
``draw_block`` (one step) is its one-step case.  How many steps a run holds
is the driver's one block rule (``rsgd.driver._blocks``), which finds where
a run of one size ends from ``BatchSizes.run_end``.

The draws are made slot-major, the S seeds innermost, so that every numpy
operation of a draw runs along rows of S or k·S entries instead of along
rows of b.  A run's (S, k, b) outcomes come back in (k, b, S) memory -- the
per-step (b, S) slabs a coordinate-major driver reads -- from a segment or
stratified plan and from a subset plan of b < 8; a subset plan of b >= 8
hands over (k, S, b), the row-major driver's slabs.  A segment plan's
slots are consecutive, so its randints are (k·b, S) already; a stratified
plan draws all strata in one randints call, (k, 1, S) keys against (b, 1)
slots and per-slot moduli, and gathers once; a subset plan of b < 8 replays
its swaps on (b, k, S) rows and sorts each batch with a compare-exchange
network (``_sort_network``).  Every value is the one the (S, m) form of
:mod:`rsgd.rng` gives, so the layout never changes a draw.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from operator import itemgetter

import numpy as np

from . import budget
from . import rng as crng
from .errors import InvalidPlan
from .manifolds import _SHORT, _dot, _sum
from .problems import FiniteSampleSpace, GradientOracle

_STREAM_SEGMENT = 1 << 36
_STREAM_SUBSET = 1 << 40
_STREAM_STRATIFIED = 1 << 41

_ENUM_CHUNK = 1 << 15


@dataclass(frozen=True)
class BatchSizes:
    """Per-iteration batch size sequence: constant, capped geometric, or explicit."""

    kind: str
    base: int = 1
    growth: float = 1.0
    cap: int | None = None
    values: tuple[int, ...] = ()
    _runs: list = field(default_factory=lambda: [(0, 0)], init=False, repr=False, compare=False)

    @classmethod
    def constant(cls, b: int) -> "BatchSizes":
        if b < 1:
            raise InvalidPlan("batch size must be >= 1")
        return cls("constant", base=b)

    @classmethod
    def geometric(cls, base: int, growth: float, cap: int) -> "BatchSizes":
        if base < 1 or cap < base or not growth >= 1.0:
            raise InvalidPlan("geometric sizes need base >= 1, cap >= base, growth >= 1")
        return cls("geometric", base=base, growth=growth, cap=cap)

    @classmethod
    def explicit(cls, values) -> "BatchSizes":
        vals = tuple(int(v) for v in values)
        if not vals or any(v < 1 for v in vals):
            raise InvalidPlan("explicit sizes must be a nonempty list of ints >= 1")
        return cls("explicit", values=vals)

    def at(self, t: int) -> int:
        if t < 0:
            raise InvalidPlan("iteration index must be >= 0")
        if self.kind == "constant":
            return self.base
        if self.kind == "geometric":
            try:
                return min(self.cap, int(self.base * self.growth**t))
            except OverflowError:
                # growth**t is beyond the float range, so far beyond the cap
                return self.cap
        if t >= len(self.values):
            raise InvalidPlan(f"explicit size list has no entry for t={t}")
        return self.values[t]

    def largest(self) -> int:
        """The largest size the sequence takes; growing geometric sizes reach their cap."""
        if self.kind == "explicit":
            return max(self.values)
        return self.cap if self.kind == "geometric" and self.growth > 1.0 else self.base

    def run_end(self, t: int, stop: int) -> int:
        """The first step in (t, stop) whose size differs from at(t), or stop,
        found by bisection: on a list's change points, else on ``at``, which
        never decreases (a run at the largest size lasts)."""
        if self.kind == "explicit":
            ends = self._change_points
            return min(stop, ends[bisect_right(ends, t)])
        b = self.at(t)
        return stop if b == self.largest() else bisect_right(range(stop), b, t + 1, key=self.at)

    def cut(self, t: int) -> int:
        """The sizes of steps 0 .. t-1 summed: the first stream slot of step t.
        Each run of one size is kept as (first step, sum before it) from the
        first cut past it on, so memory grows with the runs, never with t."""
        runs = self._runs
        while runs[-1][0] < t:
            s, c = runs[-1]
            e = self.run_end(s, t)
            if e == t:  # step t lies in the last run found, or starts the next
                break
            runs.append((e, c + self.at(s) * (e - s)))
        s, c = runs[bisect_right(runs, t, key=itemgetter(0)) - 1]
        return c + self.at(s) * (t - s) if t > s else c

    @cached_property
    def _change_points(self) -> list[int]:
        # the steps whose size differs from the one before, and the list's end
        return (np.flatnonzero(np.diff(self.values)) + 1).tolist() + [len(self.values)]


class BatchPlan:
    """Interface shared by the three schemes.

    Each scheme binds ``weights_at`` and ``draw_block`` as its own
    attributes, so that per-class wrappers (the traced mode of
    ``perfbench``) see them."""

    space: FiniteSampleSpace
    scheme: str
    sizes: BatchSizes

    def __init__(self, space: FiniteSampleSpace, sizes: BatchSizes):
        self.space, self.sizes = space, sizes

    def batch_size(self, t: int) -> int:
        return self.sizes.at(t)

    def weights_at(self, t: int) -> np.ndarray:
        """Averaging weights of the batch at step t (fixed given t): equal
        unless the scheme overrides them."""
        b = self.batch_size(t)
        return np.full(b, 1.0 / b)

    def draw(self, t0: int, t1: int, seeds) -> np.ndarray:
        """Outcome indices of shape (len(seeds), t1 - t0, batch_size(t0)):
        the draws of steps t0 .. t1-1, which share one batch size, bitwise
        equal to drawing each step alone."""
        raise NotImplementedError

    def draw_block(self, t: int, seeds) -> np.ndarray:
        """Outcome indices of shape (len(seeds), batch_size(t))."""
        return self.draw(t, t + 1, seeds)[:, 0]

    def positions(self, t: int):
        """The batch slots at step t in runs of identically distributed ones,
        in slot order, as (outcomes, conditional probabilities, count): the
        slots draw independently, so a batch's probability is the product of
        its entries' probabilities at their slots."""
        raise NotImplementedError

    def coefficients(self, t: int):
        """The law of c in the batch gradient h = sum_l c_l H(x, l) at step t:
        (E c (N,), alpha (N,), rows [(beta, members, q)]) with Cov(c) =
        diag(alpha) - sum_r beta_r q_r q_r^T, each q_r zero off its members.
        A run of k independent slots of one weight w, drawing from q, adds
        k w q to E c and k w^2 (diag(q) - q q^T) to Cov(c)."""
        n, w, slot = self.space.size, self.weights_at(t), 0
        mean, alpha, rows = np.zeros(n), np.zeros(n), []
        for members, cond, count in self.positions(t):
            wj, slot = w[slot], slot + count
            mean[members] += count * wj * cond
            alpha[members] += count * wj * wj * cond
            rows.append((count * wj * wj, members, cond))
        return mean, alpha, rows

    def outcome_count(self, t: int) -> int:
        """Exact size of the scheme's outcome space at step t (Python int)."""
        # one power per run: a product of b factors one at a time costs
        # O(b^2) digit operations, seconds at b = 1e5
        return math.prod(members.size**count for members, _, count in self.positions(t))

    def iter_outcome_chunks(self, t: int):
        """Yield (indices (c, B), probabilities (c,)) covering the outcome space,
        at most _ENUM_CHUNK outcomes per chunk: batch k is k written in the
        mixed radix of the slots' outcome counts, the last slot's digit
        lowest."""
        slots = [(m, cond) for m, cond, count in self.positions(t) for _ in range(count)]
        total = self.outcome_count(t)
        for start in range(0, total, _ENUM_CHUNK):
            rem = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
            idx = np.empty((rem.size, len(slots)), dtype=np.int64)
            prob = np.ones(rem.size)
            digit = np.empty_like(rem)  # divided in place: fresh arrays per slot add RSS
            for pos, (members, cond) in reversed(list(enumerate(slots))):
                np.divmod(rem, members.size, out=(rem, digit))
                idx[:, pos] = members[digit]
                prob *= cond[digit]
            yield idx, prob


class SegmentPlan(BatchPlan):
    """I.i.d. stream cut into segments; batch t covers stream slots S_t .. S_{t+1}-1."""

    scheme = "segment"

    weights_at = BatchPlan.weights_at
    draw_block = BatchPlan.draw_block

    def draw(self, t0: int, t1: int, seeds) -> np.ndarray:
        # one stream per seed for the whole run; steps t0 .. t1-1 are slots
        # sizes.cut(t0) .. sizes.cut(t1), drawn slot-major: (k, b, S) memory
        keys = crng.stream_keys(seeds, _STREAM_SEGMENT)
        slots = np.arange(self.sizes.cut(t0), self.sizes.cut(t1))[:, None]
        if self.space.is_uniform:
            idx = crng.randints(keys, slots, self.space.size)
        else:
            idx = crng.weighted_indices(keys, slots, self.space.cumulative)
        return idx.reshape(t1 - t0, self.batch_size(t0), keys.size).transpose(2, 0, 1)

    def positions(self, t: int):
        return [(np.arange(self.space.size), self.space.weights, self.batch_size(t))]


class SubsetPlan(BatchPlan):
    """Uniform size-b subsets without repetition; uniform weights required."""

    scheme = "no_repetition"

    def __init__(self, space: FiniteSampleSpace, sizes: BatchSizes):
        if not space.is_uniform:
            raise InvalidPlan("no-repetition batches need uniform outcome weights; "
                              "the subset average is biased otherwise")
        b = sizes.largest()
        if b > space.size:
            raise InvalidPlan(f"batch size {b} exceeds {space.size} outcomes")
        super().__init__(space, sizes)

    weights_at = BatchPlan.weights_at
    draw_block = BatchPlan.draw_block

    def draw(self, t0: int, t1: int, seeds) -> np.ndarray:
        keys = crng.stream_keys(seeds, _STREAM_SUBSET + np.arange(t0, t1)[:, None])
        return _partial_shuffle(keys, self.space.size, self.batch_size(t0)).transpose(2, 0, 1)

    def coefficients(self, t: int):
        # each outcome is in the batch with probability b/N, each pair with
        # b(b-1)/(N(N-1)): Cov(c) = kappa (I/N - 11^T/N^2), u = 1/N
        n, b = self.space.size, self.batch_size(t)
        kappa = (n - b) / ((n - 1) * b) if b < n else 0.0
        u = np.full(n, 1.0 / n)
        return np.full(n, b / n * self.weights_at(t)[0]), kappa * u, [(kappa, np.arange(n), u)]

    def outcome_count(self, t: int) -> int:
        return math.comb(self.space.size, self.batch_size(t))

    def iter_outcome_chunks(self, t: int):
        n, b = self.space.size, self.batch_size(t)
        prob = 1.0 / math.comb(n, b)
        it = combinations(range(n), b)
        while block := list(islice(it, _ENUM_CHUNK)):
            yield np.asarray(block, dtype=np.int64), np.full(len(block), prob)


class StratifiedPlan(BatchPlan):
    """Per-stratum conditional draws, weighted by stratum probability; the
    partition and the per-stratum counts hold for the whole run."""

    scheme = "stratified"

    def __init__(self, space: FiniteSampleSpace, strata, counts):
        groups = tuple(tuple(int(i) for i in g) for g in strata)
        cnts = tuple(int(c) for c in counts)
        if len(groups) != len(cnts) or not groups:
            raise InvalidPlan("need one positive count per stratum")
        if any(c < 1 for c in cnts):
            raise InvalidPlan("per-stratum counts must be >= 1")
        if any(len(g) == 0 for g in groups):
            raise InvalidPlan("every stratum must be nonempty")
        flat = sorted(i for g in groups for i in g)
        if flat != list(range(space.size)):
            raise InvalidPlan("strata must partition the outcome set exactly")
        super().__init__(space, BatchSizes.constant(sum(cnts)))
        self.strata, self.counts = groups, cnts
        self._members = [np.asarray(g, dtype=np.int64) for g in groups]
        self._mu = [float(space.weights[m].sum()) for m in self._members]
        self._weights = np.concatenate([np.full(c, m / c) for m, c in zip(self._mu, cnts)])
        self._weights.flags.writeable = False
        # the strata's members one after another, and per batch slot (as a
        # (b, 1) column) its stratum's size and first entry there
        self._flat = np.concatenate(self._members)
        sizes = np.array([m.size for m in self._members])
        self._moduli = np.repeat(sizes, cnts)[:, None]
        self._starts = np.repeat(np.cumsum(sizes) - sizes, cnts)[:, None]
        # per stratum: its first slot, its count, and its conditional cumulative weights
        self._cond = [(a, c, np.cumsum(space.weights[m]) / muj) for a, c, m, muj in zip(
            np.cumsum(cnts) - cnts, cnts, self._members, self._mu)]

    def weights_at(self, t: int) -> np.ndarray:
        return self._weights

    draw_block = BatchPlan.draw_block

    def draw(self, t0: int, t1: int, seeds) -> np.ndarray:
        # (k, b, S) positions within each slot's stratum, (k, 1, S) keys
        # against (b, 1) slots, then one gather
        keys = crng.stream_keys(seeds, _STREAM_STRATIFIED + np.arange(t0, t1)[:, None])[:, None]
        slots = np.arange(self._moduli.size)[:, None]
        if self.space.is_uniform:
            pos = crng.randints(keys, slots, self._moduli)
        else:
            pos = np.concatenate([crng.weighted_indices(keys, slots[a:a + c], cond)
                                  for a, c, cond in self._cond], axis=1)
        pos += self._starts
        return self._flat.take(pos).transpose(2, 0, 1)

    def positions(self, t: int):
        return [(m, self.space.weights[m] / muj, c)
                for m, muj, c in zip(self._members, self._mu, self.counts)]


def _partial_shuffle(keys: np.ndarray, n: int, b: int) -> np.ndarray:
    """First b entries, sorted, of a Fisher-Yates shuffle of range(n) per key:
    (k, b, S) for keys (k, S).

    Swap j exchanges positions j and p_j = j + randints(key, j, n - j), the
    words a pool shuffle consumes, but no (rows, n) pool is built (Bentley &
    Floyd 1987).  Before swap j, a position q >= j holds what the latest
    earlier swap i with p_i = q moved there, or q if there is none; swap i
    moved there what position i held before it.  For b < 8 the swaps are
    replayed on slot-major rows (``_replayed_shuffle``).  Otherwise the
    "latest earlier swap" links, which depend on the p_j alone, are found by
    one sort along each key's row of b swaps and followed by pointer
    doubling: O(b log b) per key, never O(n).
    """
    js = np.arange(b)
    if b < _SHORT:
        col = js[:, None, None]
        return _replayed_shuffle(col + crng.randints(keys, col, n - col))
    pos = (js + crng.randints(keys[..., None], js, n - js)).reshape(-1, b)
    m = pos.shape[0]
    base = np.arange(0, m * b, b)[:, None]  # flat offset of each row
    # each row's swaps sorted by target position, equal targets in swap order
    ranked, order = np.divmod(np.sort(pos * b + js, axis=1), b)
    same = ranked[:, 1:] == ranked[:, :-1]
    # prev[:, j]: the latest swap before j with the same target, or -1
    linked = np.full((m, b), -1, dtype=np.int64)
    linked[:, 1:] = np.where(same, order[:, :-1], -1)
    prev = np.empty((m, b), dtype=np.int64)
    prev.ravel()[base + order] = linked
    # last[:, q]: the latest swap aiming at position q < b, or -1.  It comes
    # before swap q, or it is swap q itself (p_q == q), and then nothing
    # reads what position q held
    run_end = np.ones((m, b), dtype=bool)
    run_end[:, :-1] = ~same
    run_end &= ranked < b
    last = np.full((m, b), -1, dtype=np.int64)
    last.ravel()[(base + ranked)[run_end]] = order[run_end]
    # position j held its original value, the index at the end of the chain
    # j <- last[j] <- ..., before swap j; a chain has fewer than b links
    held = np.where(last >= 0, last, js)
    for _ in range((b - 1).bit_length()):
        held = np.take(held, base + held)
    out = np.where(prev >= 0, np.take(held, base + np.maximum(prev, 0)), pos)
    # canonical sorted order: the draw is a set
    out.sort(axis=1)
    return out.reshape(keys.shape + (b,)).swapaxes(-1, -2)


def _replayed_shuffle(pos: np.ndarray) -> np.ndarray:
    """``_partial_shuffle``'s result from its swap targets pos (b, k, S), for
    a short b: the swaps are replayed on whole slot-major rows of k·S entries,
    O(b^2) operations, and a compare-exchange network sorts each batch.

    Swap j writes position j for good (later swaps aim at positions > j) and
    puts there what position p_j held, which is what the latest earlier swap
    i with p_i == p_j moved there, or p_j if there is none; swap i moved there
    what position i held before swap i, found the same way."""
    held = []  # held[i]: what position i held before swap i
    for i in range(len(pos)):
        h = i
        for e in range(i):
            h = np.where(pos[e] == i, held[e], h)
        held.append(h)
    rows = []
    for j, p in enumerate(pos):
        v = p
        for i in range(j):
            v = np.where(pos[i] == p, held[i], v)
        rows.append(v)
    # canonical sorted order, the draw being a set, in (k, b, S) memory
    return np.stack(_sort_network(rows), axis=1)


def _sort_network(rows: list) -> list:
    """The b arrays ``rows`` sorted elementwise, smallest first, by Batcher's
    odd-even merge sort network (Knuth, TAOCP vol. 3, 5.3.4): each
    compare-exchange of wires i < j puts the elementwise minimum on i and the
    maximum on j, two whole-row operations.  It is the network for the next
    power of two with every pair that touches a wire >= b left out: those
    wires would hold values larger than all others, which no pair moves."""
    rows, b = list(rows), len(rows)
    p = 1
    while p < b:
        k = p
        while k >= 1:
            for j in range(k % p, b - k, 2 * k):
                for i in range(j, j + min(k, b - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        rows[i], rows[i + k] = (np.minimum(rows[i], rows[i + k]),
                                                np.maximum(rows[i], rows[i + k]))
            k //= 2
        p *= 2
    return rows


def combine_batch(weights: np.ndarray, grads: np.ndarray, equal: bool) -> np.ndarray:
    """Weighted average over the batch axis (next-to-last axis of grads).

    Bitwise equal to ``grads.mean(axis=-2)`` when ``equal`` and to
    ``(weights[..., None] * grads).sum(axis=-2)`` otherwise, in either memory
    layout (see :mod:`rsgd.manifolds`)."""
    if equal:
        return _sum(grads, -2) / grads.shape[-2]
    return _sum(grads * weights[..., None], -2)


def _outcome_sums(oracle, points, outcomes, coef, centre, square=False):
    """Per point x of points (P, d) and its centre g in centre (P, d),
    sum_i coef_i (H(x, outcomes_i) - g), (P, d), or with ``square``
    sum_i coef_i ||H(x, outcomes_i) - g||^2, (P,).  The outcomes are walked
    in slices whose (P, s, d) gradients hold at most ``budget.WORDS`` words
    (or one outcome's), and the terms are added one after the other in the
    order of the outcomes (``add.accumulate``, never pairwise) with no BLAS,
    so neither the slices nor the number of points changes a point's bits."""
    acc = np.zeros(centre.shape[:1] if square else centre.shape)
    step = max(1, budget.WORDS // max(centre.size, 1))
    for a in range(0, outcomes.size, step):
        idx = outcomes[None, a:a + step].repeat(len(points), axis=0)
        h = oracle.sample_gradients(points, idx) - centre[:, None]
        terms = coef[a:a + step] * _sum(h * h) if square else coef[a:a + step, None] * h
        terms[:, 0] += acc
        acc = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    return acc


def enumerate_expectation(oracle: GradientOracle, x, plan: BatchPlan, t: int = 0) -> np.ndarray:
    """Exact expectation of the batch gradient at step t, sum_l (E c)_l H(x, l)
    from the plan's coefficient law, at one point x (d,) or at each of the
    points x (P, d).

    This is the certificate that a scheme is unbiased: the result must
    coincide with ``oracle.full_gradient(x)``.  It walks the N outcomes, not
    the batches, so it holds at any batch size.  The name is kept from when
    it enumerated every batch: perfbench's tracer patches
    ``cli.enumerate_expectation`` by it.  Each point's result is bitwise
    equal to computing it alone, whatever ``budget.WORDS`` is.
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    acc = _outcome_sums(oracle, points, np.arange(oracle.space.size), plan.coefficients(t)[0],
                        np.zeros_like(points))
    return acc if np.ndim(x) == 2 else acc[0]


def variance_report(oracle: GradientOracle, x, plan: BatchPlan, t: int = 0) -> float:
    """Exact E ||h - E h||^2 of the batch gradient h at step t from the plan's
    coefficient law: sum_l alpha_l ||H_l - g||^2 - sum_r beta_r
    ||sum_l q_rl (H_l - g)||^2 with g = grad F(x).  The weights of every
    batch sum to 1, so Cov(c) 1 = 0 and centring on g changes nothing but
    the cancellation."""
    point = np.asarray(x, dtype=float)[None]
    g = oracle.full_gradient(point)
    _, alpha, rows = plan.coefficients(t)
    var = _outcome_sums(oracle, point, np.arange(oracle.space.size), alpha, g, square=True)[0]
    for beta, members, q in rows:
        s = _outcome_sums(oracle, point, members, q, g)[0]
        var -= beta * _dot(s, s)
    return float(var)
