"""Cost functions with finite-sample stochastic gradient oracles.

Each problem couples a manifold, a finite outcome space with probability
weights, and a per-outcome gradient field H(x, l) whose weighted average over
all outcomes equals the exact Riemannian gradient of the cost.  Because the
outcome spaces are finite, a batch plan is certified unbiased exactly: each
H(x, l) weighted by the plan's mean coefficient (:mod:`rsgd.batching`) sums to it.

Two instances are provided: a mean-of-targets cost on the unit sphere (whose
domain is compact by itself) and Tikhonov-regularized least squares on flat
space (which needs the confinement machinery to stay in a compact region).

Both costs are quadratic, so each problem reduces its data once, at
construction, to a few weighted moments; the exact cost and gradient that the
driver records at every step then cost O(d^2) per point instead of O(N d).
Those records are sums along fixed axes without BLAS, so a point's value does
not depend on how many points are evaluated with it.  The per-outcome
gradients H(x, l) still read the data rows; they sum along d the way
:mod:`rsgd.manifolds` does, so their bits depend neither on the shapes nor on
the memory layout.  For points in coordinate-major memory (see
:mod:`rsgd.manifolds`) they gather from a (d, N) copy of the data, made on
the first such call, and repeat x along the batch axis; in row-major memory
they gather rows and broadcast x.

The data CSV loaders read a file by one of two paths with the same result.
A clean file (no quotes, no rows of whitespace or commas only) goes by path
to numpy's reader, which parses it in chunks in C; the rest, which numpy
would refuse, pass a Python line filter that drops such rows and feeds
``np.loadtxt`` line by line.  Rows whose squares overflow are refused at
load, so the moments above are finite.
"""

from __future__ import annotations

import csv
import itertools
import os
import stat
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import UnboundedRegion
from .manifolds import Euclidean, Manifold, Sphere, _dot, _is_cm, _sum


@dataclass(frozen=True)
class FiniteSampleSpace:
    """Outcome set {0, .., N-1} with strictly positive probability weights."""

    weights: np.ndarray
    cumulative: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-d array")
        if not np.all(w > 0):
            raise ValueError("all outcome weights must be > 0")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {w.sum()!r})")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cumulative", np.cumsum(w))

    @classmethod
    def uniform(cls, n: int) -> "FiniteSampleSpace":
        if n < 1:
            raise ValueError("sample space must have at least one outcome")
        return cls(np.full(n, 1.0 / n))

    @property
    def size(self) -> int:
        return self.weights.size

    @property
    def is_uniform(self) -> bool:
        return bool(np.all(self.weights == self.weights[0]))


class GradientOracle:
    """Base class: cost F, exact gradient, and per-outcome gradients H(x, l).

    Subclasses fill in the vectorized primitives; everything here broadcasts
    over leading axes of x exactly like the manifold operations.
    """

    manifold: Manifold
    space: FiniteSampleSpace
    data_seed: int | None

    def cost(self, x):
        raise NotImplementedError

    def full_gradient(self, x):
        raise NotImplementedError

    def sample_gradients(self, x, idx):
        """H(x, l) for an index array: x (..., d), idx (..., b) -> (..., b, d)."""
        raise NotImplementedError

    def gradient_bound(self) -> float:
        """A valid bound A with ||H(x, l)|| <= A on the problem's region."""
        raise NotImplementedError

    def sample_region(self, rng: np.random.Generator, size: int):
        """Points covering the compact region the gradient bound refers to."""
        raise NotImplementedError

    @property
    def region_label(self) -> str:
        raise NotImplementedError


def _gather(a, idx):
    """a[idx] along the first axis: ``take`` when a is C-contiguous (several
    times faster), indexing otherwise (``take`` would copy all of a first)."""
    return a.take(idx, axis=0) if a.flags.c_contiguous else a[idx]


def _gather_cm(a_t, idx):
    """a[idx] along the first axis of a, in coordinate-major memory, from
    a_t = a.T: (d, N) for rows of d coordinates, (N,) for scalars."""
    return a_t.take(idx.T, axis=-1).T


def _rows(x, b):
    """x (..., d) against a batch of b outcomes: repeated to (..., b, d), in
    the layout of x, when b > 1 and x is coordinate-major; the broadcast view
    (..., 1, d) otherwise."""
    xb = x[..., None, :]
    if b > 1 and _is_cm(x):
        # a broadcast along the batch axis, between d and the seeds in
        # memory, would cost each operation one inner loop per (j, i)
        return xb.T.repeat(b, axis=1).T
    return xb


class SphereMeanProblem(GradientOracle):
    """Weighted mean of squared distances to fixed targets, on the unit sphere.

    F(x) = sum_l w_l ||x - a_l||^2 / 2, which for uniform weights is the
    mean (1/2N) sum_l ||x - a_l||^2.  The per-outcome gradient is the tangent
    projection of x - a_l, and the exact gradient projects x - abar where
    abar is the weighted target mean.
    """

    def __init__(self, targets, weights=None, data_seed: int | None = None):
        a = np.asarray(targets, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("targets must be a (N, d) array with N >= 1")
        n, d = a.shape
        self.targets = a
        self.space = FiniteSampleSpace.uniform(n) if weights is None else FiniteSampleSpace(weights)
        if self.space.size != n:
            raise ValueError("weights length must match number of targets")
        self.manifold = Sphere(d)
        self.data_seed = data_seed
        self.target_mean = (self.space.weights[:, None] * a).sum(axis=0)
        self._sq_mean = float((self.space.weights * (a * a).sum(axis=1)).sum())

    @cached_property
    def _targets_t(self):
        # (d, N): the gather of coordinate-major steps, built on the first one
        return np.ascontiguousarray(self.targets.T)

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (_dot(x, x) - 2.0 * _dot(x, self.target_mean) + self._sq_mean)

    def full_gradient(self, x):
        x = np.asarray(x, dtype=float)
        return self.manifold.project_tangent(x, x - self.target_mean)

    def sample_gradients(self, x, idx):
        x = np.asarray(x, dtype=float)
        idx = np.asarray(idx)
        xb = _rows(x, idx.shape[-1])
        if _is_cm(x):
            diff = xb - _gather_cm(self._targets_t, idx)
        else:
            diff = xb - _gather(self.targets, idx)
        return diff - _sum(diff * xb)[..., None] * xb

    def gradient_bound(self) -> float:
        # ||proj_x(x - a_l)|| <= ||x|| + ||a_l|| <= 1 + max ||a_l||; pad to the
        # simpler majorant 2 + max, which stays valid for non-unit targets.
        return 2.0 + float(np.sqrt((self.targets**2).sum(axis=1)).max())

    def sample_region(self, rng, size: int):
        return self.manifold.random_point(rng, size)

    @property
    def region_label(self) -> str:
        return "unit sphere"


class RegularizedLeastSquaresProblem(GradientOracle):
    """Tikhonov-regularized least squares on R^d.

    F(x) = sum_l w_l (<a_l, x> - y_l)^2 / 2 + tau ||x||^2 / 2, with
    per-outcome gradient H(x, l) = (<a_l, x> - y_l) a_l + tau x.  The
    regularizer makes rho(x) = ||x||^2 a confinement of H, so runs can be
    certified to stay in a ball without being clamped.

    The cost and exact gradient come from the moments G = A^T W A,
    c = A^T W y and s = sum_l w_l y_l^2, computed once:
    F(x) = (x^T G x - 2 c^T x + s) / 2 + tau ||x||^2 / 2 and
    grad F(x) = G x - c + tau x, O(d^2) per point.  The expanded form rounds
    differently from the sum of squared residuals: its absolute error is of
    order eps * (x^T G x + s), so near an exact fit, where the residuals
    vanish but x^T G x and s do not, the data term of F keeps only that
    absolute accuracy (it may even round to a tiny negative number).
    """

    def __init__(self, features, labels, tau: float, weights=None,
                 region_rho1: float | None = None, data_seed: int | None = None):
        a = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ValueError("features must be a (N, d) array with N >= 1")
        if y.shape != (a.shape[0],):
            raise ValueError("labels must be a (N,) array matching features")
        if not tau > 0:
            raise ValueError("tau must be > 0")
        self.features = a
        self.labels = y
        self.tau = float(tau)
        n, d = a.shape
        self.space = FiniteSampleSpace.uniform(n) if weights is None else FiniteSampleSpace(weights)
        if self.space.size != n:
            raise ValueError("weights length must match number of rows")
        self.manifold = Euclidean(d)
        self.region_rho1 = None if region_rho1 is None else float(region_rho1)
        self.data_seed = data_seed
        # moments of the data, summed in a fixed order without BLAS so they do
        # not depend on the thread count; einsum builds no (N, d, d) product
        wa = self.space.weights[:, None] * a
        self._gram = np.einsum("ni,nj->ij", wa, a)
        self._cross = np.einsum("ni,n->i", wa, y)
        self._sq_labels = float((self.space.weights * y * y).sum())

    @cached_property
    def _features_t(self):
        # (d, N): the gather of coordinate-major steps, built on the first one
        return np.ascontiguousarray(self.features.T)

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        quad = _dot(x, _sum(x[..., None, :] * self._gram))
        return (0.5 * (quad - 2.0 * _dot(x, self._cross) + self._sq_labels)
                + 0.5 * self.tau * _dot(x, x))

    def full_gradient(self, x):
        x = np.asarray(x, dtype=float)
        return _sum(x[..., None, :] * self._gram) - self._cross + self.tau * x

    def sample_gradients(self, x, idx):
        x = np.asarray(x, dtype=float)
        idx = np.asarray(idx)
        if _is_cm(x):
            av, y = _gather_cm(self._features_t, idx), _gather_cm(self.labels, idx)
        else:
            av, y = _gather(self.features, idx), _gather(self.labels, idx)
        xb = _rows(x, idx.shape[-1])
        r = _sum(xb * av) - y
        return r[..., None] * av + self.tau * xb

    def rho0_for_norm_squared(self) -> float:
        """Threshold max_l y_l^2 / (4 tau) above which <2x, H(x, l)> >= 0."""
        with np.errstate(over="ignore"):  # inf, which the caller names
            return float((self.labels**2).max() / (4.0 * self.tau))

    def gradient_bound(self) -> float:
        if self.region_rho1 is None:
            raise UnboundedRegion(
                "least squares lives on all of R^d; declare a ball ||x||^2 <= region_rho1"
            )
        root = float(np.sqrt(self.region_rho1))
        an = np.sqrt((self.features**2).sum(axis=1))
        return float((an * an * root + np.abs(self.labels) * an).max() + self.tau * root)

    def sample_region(self, rng, size: int):
        if self.region_rho1 is None:
            raise UnboundedRegion("no ball radius declared for region sampling")
        d = self.manifold.ambient_dim
        dirs = self.manifold.random_point(rng, size)
        dirs = dirs / np.sqrt((dirs * dirs).sum(axis=-1))[..., None]
        radii = np.sqrt(self.region_rho1) * rng.uniform(size=size) ** (1.0 / d)
        return dirs * radii[:, None]

    @property
    def region_label(self) -> str:
        if self.region_rho1 is None:
            return "R^d (no region declared)"
        return f"ball ||x||^2 <= {self.region_rho1:g}"


def random_sphere_mean(dim: int, n_outcomes: int, seed: int) -> SphereMeanProblem:
    """Sphere-mean instance with pseudo-random unit targets; the seed is recorded."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_outcomes, dim))
    a = a / np.sqrt((a * a).sum(axis=1))[:, None]
    return SphereMeanProblem(a, data_seed=seed)


def random_least_squares(dim: int, n_outcomes: int, seed: int, tau: float,
                         region_rho1: float | None = None) -> RegularizedLeastSquaresProblem:
    """Least-squares instance with unit feature rows and normal labels."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_outcomes, dim))
    a = a / np.sqrt((a * a).sum(axis=1))[:, None]
    y = rng.normal(size=n_outcomes)
    return RegularizedLeastSquaresProblem(a, y, tau, region_rho1=region_rho1, data_seed=seed)


def _read_csv_rows(path) -> np.ndarray:
    """The numeric rows under a required header row, as an (N, k) array.

    Rows that are empty or whose cells, quoted or not, are all whitespace are
    skipped.  Python reads the lines through the first data row, to find the
    header row.  numpy then parses the rest from the path, in chunks in C.
    It raises ``ValueError`` on every quoted cell and on every row the rule
    skips, bar empty ones, so such a file goes on through a Python filter
    that feeds ``np.loadtxt`` the kept lines one at a time.  Both give the
    same array; only the filter names a bad cell or ragged row.  A row with
    a ``nan`` or ``inf`` cell, or whose sum of squares overflows, is refused,
    naming its data row.
    """
    with open(path) as fh:
        kept = ((n, line) for n, line in enumerate(fh, 1)
                if line.replace(",", "").replace('"', "").strip())
        (skip, header), (_, first) = next(kept, (0, None)), next(kept, (0, None))
        if first is None:
            raise ValueError(f"{path}: need a header row plus at least one data row")
        try:
            [float(cell) for cell in next(csv.reader([header]))]
        except ValueError:
            pass
        else:
            raise ValueError(f"{path}: first row parses as numbers; a header row is required")
        data = _read_clean(fh, path, skip)
        if data is None:
            lines = (line for _, line in kept)
            try:
                data = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2,
                                  comments=None, quotechar='"')
            except ValueError as exc:
                raise ValueError(f"{path}: non-numeric cell or ragged data row ({exc})") from None
    # one pass of row sums, no (N, k) temporary, no floating-point warning
    bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", data, data)))
    if bad.size:
        row = bad[0]
        if np.isfinite(data[row]).all():
            raise ValueError(f"{path}: data row {row + 1}: the sum of the squares of its "
                             "cells overflows")
        raise ValueError(f"{path}: data row {row + 1} holds a non-finite cell")
    return data


# the extensions numpy's loaders decompress by; ``open`` reads such a file as is
_NUMPY_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_clean(fh, path, skip: int):
    """The rows after the first ``skip`` lines, by numpy's chunked reader, or
    None where it raises ``ValueError`` or cannot be asked.

    numpy opens the file a second time, so a pipe, which cannot be read
    twice, is left to the caller's open ``fh``.  The path is made absolute
    so that numpy cannot take it for a URL.
    """
    name = os.path.abspath(os.fsdecode(path))
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode) or name.endswith(_NUMPY_DECOMPRESSED):
        return None
    try:
        return np.loadtxt(name, delimiter=",", ndmin=2, comments=None, skiprows=skip)
    except ValueError:
        return None


def load_sphere_mean_csv(path) -> SphereMeanProblem:
    """Targets from a CSV file: header row, then one row of coordinates per
    outcome; the outcomes are equally likely."""
    return SphereMeanProblem(_read_csv_rows(path))


def load_least_squares_csv(path, tau: float,
                           region_rho1: float | None = None) -> RegularizedLeastSquaresProblem:
    """Rows of feature coordinates followed by the label in the last column;
    the rows are equally likely."""
    data = _read_csv_rows(path)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: least-squares rows need feature columns plus a label")
    return RegularizedLeastSquaresProblem(data[:, :-1], data[:, -1], tau, region_rho1=region_rho1)
