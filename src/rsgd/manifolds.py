"""Manifolds, retractions, and the linear maps attached to them.

Two concrete geometries are provided: flat Euclidean space and the unit
sphere with the projective retraction R_x(v) = (x + v) / ||x + v||.  Points
and tangent vectors are plain float64 ndarrays in ambient coordinates; every
operation broadcasts over leading axes, so a single call can transform one
point of shape (d,) or a batch of shape (S, d).

All operations are pure functions of their inputs and hold no state.

The sums that run once per step go along axes of d or b entries, which are
often shorter than 8.  numpy adds fewer than 8 terms one after the other,
starting from 0.0; 8 or more it adds pairwise in blocks of 8 along an axis
that is contiguous in memory, and one after the other along any other axis.

This module owns the memory layout of the lockstep state.  A run of S seeds
in dimension d keeps its (S, d) iterates, and the (S, b, d) arrays its step
kernels make, *coordinate-major* -- in (d, S) and (d, b, S) memory, the
coordinate axis outermost -- when ``coordinate_major(S, d)``, that is when
1 < d < 8 and S >= ``_CM_SEEDS``, and row-major otherwise.  The logical
shapes are the same in both.  The layout is chosen once per run, from S and
d alone (never from b, which may change during a run), and every kernel
reads it from the memory of its input (``_is_cm``):

- coordinate-major: a sum over d or b is one numpy reduction that adds
  contiguous runs of S entries, and a per-seed scalar broadcasts along the
  outermost axis at no cost.  From ``_CM_SEEDS`` seeds on this is the faster
  layout;
- row-major: the kernels are plain numpy broadcasts and reductions, which
  along a short last axis run one inner loop per few entries.  It is the
  layout of fewer than ``_CM_SEEDS`` seeds, and of d = 1 and d >= 8.

Results never depend on the layout: elementwise arithmetic does not see
memory order, a sum of fewer than 8 terms is sequential in every layout, and
``_sum`` adds 8 or more terms as a row-major array would.  (The one
exception is the NaN that an addition of two NaNs of different bits
returns, which numpy leaves to its inner loop; arithmetic on finite numbers
makes NaNs of one pattern only.)  From d = 8 on the
state stays row-major: there numpy sums each row of a row-major array
pairwise, and a sum over the outermost axis of a coordinate-major one would
be sequential, with other bits.  At d = 1 the two layouts of (S, d) coincide.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRetraction

DEGENERACY_EPS = 1e-12
# numpy sums fewer than _SHORT terms one after the other in every layout
_SHORT = 8
# seeds from which a lockstep run of 1 < d < _SHORT goes coordinate-major
_CM_SEEDS = 8


def coordinate_major(n_seeds: int, d: int) -> bool:
    """Whether a lockstep run of n_seeds seeds in dimension d keeps its state
    coordinate-major (see the module docstring)."""
    return 1 < d < _SHORT and n_seeds >= _CM_SEEDS


def _is_cm(a) -> bool:
    """Whether an array is in coordinate-major memory: Fortran order and not
    also C order, as an array with one row or one coordinate is."""
    return np.isfortran(a)


def _empty(shape, cm: bool):
    """An uninitialised float array, coordinate-major when cm."""
    return np.empty(shape[::-1]).T if cm else np.empty(shape)


def _sum(a, axis=-1):
    """``np.add.reduce(a, axis)`` of a row-major copy of a, bit for bit, for
    axis -1 or -2."""
    n = a.shape[axis]
    if n >= _SHORT and not a.flags.c_contiguous:
        # numpy adds 8 or more terms pairwise along the axis contiguous in
        # memory and one by one along any other: a coordinate-major array
        # sums them as a row-major one does only when the summed axis is
        # neither its first nor its last non-unit axis
        after = 1 if axis == -1 else a.shape[-1]
        if after == 1 or a.size == n * after or not _is_cm(a):
            a = np.ascontiguousarray(a)
    return np.add.reduce(a, axis=axis)


def _dot(u, v):
    """Inner product along the last axis (no BLAS, shape-stable rounding)."""
    return _sum(u * v)


class Manifold:
    """Common interface; see :class:`Euclidean` and :class:`Sphere`."""

    kind: str
    ambient_dim: int
    intrinsic_dim: int

    def retract(self, x, v):
        """Map the tangent vector v at x back to the manifold."""
        y, ok = self.retract_flagged(x, v)
        if not np.all(ok):
            raise DegenerateRetraction(
                f"retraction step degenerate on {self.kind}: ||x + v|| <= {DEGENERACY_EPS}"
            )
        return y

    def retract_flagged(self, x, v):
        """Like :meth:`retract` but returns (point, ok_mask) instead of raising."""
        raise NotImplementedError

    def retract_adjoint(self, x, u, z):
        """Adjoint of dR_x|_u applied to z in the tangent space at retract(x, u).

        Defined by <v, adjoint(z)>_x = <dR_x|_u(v), z> for all tangent v at x.
        Realized as the transpose of the ambient Jacobian of R_x composed with
        tangent projections at both ends.
        """
        raise NotImplementedError

    def project_tangent(self, x, a):
        """Orthogonal projection of an ambient vector onto the tangent space at x."""
        raise NotImplementedError

    def inner(self, x, u, v):
        """Riemannian inner product of tangent vectors u, v at x (ambient dot)."""
        return _dot(u, v)

    def norm(self, x, v):
        return np.sqrt(_dot(v, v))

    def contains(self, x, tol: float = 1e-12):
        """Whether x satisfies the manifold's point invariant, elementwise."""
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator, size: int | None = None):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.ambient_dim})"


class Euclidean(Manifold):
    """Flat space R^d; the retraction is vector addition."""

    kind = "euclidean"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.ambient_dim = int(dim)
        self.intrinsic_dim = int(dim)

    def retract_flagged(self, x, v):
        y = x + v
        return y, np.ones(np.shape(y)[:-1], dtype=bool)

    def retract_adjoint(self, x, u, z):
        return np.array(z, dtype=float, copy=True)

    def project_tangent(self, x, a):
        return np.array(a, dtype=float, copy=True)

    def contains(self, x, tol: float = 1e-12):
        return np.all(np.isfinite(x), axis=-1)

    def random_point(self, rng, size=None):
        shape = (self.ambient_dim,) if size is None else (size, self.ambient_dim)
        return rng.normal(size=shape)


class Sphere(Manifold):
    """Unit sphere S^{d-1} in R^d with the projective retraction.

    Points are renormalized after every retraction so that norm drift cannot
    accumulate over long runs.
    """

    kind = "sphere"

    def __init__(self, ambient_dim: int):
        if ambient_dim < 2:
            raise ValueError("sphere needs ambient dimension >= 2")
        self.ambient_dim = int(ambient_dim)
        self.intrinsic_dim = int(ambient_dim) - 1

    def retract_flagged(self, x, v):
        y = x + v
        n = np.sqrt(_dot(y, y))
        ok = n > DEGENERACY_EPS
        if not np.logical_and.reduce(ok, axis=None):
            n = np.where(ok, n, 1.0)
        out = y / n[..., None]
        # R_x(0) = x exactly: renormalization must not move a fixed point;
        # only a step with a zero entry can be a zero step
        v = np.asarray(v)
        if not np.logical_and.reduce(v, axis=None):
            zero = np.logical_and.reduce(v == 0.0, axis=-1)
            if np.logical_or.reduce(zero, axis=None):
                out = np.where(zero[..., None], x, out)
                ok = ok | zero
        return out, ok

    def _radius(self, x, u):
        n = np.sqrt(_dot(x + u, x + u))
        if not np.all(n > DEGENERACY_EPS):
            raise DegenerateRetraction("||x + u|| <= degeneracy threshold on sphere")
        return n

    def retract_adjoint(self, x, u, z):
        # Jacobian transpose (I - y y^T)/||x+u|| followed by projection onto T_x
        n = self._radius(x, u)
        y = (x + u) / n[..., None]
        w = (z - _dot(y, z)[..., None] * y) / n[..., None]
        return w - _dot(x, w)[..., None] * x

    def project_tangent(self, x, a):
        return a - _dot(x, a)[..., None] * x

    def contains(self, x, tol: float = 1e-12):
        return np.abs(np.sqrt(_dot(x, x)) - 1.0) <= tol

    def random_point(self, rng, size=None):
        shape = (self.ambient_dim,) if size is None else (size, self.ambient_dim)
        a = rng.normal(size=shape)
        return a / np.sqrt(_dot(a, a))[..., None]
