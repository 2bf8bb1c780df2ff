"""Manifolds, retractions, and the linear maps attached to them.

Two concrete geometries are provided: flat Euclidean space and the unit
sphere with the projective retraction R_x(v) = (x + v) / ||x + v||.  Points
and tangent vectors are plain float64 ndarrays in ambient coordinates; every
operation broadcasts over leading axes, so a single call can transform one
point of shape (d,) or a batch of shape (S, d).

All operations are pure functions of their inputs and hold no state.

The sums that run once per step go along axes of d or b entries, which are
often shorter than 8.  numpy adds fewer than 8 terms one after the other,
starting from 0.0, and 8 or more pairwise in blocks of 8.  On a short axis
its generic reduction and its broadcasts run one inner loop per few entries,
so once an array holds ``_MANY`` entries or more, ``_sum`` writes the short
case out as slice adds in numpy's own order, which gives the same bits in a
few whole-array operations, and ``_spread`` repeats an array along a short
last axis instead of broadcasting it there.  Smaller arrays (one seed, say)
keep the single numpy call, which is the cheaper one there.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRetraction

DEGENERACY_EPS = 1e-12
# an axis shorter than _SHORT is summed by slice adds and repeated, not
# broadcast, in arrays of at least _MANY entries
_SHORT = 8
_MANY = 512


def _sum(a, axis=-1):
    """``np.add.reduce(a, axis)`` bit for bit, for axis -1 or -2."""
    n = a.shape[axis]
    if n >= _SHORT or n == 0 or a.size < _MANY:
        return np.add.reduce(a, axis=axis)
    if axis != -1:
        a = a.swapaxes(axis, -1)
    if n == 1:
        return a[..., 0] + 0.0
    out = a[..., 0] + a[..., 1]
    for j in range(2, n):
        out += a[..., j]
    # numpy starts from 0.0: an all -0.0 sum is +0.0, anything else unchanged
    out += 0.0
    return out


def _spread(a, d, size=None):
    """a (...) against a last axis of d entries, in an operation on ``size``
    entries (a.size * d by default): repeated to (..., d) when d is short and
    the operation large, the broadcast view (..., 1) otherwise."""
    if d < _SHORT and (a.size * d if size is None else size) >= _MANY:
        return a[..., None].repeat(d, axis=-1)
    return a[..., None]


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
        out = y / _spread(n, y.shape[-1])
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
