"""Manifolds, retractions, and the linear maps attached to them.

Two concrete geometries are provided: flat Euclidean space and the unit
sphere with the projective retraction R_x(v) = (x + v) / ||x + v||.  Points
and tangent vectors are plain float64 ndarrays in ambient coordinates; every
operation broadcasts over leading axes, so a single call can transform one
point of shape (d,) or a batch of shape (S, d).

All operations are pure functions of their inputs and hold no state.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRetraction

DEGENERACY_EPS = 1e-12


def _dot(u, v):
    """Inner product along the last axis (no BLAS, shape-stable rounding)."""
    return (u * v).sum(axis=-1)


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
        safe = np.where(ok, n, 1.0)
        out = y / safe[..., None]
        # R_x(0) = x exactly: renormalization must not move a fixed point
        zero = np.all(np.asarray(v) == 0.0, axis=-1)
        if np.any(zero):
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
