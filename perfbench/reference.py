"""Computations made apart from ``rsgd``, used to check its outputs.

Nothing here imports ``rsgd``: data files are parsed with the ``csv``
module, and costs, gradients, minimizers and batch enumerations follow the
mathematical definitions directly, written independently of the program's
own formulas.
"""

from __future__ import annotations

import csv
import hashlib
import math
from itertools import combinations, product

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_matrix(path) -> np.ndarray:
    """Numeric rows of a CSV file with one header row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(c) for c in row] for row in rows[1:] if row], dtype=float)


def read_columns(path) -> dict[str, list[str]]:
    """Columns of a CSV file by header name, as the raw text cells."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {h: [] for h in header}
        for row in reader:
            for h, cell in zip(header, row):
                cols[h].append(cell)
    return cols


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digest_dir(path) -> str:
    """sha256 over the names and bytes of every file in a directory."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(f.name.encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


# -- sphere mean -----------------------------------------------------------------

def sphere_cost(targets: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(x) = (1/2N) sum_l ||x - a_l||^2 for x of shape (..., d)."""
    diff = x[..., None, :] - targets
    return 0.5 * np.mean(np.sum(diff * diff, axis=-1), axis=-1)


def sphere_grad(targets: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Riemannian gradient: x - mean(a) projected onto the tangent space at x."""
    v = x - targets.mean(axis=0)
    return v - np.sum(x * v, axis=-1, keepdims=True) * x


def sphere_outcome_grads(targets: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(N, d) table of the per-target gradients proj_x(x - a_l)."""
    v = x - targets
    return v - (v @ x)[:, None] * x


def scheme_outcomes(scheme: str, n: int, b: int, strata=None):
    """Every batch of a scheme with its probability, by itertools.

    Uniform outcome weights.  Returns (indices (K, b), probabilities (K,)).
    """
    if scheme == "segment":
        idx = np.array(list(product(range(n), repeat=b)), dtype=np.int64)
        return idx, np.full(len(idx), float(n) ** -b)
    if scheme == "no_repetition":
        idx = np.array(list(combinations(range(n), b)), dtype=np.int64)
        return idx, np.full(len(idx), 1.0 / math.comb(n, b))
    if scheme == "stratified":
        positions = [list(members) for members, count in strata for _ in range(count)]
        idx = np.array(list(product(*positions)), dtype=np.int64)
        prob = np.prod([1.0 / len(p) for p in positions])
        return idx, np.full(len(idx), prob)
    raise ValueError(f"unknown scheme {scheme!r}")


def slot_marginals(idx: np.ndarray, prob: np.ndarray, n: int) -> np.ndarray:
    """(b, n) table: probability that batch slot j holds outcome l."""
    return np.stack([np.bincount(col, weights=prob, minlength=n) for col in idx.T])


def slot_frequencies(draws: np.ndarray, n: int) -> np.ndarray:
    """(b, n) table: share of drawn batches whose slot j holds outcome l."""
    return np.stack([np.bincount(col, minlength=n) for col in draws.T]) / len(draws)


def sorted_outcomes(idx: np.ndarray, prob: np.ndarray):
    """Batches in lexicographic order with their probabilities, for comparing
    two enumerations as multisets."""
    order = np.lexsort(idx.T[::-1])
    return idx[order], prob[order]


# -- least squares ---------------------------------------------------------------

def lsq_cost(a: np.ndarray, y: np.ndarray, tau: float, x: np.ndarray) -> float:
    r = a @ x - y
    return float(0.5 * np.mean(r * r) + 0.5 * tau * (x @ x))


def lsq_grad(a: np.ndarray, y: np.ndarray, tau: float, x: np.ndarray) -> np.ndarray:
    return a.T @ (a @ x - y) / len(y) + tau * x


def lsq_minimum(a: np.ndarray, y: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """Minimizer and minimum from the normal equations (A^T A / N + tau I) x = A^T y / N."""
    n, d = a.shape
    x = np.linalg.solve(a.T @ a / n + tau * np.eye(d), a.T @ y / n)
    return x, lsq_cost(a, y, tau, x)
