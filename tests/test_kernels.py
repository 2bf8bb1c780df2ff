"""The step kernels and the problems' record sums (cost, least-squares
gradient) against their broadcast oracles in tests/reference.py, bit for bit.

The kernels are plain numpy reductions (``np.add.reduce``) and broadcasts,
on inputs in row-major or coordinate-major memory; the oracles are the
broadcast and ``ndarray.sum`` / ``mean`` forms on row-major inputs.  Inputs
mix ordinary values with -0.0, +-inf, NaN and subnormals, and the summed
axes run from 1 to 20 entries, on both sides of the 8 from which numpy sums
a contiguous axis pairwise.  If numpy ever changes its summation order, or
a layout's reduction stops matching the row-major one, these fail instead
of the records drifting silently.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgd import Euclidean, RegularizedLeastSquaresProblem, Sphere, SphereMeanProblem
from rsgd.batching import combine_batch
from rsgd.manifolds import _dot

from reference import (
    broadcast_retract_flagged,
    broadcast_sample_gradients,
    mean_combine,
    sum_cost,
    sum_dot,
    sum_full_gradient,
)

# the one NaN that the arithmetic itself makes (inf * 0), on this platform
with np.errstate(invalid="ignore"):
    MADE_NAN = (np.array([np.inf]) * 0.0)[0]
SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, MADE_NAN, 5e-324, -5e-324, 2.2e-308, 1e300])


def _values(rng, shape, special):
    """Normal values at mixed scales, a share ``special`` of them replaced by
    signed zeros, infinities, NaN and subnormals, and as large a share of the
    last-axis rows and of the last-two-axes slabs set to -0.0, whose sums
    numpy returns as +0.0.

    The NaN is ``MADE_NAN``.  When two NaNs of different bits meet in one
    addition, which one numpy returns depends on its inner loop (vector or
    scalar), so a kernel and its oracle may disagree on that NaN's sign by
    chance; with the one NaN pattern that arithmetic on finite numbers can
    make, every bit must agree."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
    mask = rng.uniform(size=shape) < special
    a[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    for axes in (1, 2)[:len(shape)]:
        a[rng.uniform(size=shape[:-axes]) < special] = -0.0
    return a


@pytest.fixture(autouse=True)
def _quiet():
    # inf - inf and the like are part of the inputs
    with np.errstate(all="ignore"):
        yield


# each test feeds the kernels their inputs as given (row-major) and again in
# coordinate-major memory
LAYOUTS = (False, True)


def _laid(a, cm):
    return np.asfortranarray(a) if cm else a


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def cases(draw, least_d=1):
    """(rng, lead, d, b, special): a leading shape (), (S,) or (S, k) with up
    to 150 rows, so the sums have from one to thousands of outputs."""
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 150)),),
                                 (draw(st.integers(1, 60)), draw(st.integers(1, 4)))]))
    return (np.random.default_rng(draw(st.integers(0, 2**32 - 1))), lead,
            draw(st.integers(least_d, 12)), draw(st.integers(1, 20)),
            draw(st.sampled_from([0.0, 0.05, 0.3])))


@settings(max_examples=100, deadline=None)
@given(case=cases(least_d=2), x_lead=st.booleans())
def test_sphere_sample_gradients(case, x_lead):
    rng, lead, d, b, special = case
    for cm in LAYOUTS:
        p = SphereMeanProblem(_values(rng, (9, d), special))
        # x either has the batch's leading shape or none (one point for all rows)
        x = _values(rng, lead + (d,) if x_lead else (d,), special)
        idx = rng.integers(0, 9, size=lead + (b,))
        _same(p.sample_gradients(_laid(x, cm), _laid(idx, cm)),
              broadcast_sample_gradients(p, x, idx))


@settings(max_examples=100, deadline=None)
@given(case=cases(), x_lead=st.booleans())
def test_least_squares_sample_gradients(case, x_lead):
    rng, lead, d, b, special = case
    for cm in LAYOUTS:
        # features and labels as columns of one table, as the CSV loader leaves them
        rows = _values(rng, (9, d + 1), special)
        p = RegularizedLeastSquaresProblem(rows[:, :-1], rows[:, -1], tau=0.3)
        x = _values(rng, lead + (d,) if x_lead else (d,), special)
        idx = rng.integers(0, 9, size=lead + (b,))
        _same(p.sample_gradients(_laid(x, cm), _laid(idx, cm)),
              broadcast_sample_gradients(p, x, idx))


@settings(max_examples=100, deadline=None)
@given(case=cases(least_d=2))
def test_sphere_cost(case):
    rng, lead, d, _, special = case
    for cm in LAYOUTS:
        p = SphereMeanProblem(_values(rng, (9, d), special))
        x = _values(rng, lead + (d,), special)
        _same(p.cost(_laid(x, cm)), sum_cost(p, x))


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_least_squares_record(case):
    rng, lead, d, _, special = case
    for cm in LAYOUTS:
        rows = _values(rng, (9, d + 1), special)
        p = RegularizedLeastSquaresProblem(rows[:, :-1], rows[:, -1], tau=0.3)
        x = _values(rng, lead + (d,), special)
        _same(p.cost(_laid(x, cm)), sum_cost(p, x))
        _same(p.full_gradient(_laid(x, cm)), sum_full_gradient(p, x))


@settings(max_examples=100, deadline=None)
@given(case=cases(), uniform=st.booleans())
def test_combine_batch(case, uniform):
    rng, lead, d, b, special = case
    for cm in LAYOUTS:
        grads = _values(rng, lead + (b, d), special)
        w = np.full(b, 1.0 / b) if uniform else rng.uniform(0.1, 1.0, size=b)
        if not uniform:
            w /= w.sum()
        equal = bool(np.all(w == w[0]))
        _same(combine_batch(w, _laid(grads, cm), equal), mean_combine(w, grads, equal))


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_dot(case):
    rng, lead, d, _, special = case
    for cm in LAYOUTS:
        u, v = _values(rng, lead + (d,), special), _values(rng, lead + (d,), special)
        _same(_dot(_laid(u, cm), _laid(v, cm)), sum_dot(u, v))
        _same(_dot(_laid(u, cm), _laid(u, cm)), sum_dot(u, u))


@settings(max_examples=100, deadline=None)
@given(case=cases(), zero_rows=st.sampled_from([0.0, 0.2, 1.0]),
       degenerate_rows=st.sampled_from([0.0, 0.2]))
def test_retract_flagged(case, zero_rows, degenerate_rows):
    rng, lead, d, _, special = case
    for cm in LAYOUTS:
        x = _values(rng, lead + (d,), special)
        v = _values(rng, lead + (d,), special)
        # zero steps, all +0.0 or all -0.0, and steps that cancel x
        v[rng.uniform(size=lead) < zero_rows] = rng.choice([0.0, -0.0])
        cancel = rng.uniform(size=lead) < degenerate_rows
        v[cancel] = -x[cancel]
        v[np.isnan(v)] = MADE_NAN  # -x flipped the sign of x's NaNs
        for man in ([Sphere(d)] if d >= 2 else []) + [Euclidean(d)]:
            y, ok = man.retract_flagged(_laid(x, cm), _laid(v, cm))
            want_y, want_ok = broadcast_retract_flagged(man, x, v)
            _same(y, want_y)
            _same(ok, want_ok)
