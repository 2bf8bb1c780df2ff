import csv
import os
import re
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgd import problems
from rsgd import (
    FiniteSampleSpace,
    RegularizedLeastSquaresProblem,
    SphereMeanProblem,
    UnboundedRegion,
    load_least_squares_csv,
    load_sphere_mean_csv,
    random_least_squares,
    random_sphere_mean,
)

from reference import DirectLeastSquares, filtered_csv_rows, is_tangent, sample_gradient


class TestFiniteSampleSpace:
    def test_uniform(self):
        s = FiniteSampleSpace.uniform(4)
        assert s.size == 4 and s.is_uniform
        np.testing.assert_allclose(s.cumulative, [0.25, 0.5, 0.75, 1.0])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            FiniteSampleSpace(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            FiniteSampleSpace(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            FiniteSampleSpace.uniform(0)


class TestSphereMeanCost:
    def test_single_target_at_point(self):
        p = SphereMeanProblem(np.array([[0.0, 0.0, 1.0]]))
        assert p.cost(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_target(self):
        p = SphereMeanProblem(np.array([[1.0, 0.0, 0.0]]))
        assert p.cost(np.array([-1.0, 0.0, 0.0])) == pytest.approx(2.0)

    def test_matches_direct_sum(self):
        p = random_sphere_mean(4, 6, seed=0)
        rng = np.random.default_rng(1)
        for x in p.manifold.random_point(rng, 20):
            direct = 0.5 * ((x - p.targets) ** 2).sum(axis=1).mean()
            assert p.cost(x) == pytest.approx(direct, rel=1e-12)


class TestLeastSquaresCost:
    def test_worked_value(self):
        p = RegularizedLeastSquaresProblem(np.array([[1.0, 0.0]]), np.array([0.0]), tau=1.0)
        # residual 2 -> 2, regularizer 0.5 * 4 -> 2
        assert p.cost(np.array([2.0, 0.0])) == pytest.approx(4.0)

    def test_stationary_at_zero_when_labels_zero(self):
        p = RegularizedLeastSquaresProblem(np.array([[1.0, 0.0]]), np.array([0.0]), tau=1.0)
        np.testing.assert_array_equal(p.full_gradient(np.zeros(2)), np.zeros(2))

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            RegularizedLeastSquaresProblem(np.array([[1.0]]), np.array([0.0]), tau=0.0)


_finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


class TestLeastSquaresMoments:
    """The O(d^2) moment form of cost and exact gradient against the direct
    sum over all rows (``reference.DirectLeastSquares``)."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 6), tau=st.floats(1e-3, 10.0),
           uniform=st.booleans(), lead=st.sampled_from([(), (3,), (2, 3)]), data=st.data())
    def test_matches_direct_sum(self, n, d, tau, uniform, lead, data):
        a = np.array(data.draw(st.lists(_finite, min_size=n * d, max_size=n * d))).reshape(n, d)
        y = np.array(data.draw(st.lists(_finite, min_size=n, max_size=n)))
        w = None
        if not uniform:
            raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
            w = raw / raw.sum()
        m = int(np.prod(lead)) * d
        x = np.array(data.draw(st.lists(_finite, min_size=m, max_size=m))).reshape(*lead, d)
        p = RegularizedLeastSquaresProblem(a, y, tau, weights=w)
        ref = DirectLeastSquares.of(p)
        f, g = p.cost(x), p.full_gradient(x)
        assert f.shape == lead and g.shape == (*lead, d)

        wt = ref.space.weights
        r = (x[..., None, :] * a).sum(axis=-1)
        scale_f = 1.0 + (wt * r * r).sum(axis=-1) + (wt * y * y).sum() + tau * (x * x).sum(axis=-1)
        assert np.all(np.abs(f - ref.cost(x)) <= 1e-12 * scale_f)
        # the gradient's terms, summed in absolute value
        scale_g = 1.0 + ((wt * (np.abs(r) + np.abs(y)))[..., None] * np.abs(a)).sum(axis=-2) \
            + tau * np.abs(x)
        assert np.all(np.abs(g - ref.full_gradient(x)) <= 1e-12 * scale_g)

    def test_record_reads_no_rows(self):
        # one (S, N) float64 array alone would take 8 * 4 * 100_000 bytes
        n, s_count = 100_000, 4
        p = random_least_squares(8, n, seed=3, tau=0.1)
        x = np.random.default_rng(4).normal(size=(s_count, 8))
        tracemalloc.start()
        try:
            p.cost(x)
            p.full_gradient(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n

    def test_exact_fit_keeps_absolute_accuracy(self):
        # labels fitted exactly by x_true: the data term of F vanishes, and the
        # moment form keeps it to within rounding of x^T G x + s
        a = np.random.default_rng(5).normal(size=(50, 3))
        x_true = np.array([0.5, -1.0, 2.0])
        p = RegularizedLeastSquaresProblem(a, a @ x_true, tau=0.1)
        data_term = p.cost(x_true) - 0.05 * (x_true @ x_true)
        assert abs(data_term) <= 1e-13 * (1.0 + p.labels @ p.labels / 50)


@pytest.mark.parametrize("problem", [
    random_sphere_mean(4, 6, seed=3),
    random_least_squares(3, 6, seed=3, tau=0.3, region_rho1=4.0),
], ids=["sphere_mean", "least_squares"])
class TestGradients:
    def test_finite_difference_directional(self, problem):
        # oracle: central differences of the cost along tangent directions
        man = problem.manifold
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            x = problem.sample_region(rng, 1)[0]
            w = man.project_tangent(x, rng.normal(size=x.shape))
            w = w / man.norm(x, w)
            fd = (problem.cost(man.retract(x, h * w)) - problem.cost(man.retract(x, -h * w))) / (2 * h)
            ip = man.inner(x, problem.full_gradient(x), w)
            assert fd == pytest.approx(ip, rel=1e-5, abs=1e-8)

    def test_enumeration_reproduces_full_gradient(self, problem):
        w = problem.space.weights
        rng = np.random.default_rng(5)
        for x in problem.sample_region(rng, 50):
            table = problem.sample_gradients(x, np.arange(problem.space.size))
            dev = (w[:, None] * table).sum(axis=0) - problem.full_gradient(x)
            assert np.sqrt((dev**2).sum()) <= 1e-10

    def test_single_outcome_equals_full(self, problem):
        sub = type(problem)
        if sub is SphereMeanProblem:
            one = SphereMeanProblem(problem.targets[:1])
        else:
            one = RegularizedLeastSquaresProblem(
                problem.features[:1], problem.labels[:1], problem.tau, region_rho1=4.0)
        x = one.sample_region(np.random.default_rng(6), 1)[0]
        np.testing.assert_allclose(sample_gradient(one, x, 0), one.full_gradient(x), atol=1e-12)

    def test_sample_gradients_are_tangent(self, problem):
        man = problem.manifold
        rng = np.random.default_rng(7)
        x = problem.sample_region(rng, 40)
        idx = rng.integers(0, problem.space.size, size=(40, 3))
        grads = problem.sample_gradients(x, idx)
        for j in range(3):
            assert np.all(is_tangent(man, x, grads[:, j, :]))

    def test_index_out_of_range(self, problem):
        x = problem.sample_region(np.random.default_rng(8), 1)[0]
        with pytest.raises(IndexError):
            sample_gradient(problem, x, problem.space.size)
        with pytest.raises(IndexError):
            sample_gradient(problem, x, -1)


class TestGradientBound:
    def test_sphere_unit_targets(self):
        p = random_sphere_mean(4, 8, seed=9)
        assert p.gradient_bound() == pytest.approx(3.0)
        rng = np.random.default_rng(10)
        x = p.sample_region(rng, 1000)
        idx = rng.integers(0, 8, size=(1000, 1))
        norms = np.sqrt((p.sample_gradients(x, idx)[:, 0, :] ** 2).sum(axis=1))
        assert norms.max() <= 3.0

    def test_least_squares_worked_value(self):
        p = RegularizedLeastSquaresProblem(np.array([[1.0, 0.0]]), np.array([1.0]), tau=0.1,
                                           region_rho1=4.0)
        assert p.gradient_bound() == pytest.approx(3.2)

    def test_bound_holds_on_ball(self):
        p = random_least_squares(3, 6, seed=11, tau=0.3, region_rho1=4.0)
        bound = p.gradient_bound()
        rng = np.random.default_rng(12)
        x = p.sample_region(rng, 10000)
        idx = rng.integers(0, 6, size=(10000, 1))
        norms = np.sqrt((p.sample_gradients(x, idx)[:, 0, :] ** 2).sum(axis=1))
        assert norms.max() <= bound

    def test_sphere_bound_holds_everywhere(self):
        p = random_sphere_mean(5, 7, seed=13)
        bound = p.gradient_bound()
        rng = np.random.default_rng(14)
        x = p.sample_region(rng, 10000)
        idx = rng.integers(0, 7, size=(10000, 1))
        norms = np.sqrt((p.sample_gradients(x, idx)[:, 0, :] ** 2).sum(axis=1))
        assert norms.max() <= bound

    def test_unbounded_region_rejected(self):
        p = random_least_squares(3, 6, seed=15, tau=0.3)
        with pytest.raises(UnboundedRegion):
            p.gradient_bound()
        with pytest.raises(UnboundedRegion):
            p.sample_region(np.random.default_rng(0), 5)


class TestStationaryPoint:
    def test_gradient_vanishes_at_projected_mean(self):
        p = random_sphere_mean(4, 10, seed=16)
        xstar = p.target_mean / np.linalg.norm(p.target_mean)
        assert np.linalg.norm(p.full_gradient(xstar)) <= 1e-14


class TestCsvLoading:
    def test_sphere_round_trip(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("a1,a2,a3\n1,0,0\n0,1,0\n")
        p = load_sphere_mean_csv(path)
        np.testing.assert_array_equal(p.targets, [[1, 0, 0], [0, 1, 0]])

    def test_least_squares_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a1,a2,y\n1,0,0.5\n0,2,-1\n")
        p = load_least_squares_csv(path, tau=0.1)
        np.testing.assert_array_equal(p.features, [[1, 0], [0, 2]])
        np.testing.assert_array_equal(p.labels, [0.5, -1.0])

    def test_header_required(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1,0,0\n0,1,0\n")
        with pytest.raises(ValueError, match="header"):
            load_sphere_mean_csv(path)

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a1,a2\n1,oops\n")
        with pytest.raises(ValueError, match="bad.csv"):
            load_sphere_mean_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("load", [load_sphere_mean_csv,
                                      lambda path: load_least_squares_csv(path, tau=0.1)],
                             ids=["sphere", "least-squares"])
    def test_non_finite_cell_rejected_naming_its_row(self, tmp_path, cell, load):
        # blank rows are not counted: the bad cell sits in the second data row
        path = tmp_path / "cells.csv"
        path.write_text(f"a1,a2,y\n1,0,0.5\n\n0,{cell},-1\n2,2,2\n")
        with pytest.raises(ValueError, match="cells.csv: data row 2 holds a non-finite cell$"):
            load(path)

    @pytest.mark.parametrize("rows", ["1,2\n3\n", "1,2\n3,4,5\n", "1,2,\n"],
                             ids=["short", "long", "empty-cell"])
    def test_ragged_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "ragged.csv"
        path.write_text("a1,a2\n" + rows)
        with pytest.raises(ValueError, match="ragged.csv"):
            load_sphere_mean_csv(path)

    @pytest.mark.parametrize("text", ["", "a1,a2\n", "\n  ,  \na1,a2\n\n , \n"],
                             ids=["empty", "header-only", "header-and-blanks"])
    def test_needs_a_data_row(self, tmp_path, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="at least one data row"):
            load_sphere_mean_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text('\n  ,  \na1,a2,y\n\n1,0,0.5\n   \n ,\t, \n"",  " "\n0,2,-1\n\n')
        p = load_least_squares_csv(path, tau=0.1)
        np.testing.assert_array_equal(p.features, [[1, 0], [0, 2]])
        np.testing.assert_array_equal(p.labels, [0.5, -1.0])

    def test_header_after_blank_rows_still_required(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text(" , \n1,0\n0,1\n")
        with pytest.raises(ValueError, match="header row is required"):
            load_sphere_mean_csv(path)

    @pytest.mark.parametrize("text", ["a1,a2,y\r\n1,0,0.5\r\n0,2,-1\r\n",
                                      "a1,a2,y\n1,0,0.5\n0,2,-1"],
                             ids=["crlf", "no-final-newline"])
    def test_line_endings(self, tmp_path, text):
        path = tmp_path / "rows.csv"
        path.write_bytes(text.encode())
        p = load_least_squares_csv(path, tau=0.1)
        np.testing.assert_array_equal(p.features, [[1, 0], [0, 2]])
        np.testing.assert_array_equal(p.labels, [0.5, -1.0])

    def test_large_file_bitwise_equal_to_csv_module(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = np.column_stack([rng.normal(size=(100_000, 3)), rng.uniform(-1e6, 1e6, 100_000)])
        path = tmp_path / "rows.csv"
        with open(path, "w", newline="") as fh:
            fh.write("a0,a1,a2,y\n")
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
        with open(path, newline="") as fh:
            want = np.array([[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]])
        p = load_least_squares_csv(path, tau=0.1)
        assert p.features.tobytes() == np.ascontiguousarray(want[:, :-1]).tobytes()
        assert p.labels.tobytes() == want[:, -1].tobytes()

    @pytest.mark.parametrize("rows, message", [
        ("1,0\n1e200,0\n", "data row 2: the sum of the squares of its cells overflows"),
        # each square is finite, their sum is not
        ("1e154,1e154\n", "data row 1: the sum of the squares of its cells overflows"),
        ("1e200,0\nnan,0\n", "data row 1: the sum of the squares of its cells overflows"),
        ("1,0\nnan,0\n1e200,0\n", "data row 2 holds a non-finite cell"),
        ("1e200,-inf\n", "data row 1 holds a non-finite cell"),
    ], ids=["square", "sum", "before-nan", "after-nan", "with-inf"])
    @pytest.mark.parametrize("load", [load_sphere_mean_csv,
                                      lambda path: load_least_squares_csv(path, tau=0.1)],
                             ids=["sphere", "least-squares"])
    def test_overflowing_squares_rejected_naming_its_row(self, tmp_path, rows, message, load):
        path = tmp_path / "big.csv"
        path.write_text("a1,a2\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"big.csv: {re.escape(message)}$"):
                load(path)

    def test_largest_finite_squares_load(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("a1,a2\n1.3e154,0\n0,-9e153\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = load_sphere_mean_csv(path)
        np.testing.assert_array_equal(p.targets, [[1.3e154, 0], [0, -9e153]])

    def test_clean_file_skips_the_line_filter(self, tmp_path):
        # Python reads the header and the first data row; numpy reads the
        # rest from the path, so a line filter that raises past them is idle
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(10_000, 3))
        path = tmp_path / "rows.csv"
        with open(path, "w") as fh:
            fh.write("a0,a1,y\n")
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
        with mock.patch.object(problems, "open", _TwoLines, create=True):
            data = problems._read_csv_rows(path)
        assert data.tobytes() == rows.tobytes()

    def test_pipe_and_compressed_names_are_read_once_as_text(self, tmp_path):
        # numpy would open a pipe a second time and decompress by extension
        text = "a0,a1\n1,2\n3,4\n"
        named = tmp_path / "rows.csv.gz"
        named.write_text(text)
        np.testing.assert_array_equal(problems._read_csv_rows(named), [[1, 2], [3, 4]])
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            np.testing.assert_array_equal(problems._read_csv_rows(fifo), [[1, 2], [3, 4]])
        finally:
            writer.join()


class _TwoLines:
    """A text file whose lines past the second raise AssertionError."""

    def __init__(self, path):
        self._fh = open(path)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def fileno(self):
        return self._fh.fileno()

    def __iter__(self):
        for n, line in enumerate(self._fh):
            assert n < 2, "a data row past the first went through the line filter"
            yield line


# rows the reader skips: empty, or whitespace, commas and quotes only
_SKIPPED = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\u3000", ",", " , ,", '""',
                            '"",""', '" ",\t', ',""'])
# finite floats whose squares, summed over a row, cannot overflow
_FLOATS = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@st.composite
def _cell(draw, quoted):
    kind = draw(st.sampled_from(["%.17g"] * 6 + ["repr"] * 6 + ["special"]))
    if kind == "special":
        cell = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "-1e999", "#",
                                     "#1", "x", ""]))
    else:
        value = draw(_FLOATS)
        cell = repr(value) if kind == "repr" else kind % value
    pad = draw(st.sampled_from(["", "", " ", "\t"]))
    cell = f"{pad}{cell}{pad}"
    return f'"{cell}"' if quoted and draw(st.booleans()) else cell


@st.composite
def _csv_text(draw):
    """A data CSV that is clean (no skipped rows, no quotes) about a quarter
    of the time, so both of the reader's paths meet every kind of cell."""
    k = draw(st.integers(1, 4))
    quoted = draw(st.booleans())
    skipped = st.lists(_SKIPPED, max_size=2 if draw(st.booleans()) else 0)
    lines = draw(skipped)
    lines.append(draw(st.sampled_from(["a", "a0,a1", '"a","b"', "x0,x1,y", "#,a"] * 2
                                      + ["1,2", "nan"])))
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(skipped)
        width = k + draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(",".join(draw(_cell(quoted)) for _ in range(max(width, 1))))
    lines += draw(skipped)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@settings(max_examples=400, deadline=None)
@given(text=_csv_text())
def test_read_csv_rows_matches_the_filtered_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    path.write_bytes(text.encode())
    try:
        want = filtered_csv_rows(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            problems._read_csv_rows(path)
        assert str(got.value) == str(exc)
    else:
        got = problems._read_csv_rows(path)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_data_seed_recorded():
    assert random_sphere_mean(3, 4, seed=42).data_seed == 42
    assert random_least_squares(3, 4, seed=42, tau=0.1).data_seed == 42
