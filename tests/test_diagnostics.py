import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgd import (
    AdaptiveRate,
    BatchSizes,
    Euclidean,
    FiniteSampleSpace,
    PowerLawSchedule,
    RunConfig,
    SegmentPlan,
    SubsetPlan,
    adaptive_square_sums,
    check_descent_inequality,
    check_gradient_square_difference,
    convergence_metrics,
    estimate_lipschitz,
    finite_difference_gradient_check,
    martingale_summary,
    random_sphere_mean,
    run_adaptive,
    run_deterministic,
    run_many,
    sum_of_squares,
    track_martingale,
)
from rsgd import budget, diagnostics
from rsgd.diagnostics import ConvergenceFold
from rsgd.driver import Trajectory
from rsgd.problems import GradientOracle

from reference import list_convergence_metrics, looped_verdict


class QuadraticProblem(GradientOracle):
    """F(x) = x^T Q x / 2 on flat space, single outcome (exact oracle H = Q x)."""

    def __init__(self, q):
        self.q = np.asarray(q, dtype=float)
        self.manifold = Euclidean(self.q.shape[0])
        self.space = FiniteSampleSpace.uniform(1)
        self.data_seed = None

    def cost(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (x * (x @ self.q)).sum(axis=-1)

    def full_gradient(self, x):
        return np.asarray(x, dtype=float) @ self.q

    def sample_gradients(self, x, idx):
        g = self.full_gradient(x)
        return np.broadcast_to(g[..., None, :], np.shape(idx) + g.shape).copy()

    def sample_region(self, rng, size):
        return rng.normal(size=(size, self.q.shape[0]))

    @property
    def region_label(self):
        return "R^d"


def power_iteration_max_eigenvalue(q, iters=2000):
    v = np.ones(q.shape[0]) / np.sqrt(q.shape[0])
    for _ in range(iters):
        v = q @ v
        v /= np.linalg.norm(v)
    return float(v @ q @ v)


class TestLipschitzEstimate:
    def test_identity_quadratic_is_exactly_one(self):
        prob = QuadraticProblem(np.eye(3))
        est = estimate_lipschitz(prob, radius=2.0, n_samples=500, seed=0)
        assert est.c1 == pytest.approx(1.0, rel=1e-12)
        assert est.c2 == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_largest_eigenvalue(self):
        q = np.diag([3.0, 1.0, 0.25])
        prob = QuadraticProblem(q)
        est = estimate_lipschitz(prob, radius=2.0, n_samples=20000, seed=1)
        top = power_iteration_max_eigenvalue(q)
        assert top == pytest.approx(3.0)
        assert est.c1 == pytest.approx(top, rel=0.01)
        assert est.c1 <= top + 1e-12

    def test_monotone_in_samples(self):
        prob = random_sphere_mean(4, 8, seed=2)
        small = estimate_lipschitz(prob, 3.0, 2000, seed=3)
        large = estimate_lipschitz(prob, 3.0, 8000, seed=3)
        assert large.c1 >= small.c1 and large.c2 >= small.c2

    def test_stability_across_seeds(self):
        prob = random_sphere_mean(4, 8, seed=2)
        a = estimate_lipschitz(prob, 3.0, 10000, seed=4)
        b = estimate_lipschitz(prob, 3.0, 10000, seed=5)
        assert max(a.c1, b.c1) / min(a.c1, b.c1) <= 2.0

    def test_tiny_radius_floor_avoids_blowup(self):
        prob = QuadraticProblem(np.eye(2))
        est = estimate_lipschitz(prob, radius=1e-12, n_samples=100, seed=6)
        assert np.isfinite(est.c1) and np.isfinite(est.c2)


def _sphere_run(horizon=1000, rate=None, plan_size=4, seed=1, n_targets=16):
    prob = random_sphere_mean(4, n_targets, seed=7)
    x0 = prob.manifold.random_point(np.random.default_rng(5))
    cfg = RunConfig(oracle=prob, plan=SegmentPlan(prob.space, BatchSizes.constant(plan_size)),
                    rate=rate or PowerLawSchedule(0.5, 0.75), x0=x0, horizon=horizon, seed=seed)
    runner = run_adaptive if isinstance(cfg.rate, AdaptiveRate) else run_deterministic
    return prob, runner(cfg)


class TestDescentInequality:
    def test_zero_step_is_equality(self):
        tr = Trajectory(seed=0, F=np.array([1.0, 1.0]), grad_norm=np.array([0.5, 0.5]),
                        step=np.array([0.0, 0.0]), batch_size=np.array([1, 0]),
                        batch_grad_norm=np.array([0.3, np.nan]),
                        noise_inner=np.array([0.1, np.nan]),
                        in_region=np.ones(2, dtype=bool))
        assert check_descent_inequality(tr, c1=1.0).passed

    def test_recorded_run_passes_with_margin(self):
        prob, tr = _sphere_run()
        est = estimate_lipschitz(prob, prob.gradient_bound(), 10000, seed=8)
        report = check_descent_inequality(tr, est.c1)
        assert report.passed

    def test_zero_constant_fails_on_curved_problem(self):
        prob, tr = _sphere_run()
        report = check_descent_inequality(tr, c1=0.0)
        assert not report.passed and report.witness is not None


class TestGradientSquareDifference:
    def test_recorded_run_passes(self):
        prob, tr = _sphere_run()
        est = estimate_lipschitz(prob, prob.gradient_bound(), 10000, seed=9)
        report = check_gradient_square_difference(tr, prob.gradient_bound(), est.c1, est.c2)
        assert report.passed

    def test_tiny_allowance_fails(self):
        prob, tr = _sphere_run()
        report = check_gradient_square_difference(tr, 1e-6, 1e-9, 1e-9)
        assert not report.passed


@pytest.mark.parametrize("check, args, factor", [
    (check_descent_inequality, (3.0,), 1.2),
    (check_gradient_square_difference, (1.0, 3.0, 1.0), 1.5),
], ids=["descent", "gradient-square-difference"])
def test_report_dict_keeps_its_margin_and_the_factor(check, args, factor):
    # the factor, a detail once named margin, overwrote the report's margin
    _, tr = _sphere_run(horizon=200)
    report = check(tr, *args)
    out = report.to_dict()
    assert out["margin"] == -report.worst != factor
    assert out["margin_factor"] == factor


class TestMartingale:
    def test_full_batch_single_target_is_exactly_zero(self):
        prob = random_sphere_mean(4, 1, seed=10)
        x0 = prob.manifold.random_point(np.random.default_rng(11))
        cfg = RunConfig(oracle=prob, plan=SubsetPlan(prob.space, BatchSizes.constant(1)),
                        rate=PowerLawSchedule(0.5, 0.75), x0=x0, horizon=200, seed=0)
        trace = track_martingale(run_deterministic(cfg))
        assert np.all(trace.u == 0.0) and np.all(trace.z == 0.0)

    def test_full_batch_noise_is_rounding_level(self):
        prob = random_sphere_mean(4, 16, seed=7)
        x0 = prob.manifold.random_point(np.random.default_rng(5))
        cfg = RunConfig(oracle=prob, plan=SubsetPlan(prob.space, BatchSizes.constant(16)),
                        rate=PowerLawSchedule(0.5, 0.75), x0=x0, horizon=200, seed=0)
        trace = track_martingale(run_deterministic(cfg))
        assert np.abs(trace.u).max() <= 1e-13

    def test_u_bounded_by_2a_squared(self):
        prob, tr = _sphere_run(plan_size=1)
        trace = track_martingale(tr)
        assert np.abs(trace.u).max() <= 2.0 * prob.gradient_bound() ** 2

    def test_summary_over_seeds(self):
        prob = random_sphere_mean(4, 16, seed=7)
        x0 = prob.manifold.random_point(np.random.default_rng(5))
        sched = PowerLawSchedule(0.5, 0.75)
        cfg = RunConfig(oracle=prob, plan=SegmentPlan(prob.space, BatchSizes.constant(1)),
                        rate=sched, x0=x0, horizon=2000, seed=0)
        traces = [track_martingale(tr) for tr in run_many(cfg, 50)]
        summary = martingale_summary(traces, prob.gradient_bound(), sum_of_squares(sched))
        assert summary["mean_within_3_stderr"]
        assert summary["var_within_bound"]
        assert summary["u_violations"] == 0
        assert summary["max_abs_u"] <= summary["u_bound"]


class TestAdaptiveSums:
    def test_bounds_hold_on_runs(self):
        rate = AdaptiveRate(0.5, 1.0, 0.25)
        prob, tr = _sphere_run(horizon=3000, rate=rate)
        nxt, cur = adaptive_square_sums(tr)
        a = prob.gradient_bound()
        assert nxt <= rate.square_sum_bound() + 1e-12
        assert cur <= rate.square_sum_bound() + a**2 * rate.alpha**2 / rate.beta ** (
            1.0 + 2.0 * rate.epsilon) + 1e-12


class TestConvergenceMetrics:
    def test_all_zero_gradients(self):
        tr = Trajectory(seed=0, F=np.zeros(4), grad_norm=np.zeros(4),
                        step=np.full(4, 0.1), batch_size=np.array([1, 1, 1, 0]),
                        batch_grad_norm=np.array([0.0, 0.0, 0.0, np.nan]),
                        noise_inner=np.array([0.0, 0.0, 0.0, np.nan]),
                        in_region=np.ones(4, dtype=bool))
        m = convergence_metrics([tr])
        assert m["fraction_final_below"] == 1.0
        assert m["mean_square_final"] == 0.0
        assert m["weighted_grad_square_sums"] == [0.0]

    def test_single_seed_fraction_binary(self):
        _, tr = _sphere_run(horizon=100)
        m = convergence_metrics([tr])
        assert m["fraction_final_below"] in (0.0, 1.0)
        assert m["n_seeds"] == 1 and m["horizon"] == 100

    def test_weighted_sums_flatten(self):
        _, tr = _sphere_run(horizon=5000)
        m = convergence_metrics([tr])
        assert m["last_decade_increments"][0] < 0.2 * m["weighted_grad_square_sums"][0]

    def test_requires_trajectories(self):
        with pytest.raises(ValueError):
            convergence_metrics([])

    def test_refuses_trajectories_of_different_horizons(self):
        _, a = _sphere_run(horizon=20)
        _, b = _sphere_run(horizon=30)
        with pytest.raises(ValueError, match="horizons 20 and 30"):
            convergence_metrics([a, b])


def _same(a, b) -> bool:
    """Equal bit for bit, NaN included, as numbers or lists of numbers."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=120, deadline=None)
@given(n_seeds=st.sampled_from([1, 2, 7, 8, 9, 30]), horizon=st.sampled_from([0, 1, 2, 9, 300])
       | st.integers(0, 40), curve_points=st.sampled_from([None, 4, 256]), data=st.data())
def test_fold_has_the_bits_of_the_list_form(n_seeds, horizon, curve_points, data):
    # seeds retired at drawn steps (NaN from there on), norms over many
    # decades, folded trajectory by trajectory and block by block
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    trs = []
    for seed in range(n_seeds):
        gn = rng.random(horizon + 1) * 10.0 ** rng.uniform(-8, 3, horizon + 1)
        step = rng.random(horizon + 1) * 10.0 ** rng.uniform(-3, 0)
        status = "ok"
        if data.draw(st.booleans()):
            end = data.draw(st.integers(0, horizon))
            gn[end:], step[end:], status = np.nan, np.nan, "nonfinite"
        trs.append(Trajectory(seed=seed, F=gn, grad_norm=gn, step=step, batch_size=None,
                              batch_grad_norm=gn, noise_inner=gn, in_region=None,
                              status=status))
    want = list_convergence_metrics(trs)
    fold = ConvergenceFold(n_seeds, horizon, curve_points=curve_points)
    t0 = 0
    while t0 <= horizon:
        # blocks in either memory order, as a coordinate-major run hands them
        order = data.draw(st.sampled_from("CF"))
        k = data.draw(st.integers(1, horizon + 1 - t0))
        fold.add(t0, 0, np.stack([tr.grad_norm[t0:t0 + k] for tr in trs]).copy(order),
                 np.stack([tr.step[t0:t0 + k] for tr in trs]).copy(order))
        t0 += k
    fold.close(range(n_seeds), [tr.status for tr in trs], [None] * n_seeds)
    folded = fold.result()
    if curve_points is not None and horizon + 1 > curve_points:
        kept = np.unique(np.linspace(0, horizon, curve_points).astype(int))
        assert _same(folded.pop("mean_square_curve"), want["mean_square_curve"][kept])
        folded["mean_square_curve"] = want["mean_square_curve"]
    for got in (folded, convergence_metrics(trs)):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key in ("n_seeds", "horizon", "statuses", "all_ok"):
                assert got[key] == value, key
            else:
                assert _same(got[key], value), key


@settings(max_examples=100, deadline=None)
@given(n_seeds=st.integers(2, 40), horizon=st.integers(0, 60), words=st.integers(1, 400),
       shared=st.booleans(), data=st.data())
def test_seed_chunks_have_the_bits_of_one_block(n_seeds, horizon, words, shared, data):
    # budget.WORDS // (T + 1) seeds per chunk, usually several chunks; the
    # steps one shared read-only row or a row per seed, seeds retired at drawn
    # steps (NaN from there on) in either case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    step = rng.random(horizon + 1) * 10.0 ** rng.uniform(-3, 0)
    step.flags.writeable = False
    trs = []
    for seed in range(n_seeds):
        gn = rng.random(horizon + 1) * 10.0 ** rng.uniform(-8, 3, horizon + 1)
        own = step if shared else rng.random(horizon + 1) * 10.0 ** rng.uniform(-3, 0)
        status = "ok"
        if data.draw(st.booleans()):
            gn[data.draw(st.integers(0, horizon)):], status = np.nan, "nonfinite"
            if not shared:
                own[data.draw(st.integers(0, horizon)):] = np.nan
        trs.append(Trajectory(seed=seed, F=gn, grad_norm=gn, step=own, batch_size=None,
                              batch_grad_norm=gn, noise_inner=gn, in_region=None,
                              status=status))
    fold = ConvergenceFold(n_seeds, horizon, threshold=1e-2)
    fold.add(0, 0, np.stack([tr.grad_norm for tr in trs]), np.stack([tr.step for tr in trs]))
    fold.statuses = [tr.status for tr in trs]
    want = fold.result()
    with mock.patch.object(budget, "WORDS", words):
        got = convergence_metrics(trs, threshold=1e-2)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in ("n_seeds", "horizon", "threshold", "statuses", "all_ok"):
            assert got[key] == value, key
        else:
            assert _same(got[key], value), key


def test_convergence_metrics_allocates_within_the_word_budget():
    # 100 seeds at T = 20,000: the stacked rows would take 2 x 16 MB
    n_seeds, horizon = 100, 20_000
    step = np.linspace(1.0, 0.1, horizon + 1)
    trs = [Trajectory(seed=i, F=step, grad_norm=step * (i + 1), step=step, batch_size=None,
                      batch_grad_norm=step, noise_inner=step, in_region=None)
           for i in range(n_seeds)]
    tracemalloc.start()
    try:
        convergence_metrics(trs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's rows and their squares, plus the curve and the per-seed sums
    assert peak <= 2 * 8 * budget.WORDS + 16 * (horizon + 1) + 64 * 1024


class CorruptedGradientProblem(GradientOracle):
    """Wraps another problem and inflates one component of its exact gradient."""

    def __init__(self, inner):
        self.inner = inner
        self.manifold = inner.manifold
        self.space = inner.space
        self.data_seed = inner.data_seed

    def cost(self, x):
        return self.inner.cost(x)

    def full_gradient(self, x):
        g = self.inner.full_gradient(x).copy()
        g[..., 0] *= 1.1
        return g

    def sample_gradients(self, x, idx):
        return self.inner.sample_gradients(x, idx)

    def sample_region(self, rng, size):
        return self.inner.sample_region(rng, size)

    @property
    def region_label(self):
        return self.inner.region_label


class TestFiniteDifferenceCheck:
    def test_linear_cost_is_machine_exact(self):
        class Linear(QuadraticProblem):
            def cost(self, x):
                return np.asarray(x, dtype=float).sum(axis=-1)

            def full_gradient(self, x):
                return np.ones(np.shape(x))

            def sample_region(self, rng, size):
                # moderate |F| keeps the h-scale cancellation below 1e-10
                return 0.1 * rng.normal(size=(size, self.q.shape[0]))

        report = finite_difference_gradient_check(Linear(np.eye(3)), 50, seed=0)
        assert report.passed and report.worst <= 1e-10

    def test_sphere_mean_passes(self):
        report = finite_difference_gradient_check(random_sphere_mean(4, 16, seed=7), 200, seed=1)
        assert report.passed

    def test_corrupted_gradient_detected(self):
        bad = CorruptedGradientProblem(random_sphere_mean(4, 16, seed=7))
        report = finite_difference_gradient_check(bad, 200, seed=2)
        assert not report.passed and report.witness is not None

    def test_margin_is_the_room_under_the_tolerance(self):
        # once -worst, which reads negative on a pass
        good = finite_difference_gradient_check(random_sphere_mean(4, 16, seed=7), 200, seed=1)
        bad = finite_difference_gradient_check(
            CorruptedGradientProblem(random_sphere_mean(4, 16, seed=7)), 200, seed=2)
        for report in (good, bad):
            out = report.to_dict()
            assert out["margin"] == out["tol"] - report.worst == diagnostics._FD_TOL - report.worst
            assert (out["margin"] >= 0) == out["pass"]
        assert 0 < good.to_dict()["margin"] <= diagnostics._FD_TOL


def _excess_trajectory(T, noise_inner, batch_grad_norm, step):
    """Zero F and gradient norms, with the given step columns (T entries
    each; the column at T takes no step)."""
    nan = np.array([np.nan])
    return Trajectory(seed=0, F=np.zeros(T + 1), grad_norm=np.zeros(T + 1),
                      step=np.append(step, nan), batch_size=np.ones(T + 1, dtype=np.int64),
                      batch_grad_norm=np.append(batch_grad_norm, nan),
                      noise_inner=np.append(noise_inner, nan),
                      in_region=np.ones(T + 1, dtype=bool))


class SignedCostProblem(GradientOracle):
    """On R^1, points at 0 with zero gradient and a cost whose central
    difference at point i is +-excess[i]: the finite-difference check's
    relative error there is |excess[i]|, exactly for powers of two, 0, inf
    and NaN."""

    def __init__(self, excess):
        self.excess = np.asarray(excess, dtype=float)
        self.manifold = Euclidean(1)

    def cost(self, x):
        return np.sign(x[:, 0]) * self.excess * diagnostics._FD_STEP

    def full_gradient(self, x):
        return np.zeros(np.shape(x))

    def sample_region(self, rng, size):
        return np.zeros((size, 1))

    @property
    def region_label(self):
        return "R^1"


def _assert_verdict(report, excess, tol, index, value):
    # equal values, or both NaN (whatever their sign bits)
    passed, worst, at = looped_verdict(excess, tol)
    assert report.passed is passed
    assert report.worst == worst or np.isnan(report.worst) and np.isnan(worst)
    if at is None:
        assert report.witness is None
    else:
        assert report.witness == {index: at, value: report.worst}


_VALUES = [-np.inf, -1.0, 0.0, 2.0, np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(excess=st.lists(st.sampled_from(_VALUES), min_size=1, max_size=30))
def test_trajectory_checks_take_the_first_worst_step(excess):
    """Both trajectory checks, built so that their per-step excess is the
    drawn one, find the worst step the way a loop does: the first NaN, else
    the first of the ties, and only a worst excess <= 0 passes."""
    e = np.array(excess)
    T, nan = e.size, np.isnan(e)
    # F = grad_norm = 0, step 1 and c1 = 0: the gap is the noise inner
    # product, or NaN through the batch gradient norm
    tr = _excess_trajectory(T, np.where(nan, 0.0, e), np.where(nan, np.nan, 0.0), np.ones(T))
    _assert_verdict(check_descent_inequality(tr, c1=0.0, slack=0.0), e, 0.0, "t", "excess")
    # zero gradient norms and an allowance of exactly the step: the gap is -step
    tr = _excess_trajectory(T, np.zeros(T), np.zeros(T), -e)
    report = check_gradient_square_difference(tr, 1.0, 0.5, 0.0, margin=1.0)
    _assert_verdict(report, e, 0.0, "t", "excess")


@settings(max_examples=200, deadline=None)
@given(excess=st.lists(st.sampled_from([0.0, 2.0**-20, 2.0**-14, 0.5, 2.0, -np.inf, np.inf,
                                        np.nan]), min_size=1, max_size=30))
def test_finite_difference_check_takes_the_first_worst_point(excess):
    """Relative errors of +-excess (so |excess|, ties, inf and NaN among
    them) fail the first worst point against the tolerance 1e-4."""
    report = finite_difference_gradient_check(SignedCostProblem(excess), len(excess))
    _assert_verdict(report, np.abs(excess), diagnostics._FD_TOL, "index", "rel_error")


@pytest.mark.parametrize("radius", [np.inf, -np.inf, np.nan, 0.0])
def test_lipschitz_refuses_a_radius_that_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        estimate_lipschitz(QuadraticProblem(np.eye(2)), radius, 10)
