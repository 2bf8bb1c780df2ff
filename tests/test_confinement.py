from dataclasses import replace

import numpy as np
import pytest

from rsgd import (
    AdaptiveRate,
    BatchSizes,
    ConfinementConstants,
    ConfinementViolation,
    Euclidean,
    FiniteSampleSpace,
    PowerLawSchedule,
    RunConfig,
    SamplerFailure,
    SegmentPlan,
    check_kappa_confinement,
    check_plain_confinement,
    cumulative_squares,
    estimate_constants,
    hessian_quadform,
    norm_squared_confinement,
    random_least_squares,
    run_confined_adaptive_many,
    run_confined_deterministic,
    run_confined_deterministic_many,
)
from rsgd.confinement import sample_rho_levels
from rsgd.problems import GradientOracle


class FieldProblem(GradientOracle):
    """Oracle whose outcome gradients are given by arbitrary callables of x."""

    def __init__(self, dim, fields):
        self.fields = list(fields)
        self.manifold = Euclidean(dim)
        self.space = FiniteSampleSpace.uniform(len(self.fields))
        self.data_seed = None

    def cost(self, x):
        return np.zeros(np.shape(x)[:-1])

    def full_gradient(self, x):
        return sum(f(np.asarray(x, dtype=float)) for f in self.fields) / len(self.fields)

    def sample_gradients(self, x, idx):
        x = np.asarray(x, dtype=float)
        idx = np.asarray(idx)
        vals = np.stack([f(x) for f in self.fields], axis=-2)
        return np.take_along_axis(vals, idx[..., None], axis=-2)

    def sample_region(self, rng, size):
        return rng.normal(size=(size, self.manifold.ambient_dim))

    @property
    def region_label(self):
        return "R^d"


def zero_field(x):
    return np.zeros_like(x)


@pytest.fixture(scope="module")
def ls_problem():
    return random_least_squares(3, 8, seed=11, tau=0.2)


@pytest.fixture(scope="module")
def schedule():
    return PowerLawSchedule(0.5, 0.75)


class TestSampler:
    def test_levels_are_hit(self):
        spec = norm_squared_confinement(1.0)
        targets = np.linspace(0.5, 8.0, 64)
        pts = sample_rho_levels(spec.rho, 3, targets, np.random.default_rng(0))
        np.testing.assert_allclose(spec.rho(pts), targets, rtol=1e-6)

    def test_unreachable_targets_fail(self):
        spec = norm_squared_confinement(1.0)
        with pytest.raises(SamplerFailure):
            sample_rho_levels(spec.rho, 3, np.array([-1.0]), np.random.default_rng(0))

    def test_levels_a_discontinuous_rho_jumps_over_fail(self):
        # floor(||x||^2) takes integer values only: 4 of the 5 targets are missed
        def rho(x):
            return np.floor((x * x).sum(axis=-1))

        targets = np.array([0.5, 1.0, 2.5, 3.25, 7.75])
        with pytest.raises(SamplerFailure, match="missed 4 of 5 rho levels"):
            sample_rho_levels(rho, 3, targets, np.random.default_rng(0))


class TestHessianQuadform:
    def test_exact_for_norm_squared(self):
        spec = norm_squared_confinement(1.0)
        man = Euclidean(3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        u = rng.normal(size=(50, 3))
        v = rng.normal(size=(50, 3))
        q = hessian_quadform(man, spec.rho, x, u, v)
        np.testing.assert_allclose(q, 2.0 * (v * v).sum(axis=1), rtol=1e-5, atol=1e-7)


class TestPlainCheck:
    def test_regularized_least_squares_passes(self, ls_problem):
        rho0 = ls_problem.rho0_for_norm_squared()
        spec = norm_squared_confinement(rho0)
        report = check_plain_confinement(spec, ls_problem, 10000, seed=3)
        assert report.passed and report.min_margin >= 0.0
        assert report.witness is None

    def test_analytic_lower_bound_chain(self, ls_problem):
        # <2x, H(x,l)> = 2 r^2 - 2 y r + 2 tau |x|^2 >= 2 tau rho - y^2/2 >= 0 on the band
        rho0 = ls_problem.rho0_for_norm_squared()
        rng = np.random.default_rng(4)
        dirs = rng.normal(size=(10000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.sqrt(rng.uniform(rho0, 10 * rho0, size=10000))
        xs = dirs * radii[:, None]
        idx = rng.integers(0, 8, size=(10000, 1))
        grads = ls_problem.sample_gradients(xs, idx)[:, 0, :]
        ips = (2.0 * xs * grads).sum(axis=1)
        rho = (xs**2).sum(axis=1)
        lower = 2 * ls_problem.tau * rho - 0.5 * ls_problem.labels[idx[:, 0]] ** 2
        assert np.all(ips >= lower - 1e-9)
        assert lower.min() >= -1e-9

    def test_unregularized_field_fails_with_witness(self):
        # H(x, l) = (<a, x> - 1) a with no tau x term: negative inner products
        # just outside small rho0 bands, e.g. x = delta * a with small delta
        a = np.array([1.0, 0.0])
        field = lambda x: (np.asarray(x) @ a - 1.0)[..., None] * a
        prob = FieldProblem(2, [field])
        spec = norm_squared_confinement(0.01)
        report = check_plain_confinement(spec, prob, 4000, seed=5)
        assert not report.passed
        assert report.witness is not None and report.min_margin < 0.0

    def test_gradient_of_rho_always_passes(self):
        prob = FieldProblem(3, [lambda x: 2.0 * x])
        for rho0 in (0.1, 1.0, 25.0):
            report = check_plain_confinement(norm_squared_confinement(rho0), prob, 2000, seed=6)
            assert report.passed

    def test_pass_is_stable_across_sample_sizes(self, ls_problem):
        rho0 = ls_problem.rho0_for_norm_squared()
        spec = norm_squared_confinement(rho0)
        for n in (100, 1000, 5000):
            assert check_plain_confinement(spec, ls_problem, n, seed=7).passed


class TestEstimateConstants:
    def test_zero_field_gives_zero_suprema(self, schedule):
        prob = FieldProblem(3, [zero_field])
        spec = norm_squared_confinement(1.0)
        consts = estimate_constants(spec, prob, schedule, lam=2.0, b=1.5, theta=1.0,
                                    n_samples=200, seed=0)
        assert consts.lambda_est == 0.0
        assert consts.b_est == 0.0
        assert consts.phi == consts.c / consts.theta

    def test_constant_field_matches_closed_form(self, schedule):
        # Hess(|.|^2 o R_x) = 2 I exactly, so the raw supremum is sqrt(2)||g||
        g = np.array([0.6, -0.2, 1.1])
        prob = FieldProblem(3, [lambda x, g=g: np.broadcast_to(g, np.shape(x)).copy()])
        spec = norm_squared_confinement(1.0)
        consts = estimate_constants(spec, prob, schedule, lam=1.0, b=2.0, theta=1.0,
                                    n_samples=500, seed=1)
        closed = np.sqrt(2.0) * np.linalg.norm(g) / 2.0
        assert consts.b_est == pytest.approx(closed, rel=0.05)

    def test_sigma_and_rho1_formula(self, ls_problem, schedule):
        spec = norm_squared_confinement(ls_problem.rho0_for_norm_squared())
        consts = estimate_constants(spec, ls_problem, schedule, lam=1.0, b=2.0, theta=1.0,
                                    n_samples=500, seed=2)
        assert consts.sigma == pytest.approx(0.25 * 2.6123753486854883, abs=1e-4)
        assert consts.rho1 == pytest.approx(consts.rho0 + consts.c + 2.0 * consts.sigma)

    def test_estimates_monotone_in_samples(self, ls_problem, schedule):
        spec = norm_squared_confinement(ls_problem.rho0_for_norm_squared())
        small = estimate_constants(spec, ls_problem, schedule, 1.0, 2.0, 1.0, 500, seed=3)
        large = estimate_constants(spec, ls_problem, schedule, 1.0, 2.0, 1.0, 2000, seed=3)
        assert large.lambda_est >= small.lambda_est
        assert large.b_est >= small.b_est

    def test_invalid_schedule_rejected(self, ls_problem):
        spec = norm_squared_confinement(ls_problem.rho0_for_norm_squared())
        with pytest.raises(ValueError, match="step-size"):
            estimate_constants(spec, ls_problem, PowerLawSchedule(0.5, 0.4),
                               1.0, 1.0, 1.0, 100)

    def test_constants_validation(self):
        with pytest.raises(ValueError, match="phi"):
            ConfinementConstants(lam=1.0, b=1.0, theta=1.0, c=0.5, sigma=0.65,
                                 lambda_est=1.0, b_est=1.0, phi=0.9,
                                 rho0=1.0, rho1=1.0 + 0.5 + 0.325)
        with pytest.raises(ValueError, match="rho1"):
            ConfinementConstants(lam=1.0, b=1.0, theta=1.0, c=0.5, sigma=0.65,
                                 lambda_est=0.0, b_est=0.0, phi=1.0, rho0=1.0, rho1=99.0)


class TestConfinedDeterministic:
    def _setup(self, ls_problem, schedule, n_samples=1500):
        rho0 = ls_problem.rho0_for_norm_squared()
        spec = norm_squared_confinement(rho0)
        trial = estimate_constants(spec, ls_problem, schedule, 1.0, 1.0, 1.0,
                                   n_samples, seed=4)
        consts = estimate_constants(spec, ls_problem, schedule, 1.0,
                                    max(trial.b_est, 1e-6), 1.0, n_samples, seed=4)
        cfg = RunConfig(oracle=ls_problem,
                        plan=SegmentPlan(ls_problem.space, BatchSizes.constant(2)),
                        rate=schedule, x0=np.zeros(3), horizon=2000, seed=0, rho=spec.rho)
        return spec, consts, cfg

    def test_zero_field_is_trivially_confined(self, schedule):
        prob = FieldProblem(3, [zero_field])
        spec = norm_squared_confinement(1.0)
        consts = estimate_constants(spec, prob, schedule, 1.0, 1.0, 1.0, 200, seed=5)
        cfg = RunConfig(oracle=prob, plan=SegmentPlan(prob.space, BatchSizes.constant(1)),
                        rate=schedule, x0=np.zeros(3), horizon=500, seed=0, rho=spec.rho)
        tr = run_confined_deterministic(cfg, consts)
        assert np.all(tr.rho == 0.0)

    def test_runs_stay_confined(self, ls_problem, schedule):
        spec, consts, cfg = self._setup(ls_problem, schedule)
        trajectories = run_confined_deterministic_many(cfg, consts, 10)
        cum = cumulative_squares(schedule, cfg.horizon)
        tail = consts.sigma - cum
        for tr in trajectories:
            assert np.all(tr.rho + 0.5 * consts.b**2 * tail <= consts.rho1 + 1e-9)
            assert np.all(tr.in_region)

    def test_bad_phi_raises_violation(self, ls_problem, schedule):
        # force phi far below admissible by faking the estimates; the induction
        # invariant check must catch the escaping run
        spec, consts, cfg = self._setup(ls_problem, schedule)
        rigged = ConfinementConstants(
            lam=consts.lam, b=consts.b, theta=1e9, c=consts.c, sigma=consts.sigma,
            lambda_est=0.0, b_est=0.0, phi=1e-6, rho0=consts.rho0, rho1=consts.rho1)
        with pytest.raises(ConfinementViolation) as err:
            run_confined_deterministic(cfg, rigged)
        assert err.value.t is not None

    def test_x0_outside_rho0_rejected(self, ls_problem, schedule):
        spec, consts, cfg = self._setup(ls_problem, schedule)
        cfg.x0 = np.array([10.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="rho0"):
            run_confined_deterministic(cfg, consts)

    def test_rho_recording_required(self, ls_problem, schedule):
        spec, consts, cfg = self._setup(ls_problem, schedule)
        cfg.rho = None
        with pytest.raises(ValueError, match="rho"):
            run_confined_deterministic(cfg, consts)


class TestKappaCheck:
    def test_zero_field_passes_any_kappa(self):
        prob = FieldProblem(3, [zero_field])
        spec = norm_squared_confinement(1.0, 2.0, "batch_kappa")
        assert check_kappa_confinement(spec, prob, 1e6, 500, seed=8).passed

    def test_threshold_behaviour(self, ls_problem):
        # inflate rho0 so the band has strictly positive margin, then find the
        # empirical kappa threshold min <grad rho, v> / |v|^2 over the band
        rho0 = 2.0 * ls_problem.rho0_for_norm_squared() + 1.0
        rho1 = rho0 + 5.0
        rng = np.random.default_rng(9)
        dirs = rng.normal(size=(20000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xs = dirs * np.sqrt(rng.uniform(rho0, rho1, 20000))[:, None]
        table = ls_problem.sample_gradients(
            xs, np.broadcast_to(np.arange(8), (20000, 8)))
        lhs = (2.0 * xs[:, None, :] * table).sum(axis=-1)
        vsq = (table**2).sum(axis=-1)
        threshold = float((lhs / vsq).min())
        assert threshold > 0.0

        good = norm_squared_confinement(rho0, rho1, "batch_kappa")
        assert check_kappa_confinement(good, ls_problem, 0.5 * threshold, 2000, seed=10).passed
        bad = check_kappa_confinement(good, ls_problem, 1e6, 2000, seed=10)
        assert not bad.passed and bad.witness is not None

    def test_variant_required(self, ls_problem):
        spec = norm_squared_confinement(1.0)
        with pytest.raises(ValueError, match="variant"):
            check_kappa_confinement(spec, ls_problem, 0.5, 100)


class TestConfinedAdaptive:
    def test_zero_field_trivially_confined(self):
        prob = FieldProblem(3, [zero_field])
        spec = norm_squared_confinement(1.0, 2.0, "batch_kappa")
        cfg = RunConfig(oracle=prob, plan=SegmentPlan(prob.space, BatchSizes.constant(1)),
                        rate=AdaptiveRate(0.5, 1.0, 0.25), x0=np.zeros(3), horizon=300, seed=0)
        (tr,) = run_confined_adaptive_many(cfg, spec, kappa=0.5, n_seeds=1)
        assert np.all(tr.rho == 0.0)

    def test_family_stays_confined(self, ls_problem):
        rho0 = 2.0 * ls_problem.rho0_for_norm_squared() + 1.0
        spec = norm_squared_confinement(rho0, rho0 + 5.0, "batch_kappa")
        cfg = RunConfig(oracle=ls_problem,
                        plan=SegmentPlan(ls_problem.space, BatchSizes.constant(2)),
                        rate=AdaptiveRate(0.5, 1.0, 0.25), x0=np.zeros(3),
                        horizon=2000, seed=0)
        for tr in run_confined_adaptive_many(cfg, spec, kappa=0.5, n_seeds=10):
            assert np.all(tr.rho <= spec.rho1 + 1e-9)

    def test_eta0_above_kappa_rejected(self, ls_problem):
        spec = norm_squared_confinement(1.0, 2.0, "kappa")
        cfg = RunConfig(oracle=ls_problem,
                        plan=SegmentPlan(ls_problem.space, BatchSizes.constant(1)),
                        rate=AdaptiveRate(0.5, 1.0, 0.25), x0=np.zeros(3), horizon=10, seed=0)
        with pytest.raises(ValueError, match="kappa"):
            run_confined_adaptive_many(cfg, spec, kappa=0.1, n_seeds=1)  # eta0 = 0.5 > 0.1


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_confined_runs_refuse_fewer_than_one_seed(schedule, n_seeds):
    # both once ended in a ZeroDivisionError from the driver's block split
    prob = FieldProblem(3, [zero_field])
    spec = norm_squared_confinement(1.0, 2.0, "kappa")
    consts = estimate_constants(spec, prob, schedule, 1.0, 1.0, 1.0, 200, seed=5)
    cfg = RunConfig(oracle=prob, plan=SegmentPlan(prob.space, BatchSizes.constant(1)),
                    rate=schedule, x0=np.zeros(3), horizon=5, seed=0, rho=spec.rho)
    with pytest.raises(ValueError, match="n_seeds must be >= 1"):
        run_confined_deterministic_many(cfg, consts, n_seeds)
    with pytest.raises(ValueError, match="n_seeds must be >= 1"):
        run_confined_adaptive_many(replace(cfg, rate=AdaptiveRate(0.5, 1.0, 0.25)), spec,
                                   kappa=0.5, n_seeds=n_seeds)


def test_report_serialization(ls_problem):
    spec = norm_squared_confinement(ls_problem.rho0_for_norm_squared())
    report = check_plain_confinement(spec, ls_problem, 200, seed=11)
    payload = report.to_dict()
    assert payload["check"] == "plain_confinement"
    assert set(payload) >= {"pass", "min_margin", "witness", "n_samples", "seed", "notes"}
