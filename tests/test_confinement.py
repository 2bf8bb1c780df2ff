import functools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    random_sphere_mean,
    run_confined_adaptive_many,
    run_confined_deterministic,
    run_confined_deterministic_many,
)
from rsgd import budget, cli, confinement
from rsgd.confinement import _N_COMBOS, sample_rho_levels
from rsgd.problems import GradientOracle
from rsgd.schedules import _SQUARE_SUM_TERMS

from reference import (one_shot_check_kappa_confinement, one_shot_check_plain_confinement,
                       one_shot_estimate_constants)


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


@pytest.mark.parametrize("n_samples", [0, -1])
def test_samplers_refuse_fewer_than_one_sample(ls_problem, schedule, n_samples):
    # 0 once ended in numpy's "zero-size array to reduction operation minimum"
    spec = norm_squared_confinement(1.0, 2.0, "kappa")
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        estimate_constants(spec, ls_problem, schedule, 1.0, 1.0, 1.0, n_samples)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        check_kappa_confinement(spec, ls_problem, 0.5, n_samples)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        check_plain_confinement(spec, ls_problem, n_samples)


def test_samplers_refuse_curved_space(schedule):
    # on the sphere they sampled points off the manifold, along straight rays
    sphere = random_sphere_mean(3, 4, 0)
    spec = norm_squared_confinement(1.0, 2.0, "kappa")
    with pytest.raises(ValueError, match="sample flat space, not the sphere"):
        check_plain_confinement(spec, sphere, 10)
    with pytest.raises(ValueError, match="sample flat space, not the sphere"):
        check_kappa_confinement(spec, sphere, 0.5, 10)
    with pytest.raises(ValueError, match="sample flat space, not the sphere"):
        estimate_constants(spec, sphere, schedule, 1.0, 1.0, 1.0, 10)


def test_sublevel_below_rho_at_the_origin_fails(ls_problem, schedule):
    # rays start at the origin, so no level below rho(origin) = 1 is reachable
    spec = replace(norm_squared_confinement(0.5, 2.0, "kappa"),
                   rho=lambda x: (np.asarray(x) ** 2).sum(axis=-1) + 1.0)
    with pytest.raises(SamplerFailure, match=r"sublevel 0\.5 is below rho\(origin\) = 1"):
        estimate_constants(spec, ls_problem, schedule, 1.0, 1.0, 1.0, 10)
    with pytest.raises(SamplerFailure, match=r"sublevel 0\.5 is below rho\(origin\) = 1"):
        check_kappa_confinement(spec, ls_problem, 0.5, 10)


def _nan_beyond(x):
    # 0.1 x, NaN where x_0 > 1.5
    x = np.asarray(x, dtype=float)
    return np.where(x[..., :1] > 1.5, np.nan, 0.1 * x)


def test_a_nan_band_margin_fails_the_kappa_check():
    # the band [1, 4] reaches x_0 > 1.5 and the step check from {rho <= 1}
    # does not; min(margin_step, nan) once dropped the NaN and passed
    spec = norm_squared_confinement(1.0, 4.0, "kappa")
    report = check_kappa_confinement(spec, FieldProblem(2, [_nan_beyond]), 0.5, 500)
    assert np.isfinite(report.constants["margin_step"])
    assert np.isnan(report.constants["margin_band"])
    assert not report.passed and np.isnan(report.min_margin)
    assert list(report.witness) == ["x", "v", "s", "gap"] and report.witness["x"][0] > 1.5


def test_a_nan_supremum_raises_sampler_failure(schedule):
    # {rho <= rho1} reaches x_0 > 1.5; max(0.0, nan) once read the Hessian
    # sup as 0 and gave b_est = 0
    spec = norm_squared_confinement(1.0)
    with pytest.raises(SamplerFailure, match=r"b_est: .* is NaN at x = \["):
        estimate_constants(spec, FieldProblem(2, [_nan_beyond]), schedule, 1.0, 2.0, 1.0, 500)


NAN_CONFINED_CONFIG = """
[problem]
kind = least_squares
dimension = 2
n_outcomes = 1
data_seed = 0
tau = 0.2

[plan]
scheme = segment
batch_size = 1

[rate]
kind = power
c = 0.5
p = 0.75

[confinement]
enabled = true
variant = kappa
rho0 = 1.0
b = 2.0
kappa = 0.5
samples = 500

[run]
horizon = 10
"""


@pytest.mark.parametrize("argv, code", [(["run"], 3), (["check", "kappa_confinement"], 1)])
def test_cli_reports_a_nan_supremum(tmp_path, capsys, argv, code):
    cfg = tmp_path / "nan.ini"
    cfg.write_text(NAN_CONFINED_CONFIG)
    with mock.patch.object(cli, "build_problem", return_value=FieldProblem(2, [_nan_beyond])):
        assert cli.main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out"),
                                "--quiet"]) == code
    assert "b_est: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _affine(x, a, c, nan_above=np.inf):
    # A x + c without BLAS, so a point's bits do not depend on how many come
    # with it; NaN where x_0 > nan_above, to hold the samplers to NaN first
    x = np.asarray(x)
    return np.where(x[..., :1] > nan_above, np.nan, (x[..., None, :] * a).sum(axis=-1) + c)


def _bits(obj):
    """obj with every float as its hex string and every dict as its item
    list, so that == compares bits and key order."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return [(k, _bits(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _outcome(sample, *args):
    """A sampler's constants or report as a dict, or the message of the
    SamplerFailure it raises (a NaN supremum behind phi)."""
    try:
        out = sample(*args)
    except SamplerFailure as exc:
        return f"SamplerFailure: {exc}"
    return vars(out) if isinstance(out, ConfinementConstants) else out.to_dict()


# each sampler with the Dirichlet combinations per point it draws
SAMPLERS = {"constants": _N_COMBOS, "plain": 0, "kappa": 0, "batch_kappa": _N_COMBOS}
# sum_of_squares walks leaves of the word budget too, whose size changes no
# bit of it (test_schedules); under the drawn budgets it is computed once
_sum_of_squares_once = functools.cache(confinement.sum_of_squares)


@settings(max_examples=200, deadline=None)
@given(sampler=st.sampled_from(sorted(SAMPLERS)),
       kind=st.sampled_from(["field", "nan_field", "least_squares"]),
       dim=st.integers(1, 4), n_out=st.integers(1, 9), data_seed=st.integers(0, 2**16),
       seed=st.integers(0, 2**16), words=st.integers(1, 512),
       size=st.sampled_from(["1", "m-1", "m", "m+1", "3m+1"]),
       rho0=st.sampled_from([0.05, 1.0, 4.0]), kappa=st.sampled_from([0.05, 1e6]))
def test_chunked_samplers_equal_their_one_shot_oracles(sampler, kind, dim, n_out, data_seed,
                                                       seed, words, size, rho0, kappa):
    """Every constant, report field and witness equals the one-shot sampler's
    bit for bit, for n_samples around multiples of the chunk size m."""
    rng = np.random.default_rng(data_seed)
    if kind != "least_squares":
        cut = 0.5 if kind == "nan_field" else np.inf
        problem = FieldProblem(dim, [lambda x, a=rng.normal(size=(dim, dim)),
                                     c=rng.normal(size=dim): _affine(x, a, c, cut)
                                     for _ in range(n_out)])
    else:
        problem = random_least_squares(dim, n_out, seed=data_seed, tau=0.2)
    with mock.patch.object(budget, "WORDS", words), \
            mock.patch.object(confinement, "sum_of_squares", _sum_of_squares_once):
        m = confinement._chunk_size(problem, SAMPLERS[sampler])
        n = {"1": 1, "m-1": max(1, m - 1), "m": m, "m+1": m + 1, "3m+1": 3 * m + 1}[size]
        if sampler == "constants":
            sched = PowerLawSchedule(0.5, 0.75)
            args = (norm_squared_confinement(rho0), problem, sched, 1.0, 2.0, 1.0, n, seed)
            pair = (estimate_constants, one_shot_estimate_constants)
        elif sampler == "plain":
            args = (norm_squared_confinement(rho0), problem, n, seed)
            pair = (check_plain_confinement, one_shot_check_plain_confinement)
        else:
            args = (norm_squared_confinement(rho0, rho0 + 5.0, sampler), problem, kappa, n, seed)
            pair = (check_kappa_confinement, one_shot_check_kappa_confinement)
        got, want = (_outcome(sample, *args) for sample in pair)
    assert _bits(got) == _bits(want)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["field", "zero_field", "least_squares"]), dim=st.integers(1, 4),
       n_out=st.integers(1, 6), data_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       n_samples=st.integers(1, 300), rho0=st.sampled_from([0.05, 1.0, 4.0]))
def test_auto_b_equals_the_two_call_form(kind, dim, n_out, data_seed, seed, n_samples, rho0):
    """b = "auto" gives the bits of a call at b = 1 and a call at the b it
    estimates; a zero field estimates b_est = 0, so b takes the floor 1e-6."""
    rng = np.random.default_rng(data_seed)
    if kind == "field":
        problem = FieldProblem(dim, [lambda x, a=rng.normal(size=(dim, dim)),
                                     c=rng.normal(size=dim): _affine(x, a, c)
                                     for _ in range(n_out)])
    elif kind == "zero_field":
        problem = FieldProblem(dim, [zero_field] * n_out)
    else:
        problem = random_least_squares(dim, n_out, seed=data_seed, tau=0.2)
    spec, sched = norm_squared_confinement(rho0), PowerLawSchedule(0.5, 0.75)
    trial = estimate_constants(spec, problem, sched, 1.0, 1.0, 1.0, n_samples, seed)
    want = estimate_constants(spec, problem, sched, 1.0, max(trial.b_est, 1e-6), 1.0, n_samples,
                              seed)
    got = estimate_constants(spec, problem, sched, 1.0, "auto", 1.0, n_samples, seed)
    assert _bits(vars(got)) == _bits(vars(want))


@pytest.mark.parametrize("b", ["Auto", "1.0", ""])
def test_b_takes_no_other_word(ls_problem, schedule, b):
    spec = norm_squared_confinement(ls_problem.rho0_for_norm_squared())
    with pytest.raises(ValueError, match="b must be a number or 'auto'"):
        estimate_constants(spec, ls_problem, schedule, 1.0, b, 1.0, 10)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0, np.nan]), min_size=1, max_size=40),
       cuts=st.lists(st.integers(1, 39)), lower=st.booleans())
def test_chunk_extremes_combine_as_one_argmin(values, cuts, lower):
    """The first extreme kept across chunks is np.argmin / np.argmax of all
    entries at once: ties (-0.0 and 0.0 among them) and NaNs included."""
    a = np.array(values)
    bounds = [0] + sorted({c for c in cuts if c < a.size}) + [a.size]
    picks = [confinement._pick(a[start:stop], lower, index=np.arange(start, stop))
             for start, stop in zip(bounds, bounds[1:])]
    value, at = confinement._first(picks, lower)
    assert at["index"] == (np.argmin if lower else np.argmax)(a)
    assert _bits(float(value)) == _bits(float(a[at["index"]]))


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_sampler_memory_stays_within_the_block_budget(sampler, schedule):
    # least squares, N = 2000 and d = 4, 200 samples: the one-shot samplers
    # held every point's (8, N, d) Dirichlet product, about 100 MB
    d, n_out = 4, 2000
    problem = random_least_squares(d, n_out, seed=3, tau=0.2)
    rho0 = problem.rho0_for_norm_squared()
    combos = SAMPLERS[sampler]
    # bytes of a chunk's largest array; a sampler keeps a few such alive
    largest = 8 * max(budget.WORDS, d * max(combos * n_out, n_out + combos))
    bound = 12 * largest
    tracemalloc.start()
    try:
        if sampler == "constants":
            # sum_of_squares' one buffer comes first and is freed
            bound = max(bound, 8 * _SQUARE_SUM_TERMS + 64 * 1024)
            estimate_constants(norm_squared_confinement(rho0), problem, schedule,
                               1.0, 2.0, 1.0, 200)
        elif sampler == "plain":
            check_plain_confinement(norm_squared_confinement(rho0), problem, 200)
        else:
            check_kappa_confinement(norm_squared_confinement(rho0, rho0 + 5.0, sampler),
                                    problem, 0.5, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
