import hashlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgd import (
    BatchSizes,
    Euclidean,
    FiniteSampleSpace,
    InvalidPlan,
    RegularizedLeastSquaresProblem,
    SegmentPlan,
    SphereMeanProblem,
    StratifiedPlan,
    SubsetPlan,
    enumerate_expectation,
    random_least_squares,
    random_sphere_mean,
    variance_report,
)
from rsgd import batching, budget, driver
from rsgd.problems import GradientOracle

from reference import (BatchDraw, batch_gradient, dense_outcomes, draw_batch, mean_combine,
                       pool_subsets, rowmajor_draw, walked_blocks, walked_run_end)


class FixedVectorsProblem(GradientOracle):
    """Per-outcome gradients are constants; the cost is the matching linear map."""

    def __init__(self, vectors, weights=None):
        v = np.asarray(vectors, dtype=float)
        self.vectors = v
        self.space = FiniteSampleSpace.uniform(len(v)) if weights is None else FiniteSampleSpace(weights)
        self.manifold = Euclidean(v.shape[1])
        self.data_seed = None
        self.mean = (self.space.weights[:, None] * v).sum(axis=0)

    def cost(self, x):
        return (np.asarray(x, dtype=float) * self.mean).sum(axis=-1)

    def full_gradient(self, x):
        return np.broadcast_to(self.mean, np.shape(x)).copy()

    def sample_gradients(self, x, idx):
        idx = np.asarray(idx)
        out = np.broadcast_to(self.vectors[idx], np.shape(idx) + (self.mean.size,))
        return out.copy()

    def sample_region(self, rng, size):
        return rng.normal(size=(size, self.mean.size))

    @property
    def region_label(self):
        return "R^d"


@pytest.fixture
def triple():
    # three outcomes with gradients (1,0), (0,1), (2,2); mean (1, 1)
    return FixedVectorsProblem([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])


class TestBatchSizes:
    def test_constant(self):
        assert BatchSizes.constant(4).at(123) == 4

    def test_geometric_capped(self):
        s = BatchSizes.geometric(1, 1.5, cap=16)
        vals = [s.at(t) for t in range(12)]
        assert vals[0] == 1 and vals[-1] == 16
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_geometric_saturates_where_growth_overflows(self):
        # 1.5**t leaves the float range at t = 1751; the size stays at the cap
        s = BatchSizes.geometric(1, 1.5, cap=16)
        assert [s.at(t) for t in (1750, 1751, 5000, 10**6)] == [16] * 4
        assert BatchSizes.geometric(3, 2.0, cap=10**9).at(2000) == 10**9

    def test_explicit(self):
        s = BatchSizes.explicit([1, 2, 4])
        assert [s.at(t) for t in range(3)] == [1, 2, 4]
        with pytest.raises(InvalidPlan):
            s.at(3)

    def test_invalid(self):
        with pytest.raises(InvalidPlan):
            BatchSizes.constant(0)
        with pytest.raises(InvalidPlan):
            BatchSizes.geometric(2, 0.5, cap=8)
        with pytest.raises(InvalidPlan):
            BatchSizes.geometric(2, float("nan"), cap=8)
        with pytest.raises(InvalidPlan):
            BatchSizes.explicit([])


class TestSegmentPlan:
    def test_cuts_start_at_zero_and_increase(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.explicit([2, 1, 3]))
        assert [plan.sizes.cut(t) for t in range(4)] == [0, 2, 3, 6]

    @pytest.mark.parametrize("sizes", [
        BatchSizes.constant(3),
        BatchSizes.geometric(1, 1.5, cap=16),
        BatchSizes.geometric(2, 1.0001, cap=40),
        BatchSizes.geometric(5, 1.0, cap=9),
        BatchSizes.explicit(np.random.default_rng(0).integers(1, 50, size=10**5)),
    ], ids=["constant", "geometric", "geometric-slow", "geometric-flat", "explicit"])
    def test_cuts_are_the_running_sums(self, triple, sizes):
        n = 10**5
        running = [0]
        for t in range(n):
            running.append(running[-1] + sizes.at(t))
        plan = SegmentPlan(triple.space, sizes)
        assert [plan.sizes.cut(t) for t in range(n + 1)] == running
        # fresh sizes asked out of order: the last cut first
        plan = SegmentPlan(triple.space, replace(sizes))
        order = (n, 0, n // 2, 7)
        assert [plan.sizes.cut(t) for t in order] == [running[t] for t in order]

    @pytest.mark.parametrize("sizes, t", [
        (BatchSizes.constant(3), 10**7),
        (BatchSizes.geometric(1, 1.5, cap=64), 10**7),
        # below its cap past 10**7 steps: the size first exceeds 4 at t = 2,231,436
        (BatchSizes.geometric(4, 1.0000001, cap=16), 10**6),
    ], ids=["constant", "geometric", "geometric-slow"])
    def test_far_cuts_hold_no_list(self, triple, sizes, t):
        plan = SegmentPlan(triple.space, sizes)
        tracemalloc.start()
        try:
            cut = plan.sizes.cut(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cut == sum(sizes.at(k) for k in range(20)) + sizes.at(20) * (t - 20)
        # a list of every cut would hold t Python ints, about 39 MiB per 10**6
        assert peak < 64 * 1024

    def test_unit_batches_are_single_draws(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.constant(1))
        d = draw_batch(plan, 5, seed=3)
        assert d.batch_size == 1 and d.weights[0] == 1.0

    def test_draws_can_repeat(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.constant(4))
        blocks = plan.draw_block(0, np.arange(200))
        assert any(len(set(row)) < 4 for row in blocks.tolist())

    def test_deterministic_per_seed_and_step(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.constant(3))
        a = draw_batch(plan, 7, seed=9)
        b = draw_batch(plan, 7, seed=9)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_nonuniform_weights_respected(self):
        prob = FixedVectorsProblem([[1.0], [2.0], [3.0]], weights=[0.6, 0.3, 0.1])
        plan = SegmentPlan(prob.space, BatchSizes.constant(1))
        draws = plan.draw_block(0, np.arange(30000))[:, 0]
        freq = np.bincount(draws, minlength=3) / 30000
        np.testing.assert_allclose(freq, [0.6, 0.3, 0.1], atol=0.01)


class TestSubsetPlan:
    def test_uniform_over_subsets(self, triple):
        # N=3, b=2: each of the 3 subsets should appear with frequency 1/3
        plan = SubsetPlan(triple.space, BatchSizes.constant(2))
        rows = plan.draw_block(0, np.arange(30000))
        labels = rows[:, 0] * 3 + rows[:, 1]
        freq = np.array([(labels == k).mean() for k in (0 * 3 + 1, 0 * 3 + 2, 1 * 3 + 2)])
        assert freq.sum() == 1.0
        np.testing.assert_allclose(freq, 1 / 3, atol=0.02)

    def test_no_duplicates_and_sorted(self, triple):
        plan = SubsetPlan(triple.space, BatchSizes.constant(2))
        rows = plan.draw_block(3, np.arange(5000))
        assert np.all(rows[:, 0] < rows[:, 1])

    def test_full_batch_is_everything(self, triple):
        plan = SubsetPlan(triple.space, BatchSizes.constant(3))
        np.testing.assert_array_equal(plan.draw_block(0, np.arange(5)),
                                      np.tile([0, 1, 2], (5, 1)))

    def test_rejects_nonuniform_space(self):
        space = FiniteSampleSpace(np.array([0.5, 0.25, 0.25]))
        with pytest.raises(InvalidPlan, match="uniform"):
            SubsetPlan(space, BatchSizes.constant(2))

    @pytest.mark.parametrize("sizes", [
        BatchSizes.constant, lambda b: BatchSizes.geometric(1, 1.5, b),
        lambda b: BatchSizes.explicit([1, b, 2]),
    ], ids=["constant", "geometric-cap", "explicit-max"])
    def test_refuses_sizes_over_n_at_construction(self, triple, sizes):
        # the largest size the sequence takes decides, whatever step reaches it
        with pytest.raises(InvalidPlan, match="batch size 4 exceeds 3 outcomes"):
            SubsetPlan(triple.space, sizes(4))
        assert SubsetPlan(triple.space, sizes(3)).sizes == sizes(3)


class TestStratifiedPlan:
    def test_partition_structure_respected(self):
        prob = FixedVectorsProblem([[1.0], [2.0], [3.0], [4.0]])
        plan = StratifiedPlan(prob.space, [(0, 1), (2, 3)], (1, 1))
        rows = plan.draw_block(0, np.arange(1000))
        assert np.all(rows[:, 0] <= 1) and np.all(rows[:, 1] >= 2)

    def test_weights_are_stratum_probability_over_count(self):
        space = FiniteSampleSpace(np.array([0.1, 0.2, 0.3, 0.4]))
        plan = StratifiedPlan(space, [(0, 1), (2, 3)], (1, 2))
        np.testing.assert_allclose(plan.weights_at(0), [0.3, 0.35, 0.35])
        assert plan.weights_at(0).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_partitions(self):
        space = FiniteSampleSpace.uniform(4)
        with pytest.raises(InvalidPlan):
            StratifiedPlan(space, [(0, 1), (1, 2, 3)], (1, 1))
        with pytest.raises(InvalidPlan):
            StratifiedPlan(space, [(0, 1)], (1,))
        with pytest.raises(InvalidPlan):
            StratifiedPlan(space, [(0, 1), (2, 3)], (1, 0))
        with pytest.raises(InvalidPlan):
            StratifiedPlan(space, [(0, 1), ()], (1, 1))


class TestBatchGradient:
    def test_single_outcome_is_exact(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.constant(1))
        d = draw_batch(plan, 0, seed=1)
        x = np.zeros(2)
        np.testing.assert_array_equal(batch_gradient(triple, x, d),
                                      triple.vectors[d.outcomes[0]])

    def test_two_outcome_average(self, triple):
        d = BatchDraw(t=0, outcomes=np.array([0, 2]), weights=np.full(2, 0.5))
        np.testing.assert_array_equal(batch_gradient(triple, np.zeros(2), d), [1.5, 1.0])

    def test_stratified_weighting(self):
        prob = FixedVectorsProblem([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        plan = StratifiedPlan(prob.space, [(0, 1), (2, 3)], (1, 1))
        d = draw_batch(plan, 0, seed=0)
        expected = 0.5 * prob.vectors[d.outcomes[0]] + 0.5 * prob.vectors[d.outcomes[1]]
        np.testing.assert_allclose(batch_gradient(prob, np.zeros(2), d), expected, atol=1e-15)

    def test_outcome_validation(self, triple):
        d = BatchDraw(t=0, outcomes=np.array([5]), weights=np.ones(1))
        with pytest.raises(InvalidPlan):
            batch_gradient(triple, np.zeros(2), d)


class TestEnumeration:
    def test_subset_expectation_worked_example(self, triple):
        # subsets {0,1},{0,2},{1,2} average to (.5,.5),(1.5,1),(1,1.5); mean (1,1)
        plan = SubsetPlan(triple.space, BatchSizes.constant(2))
        np.testing.assert_allclose(enumerate_expectation(triple, np.zeros(2), plan),
                                   [1.0, 1.0], atol=1e-14)

    def test_segment_expectation_worked_example(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.constant(2))
        assert plan.outcome_count(0) == 9
        np.testing.assert_allclose(enumerate_expectation(triple, np.zeros(2), plan),
                                   [1.0, 1.0], atol=1e-14)

    def test_stratified_expectation_worked_example(self):
        prob = FixedVectorsProblem([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        plan = StratifiedPlan(prob.space, [(0, 1), (2, 3)], (1, 1))
        # 0.5*(0.5, 0.5) + 0.5*(1.5, 2.5) = (1, 1.5), the full mean
        np.testing.assert_allclose(enumerate_expectation(prob, np.zeros(2), plan),
                                   [1.0, 1.5], atol=1e-14)
        np.testing.assert_allclose(prob.mean, [1.0, 1.5])

    @pytest.mark.parametrize("problem", [
        random_sphere_mean(4, 8, seed=21),
        random_least_squares(3, 8, seed=21, tau=0.3, region_rho1=4.0),
    ], ids=["sphere_mean", "least_squares"])
    @pytest.mark.parametrize("make", [
        lambda s: SegmentPlan(s, BatchSizes.constant(3)),
        lambda s: SegmentPlan(s, BatchSizes.explicit([1, 2, 4])),
        lambda s: SubsetPlan(s, BatchSizes.constant(4)),
        lambda s: SubsetPlan(s, BatchSizes.constant(8)),
        lambda s: StratifiedPlan(s, [(0, 1, 2), (3, 4), (5, 6, 7)], (2, 1, 1)),
    ], ids=["seg3", "seg_explicit", "sub4", "sub_full", "strat"])
    def test_unbiased_for_every_scheme(self, problem, make):
        plan = make(problem.space)
        rng = np.random.default_rng(22)
        for x in problem.sample_region(rng, 20):
            for t in range(2):
                dev = enumerate_expectation(problem, x, plan, t) - problem.full_gradient(x)
                assert np.sqrt((dev**2).sum()) <= 1e-10

    def test_unbiased_with_nonuniform_weights(self):
        # nonuniform outcome weights exercise the conditional-measure paths of
        # the segment and stratified schemes (subsets require uniform weights)
        prob = FixedVectorsProblem([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 3.0]],
                                   weights=[0.4, 0.1, 0.2, 0.3])
        x = np.zeros(2)
        g = prob.full_gradient(x)
        for plan in (SegmentPlan(prob.space, BatchSizes.constant(3)),
                     StratifiedPlan(prob.space, [(0, 3), (1, 2)], (2, 1))):
            dev = enumerate_expectation(prob, x, plan) - g
            assert np.sqrt((dev**2).sum()) <= 1e-14

    def test_nonuniform_stratified_draws_match_enumeration(self):
        prob = FixedVectorsProblem([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 3.0]],
                                   weights=[0.4, 0.1, 0.2, 0.3])
        plan = StratifiedPlan(prob.space, [(0, 3), (1, 2)], (2, 1))
        x = np.zeros(2)
        rows = plan.draw_block(2, np.arange(100000))
        w = plan.weights_at(2)
        grads = (w[None, :, None] * prob.sample_gradients(x, rows)).sum(axis=1)
        mean = grads.mean(axis=0)
        stderr = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
        exact = enumerate_expectation(prob, x, plan, 2)
        assert np.all(np.abs(mean - exact) <= 3 * stderr)

    def test_monte_carlo_matches_enumeration(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.constant(2))
        x = np.zeros(2)
        rows = plan.draw_block(4, np.arange(100000))
        grads = triple.sample_gradients(x, rows).mean(axis=1)
        mean = grads.mean(axis=0)
        stderr = grads.std(axis=0, ddof=1) / np.sqrt(len(grads))
        exact = enumerate_expectation(triple, x, plan, 4)
        assert np.all(np.abs(mean - exact) <= 3 * stderr)

    def test_plan_past_the_old_enumeration_budget_is_certified(self):
        # 10**7 batches, ten times the 10**6 once enumerated at most: the
        # coefficient law walks the 10 outcomes instead
        prob = FixedVectorsProblem(np.eye(10))
        plan = SegmentPlan(prob.space, BatchSizes.constant(7))
        assert plan.outcome_count(0) == 10**7
        np.testing.assert_allclose(enumerate_expectation(prob, np.zeros(10), plan),
                                   np.full(10, 0.1), rtol=0, atol=1e-15)
        pop = 0.1 * (1.0 - 0.1) * 10  # the trace of Cov(e_l) at b = 1
        assert variance_report(prob, np.zeros(10), plan) == pytest.approx(pop / 7, rel=1e-14)


class TestVariance:
    def test_full_batch_has_zero_variance(self, triple):
        plan = SubsetPlan(triple.space, BatchSizes.constant(3))
        assert variance_report(triple, np.zeros(2), plan) == pytest.approx(0.0, abs=1e-14)

    def test_single_draw_is_population_variance(self, triple):
        plan = SegmentPlan(triple.space, BatchSizes.constant(1))
        v = triple.vectors - triple.mean
        pop = (triple.space.weights * (v * v).sum(axis=1)).sum()
        assert variance_report(triple, np.zeros(2), plan) == pytest.approx(pop, rel=1e-12)

    def test_iid_averaging_halves_variance(self, triple):
        x = np.zeros(2)
        v2 = variance_report(triple, x, SegmentPlan(triple.space, BatchSizes.constant(2)))
        v4 = variance_report(triple, x, SegmentPlan(triple.space, BatchSizes.constant(4)))
        assert abs(v4 - 0.5 * v2) <= 1e-10

    def test_subset_variance_below_iid(self, triple):
        x = np.zeros(2)
        seg = variance_report(triple, x, SegmentPlan(triple.space, BatchSizes.constant(2)))
        sub = variance_report(triple, x, SubsetPlan(triple.space, BatchSizes.constant(2)))
        assert sub < seg


def test_draw_block_rows_match_scalar_draws(triple):
    for plan in (SegmentPlan(triple.space, BatchSizes.constant(2)),
                 SubsetPlan(triple.space, BatchSizes.constant(2)),
                 StratifiedPlan(triple.space, [(0,), (1, 2)], (1, 1))):
        rows = plan.draw_block(6, np.array([10, 11, 12]))
        for i, seed in enumerate((10, 11, 12)):
            np.testing.assert_array_equal(rows[i], draw_batch(plan, 6, seed=seed).outcomes)


def _golden_plans():
    uniform = FiniteSampleSpace.uniform(16)
    w = np.arange(1, 17, dtype=float)
    weighted = FiniteSampleSpace(w / w.sum())
    halves = [range(8), range(8, 16)]
    return {
        "segment": SegmentPlan(uniform, BatchSizes.constant(4)),
        "segment_weighted": SegmentPlan(weighted, BatchSizes.geometric(1, 1.5, 16)),
        "no_repetition": SubsetPlan(uniform, BatchSizes.geometric(1, 1.5, 16)),
        "stratified": StratifiedPlan(uniform, halves, (2, 2)),
        "stratified_weighted": StratifiedPlan(weighted, halves, (1, 3)),
    }


# sha256 prefixes of the draws of seeds 5, 6, 7 at steps 0..199, as drawn one
# step at a time by the engine that made one draw call per step, with a
# dense (S, N) pool for the no-repetition scheme; the draws must not change
GOLDEN_DRAWS = {
    "segment": "8e33e4f3df7870f28a65f5e2b3787fc0",
    "segment_weighted": "a6cf182705fc63a8dd8a7af97555a71d",
    "no_repetition": "c69b5833ab87082695b881717a2a478e",
    "stratified": "67fb104942d599c70071bacd54a3b73e",
    "stratified_weighted": "31c801af1c15227ee2f8d17980a809ed",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DRAWS))
def test_draws_match_recorded_digests(name):
    plan, seeds = _golden_plans()[name], np.arange(3) + 5
    per_step, blocked = hashlib.sha256(), hashlib.sha256()
    for t in range(200):
        per_step.update(np.ascontiguousarray(plan.draw_block(t, seeds)).tobytes())
    for t0, t1 in driver._blocks(plan, 200, seeds.size, 1):
        outcomes = plan.draw(t0, t1, seeds)
        for k in range(outcomes.shape[1]):
            blocked.update(np.ascontiguousarray(outcomes[:, k]).tobytes())
    assert per_step.hexdigest()[:32] == GOLDEN_DRAWS[name]
    assert blocked.hexdigest()[:32] == GOLDEN_DRAWS[name]


def _empty_range_plans():
    uniform = FiniteSampleSpace.uniform(16)
    w = np.arange(1, 17, dtype=float)
    weighted = FiniteSampleSpace(w / w.sum())
    halves = [range(8), range(8, 16)]
    sizes = {"constant": BatchSizes.constant(3), "geometric": BatchSizes.geometric(1, 1.5, 16)}
    plans = {}
    for kind, s in sizes.items():
        plans[f"segment-{kind}"] = SegmentPlan(uniform, s)
        plans[f"segment_weighted-{kind}"] = SegmentPlan(weighted, s)
        plans[f"no_repetition-{kind}"] = SubsetPlan(uniform, s)
    plans["stratified-constant"] = StratifiedPlan(uniform, halves, (2, 1))
    plans["stratified_weighted-constant"] = StratifiedPlan(weighted, halves, (1, 3))
    return plans


@pytest.mark.parametrize("t", [0, 5])
@pytest.mark.parametrize("name", sorted(_empty_range_plans()))
def test_every_plan_draws_an_empty_range(name, t):
    # the engine's horizon-0 block draws (0, 0) like any other block
    plan, seeds = _empty_range_plans()[name], np.arange(4) + 5
    assert plan.draw(t, t, seeds).shape == (seeds.size, 0, plan.batch_size(t))


class TestSparseSubsets:
    @pytest.mark.parametrize("n", [1, 5, 16, 100_000])
    @pytest.mark.parametrize("full", [False, True], ids=["b=1", "b=N"])
    def test_equals_pool_shuffle(self, n, full):
        b = n if full else 1
        seeds = np.arange(2 if b > 1000 else 64) - 3
        plan = SubsetPlan(FiniteSampleSpace.uniform(n), BatchSizes.constant(b))
        for t in (0, 1, 17):
            np.testing.assert_array_equal(plan.draw_block(t, seeds),
                                          pool_subsets(n, b, t, seeds))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 60), data=st.data())
    def test_equals_pool_shuffle_any_size(self, n, data):
        b = data.draw(st.integers(1, n))
        t = data.draw(st.integers(0, 10**6))
        seeds = np.array(data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=1,
                                            max_size=6)))
        plan = SubsetPlan(FiniteSampleSpace.uniform(n), BatchSizes.constant(b))
        np.testing.assert_array_equal(plan.draw_block(t, seeds), pool_subsets(n, b, t, seeds))

    def test_builds_no_pool(self):
        n, seeds = 100_000, np.arange(4)
        plan = SubsetPlan(FiniteSampleSpace.uniform(n), BatchSizes.constant(8))
        plan.draw_block(0, seeds)
        tracemalloc.start()
        try:
            plan.draw_block(5, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an (S, N) int64 pool alone would take 8 * 4 * 100_000 bytes
        assert peak < n


@settings(max_examples=80, deadline=None)
@given(problem=st.sampled_from(["sphere_mean", "least_squares"]),
       scheme=st.sampled_from(["segment", "stratified"]),
       n=st.integers(2, 8), d=st.integers(2, 5), data=st.data())
def test_enumeration_equals_full_gradient_nonuniform(problem, scheme, n, d, data):
    raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
                             .filter(lambda w: len(set(w)) > 1)))
    weights = raw / raw.sum()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if problem == "sphere_mean":
        prob = SphereMeanProblem(rng.normal(size=(n, d)), weights=weights)
        x = prob.manifold.random_point(rng)
    else:
        prob = RegularizedLeastSquaresProblem(rng.normal(size=(n, d)), rng.normal(size=n),
                                              data.draw(st.floats(1e-3, 2.0)), weights=weights)
        x = rng.normal(size=d) * data.draw(st.floats(0.1, 10.0))
    if scheme == "segment":
        plan = SegmentPlan(prob.space, BatchSizes.constant(data.draw(st.integers(1, 3))))
    else:
        order = rng.permutation(n)
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1)))
        strata = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        counts = [data.draw(st.integers(1, 2)) for _ in strata]
        plan = StratifiedPlan(prob.space, strata, counts)
    dev = enumerate_expectation(prob, x, plan) - prob.full_gradient(x)
    # rounding grows with the per-outcome gradients the expectation sums
    scale = np.sqrt((prob.sample_gradients(x, np.arange(n)) ** 2).sum(axis=-1)).max()
    assert np.sqrt((dev * dev).sum()) <= 1e-12 * max(1.0, scale)


def test_expectation_memory_does_not_grow_with_the_gather():
    # the 20 points of check unbiasedness at N = 2^16 outcomes: the (20, N, d)
    # gradients of a whole walk would take 40 MiB, its slices take at most
    # budget.WORDS words, and the coefficient law a few N-vectors
    n, d = 1 << 16, 4
    prob = random_least_squares(d, n, seed=3, tau=0.2, region_rho1=4.0)
    xs = np.random.default_rng(0).normal(size=(20, d))
    for plan in (SegmentPlan(prob.space, BatchSizes.constant(1000)),
                 SubsetPlan(prob.space, BatchSizes.constant(1000))):
        tracemalloc.start()
        try:
            enumerate_expectation(prob, xs, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (8 * n + 8 * budget.WORDS), peak


def _law_case(scheme, uniform, n, b, data):
    """A plan of the scheme over n outcomes, uniform or Dirichlet weights,
    with sizes growing geometrically from 1 up to b (stratified: drawn strata
    and counts)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if scheme == "no_repetition" or uniform:
        space = FiniteSampleSpace.uniform(n)
    else:
        space = FiniteSampleSpace(rng.dirichlet(np.ones(n)))
    sizes = BatchSizes.geometric(1, data.draw(st.sampled_from([1.5, 2.0, 3.0])), b)
    if scheme == "segment":
        return SegmentPlan(space, sizes)
    if scheme == "no_repetition":
        return SubsetPlan(space, sizes)
    return StratifiedPlan(space, *_drawn_partition(n, data))


def _enumerated_law(plan, t):
    """E c and Cov(c) over every batch of ``reference.dense_outcomes``."""
    idx, prob = dense_outcomes(plan, t)
    c = np.zeros((len(idx), plan.space.size))
    np.add.at(c, (np.arange(len(idx))[:, None], idx), plan.weights_at(t))
    mean = prob @ c
    dev = c - mean
    return mean, (prob[:, None] * dev).T @ dev


def _dense_cov(plan, t):
    _, alpha, rows = plan.coefficients(t)
    cov = np.diag(alpha)
    for beta, members, q in rows:
        u = np.zeros(plan.space.size)
        u[members] = q
        cov -= beta * np.outer(u, u)
    return cov


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       uniform=st.booleans(), n=st.integers(1, 6), b=st.integers(1, 4), t=st.integers(0, 3),
       data=st.data())
def test_coefficient_law_equals_enumeration(scheme, uniform, n, b, t, data):
    # E c and Cov(c) of the structured law equal those of every batch, each
    # with its probability, at every step of growing sizes
    plan = _law_case(scheme, uniform, n, min(b, n), data)
    mean, cov = _enumerated_law(plan, t)
    got_mean, alpha, rows = plan.coefficients(t)
    assert got_mean.shape == alpha.shape == (n,)
    assert np.abs(got_mean - mean).max() <= 1e-15
    assert np.abs(_dense_cov(plan, t) - cov).max() <= 1e-15
    # the weights of every batch sum to 1: Cov(c) 1 = 0 and sum E c = 1
    assert abs(got_mean.sum() - 1.0) <= 1e-14
    assert np.abs(_dense_cov(plan, t).sum(axis=1)).max() <= 1e-15


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       problem=st.sampled_from(["sphere_mean", "least_squares"]), uniform=st.booleans(),
       n=st.integers(1, 6), b=st.integers(1, 4), d=st.sampled_from([1, 2, 4, 8, 9]),
       t=st.integers(0, 2), data=st.data())
def test_closed_forms_equal_enumerated_expectation_and_variance(scheme, problem, uniform, n, b,
                                                               d, t, data):
    # E h and E ||h - E h||^2 from the law agree with the sums over every
    # batch, within the rounding of sums of the gradients' size, and their
    # bits do not depend on the slices the outcomes are walked in
    plan = _law_case(scheme, uniform, n, min(b, n), data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = plan.space.weights
    if problem == "sphere_mean" and d > 1:
        prob = SphereMeanProblem(rng.normal(size=(n, d)), weights=w)
        x = prob.manifold.random_point(rng)
    else:
        prob = RegularizedLeastSquaresProblem(rng.normal(size=(n, d)), rng.normal(size=n), 0.3,
                                              weights=w)
        x = rng.normal(size=d) * data.draw(st.floats(0.1, 10.0))
    idx, p = dense_outcomes(plan, t)
    vecs = mean_combine(plan.weights_at(t), prob.sample_gradients(x, idx), False)
    want_mean = (p[:, None] * vecs).sum(axis=0)
    dev = vecs - want_mean
    want_var = float((p * (dev * dev).sum(axis=1)).sum())
    scale = max(1.0, float((prob.sample_gradients(x, np.arange(n)) ** 2).sum(axis=-1).max()))
    mean, var = enumerate_expectation(prob, x, plan, t), variance_report(prob, x, plan, t)
    assert np.abs(mean - want_mean).max() <= 1e-14 * np.sqrt(scale)
    assert abs(var - want_var) <= 1e-13 * scale
    for words in (1, 7, 1 << 10):
        with mock.patch.object(budget, "WORDS", words):
            assert enumerate_expectation(prob, x, plan, t).tobytes() == mean.tobytes()
            assert variance_report(prob, x, plan, t) == var


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       problem=st.sampled_from(["sphere_mean", "least_squares"]), uniform=st.booleans(),
       n=st.integers(2, 6), d=st.integers(2, 4), n_points=st.integers(0, 5),
       t=st.integers(0, 3), words=st.sampled_from([1, 7, 1 << 10]), data=st.data())
def test_enumeration_at_many_points_equals_one_point_at_a_time(scheme, problem, uniform, n, d,
                                                               n_points, t, words, data):
    # one expectation for (P, d) points gives each point the bits of its own,
    # whatever slices the outcomes are walked in, and (0, d) points an empty
    # (0, d) result; growing sizes put t > 0 at another batch size than t = 0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = None if uniform or scheme == "no_repetition" else rng.uniform(0.05, 1.0, size=n)
    if weights is not None:
        weights /= weights.sum()
    if problem == "sphere_mean":
        prob = SphereMeanProblem(rng.normal(size=(n, d)), weights=weights)
    else:
        prob = RegularizedLeastSquaresProblem(rng.normal(size=(n, d)), rng.normal(size=n), 0.3,
                                              weights=weights)
    xs = prob.sample_region(rng, n_points) if problem == "sphere_mean" \
        else rng.normal(size=(n_points, d))
    sizes = BatchSizes.geometric(1, 2.0, min(n, 3))
    if scheme == "segment":
        plan = SegmentPlan(prob.space, sizes)
    elif scheme == "no_repetition":
        plan = SubsetPlan(prob.space, sizes)
    else:
        plan = StratifiedPlan(prob.space, *_drawn_partition(n, data))
    with mock.patch.object(budget, "WORDS", words):
        many = enumerate_expectation(prob, xs, plan, t)
    ones = [enumerate_expectation(prob, x, plan, t) for x in xs]
    assert many.shape == (n_points, d)
    assert many.tobytes() == np.array(ones).reshape(n_points, d).tobytes()


def _drawn_partition(n, data):
    """At most three strata of a shuffled range(n), each drawn once or twice."""
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    strata = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    return strata, [data.draw(st.integers(1, 2 if len(strata) < 3 else 1)) for _ in strata]


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       n=st.integers(1, 5), chunk=st.integers(1, 9), t=st.integers(0, 2), data=st.data())
def test_enumeration_matches_dense_oracle(scheme, n, chunk, t, data):
    if scheme == "no_repetition" or data.draw(st.booleans()):
        space = FiniteSampleSpace.uniform(n)
    else:
        raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        space = FiniteSampleSpace(raw / raw.sum())
    if scheme == "segment":
        plan = SegmentPlan(space, BatchSizes.constant(data.draw(st.integers(1, 4))))
    elif scheme == "no_repetition":
        plan = SubsetPlan(space, BatchSizes.constant(data.draw(st.integers(1, n))))
    else:
        plan = StratifiedPlan(space, *_drawn_partition(n, data))
    with mock.patch.object(batching, "_ENUM_CHUNK", chunk):
        chunks = list(plan.iter_outcome_chunks(t))
    assert all(0 < len(idx) == len(prob) <= chunk for idx, prob in chunks)
    idx = np.concatenate([c[0] for c in chunks])
    prob = np.concatenate([c[1] for c in chunks])
    want_idx, want_prob = dense_outcomes(plan, t)
    assert idx.shape[0] == plan.outcome_count(t)
    np.testing.assert_array_equal(idx, want_idx)
    assert np.all(np.abs(prob - want_prob) <= 4 * np.spacing(want_prob))


def _hypothesis_plan(scheme, n, sizes, data):
    space = FiniteSampleSpace.uniform(n)
    if scheme == "segment":
        return SegmentPlan(space, sizes)
    if scheme == "no_repetition":
        return SubsetPlan(space, sizes)
    cut = data.draw(st.integers(1, n - 1)) if n > 1 else n
    strata = [range(cut), range(cut, n)] if cut < n else [range(n)]
    return StratifiedPlan(space, strata, [data.draw(st.integers(1, 3)) for _ in strata])


def _hypothesis_sizes(n, data):
    kind = data.draw(st.sampled_from(["constant", "geometric", "explicit"]))
    if kind == "constant":
        return BatchSizes.constant(data.draw(st.integers(1, n)))
    if kind == "geometric":
        return BatchSizes.geometric(1, data.draw(st.floats(1.0, 3.0)), n)
    return BatchSizes.explicit(data.draw(st.lists(st.integers(1, n), min_size=60, max_size=60)))


@settings(max_examples=80, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       n=st.integers(1, 12), data=st.data())
def test_block_draws_equal_stacked_step_draws(scheme, n, data):
    # draw(t0, t1) over any run of one batch size
    plan = _hypothesis_plan(scheme, n, _hypothesis_sizes(n, data), data)
    t0 = data.draw(st.integers(0, 20))
    end = t0 + 1
    while end < 50 and plan.batch_size(end) == plan.batch_size(t0):
        end += 1
    t1 = data.draw(st.integers(t0 + 1, end))
    seeds = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=5)))
    outcomes = plan.draw(t0, t1, seeds)
    assert outcomes.shape == (seeds.size, t1 - t0, plan.batch_size(t0))
    for k in range(t1 - t0):
        np.testing.assert_array_equal(outcomes[:, k], plan.draw_block(t0 + k, seeds))


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       n=st.integers(1, 12), horizon=st.integers(0, 50), n_seeds=st.integers(1, 6),
       d=st.integers(1, 12), words=st.integers(1, 200), data=st.data())
def test_driver_blocks_keep_one_layout_within_the_bound(scheme, n, horizon, n_seeds, d, words,
                                                        data):
    # the blocks cover 0 .. T-1 in order; each keeps one batch size, its
    # (S, k, b) outcomes and (S, k, d) buffers hold at most `words` words
    # unless it is one step, and it ends only at T, a size change or the bound
    plan = _hypothesis_plan(scheme, n, _hypothesis_sizes(n, data), data)
    with mock.patch.object(budget, "WORDS", words):
        blocks = list(driver._blocks(plan, horizon, n_seeds, d))
    assert [t for t0, t1 in blocks for t in range(t0, t1)] == list(range(horizon))
    for t0, t1 in blocks:
        b = plan.batch_size(t0)
        k, width = t1 - t0, max(b, d)
        assert all(plan.batch_size(t) == b for t in range(t0, t1))
        assert k == 1 or n_seeds * k * width <= words
        assert t1 == horizon or plan.batch_size(t1) != b or n_seeds * (k + 1) * width > words


def _oracle_plan(scheme, data):
    """A plan of batch sizes up to 16, so both shuffle paths (b < 8 and
    b >= 8), with non-uniform weights where the scheme allows them, and up
    to four strata drawn one to three times each."""
    large = [100, 1000] + ([10**6] if scheme == "no_repetition" else [])
    n = data.draw(st.integers(1, 24) | st.sampled_from(large))
    if scheme == "no_repetition" or data.draw(st.booleans()):
        space = FiniteSampleSpace.uniform(n)
    else:
        raw = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n) + 0.01
        space = FiniteSampleSpace(raw / raw.sum())
    if scheme == "stratified":
        order = data.draw(st.permutations(range(n))) if n <= 24 else list(range(n))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        strata = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        return StratifiedPlan(space, strata, [data.draw(st.integers(1, 3)) for _ in strata])
    top = min(16, n) if scheme == "no_repetition" else 16
    kind = data.draw(st.sampled_from(["constant", "geometric", "explicit"]))
    if kind == "constant":
        sizes = BatchSizes.constant(data.draw(st.integers(1, top)))
    elif kind == "geometric":
        sizes = BatchSizes.geometric(1, data.draw(st.floats(1.0, 3.0)), top)
    else:
        sizes = BatchSizes.explicit(data.draw(st.lists(st.integers(1, top), min_size=80,
                                                       max_size=80)))
    return (SegmentPlan if scheme == "segment" else SubsetPlan)(space, sizes)


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(["segment", "no_repetition", "stratified"]),
       s_count=st.sampled_from([1, 7, 8, 100]), t0=st.integers(1, 40), data=st.data())
def test_draws_equal_the_rowmajor_oracle(scheme, s_count, t0, data):
    plan = _oracle_plan(scheme, data)
    end = plan.sizes.run_end(t0, t0 + 30)
    t1 = data.draw(st.integers(t0 + 1, end))
    seeds = np.array(data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=s_count,
                                        max_size=s_count)))
    got = plan.draw(t0, t1, seeds)
    assert got.shape == (s_count, t1 - t0, plan.batch_size(t0))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, rowmajor_draw(plan, t0, t1, seeds))


@pytest.mark.parametrize("b", range(1, 17))
def test_sort_network_sorts_every_zero_one_input(b):
    # a comparator network that sorts every 0-1 input sorts every input
    # (Knuth's 0-1 principle): the 2**b patterns are the columns of the rows
    rows = (np.arange(2**b) >> np.arange(b)[:, None]) & 1
    np.testing.assert_array_equal(np.stack(batching._sort_network(list(rows))),
                                  np.sort(rows, axis=0))


@settings(max_examples=100, deadline=None)
@given(b=st.integers(1, 16), width=st.integers(1, 50), top=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1))
def test_sort_network_equals_np_sort_with_ties(b, width, top, seed):
    rows = np.random.default_rng(seed).integers(-top, top + 1, size=(b, width))
    np.testing.assert_array_equal(np.stack(batching._sort_network(list(rows))),
                                  np.sort(rows, axis=0))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["constant", "geometric", "explicit"]), horizon=st.integers(0, 120),
       n_seeds=st.sampled_from([1, 3, 100]), d=st.integers(1, 12),
       words=st.integers(1, 3000), data=st.data())
def test_blocks_cut_at_change_points_equal_the_step_walk(kind, horizon, n_seeds, d, words,
                                                          data):
    # geometric sizes reach their cap inside the horizon or not, lists repeat
    space = FiniteSampleSpace.uniform(20)
    if kind == "constant":
        sizes = BatchSizes.constant(data.draw(st.integers(1, 20)))
    elif kind == "geometric":
        base = data.draw(st.integers(1, 4))
        sizes = BatchSizes.geometric(base, data.draw(st.floats(1.0, 1.5)),
                                     data.draw(st.integers(base, 20)))
    else:
        runs = data.draw(st.lists(st.tuples(st.integers(1, 20), st.integers(1, 30)),
                                  min_size=1, max_size=12))
        values = [b for b, rep in runs for _ in range(rep)]
        values += [values[-1]] * max(0, horizon - len(values))
        sizes = BatchSizes.explicit(values)
    plan = SegmentPlan(space, sizes)
    with mock.patch.object(budget, "WORDS", words):
        assert list(driver._blocks(plan, horizon, n_seeds, d)) == \
            list(walked_blocks(plan, horizon, n_seeds, d))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(8, 40), base=st.integers(1, 64), room=st.integers(0, 2**20),
       t=st.integers(0, 40).flatmap(lambda e: st.integers(0, 2**e)),
       window=st.integers(1, 10**4))
def test_run_end_equals_the_step_walk_far_out(k, base, room, t, window):
    # growth 1 + 2**-k multiplies the size by e every 2**k steps: t of every
    # magnitude up to 2**40 meets runs longer than the window, runs of one
    # step and the cap, and bisection on ``at`` must find the walk's end
    sizes = BatchSizes.geometric(base, 1.0 + 2.0**-k, base + room)
    assert sizes.run_end(t, t + window) == walked_run_end(sizes, t, t + window)
