import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsgd import (
    AdaptiveRate,
    ExplicitSchedule,
    InvalidHyperparameters,
    PowerLawSchedule,
    cumulative_squares,
    sum_of_squares,
    validate_robbins_monro,
)

from rsgd import budget
from rsgd.schedules import _SQUARE_SUM_TERMS

from reference import AdaptiveState, one_buffer_sum_of_squares, one_shot_sum_of_squares

# zeta(1.5) * 0.25, the exact sum of (0.5/(t+1)^0.75)^2
SIGMA_HALF_34 = 0.6530938371713720


class TestDeterministic:
    def test_power_law_values(self):
        s = PowerLawSchedule(0.5, 0.75)
        assert s.gamma(0) == 0.5
        assert s.gamma(15) == pytest.approx(0.0625)  # 16^0.75 = 8

    def test_clamped_at_one(self):
        s = PowerLawSchedule(3.0, 0.75)
        assert s.gamma(0) == 1.0
        assert s.gamma(100) < 1.0
        assert s.max_gamma() == 1.0

    def test_explicit_list(self):
        s = ExplicitSchedule((0.1, 0.05))
        assert s.gamma(1) == 0.05
        with pytest.raises(IndexError):
            s.gamma(2)

    def test_explicit_validation(self):
        with pytest.raises(ValueError):
            ExplicitSchedule((0.1, 1.5))
        with pytest.raises(ValueError):
            ExplicitSchedule((0.0,))

    @pytest.mark.parametrize("c, p", [
        (0.5, np.nan), (0.5, np.inf), (0.5, -np.inf), (np.inf, 0.75), (np.nan, 0.75),
        (0.0, 0.75), (-0.5, 0.75),
    ])
    def test_power_law_needs_finite_c_and_p(self, c, p):
        # a NaN exponent used to construct and pass the Robbins-Monro check
        with pytest.raises(ValueError):
            PowerLawSchedule(c, p)

    @pytest.mark.parametrize("p,valid", [
        (0.4, False), (0.5, False), (0.51, True), (0.75, True), (1.0, True), (1.2, False),
    ])
    def test_robbins_monro_grid(self, p, valid):
        assert validate_robbins_monro(PowerLawSchedule(0.5, p)).valid is valid

    def test_explicit_never_valid(self):
        res = validate_robbins_monro(ExplicitSchedule((0.1, 0.1)))
        assert not res.valid and "finite" in res.reason

    def test_sum_of_squares_matches_zeta_value(self):
        assert sum_of_squares(PowerLawSchedule(0.5, 0.75)) == pytest.approx(
            SIGMA_HALF_34, abs=1e-4)

    def test_sum_of_squares_explicit(self):
        assert sum_of_squares(ExplicitSchedule((0.1, 0.2))) == pytest.approx(0.05)

    def test_sum_of_squares_equals_its_one_shot_form_bitwise(self):
        # p = 1.0 and 2.0 are exponents numpy's ``**`` treats apart
        for c in (0.05, 0.5, 1.0, 3.0):
            for p in (0.51, 0.6, 0.75, 0.9, 1.0, 1.5, 2.0):
                s = PowerLawSchedule(c, p)
                assert sum_of_squares(s).hex() == one_shot_sum_of_squares(s).hex(), (c, p)

    def test_sum_of_squares_memory_is_bounded(self):
        # one float64 per term of a leaf of the pairwise walk; one buffer of
        # all the terms held 7.6 MiB
        tracemalloc.start()
        try:
            sum_of_squares(PowerLawSchedule(0.5, 0.75))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * budget.WORDS + 64 * 1024

    @pytest.mark.parametrize("words", [1, 100, 128, 1000, 1 << 20])
    def test_sum_of_squares_keeps_its_bits_under_any_word_budget(self, words):
        # below numpy's pairwise block of 128 the leaves stay at 128 terms
        s = PowerLawSchedule(0.5, 0.75)
        with mock.patch.object(budget, "WORDS", words):
            assert sum_of_squares(s).hex() == one_buffer_sum_of_squares(s).hex()

    @settings(max_examples=40, deadline=None)
    @given(c=st.floats(1e-3, 10.0), p=st.floats(0.5, 3.0, exclude_min=True))
    def test_sum_of_squares_has_the_bits_of_one_buffer(self, c, p):
        s = PowerLawSchedule(c, p)
        assert sum_of_squares(s).hex() == one_buffer_sum_of_squares(s).hex(), (c, p)

    def test_sum_of_squares_is_inf_where_c_squared_overflows(self):
        # c**2 once raised OverflowError
        s = PowerLawSchedule(1e308, 0.75)
        assert sum_of_squares(s) == np.inf

    @pytest.mark.parametrize("c", [1e-308, 0.5, 3.0, 1e308])
    def test_power_law_rate_never_raises(self, c):
        # where c / (t+1)^p is computed it keeps its bits; where (t+1)^p
        # overflows the rate is taken in logs, and where it underflows to 0
        # the rate clamps to 1
        for p in (-1e308, -100.0, -1.0, -0.5, 0.0, 0.5, 0.75, 1.0, 2.0, 100.0, 1e308):
            s = PowerLawSchedule(c, p)
            for t in (0, 1, 2, 10, 1000, 2000, 10**6, 10**12):
                try:
                    rate = min(1.0, c / (t + 1.0) ** p)
                except OverflowError:
                    rate = min(1.0, math.exp(math.log(c) - p * math.log(t + 1.0)))
                except ZeroDivisionError:
                    rate = 1.0
                assert s.gamma(t).hex() == rate.hex(), (c, p, t)
        assert PowerLawSchedule(1e308, 100.0).gamma(2000) == pytest.approx(7.5e-23, rel=0.01)

    def test_sum_of_squares_is_upper_bound(self):
        s = PowerLawSchedule(0.5, 0.75)
        sigma = sum_of_squares(s)
        partial = cumulative_squares(s, 200000)[-1]
        assert sigma >= partial

    def test_cumulative_squares_carried_over_blocks(self):
        # the sums of consecutive blocks, each from the last one's end, are
        # those of one call
        s = PowerLawSchedule(0.5, 0.75)
        parts, base, t = [], 0.0, 0
        for k in (1, 7, 100, 892):
            cum = cumulative_squares(s, t + k, t, base)
            parts.append(cum[:-1])
            base, t = cum[-1], t + k
        got = np.concatenate(parts + [[base]])
        assert got.tobytes() == cumulative_squares(s, 1000).tobytes()

    def test_cumulative_squares(self):
        s = PowerLawSchedule(0.5, 0.75)
        cs = cumulative_squares(s, 5)
        direct = np.cumsum([s.gamma(t) ** 2 for t in range(5)])
        assert cs[0] == 0.0
        np.testing.assert_allclose(cs[1:], direct, rtol=1e-15)


class TestAdaptive:
    def test_hyperparameter_validation(self):
        with pytest.raises(InvalidHyperparameters):
            AdaptiveRate(0.5, 1.0, 0.0)
        with pytest.raises(InvalidHyperparameters):
            AdaptiveRate(0.5, 1.0, 0.6)
        with pytest.raises(InvalidHyperparameters):
            AdaptiveRate(2.0, 1.0, 0.25)  # alpha > beta^(1/2+eps)
        with pytest.raises(InvalidHyperparameters):
            AdaptiveRate(-0.5, 1.0, 0.25)

    def test_eta_worked_values(self):
        st = AdaptiveState(AdaptiveRate(1.0, 4.0, 0.5))
        assert st.eta() == pytest.approx(0.25)  # 1 / 4^1
        st = AdaptiveState(AdaptiveRate(1.0, 1.0, 0.5))
        st.update(3.0)
        assert st.eta() == pytest.approx(0.25)  # 1 / (1 + 3)
        st = AdaptiveState(AdaptiveRate(1.0, 1.0, 0.25))
        st.update(15.0)
        assert st.eta() == pytest.approx(0.125)  # 16^(-0.75)

    def test_eta0_at_most_one(self):
        for rate in (AdaptiveRate(0.5, 1.0, 0.25), AdaptiveRate(1.0, 1.0, 0.5),
                     AdaptiveRate(0.1, 4.0, 0.3)):
            assert rate.eta0() <= 1.0

    def test_zero_update_leaves_eta(self):
        st = AdaptiveState(AdaptiveRate(0.5, 1.0, 0.25))
        before = st.eta()
        st.update(0.0)
        assert st.eta() == before

    def test_update_additivity(self):
        a = AdaptiveState(AdaptiveRate(0.5, 1.0, 0.25))
        a.update(1.0)
        a.update(3.0)
        b = AdaptiveState(AdaptiveRate(0.5, 1.0, 0.25))
        b.update(4.0)
        assert a.accumulated == b.accumulated
        assert a.eta() == b.eta()

    def test_eta_strictly_decreases_on_positive_updates(self):
        st = AdaptiveState(AdaptiveRate(0.5, 1.0, 0.25))
        rng = np.random.default_rng(0)
        prev = st.eta()
        for g in rng.uniform(0.01, 1.0, size=200):
            st.update(g)
            cur = st.eta()
            assert cur < prev
            prev = cur

    def test_negative_update_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveState(AdaptiveRate(0.5, 1.0, 0.25)).update(-1.0)

    def test_compensated_sum_survives_many_tiny_terms(self):
        st = AdaptiveState(AdaptiveRate(0.5, 1.0, 0.25))
        st.update(1.0)
        tiny = 1e-18
        for _ in range(1000):
            st.update(tiny)
        assert st.accumulated == pytest.approx(1.0 + 1000 * tiny, rel=1e-15)

    def test_partial_sums_dominate_worst_case_divergent_series(self):
        # with gradients bounded by A, sum eta_t >= sum alpha/(beta + t A^2)^(1/2+eps)
        rate = AdaptiveRate(0.5, 1.0, 0.25)
        big_a = 3.0
        st = AdaptiveState(rate)
        total = 0.0
        worst = 0.0
        for t in range(10000):
            total += st.eta()
            worst += rate.alpha / (rate.beta + t * big_a**2) ** rate.exponent
            st.update(np.random.default_rng(t).uniform(0, big_a**2))
        assert total >= worst

    def test_square_sum_bound_value(self):
        assert AdaptiveRate(0.5, 1.0, 0.25).square_sum_bound() == pytest.approx(0.5)
