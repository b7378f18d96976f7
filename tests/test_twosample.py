import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import kuiper_permutation_pvalue, two_sample_kuiper_v
from survclust import (bonferroni_threshold, km_eval, km_fit, kuiper_pvalue,
                       kuiper_statistic, kuiper_test, logrank_test)
from survclust.errors import (EmptySampleError, InvalidAlphaError,
                              InvalidCountError, InvalidEventCountError,
                              NoEventsError)
from survclust.twosample import kuiper_log_pvalue


def uncensored(times):
    return [(float(t), True) for t in times]


class TestKuiperStatistic:
    def test_identical_curves(self):
        curve = km_fit(uncensored([1.0, 2.0, 5.0]))
        assert kuiper_statistic(curve, curve) == 0.0

    def test_single_death_hand_case(self):
        a = km_fit([(1.0, True)])
        b = km_fit([(2.0, True)])
        assert kuiper_statistic(a, b) == pytest.approx(1.0)

    def test_crossing_curves_exceed_one_sided_distances(self):
        # a falls first then flattens; b starts above and crosses below
        a = km_fit(uncensored([1.0, 1.5, 8.0, 9.0, 10.0, 11.0]))
        b = km_fit(uncensored([3.0, 3.5, 4.0, 4.5, 5.0, 6.0]))
        grid = np.union1d(a.event_times, b.event_times)
        diff = np.array([km_eval(a, t) - km_eval(b, t) for t in grid])
        d_plus, d_minus = diff.max(), (-diff).max()
        assert d_plus > 0 and d_minus > 0
        v = kuiper_statistic(a, b)
        assert v == pytest.approx(d_plus + d_minus)
        assert v > d_plus and v > d_minus

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = km_fit(uncensored(rng.exponential(1.0, 30)))
        b = km_fit(uncensored(rng.exponential(2.0, 20)))
        assert kuiper_statistic(a, b) == kuiper_statistic(b, a)

    def test_matches_classic_statistic_on_uncensored_data(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = rng.uniform(0, 1, 25)
            ys = rng.uniform(0, 1, 35)
            lib = kuiper_statistic(km_fit(uncensored(xs)), km_fit(uncensored(ys)))
            assert lib == pytest.approx(two_sample_kuiper_v(xs, ys), abs=1e-12)

    def test_range(self):
        a = km_fit(uncensored([1.0, 2.0]))
        b = km_fit(uncensored([10.0, 20.0]))
        v = kuiper_statistic(a, b)
        assert 0.0 <= v <= 2.0


class TestKuiperPvalue:
    def test_zero_statistic(self):
        assert kuiper_pvalue(0.0, 10, 10).p_value == 1.0

    def test_maximal_statistic(self):
        assert kuiper_pvalue(2.0, 100, 100).p_value < 1e-12

    def test_effective_n(self):
        res = kuiper_pvalue(0.5, 40, 60)
        assert res.effective_n == pytest.approx(24.0)
        assert res.statistic == 0.5

    def test_monotone_in_v(self):
        ps = [kuiper_pvalue(v, 50, 50).p_value for v in np.linspace(0, 1.5, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))

    def test_monotone_in_effective_n(self):
        ps = [kuiper_pvalue(0.4, n, n).p_value for n in (5, 10, 20, 50, 100, 400)]
        assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))

    def test_invalid_event_counts(self):
        with pytest.raises(InvalidEventCountError):
            kuiper_pvalue(0.5, 0, 10)
        with pytest.raises(InvalidEventCountError):
            kuiper_pvalue(0.5, 10, 0)

    def test_agrees_with_permutation_oracle(self):
        # With equal sample sizes of 50, the statistic is a multiple of 1/50,
        # so the tail event {V >= 0.25} is exactly {V >= 0.26}; the asymptotic
        # estimate of that same event must match the permutation estimate.
        rng = np.random.default_rng(17)
        xs = rng.uniform(0, 1, 50)
        ys = rng.uniform(0, 1, 50)
        p_asymptotic = kuiper_pvalue(0.26, 50, 50).p_value
        p_perm = kuiper_permutation_pvalue(xs, ys, 0.25, n_perm=10_000, seed=99)
        assert abs(p_asymptotic - p_perm) <= 0.02


def kuiper_lambda(v, n_a, n_b):
    n_eff = n_a * n_b / (n_a + n_b)
    return (np.sqrt(n_eff) + 0.155 + 0.24 / np.sqrt(n_eff)) * v


class TestKuiperLogPvalue:
    SIZES = [(5, 7), (40, 60), (1000, 3000), (20000, 25000)]

    def test_matches_pvalue_where_representable(self):
        checked = 0
        for n_a, n_b in self.SIZES:
            for v in np.linspace(0.0, 2.0, 400):
                p = kuiper_pvalue(v, n_a, n_b).p_value
                if p > 1e-300:
                    assert np.exp(kuiper_log_pvalue(v, n_a, n_b)) == pytest.approx(p, rel=1e-12)
                    checked += 1
        assert checked > 500

    def test_strictly_decreasing_above_floor(self):
        for n_a, n_b in self.SIZES:
            vs = np.linspace(0.0, 2.0, 2000)
            vs = vs[kuiper_lambda(vs, n_a, n_b) >= 0.4]
            log_p = kuiper_log_pvalue(vs, n_a, n_b)
            assert np.all(np.isfinite(log_p))
            assert np.all(np.diff(log_p) < 0)

    def test_finite_where_pvalue_underflows(self):
        # lambda = 40: p rounds to 0 but the log keeps its magnitude
        v = 40.0 / kuiper_lambda(1.0, 10000, 10000)
        assert kuiper_pvalue(v, 10000, 10000).p_value == 0.0
        log_p = kuiper_log_pvalue(v, 10000, 10000)
        assert log_p == pytest.approx(np.log(2 * (4 * 1600 - 1)) - 2 * 1600, rel=1e-12)

    def test_zero_below_floor(self):
        assert kuiper_log_pvalue(0.0, 10, 10) == 0.0
        assert kuiper_log_pvalue(0.05, 10, 10) == 0.0

    def test_arrays_match_scalars(self):
        vs = np.array([0.0, 0.3, 0.8, 1.5])
        n_a = np.array([10, 50, 200, 5000])
        batch = kuiper_log_pvalue(vs, n_a, 80)
        assert batch.shape == (4,)
        assert list(batch) == [kuiper_log_pvalue(v, int(a), 80) for v, a in zip(vs, n_a)]

    def test_invalid_inputs(self):
        with pytest.raises(InvalidEventCountError):
            kuiper_log_pvalue(np.array([0.5, 0.5]), np.array([3, 0]), 10)
        with pytest.raises(ValueError):
            kuiper_log_pvalue(-0.1, 10, 10)


class TestLogrank:
    def test_identical_groups(self):
        g = [(1.0, True), (2.0, False), (3.0, True)]
        res = logrank_test([g, list(g)])
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_hand_case(self):
        # O_A = 2, E_A = 5/6, V = 0.25 + 2/9 -> chi2 = 49/17
        a = uncensored([1.0, 2.0])
        b = uncensored([3.0, 4.0])
        res = logrank_test([a, b])
        assert res.statistic == pytest.approx(49 / 17)
        assert res.statistic == pytest.approx(2.882, abs=1e-3)

    def test_statistic_grows_linearly_in_n(self):
        # perfectly separated groups: chi-squared scales with sample size
        def stat(n):
            a = uncensored(np.linspace(1, 2, n))
            b = uncensored(np.linspace(10, 11, n))
            return logrank_test([a, b]).statistic

        s100, s200, s400 = stat(100), stat(200), stat(400)
        assert s200 / s100 == pytest.approx(2.0, rel=0.1)
        assert s400 / s200 == pytest.approx(2.0, rel=0.1)

    def test_three_groups_null(self):
        rng = np.random.default_rng(23)
        pvals = []
        for _ in range(60):
            groups = [uncensored(rng.exponential(1.0, 40)) for _ in range(3)]
            pvals.append(logrank_test(groups).p_value)
        # under the null, p-values are roughly uniform
        assert 0.2 < np.mean(pvals) < 0.8
        assert min(pvals) < 0.5 < max(pvals)

    def test_three_groups_separated(self):
        rng = np.random.default_rng(29)
        groups = [uncensored(rng.exponential(scale, 80)) for scale in (0.3, 1.0, 4.0)]
        assert logrank_test(groups).p_value < 1e-10

    def test_time_transform_invariance(self):
        rng = np.random.default_rng(31)
        a = [(float(t), bool(e)) for t, e in zip(rng.exponential(1, 40), rng.integers(0, 2, 40))]
        b = [(float(t), True) for t in rng.exponential(2, 30)]
        base = logrank_test([a, b]).statistic
        warped = logrank_test([[(np.expm1(t), e) for t, e in g] for g in (a, b)]).statistic
        assert warped == pytest.approx(base)

    def test_degenerate_variance(self):
        # every death happens while group B is already gone from the risk set
        a = uncensored([1.0, 2.0])
        b = [(0.5, False), (0.5, False)]
        res = logrank_test([a, b])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_preconditions(self):
        with pytest.raises(InvalidCountError):
            logrank_test([uncensored([1.0])])
        with pytest.raises(EmptySampleError):
            logrank_test([uncensored([1.0]), []])
        with pytest.raises(NoEventsError):
            logrank_test([[(1.0, False)], [(2.0, False)]])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 6).map(float), st.booleans()),
                             min_size=1, max_size=15), min_size=2, max_size=4),
           st.randoms(use_true_random=False))
    def test_bit_identical_under_shuffles_within_groups(self, groups, rnd):
        assume(any(e for grp in groups for _, e in grp))
        shuffled = [rnd.sample(grp, len(grp)) for grp in groups]
        a, b = logrank_test(groups), logrank_test(shuffled)
        assert [x.hex() for x in (a.statistic, a.p_value, a.effective_n)] == \
            [x.hex() for x in (b.statistic, b.p_value, b.effective_n)]


class TestBonferroni:
    def test_single_test(self):
        assert bonferroni_threshold(0.05, 1) == 0.05

    def test_ten_tests(self):
        assert bonferroni_threshold(0.05, 10) == pytest.approx(0.005)

    def test_five_hundred_tests(self):
        assert bonferroni_threshold(0.05, 500) == pytest.approx(1e-4)

    def test_invalid_alpha(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidAlphaError):
                bonferroni_threshold(alpha, 5)

    def test_invalid_count(self):
        with pytest.raises(InvalidCountError):
            bonferroni_threshold(0.05, 0)


class TestKuiperTestOnCurves:
    def test_uses_event_counts(self):
        rng = np.random.default_rng(41)
        # same lifetimes, but heavy censoring shrinks the event counts
        times = rng.exponential(1.0, 200)
        full = km_fit(uncensored(times))
        res = kuiper_test(full, full)
        assert res.p_value == 1.0
        assert res.effective_n == pytest.approx(full.n_events / 2)

    def test_separated_curves_reject(self):
        rng = np.random.default_rng(43)
        a = km_fit(uncensored(rng.exponential(0.2, 100)))
        b = km_fit(uncensored(rng.exponential(5.0, 100)))
        assert kuiper_test(a, b).p_value < 1e-8
