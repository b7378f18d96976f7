import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (kuiper_permutation_pvalue, reference_chi2_sf,
                     two_sample_kuiper_v, union_grid_kuiper_v)
from survclust import km_fit_arrays, kuiper_matrix, kuiper_pvalue, logrank_test
from survclust.errors import (EmptySampleError, InvalidCountError,
                              InvalidEventCountError, NoEventsError)
from survclust.kaplan_meier import km_eval_many
from survclust.twosample import _chi2_sf, kuiper_log_pvalue


def uncensored(times):
    return [(float(t), True) for t in times]


def uncensored_curve(times):
    return km_fit_arrays(times, np.ones(len(times), dtype=bool))


class TestKuiperStatistic:
    def test_identical_curves(self):
        curve = uncensored_curve([1.0, 2.0, 5.0])
        assert kuiper_matrix([curve, curve])[0][0, 1] == 0.0

    def test_single_death_hand_case(self):
        a = km_fit_arrays([1.0], [True])
        b = km_fit_arrays([2.0], [True])
        assert kuiper_matrix([a, b])[0][0, 1] == pytest.approx(1.0)

    def test_crossing_curves_exceed_one_sided_distances(self):
        # a falls first then flattens; b starts above and crosses below
        a = uncensored_curve([1.0, 1.5, 8.0, 9.0, 10.0, 11.0])
        b = uncensored_curve([3.0, 3.5, 4.0, 4.5, 5.0, 6.0])
        grid = np.union1d(a.event_times, b.event_times)
        diff = km_eval_many(a, grid) - km_eval_many(b, grid)
        d_plus, d_minus = diff.max(), (-diff).max()
        assert d_plus > 0 and d_minus > 0
        v = kuiper_matrix([a, b])[0][0, 1]
        assert v == pytest.approx(d_plus + d_minus)
        assert v > d_plus and v > d_minus

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = uncensored_curve(rng.exponential(1.0, 30))
        b = uncensored_curve(rng.exponential(2.0, 20))
        assert kuiper_matrix([a, b])[0][0, 1] == kuiper_matrix([b, a])[0][0, 1]

    def test_matches_classic_statistic_on_uncensored_data(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = rng.uniform(0, 1, 25)
            ys = rng.uniform(0, 1, 35)
            lib = kuiper_matrix([uncensored_curve(xs), uncensored_curve(ys)])[0][0, 1]
            assert lib == pytest.approx(two_sample_kuiper_v(xs, ys), abs=1e-12)

    def test_range(self):
        a = uncensored_curve([1.0, 2.0])
        b = uncensored_curve([10.0, 20.0])
        v = kuiper_matrix([a, b])[0][0, 1]
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


class TestChi2Sf:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 3000.0))
    def test_matches_decimal_oracle(self, df, x):
        p, ref = _chi2_sf(x, df), reference_chi2_sf(x, df)
        if ref >= 1e-290:
            assert p == pytest.approx(ref, rel=1e-12, abs=0)
        else:
            assert p < 1e-290
        assert 0.0 <= p <= 1.0
        assert p >= _chi2_sf(x + 1, df)

    def test_zero_statistic(self):
        assert [_chi2_sf(0.0, df) for df in (1, 2, 3, 10)] == [1.0] * 4

    def test_two_degrees_of_freedom_is_exponential(self):
        # the finite sum is the single term e^-y from the mean x = 2 up
        for x in (2.0, 3.5, 10.0, 123.456, 1400.0):
            assert _chi2_sf(x, 2) == math.exp(-x / 2)
        for x in (1e-8, 0.5, 1.999):
            assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-15, abs=0)

    @pytest.mark.parametrize("x, df", [(3.8414588206941285, 1), (5.991464547107983, 2),
                                       (7.814727903251178, 3), (18.30703805327515, 10)])
    def test_95_percent_points(self, x, df):
        assert _chi2_sf(x, df) == pytest.approx(0.05, abs=1e-12)


class TestKuiperTestOnCurves:
    def test_uses_event_counts(self):
        rng = np.random.default_rng(41)
        # same lifetimes, but heavy censoring shrinks the event counts
        times = rng.exponential(1.0, 200)
        full = uncensored_curve(times)
        censored = km_fit_arrays(times, np.arange(times.size) % 4 == 0)
        v, p = kuiper_matrix([full, full, censored])
        assert p[0, 1] == 1.0
        # the p-value is taken at the curves' event counts, not their sizes
        assert censored.n_events == 50
        assert p[0, 2] == kuiper_pvalue(v[0, 2], full.n_events, 50).p_value
        assert p[0, 2] != kuiper_pvalue(v[0, 2], 200, 200).p_value

    def test_separated_curves_reject(self):
        rng = np.random.default_rng(43)
        a = uncensored_curve(rng.exponential(0.2, 100))
        b = uncensored_curve(rng.exponential(5.0, 100))
        assert kuiper_matrix([a, b])[1][0, 1] < 1e-8


# Half-unit times tie across and within curves; a curve may hold one event.
curve_samples = st.lists(st.tuples(st.integers(0, 12).map(lambda k: k / 2), st.booleans()),
                         min_size=1, max_size=25).filter(lambda rows: any(e for _, e in rows))


def fitted(samples):
    times, events = zip(*samples)
    return km_fit_arrays(np.array(times), np.array(events))


class TestKuiperMatrix:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 2, 6]).flatmap(lambda g: st.lists(curve_samples,
                                                                  min_size=g, max_size=g)))
    def test_matches_union_grid_oracle(self, samples):
        curves = [fitted(rows) for rows in samples]
        v, p = kuiper_matrix(curves)
        g = len(curves)
        assert v.shape == p.shape == (g, g)
        for i in range(g):
            for j in range(g):
                assert v[i, j] == union_grid_kuiper_v(curves[i], curves[j])
                assert p[i, j] == kuiper_pvalue(v[i, j], curves[i].n_events,
                                                curves[j].n_events).p_value
        assert np.array_equal(v, v.T) and np.array_equal(p, p.T)
        assert np.all(np.diag(v) == 0.0) and np.all(np.diag(p) == 1.0)
        assert np.all((v >= 0) & (v <= 1)) and np.all((p >= 0) & (p <= 1))

    def test_one_event_curves(self):
        a = km_fit_arrays(np.array([1.0, 2.0]), np.array([True, False]))
        b = km_fit_arrays(np.array([3.0]), np.array([True]))
        v, p = kuiper_matrix([a, b])
        assert v[0, 1] == 1.0
        assert p[0, 1] == kuiper_pvalue(1.0, 1, 1).p_value

    def test_statistic_is_the_two_curve_matrix(self):
        rng = np.random.default_rng(44)
        a = km_fit_arrays(rng.exponential(1.0, 60), rng.random(60) < 0.7)
        b = km_fit_arrays(rng.exponential(1.5, 40), rng.random(40) < 0.7)
        assert kuiper_matrix([a, b])[0][0, 1] == kuiper_matrix([b, a])[0][1, 0]
        assert kuiper_matrix([a, b])[0][0, 1] == union_grid_kuiper_v(a, b)
