import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survclust import Feature, FeatureSchema, SurvivalDataset
from survclust.errors import (InvalidHorizonsError, NoEventsError,
                              SingleClassError)
from survclust.evaluation import (ClassificationReport, classify_and_score,
                                  cox_hazard_ratio, logistic_fit, one_hot,
                                  predict_proba, survival_labels)
from survclust.twosample import logrank_test


def triples(times, events, group):
    return list(zip(times, events, group))


class TestCoxHazardRatio:
    def test_exchangeable_groups(self):
        times = [1.0, 2.0, 3.0, 4.0]
        rows = triples(times + times, [True] * 8, [0] * 4 + [1] * 4)
        res = cox_hazard_ratio(rows)
        assert res.beta == pytest.approx(0.0, abs=1e-9)
        assert res.hazard_ratio == pytest.approx(1.0, abs=1e-9)
        assert not res.diverged

    def test_monte_carlo_rate_ratio(self):
        rng = np.random.default_rng(20)
        n = 5000
        t0 = rng.exponential(1.0, n)
        t1 = rng.exponential(1.0 / 3.0, n)
        rows = triples(np.r_[t0, t1], [True] * (2 * n), [0] * n + [1] * n)
        res = cox_hazard_ratio(rows)
        assert 2.8 <= res.hazard_ratio <= 3.2
        assert res.ci95[0] < res.hazard_ratio < res.ci95[1]
        assert res.std_err > 0

    def test_label_swap_inverts(self):
        rng = np.random.default_rng(21)
        times = np.r_[rng.exponential(1.0, 300), rng.exponential(0.4, 300)]
        events = rng.random(600) < 0.8
        events[:5] = True
        events[300:305] = True
        group = np.r_[np.zeros(300, dtype=int), np.ones(300, dtype=int)]
        res = cox_hazard_ratio(triples(times, events, group))
        swapped = cox_hazard_ratio(triples(times, events, 1 - group))
        assert abs(swapped.hazard_ratio - 1.0 / res.hazard_ratio) < 1e-9

    def test_time_rescaling_leaves_beta(self):
        rng = np.random.default_rng(22)
        times = np.r_[rng.exponential(1.0, 200), rng.exponential(0.5, 200)]
        events = np.ones(400, dtype=bool)
        group = np.r_[np.zeros(200, dtype=int), np.ones(200, dtype=int)]
        base = cox_hazard_ratio(triples(times, events, group))
        scaled = cox_hazard_ratio(triples(times * 7.3, events, group))
        assert abs(scaled.beta - base.beta) < 1e-9

    def test_separation_flags_divergence(self):
        # every mixed-risk death is in group 1; beta runs away
        rows = [(1.0, True, 1), (2.0, True, 1), (3.0, True, 1),
                (10.0, True, 0), (11.0, True, 0)]
        res = cox_hazard_ratio(rows)
        assert res.diverged
        assert abs(res.beta) > 20.0

    def test_runaway_step_gives_infinite_ratio_without_warning(self):
        # a single group-1 subject dies first, tied with group 0: one Newton
        # step leaves beta in the thousands, past exp's float64 range
        rows = [(0.0, True, 1), (2.0, True, 0), (2.0, False, 0), (3.0, True, 0),
                (4.0, False, 0), (0.0, False, 0), (6.0, True, 0), (6.0, False, 0),
                (0.0, True, 0), (2.0, True, 0)]
        res = cox_hazard_ratio(rows)  # warnings are errors in this suite
        assert res.diverged
        assert res.beta > 709.0
        assert res.hazard_ratio == float("inf")

    def test_no_events_in_group(self):
        rows = [(1.0, True, 0), (2.0, False, 1)]
        with pytest.raises(NoEventsError):
            cox_hazard_ratio(rows)

    def test_direction_agrees_with_logrank(self):
        rng = np.random.default_rng(23)
        fast = rng.exponential(0.3, 150)
        slow = rng.exponential(1.5, 150)
        rows = triples(np.r_[fast, slow], [True] * 300,
                       [1] * 150 + [0] * 150)
        res = cox_hazard_ratio(rows)
        # group 1 dies faster -> beta > 0; log-rank O-E for group 1 positive
        assert res.beta > 0
        groups = [[(t, True) for t in slow], [(t, True) for t in fast]]
        assert logrank_test(groups).p_value < 1e-6

    @staticmethod
    def observed_minus_expected(times, events, group):
        """Direct O1 - E1 accumulation, independent of the library path."""
        diff = 0.0
        for t in sorted({t for t, e in zip(times, events) if e}):
            at_risk = times >= t
            d = float(np.sum(events & (times == t)))
            d1 = float(np.sum(events & (times == t) & (group == 1)))
            diff += d1 - d * np.sum(at_risk & (group == 1)) / np.sum(at_risk)
        return diff

    def test_sign_identity_between_logrank_and_cox(self):
        rng = np.random.default_rng(27)
        for trial in range(10):
            scale1 = float(rng.uniform(0.3, 3.0))
            times = np.r_[rng.exponential(1.0, 80), rng.exponential(scale1, 80)]
            events = rng.random(160) < 0.85
            group = np.r_[np.zeros(80, dtype=int), np.ones(80, dtype=int)]
            if not (events[:80].any() and events[80:].any()):
                continue
            res = cox_hazard_ratio(triples(times, events, group))
            o_minus_e = self.observed_minus_expected(times, events, group)
            if abs(o_minus_e) < 1e-9 or abs(res.beta) < 1e-9:
                continue
            assert np.sign(o_minus_e) == np.sign(res.beta)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6).map(float), st.booleans(), st.integers(0, 1)),
                    min_size=2, max_size=30),
           st.randoms(use_true_random=False))
    def test_bit_identical_under_row_shuffles(self, rows, rnd):
        assume(all(any(e for _, e, g in rows if g == x) for x in (0, 1)))
        a = cox_hazard_ratio(rows)
        b = cox_hazard_ratio(rnd.sample(rows, len(rows)))
        assert [x.hex() for x in (a.beta, a.hazard_ratio, a.std_err, *a.ci95)] == \
            [x.hex() for x in (b.beta, b.hazard_ratio, b.std_err, *b.ci95)]
        assert (a.iterations, a.diverged) == (b.iterations, b.diverged)


class TestSurvivalLabels:
    def make(self, rows):
        schema = FeatureSchema((Feature("x", "numeric"),))
        ids = [f"s{i}" for i in range(len(rows))]
        return SurvivalDataset(schema, ids, [np.zeros(len(rows))],
                               np.array([t for t, _ in rows]),
                               np.array([e for _, e in rows], dtype=bool))

    def test_dead_before_t0_ineligible(self):
        ds = self.make([(3.0, True)])
        assert survival_labels(ds, 5.0, 10.0) == []

    def test_censored_in_window_excluded(self):
        ds = self.make([(7.0, False)])
        assert survival_labels(ds, 5.0, 10.0) == []

    def test_death_in_window_is_negative(self):
        ds = self.make([(8.0, True)])
        assert survival_labels(ds, 5.0, 10.0) == [("s0", False)]

    def test_survival_past_t1_is_positive_any_censoring(self):
        ds = self.make([(12.0, False), (10.0, True)])
        assert survival_labels(ds, 5.0, 10.0) == [("s0", True), ("s1", True)]

    def test_exactly_t0_excluded(self):
        ds = self.make([(5.0, True), (5.0, False)])
        assert survival_labels(ds, 5.0, 10.0) == []

    def test_monotone_in_t1(self):
        rng = np.random.default_rng(24)
        rows = [(float(t), bool(e)) for t, e in
                zip(rng.uniform(0, 20, 200), rng.integers(0, 2, 200))]
        ds = self.make(rows)
        eligible = None
        for t1 in (6.0, 9.0, 14.0, 19.0):
            ids = {sid for sid, _ in survival_labels(ds, 5.0, t1)}
            if eligible is not None:
                assert ids <= eligible
            eligible = ids

    def test_invalid_horizons(self):
        ds = self.make([(1.0, True)])
        for t0, t1 in ((0.0, 5.0), (5.0, 5.0), (7.0, 5.0), (-1.0, 5.0)):
            with pytest.raises(InvalidHorizonsError):
                survival_labels(ds, t0, t1)


class TestLogisticFit:
    def test_separable_clusters_saturate(self):
        labels = np.array([0] * 50 + [1] * 50)
        y = np.array([True] * 50 + [False] * 50)
        x = one_hot(labels, 2)
        w = logistic_fit(x, y)
        p = predict_proba(w, x)
        assert np.all(p[:50] > 0.99)
        assert np.all(p[50:] < 0.01)

    def test_uninformative_clusters_have_zero_weights(self):
        # exactly 50/50 labels inside each cluster
        labels = np.repeat([0, 1, 2], 40)
        y = np.tile([True, False], 60)
        w = logistic_fit(one_hot(labels, 3), y)
        assert np.all(np.abs(w[:3] - w[0]) < 1e-6)  # no cluster effect
        p = predict_proba(w, one_hot(labels, 3))
        assert np.allclose(p, 0.5, atol=1e-3)

    def test_saturated_model_matches_empirical_rates(self):
        rng = np.random.default_rng(25)
        k = 4
        rates = [0.2, 0.4, 0.7, 0.9]
        labels = np.repeat(np.arange(k), 200)
        y = np.concatenate([rng.random(200) < r for r in rates])
        if len(np.unique(y)) < 2:
            pytest.fail("degenerate draw")
        x = one_hot(labels, k)
        w = logistic_fit(x, y)
        p = predict_proba(w, x)
        for c in range(k):
            mask = labels == c
            assert p[mask][0] == pytest.approx(float(np.mean(y[mask])), abs=1e-3)

    def test_single_class_error(self):
        with pytest.raises(SingleClassError):
            logistic_fit(one_hot(np.array([0, 1]), 2), np.array([True, True]))

    def test_weight_vector_length(self):
        w = logistic_fit(one_hot(np.array([0, 1, 0, 1]), 2),
                         np.array([True, False, True, False]))
        assert w.shape == (3,)  # k weights + intercept


class TestClassifyAndScore:
    def test_perfect_classifier(self):
        labels = np.array([0] * 30 + [1] * 30)
        y = np.array([True] * 30 + [False] * 30)
        x = one_hot(labels, 2)
        w = logistic_fit(x, y)
        rep = classify_and_score(w, x, y)
        assert (rep.precision, rep.recall, rep.f_measure, rep.accuracy) == (1, 1, 1, 1)
        assert rep.fpr == 0.0

    def test_counts_case(self):
        rep = ClassificationReport.from_counts(tp=2, fp=1, tn=3, fn=2)
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.recall == pytest.approx(1 / 2)
        assert rep.f_measure == pytest.approx(4 / 7)
        assert rep.accuracy == pytest.approx(5 / 8)
        assert rep.fpr == pytest.approx(1 / 4)

    def test_published_row_arithmetic(self):
        # harmonic-mean identity on the reported precision/recall pair
        p, r = 0.689, 0.707
        f = 2 * p * r / (p + r)
        assert f == pytest.approx(0.698, abs=1e-3)

    def test_metric_identities_on_random_reports(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            labels = rng.integers(0, 3, 120)
            y = rng.random(120) < 0.5
            if len(np.unique(y)) < 2:
                continue
            x = one_hot(labels, 3)
            w = logistic_fit(x, y)
            rep = classify_and_score(w, x, y)
            total = rep.tp + rep.fp + rep.tn + rep.fn
            assert total == 120
            if rep.tp + rep.fp:
                assert rep.precision == pytest.approx(rep.tp / (rep.tp + rep.fp))
            if rep.tp + rep.fn:
                assert rep.recall == pytest.approx(rep.tp / (rep.tp + rep.fn))
            if rep.precision + rep.recall:
                assert rep.f_measure == pytest.approx(
                    2 * rep.precision * rep.recall / (rep.precision + rep.recall))
            assert rep.accuracy == pytest.approx((rep.tp + rep.tn) / total)
            if rep.fp + rep.tn:
                assert rep.fpr == pytest.approx(rep.fp / (rep.fp + rep.tn))

    def test_threshold_convention(self):
        # probability exactly at threshold counts as positive
        w = np.array([0.0, 0.0])  # single feature 0 weight, intercept 0 -> p = 0.5
        rep = classify_and_score(w, np.zeros((4, 1)), np.array([True, True, False, False]))
        assert rep.tp == 2 and rep.fp == 2 and rep.tn == 0 and rep.fn == 0
