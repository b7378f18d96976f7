import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_risk_sets
from survclust import SurvivalCurve, km_eval, km_fit
from survclust.errors import EmptySampleError, NoEventsError
from survclust.kaplan_meier import risk_sets


def brute_force_km(samples, t):
    """Product over death times <= t of (n_j - d_j) / n_j, evaluated naively."""
    death_times = sorted({time for time, event in samples if event})
    value = 1.0
    for tj in death_times:
        if tj > t:
            break
        nj = sum(1 for time, _ in samples if time >= tj)
        dj = sum(1 for time, event in samples if event and time == tj)
        value *= (nj - dj) / nj
    return value


def empirical_survival(times, t):
    return sum(1 for x in times if x > t) / len(times)


class TestKmFit:
    def test_no_censoring(self):
        curve = km_fit([(1.0, True), (2.0, True), (3.0, True)])
        assert np.allclose(curve.event_times, [1.0, 2.0, 3.0])
        assert np.allclose(curve.survival, [2 / 3, 1 / 3, 0.0])
        assert curve.n_events == 3
        assert curve.n_subjects == 3

    def test_censored_subject_leaves_risk_set(self):
        # n = (3, 1), d = (1, 1) evaluated by hand
        curve = km_fit([(1.0, True), (2.0, False), (3.0, True)])
        assert np.allclose(curve.event_times, [1.0, 3.0])
        assert np.allclose(curve.survival, [2 / 3, 0.0])

    def test_mass_point(self):
        curve = km_fit([(5.0, True)] * 4)
        assert np.allclose(curve.event_times, [5.0])
        assert np.allclose(curve.survival, [0.0])
        assert curve.n_events == 4

    def test_censor_tied_with_death_stays_at_risk(self):
        # censored at t=2 counts toward n_j at death time 2: n=(4,3,1), d=(1,1,1)
        curve = km_fit([(1.0, True), (2.0, False), (2.0, True), (3.0, True)])
        assert np.allclose(curve.survival, [3 / 4, 3 / 4 * 2 / 3, 0.0])

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            km_fit([])

    def test_no_events(self):
        with pytest.raises(NoEventsError):
            km_fit([(1.0, False), (2.0, False)])

    def test_matches_brute_force_with_censoring(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            samples = [(float(rng.integers(1, 8)), bool(rng.integers(0, 2))) for _ in range(n)]
            if not any(e for _, e in samples):
                samples[0] = (samples[0][0], True)
            curve = km_fit(samples)
            for t in np.linspace(0, 9, 30):
                assert km_eval(curve, float(t)) == pytest.approx(
                    brute_force_km(samples, float(t)), abs=1e-12)

    def test_uncensored_equals_empirical_survival(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            times = rng.uniform(0, 10, size=n)
            curve = km_fit([(float(t), True) for t in times])
            for t in np.linspace(0, 11, 25):
                assert km_eval(curve, float(t)) == empirical_survival(times, t)

    def test_monotone_time_transform_invariance(self):
        samples = [(1.0, True), (2.0, False), (4.0, True), (4.0, True), (9.0, False)]
        base = km_fit(samples)
        warped = km_fit([(t ** 2 + 3 * t, e) for t, e in samples])
        assert np.allclose(base.survival, warped.survival)
        assert np.allclose(warped.event_times, [t ** 2 + 3 * t for t in base.event_times])

    def test_late_censor_adds_no_step(self):
        # a subject censored past the last death introduces no new factor:
        # the step times and event count are unchanged (it does enlarge every
        # risk set, so the step heights shift toward 1)
        samples = [(1.0, True), (2.0, True), (3.0, False)]
        base = km_fit(samples)
        extended = km_fit(samples + [(99.0, False)])
        assert np.array_equal(base.event_times, extended.event_times)
        assert extended.n_subjects == base.n_subjects + 1
        assert extended.n_events == base.n_events
        assert np.all(extended.survival >= base.survival)
        assert np.allclose(extended.survival, [3 / 4, 3 / 4 * 2 / 3])


class TestKmEval:
    def setup_method(self):
        self.curve = km_fit([(1.0, True), (2.0, False), (3.0, True)])

    def test_before_first_event(self):
        assert km_eval(self.curve, 0.0) == 1.0

    def test_between_event_times(self):
        assert km_eval(self.curve, 2.5) == pytest.approx(2 / 3)

    def test_at_last_death(self):
        curve = km_fit([(1.0, True), (2.0, True), (3.0, True)])
        assert km_eval(curve, 3.0) == 0.0

    def test_right_continuity_at_step(self):
        assert km_eval(self.curve, 1.0) == pytest.approx(2 / 3)


class TestCurveObject:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([2.0, 1.0]), np.array([0.5, 0.2]), 2, 2)
        with pytest.raises(ValueError):
            SurvivalCurve(np.array([1.0, 2.0]), np.array([0.2, 0.5]), 2, 2)

    def test_json_round_trip(self):
        curve = km_fit([(1.0, True), (2.0, False), (3.0, True)])
        other = SurvivalCurve.from_json_dict(curve.to_json_dict())
        assert np.array_equal(other.event_times, curve.event_times)
        assert np.array_equal(other.survival, curve.survival)
        assert other.n_events == curve.n_events
        assert other.n_subjects == curve.n_subjects


@st.composite
def risk_set_inputs(draw):
    """Time-sorted samples on a coarse grid (so deaths and censorings tie),
    with member rows that are random, all-true, empty, or only the censored."""
    n = draw(st.integers(0, 25))
    times = sorted(draw(st.lists(st.integers(0, 12).map(lambda k: k / 2),
                                 min_size=n, max_size=n)))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "all", "none", "censored"]),
                              min_size=1, max_size=4)):
        if kind == "random":
            rows.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            rows.append([kind == "all" or (kind == "censored" and not e) for e in events])
    return (np.array(times, dtype=np.float64), np.array(events, dtype=bool),
            np.array(rows, dtype=bool).reshape(len(rows), n))


class TestRiskSets:
    def test_censored_at_a_death_time_stays_at_risk(self):
        times = np.array([1.0, 2.0, 2.0, 3.0, 3.0, 4.0])
        events = np.array([True, False, True, True, False, True])
        members = np.array([[True] * 6, [False, True, False, True, True, True]])
        death_times, at_risk, deaths = risk_sets(times, events, members)
        assert death_times.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert at_risk.tolist() == [[6, 5, 3, 1], [4, 4, 3, 1]]
        assert deaths.tolist() == [[1, 1, 1, 1], [0, 0, 1, 1]]

    def test_no_deaths_gives_an_empty_grid(self):
        death_times, at_risk, deaths = risk_sets(
            np.array([1.0, 2.0]), np.array([False, False]), np.ones((3, 2), dtype=bool))
        assert death_times.size == 0
        assert at_risk.shape == deaths.shape == (3, 0)

    @settings(max_examples=300, deadline=None)
    @given(risk_set_inputs())
    def test_matches_naive_counts(self, sample):
        times, events, members = sample
        death_times, at_risk, deaths = risk_sets(times, events, members)
        want_times, want_at_risk, want_deaths = brute_force_risk_sets(
            times.tolist(), events.tolist(), members.tolist())
        assert death_times.tolist() == want_times
        assert at_risk.dtype == deaths.dtype == np.int64
        assert at_risk.shape == deaths.shape == (members.shape[0], len(want_times))
        assert at_risk.tolist() == want_at_risk
        assert deaths.tolist() == want_deaths
