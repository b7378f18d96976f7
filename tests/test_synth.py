import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_generate
from survclust import kuiper_statistic, kuiper_pvalue
from survclust.errors import InvalidConfigError
from survclust.kaplan_meier import km_fit_arrays
from survclust.synth import GroupSpec, SynthConfig, default_group_specs, generate


def one_group_config(rate=2.0, n=4000, study=1e6, seed=5):
    return SynthConfig((GroupSpec(1.0, rate, (0.0,)),), n_subjects=n,
                       entry_window=1.0, study_duration=study, seed=seed)


class TestGenerate:
    def test_exponential_mean(self):
        rate = 2.0
        config = one_group_config(rate=rate)
        data, _ = generate(config)
        assert data.events.all()  # effectively no censoring at a huge horizon
        mean = data.times.mean()
        se = data.times.std(ddof=1) / np.sqrt(len(data))
        assert abs(mean - 1.0 / rate) <= 3 * se

    def test_planted_groups_have_distinct_curves(self):
        config = SynthConfig(
            (GroupSpec(0.5, 1.0, (0.0,)), GroupSpec(0.5, 0.2, (3.0,))),
            n_subjects=1000, entry_window=2.0, study_duration=12.0, seed=9)
        data, labels = generate(config)
        curves = [km_fit_arrays(data.times[labels == g], data.events[labels == g])
                  for g in (0, 1)]
        v = kuiper_statistic(curves[0], curves[1])
        res = kuiper_pvalue(v, curves[0].n_events, curves[1].n_events)
        assert res.p_value < 1e-6

    def test_seed_determinism(self):
        config = one_group_config(n=500)
        d1, l1 = generate(config)
        d2, l2 = generate(config)
        assert d1.ids == d2.ids
        assert np.array_equal(d1.times, d2.times)
        assert np.array_equal(d1.events, d2.events)
        assert all(np.array_equal(a, b) for a, b in zip(d1.columns, d2.columns))
        assert np.array_equal(l1, l2)

    def test_different_seeds_differ(self):
        d1, _ = generate(one_group_config(n=200, seed=1))
        d2, _ = generate(one_group_config(n=200, seed=2))
        assert not np.array_equal(d1.times, d2.times)

    def test_censoring_monotone_in_study_duration(self):
        fractions = []
        for study in (20.0, 10.0, 6.0, 4.0):
            config = SynthConfig((GroupSpec(1.0, 0.3, ()),), n_subjects=2000,
                                 entry_window=3.0, study_duration=study, seed=11)
            data, _ = generate(config)
            fractions.append(1.0 - data.events.mean())
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_group_proportions_converge(self):
        config = SynthConfig(
            (GroupSpec(0.2, 1.0, ()), GroupSpec(0.3, 0.5, ()), GroupSpec(0.5, 0.1, ())),
            n_subjects=10_000, entry_window=1.0, study_duration=50.0, seed=13)
        _, labels = generate(config)
        for g, w in enumerate((0.2, 0.3, 0.5)):
            freq = float(np.mean(labels == g))
            se = np.sqrt(w * (1 - w) / 10_000)
            assert abs(freq - w) <= 3 * se

    def test_signature_features_shift_by_group(self):
        config = SynthConfig(
            (GroupSpec(0.5, 1.0, (0.0, 0.0)), GroupSpec(0.5, 0.2, (3.0, 3.0))),
            n_subjects=2000, entry_window=1.0, study_duration=20.0,
            noise_features=2, seed=15)
        data, labels = generate(config)
        for j in range(2):
            col = data.columns[j]
            assert abs(col[labels == 0].mean() - 0.0) < 0.2
            assert abs(col[labels == 1].mean() - 3.0) < 0.2
        for j in (2, 3):  # noise features carry no group signal
            col = data.columns[j]
            assert abs(col[labels == 0].mean() - col[labels == 1].mean()) < 0.2

    def test_rows_keyed_by_subject_index(self):
        config = SynthConfig(default_group_specs(3, 2), n_subjects=300, entry_window=4.0,
                             study_duration=12.0, noise_features=2, seed=21)
        big, big_labels = generate(config)
        small, small_labels = generate(replace(config, n_subjects=120))
        assert small.ids == big.ids[:120]
        assert small.times.tobytes() == big.times[:120].tobytes()
        assert small.events.tobytes() == big.events[:120].tobytes()
        assert small_labels.tobytes() == big_labels[:120].tobytes()
        for a, b in zip(small.columns, big.columns):
            assert a.tobytes() == b[:120].tobytes()

    def test_times_nonnegative_and_capped(self):
        config = SynthConfig((GroupSpec(1.0, 0.05, ()),), n_subjects=1000,
                             entry_window=4.0, study_duration=5.0, seed=17)
        data, _ = generate(config)
        assert np.all(data.times >= 0)
        assert np.all(data.times[~data.events] <= 5.0)


@st.composite
def synth_configs(draw):
    """1-4 groups, some of weight zero; 0-3 signature and 0-3 noise features."""
    shares = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any))
    n_sig = draw(st.integers(0, 3))
    means = st.one_of(st.sampled_from([0.0, -0.0, 3.0]), st.floats(-5.0, 5.0))
    groups = tuple(GroupSpec(share / sum(shares), draw(st.floats(0.01, 10.0)),
                             tuple(draw(means) for _ in range(n_sig)))
                   for share in shares)
    entry_window = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    study_duration = entry_window + draw(st.floats(0.01, 10.0))
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)))
    return SynthConfig(groups, draw(st.integers(1, 200)), entry_window, study_duration,
                       draw(st.integers(0, 3)), seed)


class TestReferenceGenerate:
    @settings(max_examples=150, deadline=None)
    @given(synth_configs())
    def test_matches_per_subject_reference(self, config):
        data, labels = generate(config)
        ids, times, events, columns, ref_labels = reference_generate(config)
        assert data.ids == tuple(ids)
        assert data.times.tobytes() == times.tobytes()
        assert data.events.tobytes() == events.tobytes()
        assert labels.dtype == ref_labels.dtype
        assert labels.tobytes() == ref_labels.tobytes()
        assert len(data.columns) == len(columns)
        for col, ref in zip(data.columns, columns):
            assert col.tobytes() == ref.tobytes()


class TestConfigValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["weight", "hazard_rate", "feature_mean",
                                       "entry_window", "study_duration"])
    def test_non_finite_numbers_rejected(self, field, value):
        v = {"weight": 1.0, "hazard_rate": 1.0, "feature_mean": 0.0,
             "entry_window": 1.0, "study_duration": 5.0, field: value}
        with pytest.raises(InvalidConfigError, match="must be finite"):
            SynthConfig((GroupSpec(v["weight"], v["hazard_rate"], (v["feature_mean"],)),),
                        n_subjects=10, entry_window=v["entry_window"],
                        study_duration=v["study_duration"])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidConfigError):
            SynthConfig((GroupSpec(0.6, 1.0, ()), GroupSpec(0.6, 1.0, ())),
                        n_subjects=10, entry_window=1.0, study_duration=5.0)

    def test_positive_rates(self):
        with pytest.raises(InvalidConfigError):
            SynthConfig((GroupSpec(1.0, 0.0, ()),), n_subjects=10,
                        entry_window=1.0, study_duration=5.0)

    def test_study_covers_entry_window(self):
        with pytest.raises(InvalidConfigError):
            SynthConfig((GroupSpec(1.0, 1.0, ()),), n_subjects=10,
                        entry_window=10.0, study_duration=5.0)

    def test_signature_lengths_must_agree(self):
        with pytest.raises(InvalidConfigError):
            SynthConfig((GroupSpec(0.5, 1.0, (0.0,)), GroupSpec(0.5, 1.0, ())),
                        n_subjects=10, entry_window=1.0, study_duration=5.0)

    def test_default_group_specs(self):
        specs = default_group_specs(3, n_signature=2)
        assert len(specs) == 3
        assert sum(s.weight for s in specs) == pytest.approx(1.0)
        rates = [s.hazard_rate for s in specs]
        assert rates[0] > rates[1] > rates[2]
        config = SynthConfig(specs, n_subjects=5, entry_window=1.0, study_duration=9.0)
        assert config.schema().names[:2] == ("sig0", "sig1")
