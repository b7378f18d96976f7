import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_violations
from survclust import (Feature, FeatureSchema, Subject, SurvivalDataset,
                       validate_dataset)
from survclust.errors import SchemaMismatchError


def make_schema():
    return FeatureSchema((
        Feature("age", "numeric"),
        Feature("gender", "categorical", ("M", "F")),
    ))


def make_dataset(rows):
    ids, ages, genders, times, events = zip(*rows)
    return SurvivalDataset(make_schema(), ids, [ages, genders], times, events)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema((Feature("a", "numeric"), Feature("a", "numeric")))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Feature("", "numeric")

    def test_categorical_needs_categories(self):
        with pytest.raises(ValueError):
            Feature("g", "categorical", ())

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            Feature("g", "categorical", ("M", "M"))

    def test_index_lookup(self):
        schema = make_schema()
        assert schema.index("gender") == 1
        with pytest.raises(KeyError):
            schema.index("missing")


class TestValidate:
    def test_minimal_valid(self):
        ds = make_dataset([("a", 40.0, 0, 5.0, True)])
        assert validate_dataset(ds).ok

    def test_negative_time(self):
        ds = make_dataset([("a", 40.0, 0, -1.0, True)])
        report = validate_dataset(ds)
        assert not report.ok
        assert any("negative time" in v.message and v.subject_id == "a"
                   for v in report.violations)

    def test_all_censored(self):
        ds = make_dataset([("a", 40.0, 0, 5.0, False), ("b", 30.0, 1, 2.0, False)])
        report = validate_dataset(ds)
        assert any("no observed events" in v.message for v in report.violations)

    def test_duplicate_ids(self):
        ds = make_dataset([("a", 40.0, 0, 5.0, True), ("a", 30.0, 1, 2.0, True)])
        assert any("duplicate id" in v.message for v in validate_dataset(ds).violations)

    def test_missing_numeric_value(self):
        ds = make_dataset([("a", np.nan, 0, 5.0, True)])
        assert any("age" in v.message for v in validate_dataset(ds).violations)

    def test_category_index_out_of_range(self):
        ds = make_dataset([("a", 40.0, 7, 5.0, True)])
        assert any("gender" in v.message for v in validate_dataset(ds).violations)

    def test_violations_in_order_at_50k_rows(self):
        rng = np.random.default_rng(50)
        n = 50_000
        ids = [f"s{i}" for i in range(n)]
        for i in rng.choice(n, 300, replace=False):
            ids[i] = ids[rng.integers(n)]  # repeats, some of them more than twice
        times = rng.exponential(3.0, n)
        times[rng.choice(n, 200)] = rng.choice([np.nan, np.inf, -np.inf, -1.0, -0.0], 200)
        ages = rng.normal(40.0, 5.0, n)
        ages[rng.choice(n, 150)] = rng.choice([np.nan, np.inf, -np.inf], 150)
        genders = rng.integers(0, 2, n)
        genders[rng.choice(n, 150)] = rng.choice([-1, 2, 7], 150)
        ds = SurvivalDataset(make_schema(), ids, [ages, genders], times, rng.random(n) < 0.7)
        got = [(v.subject_id, v.message) for v in validate_dataset(ds).violations]
        assert len(got) > 700
        assert got == reference_violations(ds)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abcd"),
                              st.sampled_from([30.0, np.nan, np.inf]),
                              st.sampled_from([0, 1, -1, 2]),
                              st.sampled_from([0.0, 2.5, -1.0, np.nan, -np.inf]),
                              st.booleans()), max_size=10))
    def test_violations_match_row_by_row_reference(self, rows):
        ds = make_dataset(rows) if rows else SurvivalDataset(make_schema(), [], [[], []], [], [])
        got = [(v.subject_id, v.message) for v in validate_dataset(ds).violations]
        assert got == reference_violations(ds)

    def test_wrong_value_count_rejected_at_construction(self):
        schema = make_schema()
        with pytest.raises(SchemaMismatchError):
            SurvivalDataset(schema, ["a"], [[1.0]], [5.0], [True])


class TestSubset:
    def setup_method(self):
        self.ds = make_dataset([
            ("a", 25.0, 0, 1.0, True),
            ("b", 30.0, 1, 2.0, False),
            ("c", 35.0, 0, 3.0, True),
        ])

    def test_always_true_is_identity(self):
        sub = self.ds.subset_mask(np.ones(len(self.ds), dtype=bool))
        assert sub.ids == self.ds.ids
        assert np.array_equal(sub.times, self.ds.times)

    def test_always_false_is_empty(self):
        assert len(self.ds.subset_mask(np.zeros(len(self.ds), dtype=bool))) == 0

    def test_strict_inequality_boundary(self):
        sub = self.ds.subset_mask(self.ds.columns[0] < 30.0)
        assert sub.ids == ("a",)

    def test_idempotent(self):
        once = self.ds.subset_mask(self.ds.times >= 2.0)
        twice = once.subset_mask(once.times >= 2.0)
        assert once.ids == twice.ids

    def test_partition_counts(self):
        rng = np.random.default_rng(0)
        ds = make_dataset([
            (f"s{i}", float(rng.integers(20, 60)), int(rng.integers(0, 2)),
             float(rng.uniform(0, 10)), bool(rng.integers(0, 2)))
            for i in range(50)
        ])
        for threshold in (25.0, 40.0, 55.0):
            mask = ds.columns[0] < threshold
            inside, outside = ds.subset_mask(mask), ds.subset_mask(~mask)
            assert len(inside) + len(outside) == len(ds)
            assert sorted(inside.ids + outside.ids) == sorted(ds.ids)

    def test_order_preserved(self):
        sub = self.ds.subset_mask(np.array([sid != "b" for sid in self.ds.ids]))
        assert sub.ids == ("a", "c")

    def test_subject_round_trip(self):
        s = list(self.ds.subjects())[1]
        assert s == Subject("b", (30.0, 1), 2.0, False)
