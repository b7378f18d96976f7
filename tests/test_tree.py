import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_split_v
from survclust import Feature, FeatureSchema, Subject, SurvivalDataset
from survclust.errors import NoEventsAtRootError, SchemaMismatchError
from survclust.synth import SynthConfig, default_group_specs, generate
from survclust.tree import (CategoryTest, NumericTest, TreeConfig, assign_leaf,
                            assign_leaves, best_split, enumerate_splits,
                            grow_tree, score_candidates)
from survclust.twosample import bonferroni_threshold, kuiper_pvalue


def numeric_dataset(values, times=None, events=None, name="x"):
    schema = FeatureSchema((Feature(name, "numeric"),))
    n = len(values)
    times = times if times is not None else np.arange(1.0, n + 1.0)
    events = events if events is not None else np.ones(n, dtype=bool)
    return SurvivalDataset(schema, [f"s{i}" for i in range(n)],
                           [np.asarray(values, dtype=float)], times, events)


def two_group_dataset(rng, n_per_group=500, rates=(1.0, 0.2), extra_noise=0):
    feats = [Feature("g", "categorical", ("a", "b"))]
    feats += [Feature(f"noise{i}", "numeric") for i in range(extra_noise)]
    schema = FeatureSchema(tuple(feats))
    n = 2 * n_per_group
    group = np.repeat([0, 1], n_per_group)
    times = np.concatenate([rng.exponential(1 / rates[0], n_per_group),
                            rng.exponential(1 / rates[1], n_per_group)])
    columns = [group.astype(np.int64)]
    columns += [rng.normal(size=n) for _ in range(extra_noise)]
    return SurvivalDataset(schema, [f"s{i}" for i in range(n)], columns,
                           times, np.ones(n, dtype=bool))


SMALL = TreeConfig(alpha=0.05, min_leaf_subjects=1, min_leaf_events=1,
                   max_depth=12, max_numeric_thresholds=32)


class TestEnumerateSplits:
    def test_numeric_midpoints(self):
        data = numeric_dataset([1.0, 2.0, 3.0])
        cands = enumerate_splits(data, data.schema, SMALL)
        assert [c.test.threshold for c in cands] == [1.5, 2.5]

    def test_categorical_levels_both_listed(self):
        schema = FeatureSchema((Feature("g", "categorical", ("M", "F")),))
        data = SurvivalDataset(schema, ["a", "b", "c", "d"],
                               [np.array([0, 1, 0, 1])],
                               np.array([1.0, 2.0, 3.0, 4.0]),
                               np.ones(4, dtype=bool))
        cands = enumerate_splits(data, schema, SMALL)
        assert [c.test.category_index for c in cands] == [0, 1]

    def test_constant_feature_yields_nothing(self):
        data = numeric_dataset([5.0, 5.0, 5.0])
        assert enumerate_splits(data, data.schema, SMALL) == []

    def test_unobserved_category_skipped(self):
        schema = FeatureSchema((Feature("g", "categorical", ("M", "F", "X")),))
        data = SurvivalDataset(schema, ["a", "b"], [np.array([0, 1])],
                               np.array([1.0, 2.0]), np.ones(2, dtype=bool))
        cands = enumerate_splits(data, schema, SMALL)
        assert [c.test.category_index for c in cands] == [0, 1]

    def test_threshold_cap(self):
        rng = np.random.default_rng(0)
        data = numeric_dataset(rng.uniform(0, 1, 500))
        config = TreeConfig(min_leaf_subjects=1, min_leaf_events=1,
                            max_numeric_thresholds=8)
        cands = enumerate_splits(data, data.schema, config)
        assert len(cands) <= 8
        thresholds = [c.test.threshold for c in cands]
        assert thresholds == sorted(thresholds)

    def test_exact_midpoints_when_few_distinct_values(self):
        data = numeric_dataset([1.0, 2.0, 4.0, 8.0] * 10)
        cands = enumerate_splits(data, data.schema, SMALL)
        assert [c.test.threshold for c in cands] == [1.5, 3.0, 6.0]

    def test_leaf_minima_filtering(self):
        data = numeric_dataset([1.0, 2.0, 3.0, 4.0])
        config = TreeConfig(min_leaf_subjects=2, min_leaf_events=1)
        cands = enumerate_splits(data, data.schema, config)
        # only the middle threshold leaves two subjects on each side
        assert [c.test.threshold for c in cands] == [2.5]

    def test_event_minima_filtering(self):
        events = np.array([True, True, True, False, False, True])
        data = numeric_dataset([1, 2, 3, 4, 5, 6], events=events)
        config = TreeConfig(min_leaf_subjects=1, min_leaf_events=2)
        cands = enumerate_splits(data, data.schema, config)
        for c in cands:
            mask = c.test.evaluate(data.columns[0])
            assert events[mask].sum() >= 2
            assert events[~mask].sum() >= 2

    def test_deterministic_order(self):
        schema = FeatureSchema((Feature("a", "numeric"),
                                Feature("g", "categorical", ("x", "y")),
                                Feature("b", "numeric")))
        data = SurvivalDataset(schema, ["1", "2", "3", "4"],
                               [np.array([1.0, 2.0, 3.0, 4.0]),
                                np.array([0, 1, 0, 1]),
                                np.array([4.0, 3.0, 2.0, 1.0])],
                               np.array([1.0, 2.0, 3.0, 4.0]),
                               np.ones(4, dtype=bool))
        cands = enumerate_splits(data, schema, SMALL)
        assert [c.feature for c in cands] == [0, 0, 0, 1, 1, 2, 2, 2]


class TestBestSplit:
    def test_recovers_planted_group(self):
        rng = np.random.default_rng(42)
        data = two_group_dataset(rng, n_per_group=500)
        config = TreeConfig(min_leaf_subjects=20, min_leaf_events=5)
        cands = enumerate_splits(data, data.schema, config)
        chosen = best_split(data, cands, config)
        assert chosen is not None
        assert chosen.feature == 0
        assert chosen.p_value < bonferroni_threshold(config.alpha, len(cands))

    def test_empty_candidates(self):
        data = numeric_dataset([1.0, 2.0, 3.0])
        assert best_split(data, [], SMALL) is None

    def test_tie_breaks_to_earlier_candidate(self):
        # duplicated feature columns give bit-identical p-values; the lower
        # schema index must win under the deterministic tie-break
        rng = np.random.default_rng(44)
        schema = FeatureSchema((Feature("a", "numeric"), Feature("b", "numeric")))
        n = 400
        col = np.repeat([0.0, 1.0], n // 2)
        times = np.r_[rng.exponential(0.2, n // 2), rng.exponential(5.0, n // 2)]
        data = SurvivalDataset(schema, [f"s{i}" for i in range(n)],
                               [col, col.copy()], times, np.ones(n, dtype=bool))
        config = TreeConfig(min_leaf_subjects=20, min_leaf_events=5)
        cands = enumerate_splits(data, schema, config)
        assert {c.feature for c in cands} == {0, 1}
        chosen = best_split(data, cands, config)
        assert chosen is not None
        assert chosen.feature == 0

    def test_noise_mostly_rejected(self):
        config = TreeConfig(min_leaf_subjects=50, min_leaf_events=5)
        none_count = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            schema = FeatureSchema(tuple(Feature(f"f{i}", "numeric") for i in range(20)))
            n = 200
            data = SurvivalDataset(schema, [f"s{i}" for i in range(n)],
                                   [rng.normal(size=n) for _ in range(20)],
                                   rng.exponential(1.0, n), np.ones(n, dtype=bool))
            cands = enumerate_splits(data, schema, config)
            if best_split(data, cands, config) is None:
                none_count += 1
        assert none_count >= int(0.9 * trials)


def assert_matches_oracle(data, candidates):
    v, events_true, events_false = score_candidates(data, candidates)
    assert len(v) == len(candidates)
    for i, c in enumerate(candidates):
        mask = c.test.evaluate(data.columns[c.feature])
        expected = brute_force_split_v(data.times, data.events, mask)
        assert abs(v[i] - expected) <= 1e-12
        assert events_true[i] == data.events[mask].sum()
        assert events_false[i] == data.events[~mask].sum()


def mixed_dataset(values, levels, times, events):
    schema = FeatureSchema((Feature("x", "numeric"),
                            Feature("g", "categorical", ("a", "b", "c"))))
    return SurvivalDataset(schema, [f"s{i}" for i in range(len(times))],
                           [np.asarray(values, dtype=float), np.asarray(levels)],
                           np.asarray(times, dtype=float), np.asarray(events, dtype=bool))


class TestScoreCandidates:
    def test_numeric_many_ties(self):
        rng = np.random.default_rng(20)
        n = 80
        data = numeric_dataset(rng.integers(0, 5, n), times=rng.integers(1, 15, n).astype(float),
                               events=rng.random(n) < 0.7)
        cands = enumerate_splits(data, data.schema, SMALL)
        assert len(cands) == 4
        assert_matches_oracle(data, cands)

    def test_censoring_tied_to_death_times(self):
        rng = np.random.default_rng(21)
        times = np.repeat(np.arange(1.0, 11.0), 4)
        events = np.tile([True, False, True, False], 10)
        data = numeric_dataset(rng.normal(size=40), times=times, events=events)
        cands = enumerate_splits(data, data.schema, SMALL)
        assert len(cands) == 32
        assert_matches_oracle(data, cands)

    def test_one_vs_rest_levels(self):
        rng = np.random.default_rng(22)
        n = 90
        levels = rng.integers(0, 3, n)
        times = rng.exponential(np.array([0.5, 1.0, 3.0])[levels]).round(1) + 0.1
        data = mixed_dataset(rng.normal(size=n), levels, times, rng.random(n) < 0.8)
        cands = [c for c in enumerate_splits(data, data.schema, SMALL) if c.feature == 1]
        assert [c.test.category_index for c in cands] == [0, 1, 2]
        assert_matches_oracle(data, cands)

    def test_child_risk_set_empties_before_last_death(self):
        times = np.arange(1.0, 31.0)
        events = np.ones(30, dtype=bool)
        events[[4, 9, 14]] = False
        data = numeric_dataset(times, times=times, events=events)
        cands = enumerate_splits(data, data.schema, SMALL)
        emptied = [c for c in cands
                   if data.times[c.test.evaluate(data.columns[0])].max() < data.times.max()]
        assert len(emptied) == len(cands) == 29
        assert_matches_oracle(data, cands)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.booleans(), st.integers(0, 4),
                              st.integers(0, 2)), min_size=2, max_size=25))
    def test_matches_oracle_on_small_populations(self, rows):
        times, events, values, levels = (list(c) for c in zip(*rows))
        assume(any(events))
        data = mixed_dataset(values, levels, times, events)
        assert_matches_oracle(data, enumerate_splits(data, data.schema, SMALL))

    def test_mixed_candidate_order(self):
        # the scorer groups candidates by feature; results stay in input order
        rng = np.random.default_rng(23)
        n = 60
        data = mixed_dataset(rng.normal(size=n), rng.integers(0, 3, n),
                             rng.exponential(1.0, n), rng.random(n) < 0.8)
        cands = enumerate_splits(data, data.schema, SMALL)
        shuffled = [cands[i] for i in rng.permutation(len(cands))]
        assert_matches_oracle(data, shuffled)


class TestUnderflowedPvalues:
    def test_root_split_has_largest_lambda_among_underflowed(self):
        # the population of `simulate --groups 3 --n 50000 --seed 7`: many root
        # candidates have p-values that round to 0 in float64
        data, _ = generate(SynthConfig(default_group_specs(3, 5), 50_000, 4.0, 12.0, 20, 7))
        config = TreeConfig()
        cands = enumerate_splits(data, data.schema, config)
        v, events_true, events_false = score_candidates(data, cands)
        p = np.array([kuiper_pvalue(v[i], int(events_true[i]), int(events_false[i])).p_value
                      for i in range(len(cands))])
        underflowed = np.flatnonzero(p == 0.0)
        assert underflowed.size > 100
        n_eff = events_true * events_false / (events_true + events_false)
        lam = (np.sqrt(n_eff) + 0.155 + 0.24 / np.sqrt(n_eff)) * v
        chosen = best_split(data, cands, config)
        idx = next(i for i, c in enumerate(cands)
                   if c.feature == chosen.feature and c.test == chosen.test)
        assert idx in underflowed
        assert idx != underflowed[0]
        assert lam[idx] == lam[underflowed].max()


def three_group_dataset(rng, n=900):
    """Groups keyed on two numeric features: a<0 -> fast; else b<0 -> medium, b>=0 -> slow."""
    schema = FeatureSchema((Feature("a", "numeric"), Feature("b", "numeric")))
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    rates = np.where(a < 0, 5.0, np.where(b < 0, 1.0, 0.2))
    times = rng.exponential(1.0 / rates)
    truth = np.where(a < 0, 0, np.where(b < 0, 1, 2))
    data = SurvivalDataset(schema, [f"s{i}" for i in range(n)], [a, b],
                           times, np.ones(n, dtype=bool))
    return data, truth


class TestGrowTree:
    def test_no_passing_split_gives_single_leaf(self):
        rng = np.random.default_rng(3)
        data = numeric_dataset(rng.normal(size=100), times=rng.exponential(1.0, 100))
        config = TreeConfig(alpha=1e-12, min_leaf_subjects=5, min_leaf_events=2)
        tree = grow_tree(data, config)
        assert len(tree.leaf_ids) == 1
        assert tree.root.is_leaf
        assert tree.root.n_subjects == 100

    def test_depth_cap_one(self):
        rng = np.random.default_rng(4)
        data, _ = three_group_dataset(rng)
        config = TreeConfig(min_leaf_subjects=30, min_leaf_events=5, max_depth=1)
        tree = grow_tree(data, config)
        internal = [n for n in tree.nodes() if not n.is_leaf]
        assert len(internal) <= 1

    def test_three_group_recovery(self):
        rng = np.random.default_rng(5)
        data, _ = three_group_dataset(rng)
        config = TreeConfig(min_leaf_subjects=30, min_leaf_events=5, max_depth=4)
        tree = grow_tree(data, config)
        internal = [n for n in tree.nodes() if not n.is_leaf]
        assert len(internal) >= 2
        used = {n.split.feature for n in internal}
        assert used == {0, 1}

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        data, _ = three_group_dataset(rng)
        config = TreeConfig(min_leaf_subjects=30, min_leaf_events=5)
        tree = grow_tree(data, config)
        labels = assign_leaves(tree, data)
        leaves = tree.leaves()
        assert sum(leaf.n_subjects for leaf in leaves) == len(data)
        for leaf in leaves:
            mask = labels == leaf.leaf_id
            assert int(mask.sum()) == leaf.n_subjects
            assert int(data.events[mask].sum()) == leaf.n_events

    def test_significance_property(self):
        rng = np.random.default_rng(7)
        data, _ = three_group_dataset(rng)
        config = TreeConfig(min_leaf_subjects=30, min_leaf_events=5)
        tree = grow_tree(data, config)
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.n_candidates >= 1
                assert node.split.p_value < bonferroni_threshold(
                    config.alpha, node.n_candidates)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        data, _ = three_group_dataset(rng)
        config = TreeConfig(min_leaf_subjects=30, min_leaf_events=5)
        t1 = grow_tree(data, config)
        t2 = grow_tree(data, config)
        n1, n2 = t1.nodes(), t2.nodes()
        assert len(n1) == len(n2)
        for a, b in zip(n1, n2):
            assert a.is_leaf == b.is_leaf
            if not a.is_leaf:
                assert a.split == b.split

    def test_subject_order_invariance(self):
        rng = np.random.default_rng(9)
        data, _ = three_group_dataset(rng)
        config = TreeConfig(min_leaf_subjects=30, min_leaf_events=5)
        perm = rng.permutation(len(data))
        shuffled = SurvivalDataset(data.schema, [data.ids[i] for i in perm],
                                   [col[perm] for col in data.columns],
                                   data.times[perm], data.events[perm])
        base = grow_tree(data, config)
        alt = grow_tree(shuffled, config)
        by_id_base = dict(zip(data.ids, assign_leaves(base, data)))
        by_id_alt = dict(zip(shuffled.ids, assign_leaves(alt, shuffled)))
        assert by_id_base == by_id_alt

    def test_no_events_at_root(self):
        data = numeric_dataset([1.0, 2.0], events=np.zeros(2, dtype=bool))
        with pytest.raises(NoEventsAtRootError):
            grow_tree(data, SMALL)

    def test_stronger_subject_minimum_never_deepens(self):
        rng = np.random.default_rng(10)
        data, _ = three_group_dataset(rng)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        d_loose = depth(grow_tree(data, TreeConfig(min_leaf_subjects=30,
                                                   min_leaf_events=5)).root)
        d_tight = depth(grow_tree(data, TreeConfig(min_leaf_subjects=150,
                                                   min_leaf_events=5)).root)
        assert d_tight <= d_loose


class TestAssignLeaf:
    def test_single_leaf_tree(self):
        rng = np.random.default_rng(11)
        data = numeric_dataset(rng.normal(size=60), times=rng.exponential(1.0, 60))
        tree = grow_tree(data, TreeConfig(alpha=1e-12, min_leaf_subjects=5,
                                          min_leaf_events=2))
        for s in data.subjects():
            assert assign_leaf(tree, s) == tree.leaf_ids[0]

    def test_training_set_reroutes_to_stored_counts(self):
        rng = np.random.default_rng(12)
        data, _ = three_group_dataset(rng)
        tree = grow_tree(data, TreeConfig(min_leaf_subjects=30, min_leaf_events=5))
        per_leaf = {}
        for s in data.subjects():
            per_leaf[assign_leaf(tree, s)] = per_leaf.get(assign_leaf(tree, s), 0) + 1
        for leaf in tree.leaves():
            assert per_leaf.get(leaf.leaf_id, 0) == leaf.n_subjects

    def test_boundary_value_goes_right(self):
        rng = np.random.default_rng(13)
        data = two_group_dataset(rng, n_per_group=300)
        tree = grow_tree(data, TreeConfig(min_leaf_subjects=20, min_leaf_events=5,
                                          max_depth=1))
        # fabricate a numeric tree to pin the convention explicitly
        from survclust.tree import SplitCandidate, SurvivalTree, TreeNode
        from survclust.kaplan_meier import km_fit
        curve = km_fit([(1.0, True)])
        schema = FeatureSchema((Feature("x", "numeric"),))
        left = TreeNode(1, leaf_id=0, n_subjects=1, n_events=1, curve=curve)
        right = TreeNode(2, leaf_id=1, n_subjects=1, n_events=1, curve=curve)
        root = TreeNode(0, split=SplitCandidate(0, NumericTest(2.0), 0.01, 1.0),
                        n_candidates=1, left=left, right=right)
        t = SurvivalTree(schema, root, SMALL, [0, 1])
        assert assign_leaf(t, Subject("a", (1.9,), 1.0, True)) == 0
        assert assign_leaf(t, Subject("b", (2.0,), 1.0, True)) == 1

    def test_schema_mismatch(self):
        rng = np.random.default_rng(14)
        data, _ = three_group_dataset(rng)
        tree = grow_tree(data, TreeConfig(min_leaf_subjects=30, min_leaf_events=5))
        with pytest.raises(SchemaMismatchError):
            assign_leaf(tree, Subject("bad", (1.0,), 1.0, True))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(15)
        data, _ = three_group_dataset(rng)
        tree = grow_tree(data, TreeConfig(min_leaf_subjects=30, min_leaf_events=5))
        vec = assign_leaves(tree, data)
        scalar = np.array([assign_leaf(tree, s) for s in data.subjects()])
        assert np.array_equal(vec, scalar)


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TreeConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TreeConfig(min_leaf_subjects=0)
        with pytest.raises(ValueError):
            TreeConfig(max_depth=0)

    def test_category_test_evaluate(self):
        assert np.array_equal(CategoryTest(1).evaluate(np.array([0, 1, 2, 1])),
                              [False, True, False, True])
