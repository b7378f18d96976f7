import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_split_v, reference_enumerate_splits, reference_route
from survclust import Feature, FeatureSchema, Subject, SurvivalDataset
from survclust.clustering import fit_cluster_model
from survclust.dataio import dump_json, model_to_dict, tree_from_dict, tree_to_dict
from survclust.errors import (InvalidEventCountError, NoEventsAtRootError,
                              SchemaMismatchError)
from survclust.kaplan_meier import km_fit_arrays
from survclust.synth import SynthConfig, default_group_specs, generate
from survclust import tree
from survclust.tree import (CategoryTest, KuiperBounds, NumericTest, SplitCandidate,
                            SurvivalTree, TreeConfig, TreeNode, assign_leaf, assign_leaves,
                            best_split, enumerate_splits, grow_tree)
from survclust.twosample import kuiper_log_pvalue, kuiper_pvalue


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


@st.composite
def enumeration_nodes(draw):
    """A node with a numeric column holding ties, NaN and signed zeros and a
    categorical one holding codes outside its levels, under any leaf minima
    and threshold cap."""
    n = draw(st.integers(0, 30))
    value = st.one_of(st.sampled_from([math.nan, 0.0, -0.0, 1.0, -2.5]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    n_levels = draw(st.integers(1, 4))
    schema = FeatureSchema((Feature("x", "numeric"),
                            Feature("g", "categorical", tuple("abcd"[:n_levels]))))
    columns = [draw(st.lists(value, min_size=n, max_size=n)),
               draw(st.lists(st.integers(-1, n_levels + 1), min_size=n, max_size=n))]
    data = SurvivalDataset(schema, [f"s{i}" for i in range(n)], columns,
                           np.arange(1.0, n + 1.0),
                           draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    config = TreeConfig(min_leaf_subjects=draw(st.integers(1, 4)),
                        min_leaf_events=draw(st.integers(1, 3)),
                        max_numeric_thresholds=draw(st.integers(1, 12)))
    return data, config


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

    def test_nan_values_are_never_cut(self):
        # each NaN past the first once gave a NaN threshold that passed the minima
        data = numeric_dataset([1.0, 2.0, 3.0, 4.0, np.nan, np.nan])
        cands = enumerate_splits(data, data.schema, SMALL)
        assert [c.test.threshold for c in cands] == [1.5, 2.5, 3.5]

    def test_adjacent_doubles_cut_between_each_pair(self):
        # 0.5 * (a + b) rounds onto a for the upper pair; its cut is b instead
        values = [1.0000000000000002, 1.0000000000000004, 1.0000000000000007]
        data = numeric_dataset(values)
        cands = enumerate_splits(data, data.schema, SMALL)
        assert [c.test.threshold for c in cands] == values[1:]
        assert [int(c.test.evaluate(data.columns[0]).sum()) for c in cands] == [1, 2]

    @settings(max_examples=300, deadline=None)
    @given(enumeration_nodes())
    def test_matches_reference(self, node):
        data, config = node
        cands = enumerate_splits(data, data.schema, config)
        got = [(c.feature, c.test.threshold if c.feature == 0 else c.test.category_index)
               for c in cands]
        assert got == reference_enumerate_splits(data, config)


class TestBestSplit:
    def test_recovers_planted_group(self):
        rng = np.random.default_rng(42)
        data = two_group_dataset(rng, n_per_group=500)
        config = TreeConfig(min_leaf_subjects=20, min_leaf_events=5)
        cands = enumerate_splits(data, data.schema, config)
        chosen = best_split(data, cands, config)
        assert chosen is not None
        assert chosen.feature == 0
        assert chosen.p_value < config.alpha / len(cands)

    def test_empty_candidates(self):
        data = numeric_dataset([1.0, 2.0, 3.0])
        assert best_split(data, [], SMALL) is None

    def test_node_without_deaths_raises(self):
        data = numeric_dataset([1.0, 2.0, 3.0], events=np.zeros(3, dtype=bool))
        with pytest.raises(InvalidEventCountError):
            best_split(data, [SplitCandidate(0, NumericTest(1.5))], SMALL)

    def test_nan_threshold_candidate_raises(self):
        # a NaN threshold sends nobody to the true side, NaN values included
        data = numeric_dataset([1.0, 2.0, 3.0, np.nan])
        with pytest.raises(InvalidEventCountError):
            best_split(data, [SplitCandidate(0, NumericTest(math.nan))], SMALL)

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


def score_all(data, candidates):
    """Kuiper V and child event counts of every candidate, scored exactly."""
    return KuiperBounds.of(data, candidates).exact(np.arange(len(candidates)))


def assert_matches_oracle(data, candidates):
    v, events_true, events_false = score_all(data, candidates)
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
        # the table groups candidates by feature; results stay in input order
        rng = np.random.default_rng(23)
        n = 60
        data = mixed_dataset(rng.normal(size=n), rng.integers(0, 3, n),
                             rng.exponential(1.0, n), rng.random(n) < 0.8)
        cands = enumerate_splits(data, data.schema, SMALL)
        shuffled = [cands[i] for i in rng.permutation(len(cands))]
        assert_matches_oracle(data, shuffled)


@st.composite
def small_nodes(draw):
    """A node of about 2 x min_leaf_subjects subjects whose lifetimes depend on
    a tied numeric feature, with a noise feature and a three-level one; the
    times may tie (so that subjects are censored at death times) and be
    censored heavily. The noise feature may be a copy of the first, so that
    tied candidates survive every bound pass."""
    min_leaf = draw(st.integers(2, 15))
    n = draw(st.integers(2 * min_leaf, 2 * min_leaf + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, draw(st.integers(2, 8)), n).astype(float)
    levels = rng.integers(0, 3, n)
    rate = np.exp(draw(st.floats(0.0, 3.0)) * (x > np.median(x)) + 0.5 * (levels == 1))
    times = rng.exponential(1.0 / rate)
    if draw(st.booleans()):
        times = np.ceil(4.0 * times)
    events = rng.random(n) >= draw(st.sampled_from([0.0, 0.3, 0.8]))
    assume(events.sum() >= 2)
    noise = x.copy() if draw(st.booleans()) else rng.normal(size=n)
    schema = FeatureSchema((Feature("x", "numeric"), Feature("noise", "numeric"),
                            Feature("g", "categorical", ("a", "b", "c"))))
    data = SurvivalDataset(schema, [f"s{i}" for i in range(n)],
                           [x, noise, levels], times, events)
    config = TreeConfig(alpha=draw(st.sampled_from([0.05, 0.5, 1.0])),
                        min_leaf_subjects=min_leaf, min_leaf_events=draw(st.integers(1, 3)),
                        max_numeric_thresholds=draw(st.integers(2, 32)))
    return data, config


def exhaustive_best_split(data, candidates, config):
    """best_split scoring every candidate in full: the reference for pruning."""
    if not candidates:
        return None
    v, events_true, events_false = score_all(data, candidates)
    log_p = kuiper_log_pvalue(v, events_true, events_false)
    best = int(np.argmin(log_p))
    if log_p[best] >= math.log(config.alpha) - math.log(len(candidates)):
        return None
    result = kuiper_pvalue(v[best], int(events_true[best]), int(events_false[best]))
    return dataclasses.replace(candidates[best], p_value=result.p_value,
                               statistic=result.statistic)


class TestPrunedSearch:
    @settings(max_examples=150, deadline=None)
    @given(small_nodes())
    def test_same_split_as_scoring_every_candidate(self, node):
        data, config = node
        candidates = enumerate_splits(data, data.schema, config)
        # bound from two blocks up on every node, however small
        with mock.patch.multiple(tree, BOUND_BLOCKS=2, PASS_COST_PER_BLOCK=0,
                                 PASS_COST_FIXED=0):
            pruned = best_split(data, candidates, config)
        assert pruned == exhaustive_best_split(data, candidates, config)

    @settings(max_examples=150, deadline=None)
    @given(small_nodes(), st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_bounds_hold_the_exact_statistic(self, node, blocks, seed):
        data, config = node
        candidates = enumerate_splits(data, data.schema, config)
        assume(candidates)
        bounds = KuiperBounds.of(data, candidates)
        v, events_true, events_false = bounds.exact(np.arange(len(candidates)))
        v_lo, v_hi, bound_true, bound_false = bounds(np.arange(len(candidates)), blocks)
        assert np.all(v_lo <= v + 1e-12) and np.all(v <= v_hi + 1e-12)
        assert np.array_equal(bound_true, events_true)
        assert np.array_equal(bound_false, events_false)
        # a subset of the candidates gets the same bounds and scores
        keep = np.flatnonzero(np.random.default_rng(seed).random(len(candidates)) < 0.5)
        assume(keep.size)
        for full, kept in zip((v_lo, v_hi, bound_true), bounds(keep, blocks)):
            assert np.array_equal(kept, full[keep])
        for full, kept in zip((v, events_true, events_false), bounds.exact(keep)):
            assert np.array_equal(kept, full[keep])

    def test_prunes_the_root_of_a_planted_population(self):
        data, _ = generate(SynthConfig(default_group_specs(3, 5), 3000, 4.0, 12.0, 20, 1))
        config = TreeConfig()
        candidates = enumerate_splits(data, data.schema, config)
        with mock.patch.object(KuiperBounds, "exact", autospec=True,
                               side_effect=KuiperBounds.exact) as scored:
            chosen = best_split(data, candidates, config)
        assert chosen == exhaustive_best_split(data, candidates, config)
        assert len(scored.call_args.args[1]) < len(candidates) // 10


class TestUnderflowedPvalues:
    def test_root_split_has_largest_lambda_among_underflowed(self):
        # the population of `simulate --groups 3 --n 50000 --seed 7`: many root
        # candidates have p-values that round to 0 in float64
        data, _ = generate(SynthConfig(default_group_specs(3, 5), 50_000, 4.0, 12.0, 20, 7))
        config = TreeConfig()
        cands = enumerate_splits(data, data.schema, config)
        v, events_true, events_false = score_all(data, cands)
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

    def test_nan_feature_grows_a_tree(self):
        # unvalidated data: NaN values fall on the false side of every threshold
        data, _ = generate(SynthConfig(default_group_specs(3, 5), 2000, 4.0, 12.0, 0, 3))
        sig0 = data.columns[0].copy()
        sig0[::10] = np.nan
        data = SurvivalDataset(data.schema, data.ids, [sig0, *data.columns[1:]],
                               data.times, data.events)
        tree = grow_tree(data)
        assert len(tree.leaves()) > 1
        assert sum(leaf.n_subjects for leaf in tree.leaves()) == 2000
        assert not any(math.isnan(getattr(node.split.test, "threshold", 0.0))
                       for node in tree.nodes() if not node.is_leaf)

    def test_nodes_are_immutable(self):
        rng = np.random.default_rng(4)
        data, _ = three_group_dataset(rng)
        tree = grow_tree(data, TreeConfig(min_leaf_subjects=30, min_leaf_events=5, max_depth=1))
        assert not tree.root.is_leaf
        for root in (tree.root, tree_from_dict(tree_to_dict(tree)).root):
            with pytest.raises(dataclasses.FrozenInstanceError):
                root.left = root.right
            with pytest.raises(dataclasses.FrozenInstanceError):
                root.left.n_subjects = 0

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
        for leaf_id, leaf in enumerate(leaves):
            mask = labels == leaf_id
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
                assert node.split.p_value < config.alpha / node.n_candidates

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
        """Row order changes no byte of the tree, its leaf curves or the
        clustered model, with tied and censored times."""
        rng = np.random.default_rng(9)
        data, _ = three_group_dataset(rng)
        data = SurvivalDataset(data.schema, data.ids, data.columns, np.round(data.times, 2),
                               rng.random(len(data)) < 0.7)
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
        assert len(base.leaves()) > 2
        assert dump_json(tree_to_dict(base)) == dump_json(tree_to_dict(alt))
        for a, b in zip(base.leaves(), alt.leaves(), strict=True):
            assert a.curve.event_times.tobytes() == b.curve.event_times.tobytes()
            assert a.curve.survival.tobytes() == b.curve.survival.tobytes()
        assert (dump_json(model_to_dict(fit_cluster_model(data, base)))
                == dump_json(model_to_dict(fit_cluster_model(shuffled, alt))))

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


@st.composite
def small_populations(draw):
    """Up to 200 subjects whose lifetimes depend on a numeric feature of
    tied values, signed zeros and NaN, on a numeric one, tied or not, with
    or without NaN, and on a five-level feature of which only some levels
    are observed; censoring may be heavy and the threshold cap small enough
    to thin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 200))
    x = rng.choice(np.array([-1.5, -0.0, 0.0, 0.5, 2.0, 3.0, np.nan]), n)
    z = rng.normal(size=n) if draw(st.booleans()) else rng.integers(-6, 6, n) + 0.0
    z[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = np.nan
    levels = rng.choice(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)), n)
    rate = np.exp(draw(st.sampled_from([2.0, 4.0])) * (x > 0.2)
                  + draw(st.sampled_from([0.0, 3.0])) * (z > 0)
                  + draw(st.floats(0.0, 3.0)) * (levels == levels[0]))
    times = rng.exponential(1.0 / rate)
    if draw(st.booleans()):
        times = np.ceil(3.0 * times)
    events = rng.random(n) >= draw(st.sampled_from([0.0, 0.5, 0.8]))
    assume(events.any())
    schema = FeatureSchema((Feature("x", "numeric"), Feature("z", "numeric"),
                            Feature("g", "categorical", tuple("abcde"))))
    data = SurvivalDataset(schema, [f"s{i}" for i in range(n)], [x, z, levels], times, events)
    config = TreeConfig(alpha=draw(st.sampled_from([0.05, 0.5, 1.0])),
                        min_leaf_subjects=draw(st.integers(1, 6)),
                        min_leaf_events=draw(st.integers(1, 3)),
                        max_depth=draw(st.integers(1, 5)),
                        max_numeric_thresholds=draw(st.integers(1, 6)))
    return data, config


def node_bits(split, m, leaf):
    """A node as comparable values: the split with its test, p-value and
    statistic as float bits and m, or the leaf's counts and curve bytes."""
    if split is not None:
        test = split.test
        return (split.feature, test.threshold.hex() if isinstance(test, NumericTest)
                else test.category_index, split.p_value.hex(), split.statistic.hex(), m)
    n, n_events, curve = leaf
    return (n, n_events, curve.event_times.tobytes(), curve.survival.tobytes(),
            curve.n_events, curve.n_subjects)


def replayed_nodes(data, config):
    """The tree grown node by node through ``enumerate_splits``/``best_split``
    on ``subset_mask`` datasets under ``grow_tree``'s stop rule, as
    :func:`node_bits` in preorder, left subtree first."""
    out = []

    def node(d, depth):
        chosen, candidates = None, []
        if (depth < config.max_depth and len(d) >= 2 * config.min_leaf_subjects
                and d.n_events >= 2 * config.min_leaf_events):
            candidates = enumerate_splits(d, d.schema, config)
            chosen = best_split(d, candidates, config)
        out.append(node_bits(chosen, len(candidates),
                             (len(d), d.n_events, km_fit_arrays(d.times, d.events))
                             if chosen is None else None))
        if chosen is not None:
            mask = chosen.test.evaluate(d.columns[chosen.feature])
            node(d.subset_mask(mask), depth + 1)
            node(d.subset_mask(~mask), depth + 1)

    node(data, 0)
    return out


class TestGrowMatchesReplay:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_populations())
    def test_grow_tree_is_the_node_by_node_replay(self, population):
        data, config = population
        grown = grow_tree(data, config)
        assert [node_bits(node.split, node.n_candidates,
                          (node.n_subjects, node.n_events, node.curve) if node.is_leaf else None)
                for node in grown.nodes()] == replayed_nodes(data, config)


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
        for leaf_id, leaf in enumerate(tree.leaves()):
            assert per_leaf.get(leaf_id, 0) == leaf.n_subjects

    def test_boundary_value_goes_right(self):
        rng = np.random.default_rng(13)
        data = two_group_dataset(rng, n_per_group=300)
        tree = grow_tree(data, TreeConfig(min_leaf_subjects=20, min_leaf_events=5,
                                          max_depth=1))
        # fabricate a numeric tree to pin the convention explicitly
        from survclust.tree import SplitCandidate, SurvivalTree, TreeNode
        from survclust.kaplan_meier import km_fit_arrays
        curve = km_fit_arrays([1.0], [True])
        schema = FeatureSchema((Feature("x", "numeric"),))
        left = TreeNode(n_subjects=1, n_events=1, curve=curve)
        right = TreeNode(n_subjects=1, n_events=1, curve=curve)
        root = TreeNode(split=SplitCandidate(0, NumericTest(2.0), 0.01, 1.0),
                        n_candidates=1, left=left, right=right)
        t = SurvivalTree(schema, root, SMALL)
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


def random_tree_and_rows(seed):
    """A random tree over 1-3 mixed features and rows hitting thresholds,
    NaN and out-of-range categories; leaf sizes tie often."""
    rng = np.random.default_rng(seed)
    features = [Feature(f"x{j}", "numeric") if rng.random() < 0.5
                else Feature(f"g{j}", "categorical", ("a", "b", "c")[:rng.integers(1, 4)])
                for j in range(rng.integers(1, 4))]
    schema = FeatureSchema(tuple(features))
    thresholds = np.array([-1.0, 0.0, 0.5, 1.0])

    def build(depth):
        if depth == 3 or rng.random() < 0.3:
            return TreeNode(n_subjects=int(rng.integers(0, 4)))
        j = int(rng.integers(len(schema)))
        test = (NumericTest(float(rng.choice(thresholds))) if schema[j].kind == "numeric"
                else CategoryTest(int(rng.integers(len(schema[j].categories)))))
        split = SplitCandidate(j, test, 0.01, 1.0)
        return TreeNode(split=split, left=build(depth + 1), right=build(depth + 1))

    tree = SurvivalTree(schema, build(0), SMALL)
    n = int(rng.integers(0, 40))
    columns = [rng.choice(np.r_[thresholds, np.nan, np.inf, 0.25], n) if f.kind == "numeric"
               else rng.integers(-1, len(f.categories) + 1, n) for f in schema]
    data = SurvivalDataset(schema, [f"s{i}" for i in range(n)], columns,
                           np.ones(n), np.ones(n, dtype=bool))
    return tree, data


class TestRouter:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, "majority"]))
    def test_matches_reference_router(self, seed, unknown):
        tree, data = random_tree_and_rows(seed)
        expected = [reference_route(tree, s.values, unknown) for s in data.subjects()]
        assert assign_leaves(tree, data, unknown).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_one_row_wrapper_matches_reference(self, seed):
        tree, data = random_tree_and_rows(seed)
        for s in data.subjects():
            if all(0 <= v < len(f.categories) for v, f in zip(s.values, tree.schema)
                   if f.kind == "categorical"):
                assert assign_leaf(tree, s) == reference_route(tree, s.values)
            else:
                with pytest.raises(SchemaMismatchError):
                    assign_leaf(tree, s)

    def test_majority_ties_go_left(self):
        left = TreeNode(n_subjects=5)
        right = TreeNode(n_subjects=5)
        root = TreeNode(split=SplitCandidate(0, NumericTest(2.0), 0.01, 1.0),
                        left=left, right=right)
        schema = FeatureSchema((Feature("x", "numeric"),))
        tree = SurvivalTree(schema, root, SMALL)
        data = SurvivalDataset(schema, ["a", "b"], [np.array([np.nan, 3.0])],
                               np.ones(2), np.ones(2, dtype=bool))
        assert assign_leaves(tree, data).tolist() == [1, 1]
        assert assign_leaves(tree, data, "majority").tolist() == [0, 1]
        root = dataclasses.replace(root, right=dataclasses.replace(right, n_subjects=6))
        tree = SurvivalTree(schema, root, SMALL)
        assert assign_leaves(tree, data, "majority").tolist() == [1, 1]

    def test_unknown_policy_checked(self):
        tree, data = random_tree_and_rows(0)
        with pytest.raises(ValueError):
            assign_leaves(tree, data, "minority")

    def test_describe_tests(self):
        assert NumericTest(0.125).describe(Feature("age", "numeric")) == "age < 0.125"
        gender = Feature("gender", "categorical", ("M", "F"))
        assert CategoryTest(1).describe(gender) == "gender = F"


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
