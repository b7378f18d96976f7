import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import reference_mcl_blocks
from survclust import Feature, FeatureSchema, SurvivalDataset
from survclust.clustering import (WEIGHT_FLOOR, ClusterModel, LeafGraph, build_leaf_graph,
                                  cluster_assign, cluster_assign_columns,
                                  cluster_assign_dataset,
                                  coarsen_to_k, fit_cluster_model,
                                  leaf_samples, mcl, sinkhorn_knopp)
from survclust.errors import NonConvergenceError, SchemaMismatchError, UnreachableKError
from survclust.kaplan_meier import km_fit_arrays
from survclust.tree import (NumericTest, SplitCandidate, SurvivalTree,
                            TreeConfig, TreeNode, assign_leaves, grow_tree)
from survclust.twosample import kuiper_matrix, logrank_test


def uncensored_curve(times):
    return km_fit_arrays(times, np.ones(len(times), dtype=bool))


def single_leaf_tree(times):
    schema = FeatureSchema((Feature("x", "numeric"),))
    curve = uncensored_curve(times)
    root = TreeNode(n_subjects=len(times), n_events=len(times), curve=curve)
    return SurvivalTree(schema, root, TreeConfig())


def four_leaf_tree(curves):
    """Hand-built tree splitting x at 1.5 then 0.5 / 2.5 into four leaves."""
    schema = FeatureSchema((Feature("x", "numeric"),))
    leaves = [TreeNode(n_subjects=c.n_subjects, n_events=c.n_events, curve=c)
              for c in curves]
    inner_l = TreeNode(split=SplitCandidate(0, NumericTest(0.5), 1e-4, 1.0),
                       n_candidates=3, left=leaves[0], right=leaves[1])
    inner_r = TreeNode(split=SplitCandidate(0, NumericTest(2.5), 1e-4, 1.0),
                       n_candidates=3, left=leaves[2], right=leaves[3])
    root = TreeNode(split=SplitCandidate(0, NumericTest(1.5), 1e-4, 1.0),
                    n_candidates=3, left=inner_l, right=inner_r)
    return SurvivalTree(schema, root, TreeConfig())


def comb_tree(curves):
    """Hand-built tree with leaf i holding curves[i]: x < 0.5, else x < 1.5, ..."""
    leaves = [TreeNode(n_subjects=c.n_subjects, n_events=c.n_events, curve=c) for c in curves]
    node = leaves[-1]
    for i in reversed(range(len(curves) - 1)):
        node = TreeNode(split=SplitCandidate(0, NumericTest(i + 0.5), 1e-4, 1.0),
                        n_candidates=1, left=leaves[i], right=node)
    return SurvivalTree(FeatureSchema((Feature("x", "numeric"),)), node, TreeConfig())


class TestLeafNumbering:
    def test_leaves_number_left_to_right(self):
        tree = four_leaf_tree([uncensored_curve([1.0, 2.0])] * 4)
        data = SurvivalDataset(tree.schema, list("abcd"), [np.array([2.0, 0.0, 3.0, 1.0])],
                               np.ones(4), np.ones(4, dtype=bool))
        assert assign_leaves(tree, data).tolist() == [2, 0, 3, 1]
        assert tree.leaf_ids == range(4)


class TestClusterModel:
    """Every model, however made, maps each leaf of its tree to one cluster
    and each cluster to a leaf."""

    def build(self, leaf_to_cluster):
        curve = uncensored_curve([1.0, 2.0])
        return ClusterModel(four_leaf_tree([curve] * 4), leaf_to_cluster, (curve, curve))

    def test_valid_map(self):
        model = self.build([0, 0, 1, 1])
        assert model.leaf_to_cluster == (0, 0, 1, 1)
        assert model.k == 2
        # a map read from JSON may hold 1.0 for 1; it is stored as the int
        assert [type(c) for c in self.build([0.0, 0, 1.0, 1]).leaf_to_cluster] == [int] * 4

    def test_map_one_entry_short(self):
        with pytest.raises(SchemaMismatchError, match="the model maps leaf 3 to no cluster"):
            self.build((0, 0, 1))

    def test_map_one_entry_long(self):
        with pytest.raises(SchemaMismatchError, match="leaf_to_cluster must map each of the 4"):
            self.build((0, 0, 1, 1, 0))

    def test_cluster_without_curve(self):
        with pytest.raises(SchemaMismatchError, match="leaf_to_cluster must map each of the 4"):
            self.build((0, 0, 1, 2))


class TestBuildLeafGraph:
    def test_single_leaf(self):
        tree = single_leaf_tree([1.0, 2.0, 3.0])
        graph = build_leaf_graph(tree)
        assert graph.weights.shape == (1, 1)
        assert graph.weights[0, 0] == 1.0

    def test_identical_curves_give_unit_weights(self):
        times = list(np.linspace(1, 5, 20))
        curves = [uncensored_curve(times) for _ in range(4)]
        graph = build_leaf_graph(four_leaf_tree(curves))
        assert np.allclose(graph.weights, 1.0)

    def test_disjoint_supports_give_tiny_weights(self):
        rng = np.random.default_rng(0)
        early = uncensored_curve(rng.uniform(0, 1, 200))
        late = uncensored_curve(rng.uniform(100, 101, 200))
        graph = build_leaf_graph(four_leaf_tree([early, early, late, late]))
        assert graph.weights[0, 2] < 1e-6
        assert graph.weights[1, 3] < 1e-6

    def test_weights_are_the_kuiper_matrix(self):
        rng = np.random.default_rng(13)
        curves = [uncensored_curve(rng.exponential(s, 40)) for s in (1, 1.2, 3, 9)]
        graph = build_leaf_graph(four_leaf_tree(curves))
        assert np.array_equal(graph.weights, kuiper_matrix(curves)[1])

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(1)
        curves = [uncensored_curve(rng.exponential(s, 50)) for s in (1, 2, 4, 8)]
        graph = build_leaf_graph(four_leaf_tree(curves))
        assert np.array_equal(graph.weights, graph.weights.T)
        assert np.all(np.diag(graph.weights) == 1.0)
        assert np.all(graph.weights >= 0) and np.all(graph.weights <= 1)


class TestSinkhornKnopp:
    def test_already_doubly_stochastic(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = sinkhorn_knopp(m)
        assert np.allclose(out, m, atol=1e-8)

    def test_hand_case(self):
        out = sinkhorn_knopp(np.array([[1.0, 3.0], [3.0, 1.0]]))
        assert np.allclose(out, [[0.25, 0.75], [0.75, 0.25]], atol=1e-10)

    def test_random_positive_matrix_balances(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.1, 5.0, size=(6, 6))
        out = sinkhorn_knopp(w)
        assert np.max(np.abs(out.sum(axis=0) - 1)) <= 1e-8
        assert np.max(np.abs(out.sum(axis=1) - 1)) <= 1e-8

    def test_symmetric_input_symmetric_output(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.01, 1.0, size=(40, 40))
        w = (a + a.T) / 2
        out = sinkhorn_knopp(w)
        assert np.array_equal(out, out.T)
        assert np.max(np.abs(out.sum(axis=0) - 1)) <= 1e-8

    def test_asymmetric_input(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.01, 1.0, size=(15, 15))
        out = sinkhorn_knopp(w)
        assert np.max(np.abs(out.sum(axis=0) - 1)) <= 1e-8
        assert np.max(np.abs(out.sum(axis=1) - 1)) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(
               lambda n: arrays(np.float64, (n, n), elements=st.floats(0.05, 5.0))),
           st.booleans(), st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_balances_within_tol(self, w, symmetrize, tol):
        if symmetrize:
            w = (w + w.T) / 2
        out = sinkhorn_knopp(w, tol=tol)
        # the residual is measured on the scaling vectors, so allow rounding on top
        slack = tol + 64 * np.finfo(np.float64).eps * len(w)
        assert np.max(np.abs(out.sum(axis=0) - 1)) <= slack
        assert np.max(np.abs(out.sum(axis=1) - 1)) <= slack
        if symmetrize:
            assert np.array_equal(out, out.T)

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.1, 5.0, size=(8, 8))
        with pytest.raises(NonConvergenceError):
            sinkhorn_knopp(w, tol=1e-14, max_iter=1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sinkhorn_knopp(np.array([[1.0, -1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            sinkhorn_knopp(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sinkhorn_knopp(np.ones((2, 3)))


class TestMcl:
    def test_identity_gives_singletons(self):
        assert mcl(np.eye(5)) == [[0], [1], [2], [3], [4]]

    def test_uniform_gives_single_cluster(self):
        assert mcl(np.full((4, 4), 0.25)) == [[0, 1, 2, 3]]

    def test_two_epsilon_cliques(self):
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        w[2, 3] = w[3, 2] = 0.01
        balanced = sinkhorn_knopp(np.maximum(w, WEIGHT_FLOOR))
        assert mcl(balanced) == [[0, 1, 2], [3, 4, 5]]

    def test_output_is_partition(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            w = rng.uniform(0.01, 1.0, size=(10, 10))
            w = (w + w.T) / 2
            blocks = mcl(sinkhorn_knopp(w))
            flat = sorted(v for block in blocks for v in block)
            assert flat == list(range(10))

    def test_idempotent_at_convergence(self):
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        w[2, 3] = w[3, 2] = 0.01
        m = sinkhorn_knopp(np.maximum(w, WEIGHT_FLOOR))
        conv_tol = 1e-9
        for _ in range(200):
            prev = m
            m = np.linalg.matrix_power(m, 2) ** 2.0
            m /= m.sum(axis=0)
            m = np.where(m < 1e-8, 0.0, m)
            m /= m.sum(axis=0)
            if np.max(np.abs(m - prev)) < conv_tol:
                break
        again = np.linalg.matrix_power(m, 2) ** 2.0
        again /= again.sum(axis=0)
        assert np.max(np.abs(again - m)) < conv_tol

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                           min_size=n, max_size=n)),
        st.sampled_from([1.5, 2.0, 3.0]))
    def test_labels_match_per_column_reference(self, supports, inflation):
        # A column spread evenly over its support is a fixed point of MCL at
        # expansion 1, so the matrix MCL labels is the input; columns whose
        # support holds no attractor (no self-loop) take the fallback row.
        n = len(supports)
        m = np.zeros((n, n))
        for j, rows in enumerate(supports):
            m[sorted(rows), j] = 1.0 / len(rows)
        assert mcl(m, expansion=1, inflation=inflation) == reference_mcl_blocks(m)

    def test_column_without_attractor_mass(self):
        # 0 -> 1 -> 2 -> 0 has no self-loop; 3 is an attractor that 4 feeds
        m = np.zeros((5, 5))
        m[[1, 2, 0, 3, 3], [0, 1, 2, 3, 4]] = 1.0
        assert mcl(m, expansion=1) == reference_mcl_blocks(m) == [[0], [1], [2], [3, 4]]

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            mcl(np.ones((3, 3)))

    @pytest.mark.parametrize("inflation", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_inflation(self, inflation):
        with pytest.raises(ValueError, match="positive and finite"):
            mcl(np.eye(3), inflation=inflation)

    def test_inflation_underflowing_a_column_raises(self):
        # (1/3) ** 1100 is 0.0 in every column; a division by it would warn,
        # and warnings are errors in this suite
        with pytest.raises(NonConvergenceError, match="inflation 1100.0 underflowed a column"):
            mcl(np.full((3, 3), 1 / 3), 2, 1100.0)


def make_leaf_samples(rates, n=120, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for lid, rate in enumerate(rates):
        times = rng.exponential(1.0 / rate, n)
        out[lid] = (times, np.ones(n, dtype=bool))
    return out


class TestCoarsenToK:
    def test_partition_already_k(self):
        samples = make_leaf_samples([5.0, 0.05])
        curves = [uncensored_curve(samples[0][0]), uncensored_curve(samples[0][0]),
                  uncensored_curve(samples[1][0]), uncensored_curve(samples[1][0])]
        tree = four_leaf_tree(curves)
        graph = build_leaf_graph(tree)
        samples4 = {0: samples[0], 1: samples[0], 2: samples[1], 3: samples[1]}
        balanced = sinkhorn_knopp(np.maximum(graph.weights, WEIGHT_FLOOR))
        model = coarsen_to_k([[0, 1], [2, 3]], graph, tree, 2, samples4, balanced, 2, 2.0)
        assert model.k == 2
        assert model.leaf_to_cluster == (0, 0, 1, 1)

    def test_merge_down_pairs_similar_clusters(self):
        # leaves 0,1 share one lifetime law, 2,3 another far away
        rng = np.random.default_rng(7)
        fast_a = rng.exponential(0.2, 150)
        fast_b = rng.exponential(0.2, 150)
        slow_a = rng.exponential(20.0, 150)
        slow_b = rng.exponential(20.0, 150)
        curves = [uncensored_curve(x) for x in (fast_a, fast_b, slow_a, slow_b)]
        tree = four_leaf_tree(curves)
        graph = build_leaf_graph(tree)
        ones = np.ones(150, dtype=bool)
        samples = {0: (fast_a, ones), 1: (fast_b, ones),
                   2: (slow_a, ones), 3: (slow_b, ones)}
        balanced = sinkhorn_knopp(np.maximum(graph.weights, WEIGHT_FLOOR))
        model = coarsen_to_k([[0], [1], [2], [3]], graph, tree, 2, samples, balanced, 2, 2.0)
        assert model.k == 2
        assert model.leaf_to_cluster == (0, 0, 1, 1)

    def test_single_leaf_k2_unreachable(self):
        tree = single_leaf_tree([1.0, 2.0, 3.0])
        graph = build_leaf_graph(tree)
        samples = {0: (np.array([1.0, 2.0, 3.0]), np.ones(3, dtype=bool))}
        with pytest.raises(UnreachableKError):
            coarsen_to_k([[0]], graph, tree, 2, samples, np.array([[1.0]]), 2, 2.0)

    def test_inflation_sweep_refines(self):
        # base inflation merges the two pairs; the sweep recovers them
        rng = np.random.default_rng(8)
        fast_a = rng.exponential(0.2, 150)
        fast_b = rng.exponential(0.25, 150)
        slow_a = rng.exponential(18.0, 150)
        slow_b = rng.exponential(22.0, 150)
        curves = [uncensored_curve(x) for x in (fast_a, fast_b, slow_a, slow_b)]
        tree = four_leaf_tree(curves)
        graph = build_leaf_graph(tree)
        ones = np.ones(150, dtype=bool)
        samples = {0: (fast_a, ones), 1: (fast_b, ones),
                   2: (slow_a, ones), 3: (slow_b, ones)}
        balanced = np.array([[0.5, 0.5, 0.0, 0.0],
                             [0.5, 0.5, 0.0, 0.0],
                             [0.0, 0.0, 0.5, 0.5],
                             [0.0, 0.0, 0.5, 0.5]])
        # hand the coarsener an under-segmented partition
        model = coarsen_to_k([[0, 1, 2, 3]], graph, tree, 2, samples, balanced, 2, 2.0)
        assert model.k == 2
        assert model.leaf_to_cluster == (0, 0, 1, 1)

    def test_sweep_actually_raises_inflation(self):
        # blocks bridged at 0.5: inflation 2.0 under-segments, ~4.0 splits
        w = np.ones((4, 4)) * 0.5
        w[:2, :2] = 1.0
        w[2:, 2:] = 1.0
        balanced = sinkhorn_knopp(w)
        assert len(mcl(balanced, inflation=2.0)) == 1
        rng = np.random.default_rng(9)
        fast = rng.exponential(0.2, 100)
        slow = rng.exponential(20.0, 100)
        curves = [uncensored_curve(x) for x in (fast, fast, slow, slow)]
        tree = four_leaf_tree(curves)
        graph = build_leaf_graph(tree)
        ones = np.ones(100, dtype=bool)
        samples = {0: (fast, ones), 1: (fast, ones), 2: (slow, ones), 3: (slow, ones)}
        partition = mcl(balanced, inflation=2.0)
        model = coarsen_to_k(partition, graph, tree, 2, samples, balanced, 2, 2.0)
        assert model.k == 2

    def test_tied_pairs_merge_the_earlier(self):
        # leaves 0 and 2 are identical, so are 1 and 3: pairs (0, 2) and
        # (1, 3) tie at p = 1, and the earlier one merges first
        rng = np.random.default_rng(12)
        fast = rng.exponential(0.5, 80)
        slow = rng.exponential(5.0, 80)
        tree = four_leaf_tree([uncensored_curve(x) for x in (fast, slow, fast, slow)])
        ones = np.ones(80, dtype=bool)
        samples = {0: (fast, ones), 1: (slow, ones), 2: (fast, ones), 3: (slow, ones)}
        graph = build_leaf_graph(tree)
        balanced = sinkhorn_knopp(np.maximum(graph.weights, WEIGHT_FLOOR))
        model = coarsen_to_k([[0], [1], [2], [3]], graph, tree, 3, samples, balanced, 2, 2.0)
        assert model.leaf_to_cluster == (0, 1, 0, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.data())
    def test_merges_as_rebuilding_the_matrix_each_round(self, n_leaves, seed, data):
        rng = np.random.default_rng(seed)
        samples = {lid: (np.ceil(rng.exponential(rng.choice([0.5, 1.0, 4.0]), 40) * 3),
                         rng.random(40) < 0.7) for lid in range(n_leaves)}
        assume(all(events.any() for _, events in samples.values()))
        tree = comb_tree([km_fit_arrays(*samples[lid]) for lid in range(n_leaves)])
        k = data.draw(st.integers(1, n_leaves))
        model = coarsen_to_k([[lid] for lid in range(n_leaves)], LeafGraph(np.eye(n_leaves)),
                             tree, k, samples, np.eye(n_leaves), 2, 2.0)
        # reference: the merge loop with the whole matrix rebuilt every round
        groups = [[lid] for lid in range(n_leaves)]
        while len(groups) > k:
            _, p = kuiper_matrix([km_fit_arrays(*map(np.concatenate,
                                                     zip(*(samples[lid] for lid in g))))
                                  for g in groups])
            i, j = max(itertools.combinations(range(len(groups)), 2), key=p.__getitem__)
            groups[i] = sorted(groups[i] + groups[j])
            del groups[j]
        assert sorted(groups) == [[lid for lid in range(n_leaves)
                                   if model.leaf_to_cluster[lid] == c] for c in range(k)]

    def test_scores_the_clusters_once_per_merge_round(self):
        rng = np.random.default_rng(3)
        samples = {lid: (rng.exponential(rate, 60), np.ones(60, dtype=bool))
                   for lid, rate in enumerate([0.5, 1.0, 4.0, 0.6, 3.0])}
        tree = comb_tree([km_fit_arrays(*samples[lid]) for lid in range(5)])
        for k in range(1, 6):
            with mock.patch("survclust.clustering.kuiper_matrix",
                            wraps=kuiper_matrix) as scored:
                model = coarsen_to_k([[lid] for lid in range(5)], LeafGraph(np.eye(5)),
                                     tree, k, samples, np.eye(5), 2, 2.0)
            assert model.k == k
            assert scored.call_count == 5 - k

    def test_invalid_k(self):
        tree = single_leaf_tree([1.0])
        graph = build_leaf_graph(tree)
        with pytest.raises(ValueError):
            coarsen_to_k([[0]], graph, tree, 0, {0: (np.array([1.0]), np.array([True]))},
                         np.array([[1.0]]), 2, 2.0)


def two_group_dataset(rng, n_per_group=400, rates=(3.0, 0.2)):
    schema = FeatureSchema((Feature("g", "categorical", ("a", "b")),
                            Feature("noise", "numeric")))
    n = 2 * n_per_group
    group = np.repeat([0, 1], n_per_group)
    times = np.concatenate([rng.exponential(1 / rates[0], n_per_group),
                            rng.exponential(1 / rates[1], n_per_group)])
    return SurvivalDataset(schema, [f"s{i}" for i in range(n)],
                           [group.astype(np.int64), rng.normal(size=n)],
                           times, np.ones(n, dtype=bool)), group


class TestPipeline:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.data, self.truth = two_group_dataset(rng)
        self.tree = grow_tree(self.data, TreeConfig(min_leaf_subjects=30,
                                                    min_leaf_events=5))

    def test_fit_and_self_consistency(self):
        model = fit_cluster_model(self.data, self.tree, k=2)
        assert model.k == 2
        labels = cluster_assign_dataset(model, self.data)
        scalar = np.array([cluster_assign(model, s) for s in self.data.subjects()])
        assert np.array_equal(labels, scalar)
        # training clusters recover the planted groups
        agree = max(np.mean(labels == self.truth), np.mean(labels == 1 - self.truth))
        assert agree >= 0.9

    def test_pairwise_cluster_significance(self):
        model = fit_cluster_model(self.data, self.tree, k=2)
        labels = cluster_assign_dataset(model, self.data)
        groups = []
        for c in range(model.k):
            mask = labels == c
            groups.append(list(zip(self.data.times[mask], self.data.events[mask])))
        assert logrank_test(groups).p_value < 0.05

    def test_columns_the_tree_does_not_test_may_be_none(self):
        model = fit_cluster_model(self.data, self.tree, k=2)
        tested = {node.split.feature for node in self.tree.nodes() if not node.is_leaf}
        columns = [c if i in tested else None for i, c in enumerate(self.data.columns)]
        assert any(c is None for c in columns)
        assert np.array_equal(cluster_assign_columns(model, columns, len(self.data)),
                              cluster_assign_dataset(model, self.data))

    def test_k1_constant_map(self):
        model = fit_cluster_model(self.data, self.tree, k=1)
        labels = cluster_assign_dataset(model, self.data)
        assert set(labels.tolist()) == {0}

    def test_cluster_curves_pool_members(self):
        model = fit_cluster_model(self.data, self.tree, k=2)
        labels = cluster_assign_dataset(model, self.data)
        for c, curve in enumerate(model.cluster_curves):
            mask = labels == c
            assert curve.n_subjects == int(mask.sum())
            assert curve.n_events == int(self.data.events[mask].sum())

    def test_subject_order_invariance(self):
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(self.data))
        shuffled = SurvivalDataset(self.data.schema,
                                   [self.data.ids[i] for i in perm],
                                   [col[perm] for col in self.data.columns],
                                   self.data.times[perm], self.data.events[perm])
        tree2 = grow_tree(shuffled, TreeConfig(min_leaf_subjects=30, min_leaf_events=5))
        m1 = fit_cluster_model(self.data, self.tree, k=2)
        m2 = fit_cluster_model(shuffled, tree2, k=2)
        by_id_1 = dict(zip(self.data.ids, cluster_assign_dataset(m1, self.data)))
        by_id_2 = dict(zip(shuffled.ids, cluster_assign_dataset(m2, shuffled)))
        assert by_id_1 == by_id_2

    def test_leaf_samples_cover_everything(self):
        samples = leaf_samples(self.tree, self.data)
        assert sum(t.size for t, _ in samples.values()) == len(self.data)
