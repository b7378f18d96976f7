"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines stream.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import best_label_agreement, brute_force_km, kuiper_permutation_pvalue
from survclust import (TreeConfig, cluster_assign_dataset, fit_cluster_model,
                       grow_tree, km_fit_arrays, logrank_test, mcl,
                       sinkhorn_knopp)
from survclust.cli import main as cli_main
from survclust.clustering import WEIGHT_FLOOR
from survclust.core import Feature, FeatureSchema, SurvivalDataset
from survclust.evaluation import (classify_and_score, cox_hazard_ratio,
                                  logistic_fit, one_hot, survival_labels)
from survclust.kaplan_meier import km_eval_many
from survclust.synth import GroupSpec, SynthConfig, generate
from survclust.twosample import kuiper_matrix, kuiper_pvalue


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS")


def test_km_oracle_equivalence():
    with criterion("KM oracle equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        # uncensored: bit-exact match with the empirical survival fraction
        for _ in range(200):
            n = int(rng.integers(1, 51))
            times = np.round(rng.uniform(0, 10, n), 3)
            curve = km_fit_arrays(times, np.ones(n, dtype=bool))
            grid = np.concatenate([[-1.0, 0.0], times, times + 1e-3, [11.0]])
            for t in grid:
                empirical = float(np.sum(times > t)) / n
                assert km_eval_many(curve, [t])[0] == empirical
        # censored: matches a naive evaluation of the product-limit formula
        for _ in range(200):
            n = int(rng.integers(1, 21))
            samples = [(float(rng.integers(1, 9)), bool(rng.integers(0, 2)))
                       for _ in range(n)]
            if not any(e for _, e in samples):
                samples[0] = (samples[0][0], True)
            curve = km_fit_arrays(*zip(*samples))
            for t in np.linspace(0.0, 9.5, 40):
                assert km_eval_many(curve, [t])[0] == pytest.approx(
                    brute_force_km(samples, float(t)), abs=1e-12)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_kuiper_calibration():
    with criterion("Kuiper calibration"):
        start = time.monotonic()
        # rejection rate at alpha = 0.05 over 2000 same-distribution pairs
        rng = np.random.default_rng(2026)
        ones = np.ones(100, dtype=bool)
        rejections = 0
        for _ in range(2000):
            ca = km_fit_arrays(rng.exponential(1.0, 100), ones)
            cb = km_fit_arrays(rng.exponential(1.0, 100), ones)
            v = kuiper_matrix([ca, cb])[0][0, 1]
            if kuiper_pvalue(v, 100, 100).p_value < 0.05:
                rejections += 1
        rate = rejections / 2000
        assert 0.03 <= rate <= 0.08, f"rejection rate {rate}"

        # the pinned oracle case: with equal event counts of 50 the statistic
        # is a multiple of 1/50, so the oracle's event {V >= 0.25} is exactly
        # {V >= 0.26}; the asymptotic estimate of that same tail must agree
        case_rng = np.random.default_rng(17)
        xs = case_rng.uniform(0, 1, 50)
        ys = case_rng.uniform(0, 1, 50)
        p_perm = kuiper_permutation_pvalue(xs, ys, 0.25, 10_000, seed=99)
        p_asym = kuiper_pvalue(0.26, 50, 50).p_value
        assert abs(p_asym - p_perm) <= 0.02

        # 19 further fixed cases at achieved statistics; equal and 2:1 sizes
        # (the effective-n approximation's calibrated regime)
        case_rng = np.random.default_rng(424242)
        specs = [
            (100, 100, 0.0), (70, 70, 0.0), (90, 90, 0.0), (80, 80, 0.0),
            (60, 60, 0.0), (120, 120, 0.0), (150, 150, 0.0), (64, 64, 0.0),
            (100, 50, 0.0), (110, 55, 0.0), (120, 60, 0.0), (160, 80, 0.0),
            (100, 100, 0.18), (80, 80, 0.25), (60, 60, 0.35), (120, 120, 0.15),
            (50, 50, 0.4), (90, 90, 0.28), (100, 50, 0.3),
        ]
        for idx, (n_a, n_b, shift) in enumerate(specs):
            kind = idx % 3
            if kind == 0:
                xs = case_rng.uniform(0, 1, n_a)
                ys = case_rng.uniform(shift * 0.5, 1 + shift * 0.5, n_b)
            elif kind == 1:
                xs = case_rng.exponential(1.0, n_a)
                ys = case_rng.exponential(1.0 + shift, n_b)
            else:
                xs = case_rng.normal(0, 1, n_a)
                ys = case_rng.normal(shift, 1, n_b)
            ca = km_fit_arrays(xs, np.ones(n_a, dtype=bool))
            cb = km_fit_arrays(ys, np.ones(n_b, dtype=bool))
            v = kuiper_matrix([ca, cb])[0][0, 1]
            p_asym = kuiper_pvalue(v, n_a, n_b).p_value
            # the 1e-9 slack keeps float noise from splitting the atom at V
            p_perm = kuiper_permutation_pvalue(xs, ys, v - 1e-9, 10_000, seed=1000 + idx)
            assert abs(p_asym - p_perm) <= 0.02, \
                f"case {idx}: |{p_asym:.4f} - {p_perm:.4f}| > 0.02"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_logrank_hand_case():
    with criterion("Log-rank hand case"):
        a = [(1.0, True), (2.0, True)]
        b = [(3.0, True), (4.0, True)]
        res = logrank_test([a, b])
        assert abs(res.statistic - 2.882) <= 1e-3
        same = [(1.0, True), (2.0, False), (3.0, True), (5.0, True)]
        null = logrank_test([same, list(same)])
        assert null.statistic == 0.0


def test_sinkhorn_knopp():
    with criterion("Sinkhorn-Knopp balancing"):
        rng = np.random.default_rng(404)
        for size in (5, 20, 50, 100, 200):
            w = rng.uniform(0.05, 3.0, size=(size, size))
            out = sinkhorn_knopp(w, tol=1e-8, max_iter=10000)
            assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 1e-8
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-8
            sym = (w + w.T) / 2
            out = sinkhorn_knopp(sym, tol=1e-8, max_iter=10000)
            assert np.max(np.abs(out - out.T)) <= 1e-8
            assert np.max(np.abs(out.sum(axis=0) - 1.0)) <= 1e-8
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-8


def test_mcl_structure_recovery():
    with criterion("MCL structure recovery"):
        w = np.zeros((6, 6))
        w[:3, :3] = 1.0
        w[3:, 3:] = 1.0
        w[2, 3] = w[3, 2] = 0.01
        balanced = sinkhorn_knopp(np.maximum(w, WEIGHT_FLOOR))
        assert mcl(balanced) == [[0, 1, 2], [3, 4, 5]]
        assert mcl(np.eye(7)) == [[i] for i in range(7)]
        assert mcl(np.full((5, 5), 0.2)) == [[0, 1, 2, 3, 4]]


def test_planted_cluster_recovery():
    with criterion("Planted-cluster recovery"):
        start = time.monotonic()
        specs = (GroupSpec(1 / 3, 1.0, (0.0,) * 5),
                 GroupSpec(1 / 3, 0.4, (3.0,) * 5),
                 GroupSpec(1 / 3, 0.1, (6.0,) * 5))
        config = SynthConfig(specs, n_subjects=6000, entry_window=4.0,
                             study_duration=6.0, noise_features=20, seed=20260809)
        data, truth = generate(config)
        censored = 1.0 - data.events.mean()
        assert 0.2 <= censored <= 0.4, f"censored fraction {censored:.3f}"
        tree = grow_tree(data, TreeConfig())
        model = fit_cluster_model(data, tree, k=3)
        labels = cluster_assign_dataset(model, data)
        agreement = best_label_agreement(truth, labels)
        assert agreement >= 0.85, f"agreement {agreement:.3f}"
        for a in range(3):
            for b in range(a + 1, 3):
                mask_a, mask_b = labels == a, labels == b
                if data.events[mask_a].sum() < 5 or data.events[mask_b].sum() < 5:
                    continue
                res = logrank_test([
                    list(zip(data.times[mask_a], data.events[mask_a])),
                    list(zip(data.times[mask_b], data.events[mask_b]))])
                assert res.p_value < 0.01, f"clusters {a},{b}: p={res.p_value}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_hazard_ratio_consistency():
    with criterion("Hazard-ratio consistency"):
        rng = np.random.default_rng(515)
        n = 5000  # per group; 10,000 subjects total
        t0 = rng.exponential(1.0, n)
        t1 = rng.exponential(1.0 / 3.0, n)
        times = np.r_[t0, t1]
        events = [True] * (2 * n)
        group = np.r_[np.zeros(n, dtype=int), np.ones(n, dtype=int)]
        res = cox_hazard_ratio(zip(times, events, group))
        assert 2.8 <= res.hazard_ratio <= 3.2, f"HR {res.hazard_ratio:.3f}"
        swapped = cox_hazard_ratio(zip(times, events, 1 - group))
        assert abs(swapped.hazard_ratio - 1.0 / res.hazard_ratio) <= 1e-9
        rescaled = cox_hazard_ratio(zip(times * 7.3, events, group))
        assert abs(rescaled.beta - res.beta) <= 1e-9


def test_classification_task_plumbing():
    with criterion("Classification-task plumbing"):
        # rates 3.0 vs 0.05 with t0=0.5, t1=1.5: surviving the window has
        # probability exp(-0.05) = 0.951 in the slow group and
        # exp(-3) = 0.050 in the fast group, so group determines the label
        # with >= 90% purity
        specs = (GroupSpec(0.5, 3.0, (0.0, 0.0)), GroupSpec(0.5, 0.05, (3.0, 3.0)))
        config = SynthConfig(specs, n_subjects=4000, entry_window=1.0,
                             study_duration=1000.0, noise_features=5, seed=616)
        data, truth = generate(config)
        t0, t1 = 0.5, 1.5
        eligible = survival_labels(data, t0, t1)
        index_of = {sid: i for i, sid in enumerate(data.ids)}
        rows = np.array([index_of[sid] for sid, _ in eligible])
        y = np.array([alive for _, alive in eligible], dtype=bool)
        for g, expect in ((0, False), (1, True)):
            mask = truth[rows] == g
            purity = float(np.mean(y[mask] == expect))
            assert purity >= 0.9, f"group {g} purity {purity:.3f}"

        tree = grow_tree(data, TreeConfig())
        model = fit_cluster_model(data, tree, k=2)
        clusters = cluster_assign_dataset(model, data)[rows]
        rng = np.random.default_rng(0)
        order = rng.permutation(len(y))
        n_train = int(round(0.7 * len(y)))
        train, test = order[:n_train], order[n_train:]
        weights = logistic_fit(one_hot(clusters[train], model.k), y[train])
        rep = classify_and_score(weights, one_hot(clusters[test], model.k), y[test])
        assert rep.accuracy >= 0.85, f"accuracy {rep.accuracy:.3f}"

        # metric identities on the produced report
        total = rep.tp + rep.fp + rep.tn + rep.fn
        assert total == len(test)
        assert rep.precision == pytest.approx(rep.tp / (rep.tp + rep.fp))
        assert rep.recall == pytest.approx(rep.tp / (rep.tp + rep.fn))
        assert rep.f_measure == pytest.approx(
            2 * rep.precision * rep.recall / (rep.precision + rep.recall))
        assert rep.accuracy == pytest.approx((rep.tp + rep.tn) / total)
        assert rep.fpr == pytest.approx(rep.fp / (rep.fp + rep.tn))
        # cross-check against the published k=2 row arithmetic
        assert 2 * 0.689 * 0.707 / (0.689 + 0.707) == pytest.approx(0.698, abs=1e-3)


def test_bonferroni_gate():
    with criterion("Bonferroni gate"):
        schema = FeatureSchema(tuple(Feature(f"f{i}", "numeric") for i in range(20)))
        single = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = 200
            data = SurvivalDataset(schema, [f"s{i}" for i in range(n)],
                                   [rng.normal(size=n) for _ in range(20)],
                                   rng.exponential(1.0, n), np.ones(n, dtype=bool))
            tree = grow_tree(data, TreeConfig())
            if len(tree.leaf_ids) == 1:
                single += 1
        assert single >= 95, f"single-leaf runs: {single}/100"


def test_cmd_fit_determinism(tmp_path, monkeypatch):
    with criterion("Determinism of cmd_fit"):
        data_dir = tmp_path / "data"
        assert cli_main(["simulate", "--groups", "2", "--n", "1000",
                         "--seed", "99", "--rate-decay", "0.2",
                         "--out", str(data_dir)]) == 0
        blobs = []
        for threads, name in (("1", "a.json"), ("3", "b.json"), ("0", "c.json")):
            monkeypatch.setenv("SURVCLUST_THREADS", threads)
            out = tmp_path / name
            assert cli_main(["fit", "--data", str(data_dir / "subjects.csv"),
                             "--schema", str(data_dir / "schema.json"),
                             "--k", "2", "--min-leaf-subjects", "40",
                             "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
