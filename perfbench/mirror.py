"""Traced replicas of ``survclust fit``, ``predict`` and ``evaluate``.

Each replica parses the same argv with the CLI's own parser and calls the
modules' public functions in the order the CLI does, with a span around
every call. What is left inside a ``cli.*`` span after its children is
the CLI's own glue. The benchmark checks that each replica writes the same
bytes as the real command, so the spans account for the command's work.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np
from survclust import cli
from survclust.clustering import (WEIGHT_FLOOR, build_leaf_graph, cluster_assign,
                                  cluster_assign_dataset, coarsen_to_k,
                                  leaf_samples, mcl, sinkhorn_knopp)
from survclust.core import validate_dataset
from survclust.dataio import (load_dataset_csv, load_json, load_model,
                              iter_subjects_csv, save_json, save_model,
                              schema_from_dict)
from survclust.errors import SurvClustError
from survclust.evaluation import (classify_and_score, cox_hazard_ratio,
                                  logistic_fit, one_hot, survival_labels)
from survclust.ingest import (activity_to_survival, build_activity_log,
                              early_window_features, read_activity_csv,
                              read_profiles_csv)
from survclust.tree import TreeConfig, best_split, enumerate_splits, grow_tree
from survclust.twosample import logrank_test


def _ingest(tr, args, counts):
    with tr.span("dataio.load_schema"):
        profile_schema = schema_from_dict(load_json(args.schema))
    with tr.span("ingest.read_activity_csv"):
        rows = read_activity_csv(args.activity)
    with tr.span("ingest.read_profiles_csv"):
        profiles = read_profiles_csv(args.profiles, profile_schema)
    join_times = {uid: jt for uid, (jt, _) in profiles.items()}
    study_end = args.study_end
    if study_end is None:
        study_end = max([ts for _, ts, _, _ in rows] + list(join_times.values()))
    with tr.span("ingest.build_activity_log"):
        log = build_activity_log(rows, join_times, study_end)
    with tr.span("ingest.early_window_features"):
        merged_schema, feats = early_window_features(
            log, args.window, profile_schema,
            {uid: values for uid, (_, values) in profiles.items()})
    with tr.span("ingest.activity_to_survival"):
        dataset, discards = activity_to_survival(log, args.cutoff, merged_schema, feats)
    counts["ingest.records"] = len(rows)
    counts["ingest.users"] = len(log.users)
    counts["ingest.discarded"] = len(discards)
    counts["ingest.records_read"] = counts.get("ingest.records_read", 0) + len(rows)
    return dataset


def _load_training(tr, args, counts):
    if args.activity:
        return _ingest(tr, args, counts)
    with tr.span("dataio.load_schema"):
        schema = schema_from_dict(load_json(args.schema))
    with tr.span("dataio.load_dataset_csv"):
        dataset = load_dataset_csv(args.data, schema)
    counts["dataio.rows"] = counts.get("dataio.rows", 0) + len(dataset)
    return dataset


def fit(tr, argv, counts):
    """``survclust fit``; returns (dataset, tree config, tree, model)."""
    args = cli.build_parser().parse_args(argv)
    with tr.span("cli.fit"):
        dataset = _load_training(tr, args, counts)
        with tr.span("core.validate_dataset"):
            report = validate_dataset(dataset)
        if not report.ok:
            raise SurvClustError(f"{len(report.violations)} validation violation(s)")
        config = TreeConfig(alpha=args.alpha, min_leaf_subjects=args.min_leaf_subjects,
                            min_leaf_events=args.min_leaf_events,
                            max_depth=args.max_depth,
                            max_numeric_thresholds=args.max_thresholds)
        with tr.span("tree.grow_tree"):
            tree = grow_tree(dataset, config)
        with tr.span("clustering.leaf_samples"):
            samples = leaf_samples(tree, dataset)
        with tr.span("clustering.build_leaf_graph"):
            graph = build_leaf_graph(tree)
        with tr.span("clustering.sinkhorn_knopp"):
            balanced = sinkhorn_knopp(np.maximum(graph.weights, WEIGHT_FLOOR))
        with tr.span("clustering.mcl"):
            partition = mcl(balanced, args.expansion, args.inflation)
        k = len(partition) if args.k is None else args.k
        with tr.span("clustering.coarsen_to_k"):
            model = coarsen_to_k(partition, graph, tree, k, samples, balanced,
                                 args.expansion, args.inflation)
        with tr.span("dataio.save_model"):
            save_model(model, args.out)
        with tr.span("clustering.cluster_assign_dataset"):
            cluster_assign_dataset(model, dataset)
    leaves, groups = len(tree.leaf_ids), len(partition)
    merge_pairs = sum(g * (g - 1) // 2 for g in range(k + 1, groups + 1))
    counts.update({"tree.nodes": len(tree.nodes()), "tree.leaves": leaves,
                   "clustering.mcl_groups": groups,
                   "clustering.merges": max(groups - k, 0),
                   "clustering.kuiper_tests": leaves * (leaves - 1) // 2 + merge_pairs,
                   "dataio.model_bytes": os.path.getsize(args.out)})
    return dataset, config, tree, model


def predict(tr, argv, counts):
    """``survclust predict`` (strict routing), timing parse and routing per row."""
    args = cli.build_parser().parse_args(argv)
    if args.unknown_as_majority_child:
        raise ValueError("the traced predict replicates strict routing only")
    with tr.span("cli.predict"):
        with tr.span("dataio.load_model"):
            model = load_model(args.model)
        directory = os.path.dirname(os.path.abspath(args.out))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        parse = route = 0.0
        rows = 0
        clock = time.perf_counter
        with os.fdopen(fd, "w") as out:
            out.write("id,cluster\n")
            subjects = iter_subjects_csv(args.data, model.tree.schema, strict=True)
            while True:
                t0 = clock()
                subject = next(subjects, None)
                t1 = clock()
                parse += t1 - t0
                if subject is None:
                    break
                label = cluster_assign(model, subject)
                route += clock() - t1
                rows += 1
                out.write(f"{subject.id},{label}\n")
        os.replace(tmp, args.out)
        tr.aggregate("dataio.iter_subjects_csv", parse, rows)
        tr.aggregate("clustering.cluster_assign_rows", route, rows)
    counts["dataio.rows"] = counts.get("dataio.rows", 0) + rows


def evaluate(tr, argv, counts):
    """``survclust evaluate``; returns the scored dataset and model."""
    args = cli.build_parser().parse_args(argv)
    with tr.span("cli.evaluate"):
        with tr.span("dataio.load_model"):
            model = load_model(args.model)
        if args.data and not args.schema:
            with tr.span("dataio.load_dataset_csv"):
                dataset = load_dataset_csv(args.data, model.tree.schema)
            counts["dataio.rows"] = counts.get("dataio.rows", 0) + len(dataset)
        else:
            dataset = _load_training(tr, args, counts)
            if dataset.schema != model.tree.schema:
                raise SurvClustError("dataset schema does not match the model's schema")
        with tr.span("clustering.cluster_assign_dataset"):
            labels = cluster_assign_dataset(model, dataset)
        report = {"k": model.k,
                  "cluster_sizes": np.bincount(labels, minlength=model.k).tolist(),
                  "curves": [c.to_json_dict() for c in model.cluster_curves]}
        if model.k >= 2:
            groups = []
            for c in range(model.k):
                mask = labels == c
                groups.append(list(zip(dataset.times[mask].tolist(),
                                       dataset.events[mask].tolist())))
            with tr.span("twosample.logrank_test"):
                lr = logrank_test(groups)
            report["logrank"] = {"chi2": lr.statistic, "p": lr.p_value}
        else:
            report["logrank"] = {"skipped": "k<2"}
        report["hazard_ratio"] = None
        if model.k == 2:
            samples = zip(dataset.times.tolist(), dataset.events.tolist(), labels.tolist())
            with tr.span("evaluation.cox_hazard_ratio"):
                hr = cox_hazard_ratio(samples)
            report["hazard_ratio"] = hr.to_json_dict()
            counts["evaluation.cox_iterations"] = hr.iterations
        report["classification"] = _classification(tr, model, dataset, labels, args)
        if args.out:
            with tr.span("dataio.save_json"):
                save_json(report, args.out)
    return dataset, model


def _classification(tr, model, dataset, labels_by_id, args):
    with tr.span("evaluation.survival_labels"):
        eligible = survival_labels(dataset, args.t0, args.t1)
    if not eligible:
        return {"skipped": "no subjects eligible for the t0/t1 horizons"}
    index_of = {sid: i for i, sid in enumerate(dataset.ids)}
    clusters = labels_by_id[[index_of[sid] for sid, _ in eligible]]
    y = np.array([alive for _, alive in eligible], dtype=bool)
    order = np.random.default_rng(args.seed).permutation(len(y))
    n_train = int(round(args.split * len(y)))
    train, test = order[:n_train], order[n_train:]
    if len(train) == 0 or len(test) == 0:
        return {"skipped": "train/test split left an empty side"}
    if len(np.unique(y[train])) < 2:
        return {"skipped": "training labels are single-class at these horizons"}
    with tr.span("evaluation.logistic_fit"):
        weights = logistic_fit(one_hot(clusters[train], model.k), y[train])
    with tr.span("evaluation.classify_and_score"):
        rep = classify_and_score(weights, one_hot(clusters[test], model.k), y[test])
    block = rep.to_json_dict()
    block.update({"k": model.k, "n_eligible": len(y),
                  "n_train": int(len(train)), "n_test": int(len(test))})
    return block


def replay_tree(tr, dataset, config, counts):
    """Grow the tree node by node through ``enumerate_splits``/``best_split``.

    Uses ``grow_tree``'s documented stop rule (depth, subject and event
    minima, Bonferroni gate). Returns the preorder list of (split, m) per
    internal node and the leaf count, for comparison with ``grow_tree``.
    """
    splits = []
    leaves = 0
    scored = 0

    def node(data, depth):
        nonlocal leaves, scored
        chosen = None
        if (depth < config.max_depth and len(data) >= 2 * config.min_leaf_subjects
                and data.n_events >= 2 * config.min_leaf_events):
            with tr.span("tree.enumerate_splits"):
                candidates = enumerate_splits(data, data.schema, config)
            with tr.span("tree.best_split"):
                chosen = best_split(data, candidates, config)
            scored += len(candidates)
            if chosen is not None:
                splits.append((chosen, len(candidates)))
        if chosen is None:
            leaves += 1
            return
        mask = chosen.test.evaluate(data.columns[chosen.feature])
        node(data.subset_mask(mask), depth + 1)
        node(data.subset_mask(~mask), depth + 1)

    node(dataset, 0)
    counts["tree.candidates_scored"] = scored
    return splits, leaves
