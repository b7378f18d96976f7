"""Command-line interface: simulate, fit, evaluate, predict, report.

Exit codes: 0 success, 1 I/O failure, 2 invalid input or configuration,
3 infeasible request (e.g. more clusters than the tree can support).
All randomness sits behind --seed; identical flags produce identical
output bytes. SURVCLUST_THREADS is accepted but ignored: fitting runs in
one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from itertools import chain
from operator import itemgetter

import numpy as np

from .clustering import cluster_assign_dataset, fit_cluster_model
from .core import SurvivalDataset, validate_dataset
from .dataio import (atomic_open, dump_json, iter_subject_chunks,
                     load_dataset_csv, load_json, load_model, save_dataset_csv,
                     save_json, save_model, schema_from_dict, schema_to_dict)
from .errors import SurvClustError, UnreachableKError
from .evaluation import (classify_and_score, cox_hazard_ratio, logistic_fit,
                         one_hot, survival_labels)
from .ingest import (activity_to_survival, build_activity_log,
                     early_window_features, read_activity_csv,
                     read_profiles_csv)
from .synth import SynthConfig, default_group_specs, generate
from .tree import TreeConfig, grow_tree
from .twosample import logrank_test


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _add_tree_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=0.05,
                   help="split significance level (default 0.05)")
    p.add_argument("--min-leaf-subjects", type=int, default=50)
    p.add_argument("--min-leaf-events", type=int, default=5)
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--max-thresholds", type=int, default=32,
                   help="numeric threshold candidates per feature")


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", help="subject CSV (id,time,event,features...)")
    p.add_argument("--schema", help="feature schema JSON sidecar")
    p.add_argument("--activity", help="activity CSV (user_id,timestamp,direction,partner_id)")
    p.add_argument("--profiles", help="profile CSV (user_id,join_time,features...)")
    p.add_argument("--cutoff", type=float, default=10.0,
                   help="inactivity duration after which a user counts as dead")
    p.add_argument("--window", type=float, default=5.0,
                   help="early-activity feature window after joining")
    p.add_argument("--study-end", type=float, default=None,
                   help="observation horizon for activity logs (default: last timestamp)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="survclust",
        description="Cluster censored-lifetime populations by survival behavior.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic planted-group dataset")
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--weights", default=None,
                   help="comma-separated group weights (default: equal)")
    p.add_argument("--signature-features", type=int, default=5)
    p.add_argument("--noise-features", type=int, default=20)
    p.add_argument("--entry-window", type=float, default=4.0)
    p.add_argument("--study-duration", type=float, default=12.0)
    p.add_argument("--rate-base", type=float, default=1.0)
    p.add_argument("--rate-decay", type=float, default=0.4)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="grow the tree and cluster its leaves")
    _add_data_flags(p)
    _add_tree_flags(p)
    p.add_argument("--k", type=int, default=None,
                   help="cluster count (default: natural MCL granularity)")
    p.add_argument("--inflation", type=float, default=2.0)
    p.add_argument("--expansion", type=int, default=2)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="log-rank, hazard ratio, classification task")
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--t0", type=float, default=5.0,
                   help="feature horizon: subjects must be alive here")
    p.add_argument("--t1", type=float, default=10.0,
                   help="prediction horizon: still alive here?")
    p.add_argument("--split", type=float, default=0.7,
                   help="train fraction for the classification task, in (0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="assign cluster labels to subjects")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unknown-as-majority-child", action="store_true",
                   help="route NaN and unknown categories to the larger training child")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="export per-cluster survival curves")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="curves JSON path (default stdout)")
    p.set_defaults(func=cmd_report)

    return parser


def _load_training_dataset(args) -> SurvivalDataset:
    if args.activity or args.profiles:
        if not (args.activity and args.profiles and args.schema):
            raise SurvClustError("activity ingestion needs --activity, --profiles and --schema")
        profile_schema = schema_from_dict(load_json(args.schema))
        rows = read_activity_csv(args.activity)
        profiles = read_profiles_csv(args.profiles, profile_schema)
        join_times = {uid: jt for uid, (jt, _) in profiles.items()}
        study_end = args.study_end
        if study_end is None:
            study_end = max(chain(map(itemgetter(1), rows), join_times.values()))
        log = build_activity_log(rows, join_times, study_end)
        merged_schema, feats = early_window_features(
            log, args.window, profile_schema,
            {uid: values for uid, (_, values) in profiles.items()})
        dataset, discards = activity_to_survival(log, args.cutoff, merged_schema, feats)
        print(f"ingested {len(dataset)} subjects "
              f"({int(dataset.events.sum())} events), discarded {len(discards)}")
        return dataset
    if not (args.data and args.schema):
        raise SurvClustError("need --data and --schema (or the activity trio)")
    schema = schema_from_dict(load_json(args.schema))
    return load_dataset_csv(args.data, schema)


def cmd_simulate(args) -> int:
    specs = default_group_specs(args.groups, args.signature_features,
                                args.rate_base, args.rate_decay)
    if args.weights is not None:
        try:
            weights = [float(x) for x in args.weights.split(",")]
        except ValueError:
            raise SurvClustError("--weights must be comma-separated numbers")
        if len(weights) != args.groups:
            raise SurvClustError(f"--weights must list {args.groups} values")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise SurvClustError("--weights must sum to 1")
        specs = tuple(replace(s, weight=w) for w, s in zip(weights, specs))
    config = SynthConfig(specs, args.n, args.entry_window, args.study_duration,
                         args.noise_features, args.seed)
    dataset, labels = generate(config)
    os.makedirs(args.out, exist_ok=True)
    save_dataset_csv(dataset, os.path.join(args.out, "subjects.csv"))
    save_json(schema_to_dict(dataset.schema), os.path.join(args.out, "schema.json"))
    with atomic_open(os.path.join(args.out, "labels.csv")) as fh:
        fh.write("id,group\n")
        fh.writelines(f"{sid},{g}\n" for sid, g in zip(dataset.ids, labels.tolist()))
    print(f"wrote {len(dataset)} subjects "
          f"({int(dataset.events.sum())} events) to {args.out}")
    return 0


def _validated(dataset: SurvivalDataset) -> SurvivalDataset:
    """The dataset itself, or SurvClustError after printing its first violations."""
    report = validate_dataset(dataset)
    if not report.ok:
        for v in report.violations[:5]:
            where = v.subject_id or "<dataset>"
            print(f"invalid data: {where}: {v.message}", file=sys.stderr)
        raise SurvClustError(f"{len(report.violations)} validation violation(s)")
    return dataset


def cmd_fit(args) -> int:
    dataset = _validated(_load_training_dataset(args))
    config = TreeConfig(alpha=args.alpha,
                        min_leaf_subjects=args.min_leaf_subjects,
                        min_leaf_events=args.min_leaf_events,
                        max_depth=args.max_depth,
                        max_numeric_thresholds=args.max_thresholds)
    tree = grow_tree(dataset, config)
    model = fit_cluster_model(dataset, tree, k=args.k,
                              expansion=args.expansion, inflation=args.inflation)
    save_model(model, args.out)

    internal = [n for n in tree.nodes() if not n.is_leaf]
    print(f"tree: {len(tree.leaf_ids)} leaves, {len(internal)} splits")
    for node in internal[:10]:
        test = node.split.test.describe(tree.schema[node.split.feature])
        print(f"  node {node.node_id}: {test}  "
              f"p={node.split.p_value:.3e} (m={node.n_candidates})")
    labels = cluster_assign_dataset(model, dataset)
    sizes = np.bincount(labels, minlength=model.k)
    print(f"clusters: k={model.k}, sizes={sizes.tolist()}")
    print(f"model written to {args.out}")
    return 0


def _classification_block(model, dataset, labels_by_id, args):
    eligible = survival_labels(dataset, args.t0, args.t1)
    if not eligible:
        return None, "no subjects eligible for the t0/t1 horizons"
    index_of = {sid: i for i, sid in enumerate(dataset.ids)}
    clusters = labels_by_id[[index_of[sid] for sid, _ in eligible]]
    y = np.array([alive for _, alive in eligible], dtype=bool)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(y))
    n_train = int(round(args.split * len(y)))
    train, test = order[:n_train], order[n_train:]
    if len(train) == 0 or len(test) == 0:
        return None, "train/test split left an empty side"
    if len(np.unique(y[train])) < 2:
        return None, "training labels are single-class at these horizons"
    x_train = one_hot(clusters[train], model.k)
    weights = logistic_fit(x_train, y[train])
    rep = classify_and_score(weights, one_hot(clusters[test], model.k), y[test])
    block = rep.to_json_dict()
    block.update({"k": model.k, "n_eligible": len(y),
                  "n_train": int(len(train)), "n_test": int(len(test))})
    return block, None


def cmd_evaluate(args) -> int:
    if not 0 < args.split < 1:
        raise SurvClustError("--split must be between 0 and 1")
    model = load_model(args.model)
    if args.data and not args.schema:
        dataset = load_dataset_csv(args.data, model.tree.schema)
    else:
        dataset = _load_training_dataset(args)
        if dataset.schema != model.tree.schema:
            raise SurvClustError("dataset schema does not match the model's schema")
    labels = cluster_assign_dataset(model, _validated(dataset))

    report: dict = {"k": model.k,
                    "cluster_sizes": np.bincount(labels, minlength=model.k).tolist(),
                    "curves": [c.to_json_dict() for c in model.cluster_curves]}

    if model.k >= 2:
        groups = []
        for c in range(model.k):
            mask = labels == c
            groups.append(list(zip(dataset.times[mask].tolist(),
                                   dataset.events[mask].tolist())))
        lr = logrank_test(groups)
        report["logrank"] = {"chi2": lr.statistic, "p": lr.p_value}
        print(f"log-rank: chi2 = {lr.statistic:.3f}, p = {lr.p_value:.3e}")
    else:
        report["logrank"] = {"skipped": "k<2"}
        print("log-rank: skipped (k<2)")

    if model.k == 2:
        hr = cox_hazard_ratio(zip(dataset.times.tolist(),
                                  dataset.events.tolist(), labels.tolist()))
        report["hazard_ratio"] = hr.to_json_dict()
        note = " (diverged)" if hr.diverged else ""
        print(f"hazard ratio: {hr.hazard_ratio:.3f} "
              f"(95% CI {hr.ci95[0]:.3f}-{hr.ci95[1]:.3f}){note}")
    else:
        report["hazard_ratio"] = None
        print("hazard ratio: only defined for k = 2")

    block, reason = _classification_block(model, dataset, labels, args)
    if block is None:
        report["classification"] = {"skipped": reason}
        print(f"classification: skipped ({reason})")
    else:
        report["classification"] = block
        print(f"{'Method':<24} {'Precision':>9} {'Recall':>7} "
              f"{'F-measure':>9} {'Accuracy':>8} {'FPR':>6}")
        print(f"{f'survclust (k = {model.k})':<24} {block['precision']:>9.3f} "
              f"{block['recall']:>7.3f} {block['f_measure']:>9.3f} "
              f"{block['accuracy']:>8.3f} {block['fpr']:>6.3f}")

    if args.out:
        save_json(report, args.out)
        print(f"report written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    unknown = "majority" if args.unknown_as_majority_child else None
    with atomic_open(args.out) as out:
        out.write("id,cluster\n")
        for chunk in iter_subject_chunks(args.data, model.tree.schema, strict=unknown is None):
            labels = cluster_assign_dataset(model, chunk, unknown)
            out.writelines(f"{sid},{label}\n" for sid, label in zip(chunk.ids, labels.tolist()))
    return 0


def cmd_report(args) -> int:
    model = load_model(args.model)
    payload = {"k": model.k,
               "curves": [c.to_json_dict() for c in model.cluster_curves]}
    if args.out:
        save_json(payload, args.out)
        print(f"curves written to {args.out}")
    else:
        print(dump_json(payload))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnreachableKError as exc:
        return _fail(str(exc), 3)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), 1)
    except (SurvClustError, ValueError) as exc:
        return _fail(str(exc), 2)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
