"""Per-layer metrics of the traced run, and what each one should move.

Layers are the modules of ``src/survclust``. Times are summed span
durations over the workload's commands (``_s``), counts are exact and
repeat for a seed. ``MOVES`` names, for every per-layer metric, the
end-to-end metric and workload it should move when that layer changes.
"""

from __future__ import annotations

from spans import self_times, totals

MOVES = {
    "dataio.load_dataset_csv_s": "evaluate_s on score-50k (most of it); a small share of fit_s on fit-planted",
    "dataio.rows_per_s": "evaluate_s and predict_s on score-50k",
    "dataio.iter_subjects_csv_s": "predict_s on score-50k",
    "dataio.save_model_s": "fit_s on ingest-activity (many leaf curves)",
    "dataio.load_model_s": "predict_s and evaluate_s on every workload",
    "dataio.model_bytes": "fit_s on ingest-activity; predict_s and evaluate_s via load_model",
    "core.validate_dataset_s": "fit_s on fit-planted and ingest-activity",
    "tree.grow_tree_s": "fit_s: most of it on fit-planted, about half on ingest-activity; only the shallow training fit on score-50k",
    "tree.grow_tree_threads1_s": "fit_s on fit-planted and ingest-activity (SURVCLUST_THREADS=1 beside the default)",
    "tree.enumerate_splits_s": "fit_s on fit-planted",
    "tree.best_split_s": "fit_s on fit-planted",
    "tree.candidates_scored": "fit_s on fit-planted (work count)",
    "tree.nodes": "fit_s on fit-planted and ingest-activity (work count)",
    "tree.leaves": "fit_s on ingest-activity via clustering (work count)",
    "tree.score_us_per_candidate": "fit_s on fit-planted",
    "tree.assign_leaves_s": "evaluate_s on score-50k",
    "clustering.build_leaf_graph_s": "fit_s on ingest-activity; nothing on fit-planted",
    "clustering.sinkhorn_knopp_s": "fit_s on ingest-activity; nothing on fit-planted",
    "clustering.mcl_s": "fit_s on ingest-activity; nothing on fit-planted",
    "clustering.coarsen_to_k_s": "fit_s on ingest-activity; nothing on fit-planted",
    "clustering.mcl_groups": "fit_s on ingest-activity (work count)",
    "clustering.merges": "fit_s on ingest-activity (work count)",
    "clustering.kuiper_tests": "fit_s on ingest-activity (leaf pairs plus merge-loop pairs)",
    "clustering.cluster_assign_rows_s": "predict_s on score-50k",
    "clustering.cluster_assign_dataset_s": "evaluate_s on score-50k",
    "twosample.logrank_test_s": "evaluate_s on score-50k",
    "evaluation.cox_hazard_ratio_s": "evaluate_s on score-50k",
    "evaluation.cox_iterations": "evaluate_s on score-50k (work count)",
    "evaluation.survival_labels_s": "evaluate_s on score-50k",
    "evaluation.logistic_fit_s": "evaluate_s on score-50k",
    "ingest.read_activity_csv_s": "fit_s on ingest-activity only",
    "ingest.read_profiles_csv_s": "fit_s on ingest-activity only",
    "ingest.build_activity_log_s": "fit_s on ingest-activity only",
    "ingest.early_window_features_s": "fit_s on ingest-activity only",
    "ingest.activity_to_survival_s": "fit_s on ingest-activity only",
    "ingest.records": "fit_s on ingest-activity (input count)",
    "ingest.users": "fit_s on ingest-activity (input count)",
    "ingest.discarded": "fit_s on ingest-activity (input count)",
    "ingest.records_per_s": "fit_s on ingest-activity",
    "synth.generate_s": "setup_s on every workload",
    "cli.self_s": "whichever command's glue changes (each command's time minus its layer spans)",
    "trace.overhead_s": "none: traced commands minus the same commands untraced",
}

INGEST = ("ingest.read_activity_csv", "ingest.read_profiles_csv", "ingest.build_activity_log",
          "ingest.early_window_features", "ingest.activity_to_survival")
COUNTS = ("tree.candidates_scored", "tree.nodes", "tree.leaves", "clustering.mcl_groups",
          "clustering.merges", "clustering.kuiper_tests", "evaluation.cox_iterations",
          "dataio.model_bytes", "ingest.records", "ingest.users", "ingest.discarded")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def derive(spans, counts, untraced_walls):
    """Per-layer metric values from the merged spans and the session's counts.

    ``untraced_walls`` is the summed wall time of the same commands run
    untraced, so ``trace.overhead_s`` is what tracing added to them.
    """
    t = totals(spans)
    out = {}
    for name in MOVES:
        if name.endswith("_s") and name[:-2] in t:
            out[name] = t[name[:-2]]
        elif name.endswith("_s"):
            out[name] = 0.0
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    parse = t.get("dataio.load_dataset_csv", 0.0) + t.get("dataio.iter_subjects_csv", 0.0)
    out["dataio.rows_per_s"] = _ratio(counts.get("dataio.rows", 0), parse)
    out["tree.score_us_per_candidate"] = 1e6 * _ratio(t.get("tree.best_split", 0.0),
                                                      counts.get("tree.candidates_scored", 0))
    out["ingest.records_per_s"] = _ratio(counts.get("ingest.records_read", 0),
                                         sum(t.get(n, 0.0) for n in INGEST))
    own = self_times(spans)
    commands = [i for i, s in enumerate(spans) if s["name"].startswith("cli.")]
    out["cli.self_s"] = sum(own[i] for i in commands)
    out["trace.overhead_s"] = sum(spans[i]["end"] - spans[i]["start"] for i in commands) - untraced_walls
    return out


def command_accounting(spans):
    """Per traced command: its span, the layer spans under it, and its own glue."""
    own = self_times(spans)
    rows = []
    for i, s in enumerate(spans):
        if s["name"].startswith("cli."):
            total = s["end"] - s["start"]
            rows.append((s["name"], total, total - own[i], own[i]))
    return rows
