"""Survival-supervised clustering toolkit.

Grows a decision tree whose splits maximize Kuiper divergence between
child survival curves (Bonferroni-gated), then reclusters the leaves with
Sinkhorn-Knopp balancing and Markov clustering of the pairwise p-value
graph. Includes evaluation instruments (log-rank, Cox hazard ratio, the
cluster-label classification task), censored-log ingestion, and a seeded
synthetic generator.
"""

from . import errors
from .clustering import (ClusterModel, LeafGraph, build_leaf_graph,
                         cluster_assign, cluster_assign_dataset, coarsen_to_k,
                         fit_cluster_model, leaf_samples, mcl, sinkhorn_knopp)
from .core import (CATEGORICAL, NUMERIC, Feature, FeatureSchema, Subject,
                   SurvivalDataset, ValidationReport, Violation, validate_dataset)
from .evaluation import (ClassificationReport, HazardRatioResult,
                         classify_and_score, cox_hazard_ratio, logistic_fit,
                         one_hot, predict_proba, survival_labels)
from .ingest import ActivityLog, activity_to_survival, early_window_features
from .kaplan_meier import SurvivalCurve, km_fit_arrays
from .synth import GroupSpec, SynthConfig, default_group_specs, generate
from .tree import (SplitCandidate, SurvivalTree, TreeConfig, TreeNode,
                   assign_leaf, assign_leaves, best_split, enumerate_splits,
                   grow_tree)
from .twosample import TestResult, kuiper_matrix, kuiper_pvalue, logrank_test

__all__ = [
    "errors",
    "CATEGORICAL", "NUMERIC", "Feature", "FeatureSchema", "Subject",
    "SurvivalDataset", "ValidationReport", "Violation", "validate_dataset",
    "SurvivalCurve", "km_fit_arrays",
    "TestResult", "kuiper_matrix", "kuiper_pvalue", "logrank_test",
    "SplitCandidate", "SurvivalTree", "TreeConfig", "TreeNode", "assign_leaf",
    "assign_leaves", "best_split", "enumerate_splits", "grow_tree",
    "ClusterModel", "LeafGraph", "build_leaf_graph", "cluster_assign",
    "cluster_assign_dataset", "coarsen_to_k", "fit_cluster_model",
    "leaf_samples", "mcl", "sinkhorn_knopp",
    "ClassificationReport", "HazardRatioResult", "classify_and_score",
    "cox_hazard_ratio", "logistic_fit", "one_hot", "predict_proba",
    "survival_labels",
    "ActivityLog", "activity_to_survival", "early_window_features",
    "GroupSpec", "SynthConfig", "default_group_specs", "generate",
]
