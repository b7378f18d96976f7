"""Decision tree whose splits maximize Kuiper divergence between child curves.

Each node enumerates attribute-value tests (numeric "value < threshold",
categorical "value = level"), fits survival curves on both induced child
populations, and keeps the candidate with the lowest Kuiper p-value. The
split is accepted only if that p-value clears the Bonferroni-corrected
level alpha/m, m being the number of candidates tested at the node; both
ranking and gate use log p-values, which stay ordered where p underflows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .core import CATEGORICAL, NUMERIC, Feature, FeatureSchema, Subject, SurvivalDataset
from .errors import NoEventsAtRootError, SchemaMismatchError
from .kaplan_meier import SurvivalCurve, km_fit_arrays, risk_sets, survival_on_grid
from .twosample import kuiper_log_pvalue, kuiper_pvalue


@dataclass(frozen=True)
class NumericTest:
    """True iff value < threshold; equality routes to the false side."""

    threshold: float

    def evaluate(self, column: np.ndarray) -> np.ndarray:
        return column < self.threshold

    def describe(self, feature: Feature) -> str:
        return f"{feature.name} < {self.threshold:g}"


@dataclass(frozen=True)
class CategoryTest:
    """True iff the value equals one category level (one-vs-rest)."""

    category_index: int

    def evaluate(self, column: np.ndarray) -> np.ndarray:
        return column == self.category_index

    def describe(self, feature: Feature) -> str:
        return f"{feature.name} = {feature.categories[self.category_index]}"


@dataclass(frozen=True)
class SplitCandidate:
    feature: int
    test: Union[NumericTest, CategoryTest]
    p_value: float = float("nan")
    statistic: float = float("nan")


@dataclass(frozen=True)
class TreeConfig:
    alpha: float = 0.05
    min_leaf_subjects: int = 50
    min_leaf_events: int = 5
    max_depth: int = 12
    max_numeric_thresholds: int = 32

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")
        for name in ("min_leaf_subjects", "min_leaf_events", "max_depth",
                     "max_numeric_thresholds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class TreeNode:
    """Internal node (split + children) or leaf (curve + counts)."""

    node_id: int
    split: Optional[SplitCandidate] = None
    n_candidates: int = 0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    leaf_id: Optional[int] = None
    n_subjects: int = 0
    n_events: int = 0
    curve: Optional[SurvivalCurve] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class SurvivalTree:
    schema: FeatureSchema
    root: TreeNode
    config: TreeConfig
    leaf_ids: list[int] = field(default_factory=list)

    def leaves(self) -> list[TreeNode]:
        return [node for node in self.nodes() if node.is_leaf]

    def nodes(self) -> list[TreeNode]:  # preorder, left subtree first
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack += [node.right, node.left]
        return out


def enumerate_splits(data: SurvivalDataset, schema: FeatureSchema,
                     config: TreeConfig) -> list[SplitCandidate]:
    """All admissible attribute-value tests on this node's population.

    Numeric features test midpoints between consecutive distinct values,
    thinned to at most ``max_numeric_thresholds`` equally spaced positions
    along the sorted midpoint sequence; categorical features test each
    observed level one-vs-rest. Candidates leaving either side short of
    the leaf minima are dropped. Order is deterministic: schema order,
    then ascending threshold / category index.
    """
    n = len(data)
    if n == 0:
        return []
    events = data.events
    total_events = int(events.sum())
    out: list[SplitCandidate] = []
    for j, feature in enumerate(schema):
        col = data.columns[j]
        if feature.kind == NUMERIC:
            order = np.argsort(col, kind="stable")
            sorted_col = col[order]
            distinct = sorted_col[np.r_[True, sorted_col[1:] != sorted_col[:-1]]]
            if distinct.size < 2:
                continue
            mids = 0.5 * (distinct[:-1] + distinct[1:])
            if mids.size > config.max_numeric_thresholds:
                pick = np.round(np.linspace(0, mids.size - 1,
                                            config.max_numeric_thresholds)).astype(int)
                mids = np.unique(mids[pick])
            tests = [NumericTest(float(theta)) for theta in mids]
            n_true = np.searchsorted(sorted_col, mids, side="left")
            e_true = np.r_[0, np.cumsum(events[order])][n_true]
        else:
            tests = [CategoryTest(level) for level in range(len(feature.categories))]
            true_side = col == np.arange(len(tests))[:, None]
            n_true, e_true = true_side.sum(axis=1), (true_side & events).sum(axis=1)
        keep = ((np.minimum(n_true, n - n_true) >= config.min_leaf_subjects)
                & (np.minimum(e_true, total_events - e_true) >= config.min_leaf_events))
        out.extend(SplitCandidate(j, test) for test, ok in zip(tests, keep) if ok)
    return out


def score_candidates(data: SurvivalDataset, candidates: list[SplitCandidate]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kuiper V and child event counts (true side, false side) per candidate.

    Child curves are evaluated on the node's distinct death times, so V
    equals :func:`kuiper_statistic` on the fitted child curves. Each
    feature's candidates are scored together from their candidates x
    subjects mask in time order.
    """
    order = np.argsort(data.times, kind="stable")
    times, events = data.times[order], data.events[order]
    _, node_at_risk, node_deaths = risk_sets(times, events,
                                             np.ones((1, times.size), dtype=bool))

    v = np.zeros(len(candidates))
    events_true = np.zeros(len(candidates), dtype=np.int64)
    by_feature: dict[int, list[int]] = {}
    for i, c in enumerate(candidates):
        by_feature.setdefault(c.feature, []).append(i)
    for feature, idx in by_feature.items():
        col = data.columns[feature][order]
        mask = np.array([candidates[i].test.evaluate(col) for i in idx])
        _, at_risk, deaths = risk_sets(times, events, mask)
        diff = survival_on_grid(at_risk, deaths)
        diff -= survival_on_grid(node_at_risk - at_risk, node_deaths - deaths)
        v[idx] = diff.max(axis=1, initial=0.0) - diff.min(axis=1, initial=0.0)
        events_true[idx] = deaths.sum(axis=1)
    return v, events_true, int(events.sum()) - events_true


def best_split(data: SurvivalDataset, candidates: list[SplitCandidate],
               config: TreeConfig) -> Optional[SplitCandidate]:
    """Lowest-p candidate iff it clears the Bonferroni-corrected level.

    Ranks by log p-value (ordered even where p underflows to 0) and gates on
    log p < log(alpha) - log(m). Ties go to the earlier candidate.
    """
    if not candidates:
        return None
    v, events_true, events_false = score_candidates(data, candidates)
    log_p = kuiper_log_pvalue(v, events_true, events_false)
    best = int(np.argmin(log_p))
    if log_p[best] >= math.log(config.alpha) - math.log(len(candidates)):
        return None
    result = kuiper_pvalue(v[best], int(events_true[best]), int(events_false[best]))
    return replace(candidates[best], p_value=result.p_value, statistic=result.statistic)


def grow_tree(data: SurvivalDataset, config: TreeConfig = TreeConfig()) -> SurvivalTree:
    """Recursively grow the significance-gated tree on a validated dataset."""
    if len(data) == 0 or not data.events.any():
        raise NoEventsAtRootError("tree growth requires at least one observed event")
    node_ids = itertools.count()
    leaf_ids: list[int] = []

    def make_node(node_data: SurvivalDataset, depth: int) -> TreeNode:
        node_id = next(node_ids)
        n = len(node_data)
        n_events = node_data.n_events
        chosen, candidates = None, []
        if (depth < config.max_depth and n >= 2 * config.min_leaf_subjects
                and n_events >= 2 * config.min_leaf_events):
            candidates = enumerate_splits(node_data, node_data.schema, config)
            chosen = best_split(node_data, candidates, config)
        if chosen is None:
            leaf_ids.append(len(leaf_ids))
            curve = km_fit_arrays(node_data.times, node_data.events)
            return TreeNode(node_id, leaf_id=leaf_ids[-1], n_subjects=n,
                            n_events=n_events, curve=curve)
        mask = chosen.test.evaluate(node_data.columns[chosen.feature])
        node = TreeNode(node_id, split=chosen, n_candidates=len(candidates))
        node.left = make_node(node_data.subset_mask(mask), depth + 1)
        node.right = make_node(node_data.subset_mask(~mask), depth + 1)
        return node

    root = make_node(data, 0)
    return SurvivalTree(data.schema, root, config, leaf_ids)


def _check_schema(tree: SurvivalTree, subject: Subject):
    if len(subject.values) != len(tree.schema):
        raise SchemaMismatchError(
            f"subject {subject.id!r} has {len(subject.values)} values, "
            f"schema has {len(tree.schema)}")
    for value, feature in zip(subject.values, tree.schema):
        if feature.kind == CATEGORICAL and not (0 <= int(value) < len(feature.categories)):
            raise SchemaMismatchError(
                f"subject {subject.id!r}: unknown category for feature {feature.name!r}")


def assign_leaf(tree: SurvivalTree, subject: Subject) -> int:
    """Route one subject to its leaf id; unknown categories raise."""
    _check_schema(tree, subject)
    row = np.array([value if feature.kind == NUMERIC else int(value)
                    for value, feature in zip(subject.values, tree.schema)], dtype=np.float64)
    return int(_route(tree, row[:, None], 1, None)[0])


def assign_leaves(tree: SurvivalTree, data: SurvivalDataset,
                  unknown: Optional[str] = None) -> np.ndarray:
    """Vectorized leaf routing for a whole dataset (schema must match).

    By default NaN and out-of-range categories fail every test and go to the
    false child. ``unknown="majority"`` sends them to the child that held
    more training subjects instead; ties go left.
    """
    if data.schema != tree.schema:
        raise SchemaMismatchError("dataset schema does not match the tree's schema")
    return _route(tree, data.columns, len(data), unknown)


def _training_subjects(node: TreeNode) -> int:
    return (node.n_subjects if node.is_leaf
            else _training_subjects(node.left) + _training_subjects(node.right))


def _route(tree: SurvivalTree, columns, n: int, unknown: Optional[str]) -> np.ndarray:
    if unknown not in (None, "majority"):
        raise ValueError(f"unknown routing policy {unknown!r}")
    labels = np.full(n, -1, dtype=np.int64)

    def walk(node: TreeNode, idx: np.ndarray):
        if node.is_leaf:
            labels[idx] = node.leaf_id
            return
        column = columns[node.split.feature][idx]
        go_left = node.split.test.evaluate(column)
        if unknown == "majority":
            feature = tree.schema[node.split.feature]
            missing = (np.isnan(column) if feature.kind == NUMERIC
                       else (column < 0) | (column >= len(feature.categories)))
            go_left[missing] = _training_subjects(node.left) >= _training_subjects(node.right)
        walk(node.left, idx[go_left])
        walk(node.right, idx[~go_left])

    walk(tree.root, np.arange(n))
    return labels
