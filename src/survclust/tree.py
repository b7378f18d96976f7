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

from .core import CATEGORICAL, NUMERIC, FeatureSchema, Subject, SurvivalDataset
from .errors import NoEventsAtRootError, SchemaMismatchError
from .kaplan_meier import SurvivalCurve, km_fit_arrays
from .twosample import kuiper_log_pvalue, kuiper_pvalue


@dataclass(frozen=True)
class NumericTest:
    """True iff value < threshold; equality routes to the false side."""

    threshold: float

    def evaluate(self, column: np.ndarray) -> np.ndarray:
        return column < self.threshold


@dataclass(frozen=True)
class CategoryTest:
    """True iff the value equals one category level (one-vs-rest)."""

    category_index: int

    def evaluate(self, column: np.ndarray) -> np.ndarray:
        return column == self.category_index


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


def _survival_on_grid(at_risk: np.ndarray, deaths: np.ndarray) -> np.ndarray:
    """Product-limit curve on a shared death-time grid; factor 1 where nobody is at risk."""
    factor = deaths / np.maximum(at_risk, 1)
    np.subtract(1.0, factor, out=factor)
    return np.cumprod(factor, axis=-1, out=factor)


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
    # Segment g holds the subjects with grid[g] <= time < grid[g + 1], so its
    # events all die at grid[g]; reverse cumulative sums of segment counts are
    # risk sets that keep subjects censored at a death time.
    starts = np.searchsorted(times, np.unique(times[events]), side="left")
    node_at_risk = times.size - starts
    node_deaths = np.add.reduceat(events, starts, dtype=np.int64)

    v = np.zeros(len(candidates))
    events_true = np.zeros(len(candidates), dtype=np.int64)
    by_feature: dict[int, list[int]] = {}
    for i, c in enumerate(candidates):
        by_feature.setdefault(c.feature, []).append(i)
    for feature, idx in by_feature.items():
        col = data.columns[feature][order]
        mask = np.array([candidates[i].test.evaluate(col) for i in idx])
        segments = np.add.reduceat(mask, starts, axis=1, dtype=np.int64)
        at_risk = np.cumsum(segments[:, ::-1], axis=1)[:, ::-1]
        deaths = np.add.reduceat(mask & events, starts, axis=1, dtype=np.int64)
        diff = _survival_on_grid(at_risk, deaths)
        diff -= _survival_on_grid(node_at_risk - at_risk, node_deaths - deaths)
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
    """Route one subject to its leaf id."""
    _check_schema(tree, subject)
    node = tree.root
    while not node.is_leaf:
        value = subject.values[node.split.feature]
        if isinstance(node.split.test, NumericTest):
            go_left = value < node.split.test.threshold
        else:
            go_left = int(value) == node.split.test.category_index
        node = node.left if go_left else node.right
    return node.leaf_id


def assign_leaves(tree: SurvivalTree, data: SurvivalDataset) -> np.ndarray:
    """Vectorized leaf routing for a whole dataset (schema must match)."""
    if data.schema != tree.schema:
        raise SchemaMismatchError("dataset schema does not match the tree's schema")
    labels = np.full(len(data), -1, dtype=np.int64)

    def walk(node: TreeNode, idx: np.ndarray):
        if node.is_leaf:
            labels[idx] = node.leaf_id
            return
        mask = node.split.test.evaluate(data.columns[node.split.feature][idx])
        walk(node.left, idx[mask])
        walk(node.right, idx[~mask])

    walk(tree.root, np.arange(len(data)))
    return labels
