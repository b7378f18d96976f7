"""Decision tree whose splits maximize Kuiper divergence between child curves.

Each node enumerates attribute-value tests (numeric "value < threshold",
categorical "value = level"), fits survival curves on both induced child
populations, and keeps the candidate with the lowest Kuiper p-value. The
split is accepted only if that p-value clears the Bonferroni-corrected
level alpha/m, m being the number of candidates tested at the node; both
ranking and gate use log p-values, which stay ordered where p underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .core import CATEGORICAL, NUMERIC, Feature, FeatureSchema, Subject, SurvivalDataset
from .errors import NoEventsAtRootError, SchemaMismatchError
from .kaplan_meier import SurvivalCurve, km_fit_arrays, risk_sets, survival_on_grid
from .twosample import kuiper_log_pvalue, kuiper_pvalue

# best_split bounds candidates in passes on BOUND_BLOCKS blocks of the node's
# death times, then on twice as many for the candidates left, and so on. Costs
# are in units of the time exact scoring takes per candidate and per subject or
# death (about 20 ns): a pass costs about PASS_COST_PER_BLOCK per candidate and
# block plus PASS_COST_FIXED (measured on a 2-core x86 machine), and one is
# made only where that is at most a quarter of scoring the candidates left
# exactly.
BOUND_BLOCKS = 32
PASS_COST_PER_BLOCK = 12
PASS_COST_FIXED = 20_000
# Slack on the bounds, absolute on V and relative on log p, far above rounding
# error: rounding can only keep candidates a bound would drop, never drop one.
BOUND_SLACK = 1e-9


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


@dataclass(frozen=True)
class TreeNode:
    """Internal node (split + children) or leaf (counts + curve). ``curve`` is
    fitted by :func:`grow_tree`, read only by ``build_leaf_graph`` during a
    fit, and ``None`` on a tree loaded from JSON."""

    split: Optional[SplitCandidate] = None
    n_candidates: int = 0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    n_subjects: int = 0
    n_events: int = 0
    curve: Optional[SurvivalCurve] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass(frozen=True)
class SurvivalTree:
    schema: FeatureSchema
    root: TreeNode
    config: TreeConfig

    @property
    def leaf_ids(self) -> range:  # leaf i is leaves()[i]
        return range(len(self.leaves()))

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

    Numeric features test midpoints between consecutive distinct non-NaN
    values (the upper one where the midpoint rounds onto the lower), thinned
    to at most ``max_numeric_thresholds`` equally spaced positions along
    that increasing sequence; categorical features test each level
    one-vs-rest. Sides are counted from the ranks that :class:`KuiperBounds`
    reads; candidates leaving either side short of the leaf minima are
    dropped. Order: schema, then ascending threshold / level.
    """
    n, events = len(data), data.events
    total_events = int(events.sum())
    out: list[SplitCandidate] = []
    for j, feature in enumerate(schema):
        col, numeric = data.columns[j], feature.kind == NUMERIC
        if numeric:
            distinct = np.unique(col[~np.isnan(col)])
            mid = 0.5 * (distinct[:-1] + distinct[1:])  # may round onto the lower double
            cuts = np.where(mid > distinct[:-1], mid, distinct[1:])
            if cuts.size > config.max_numeric_thresholds:
                pick = np.round(np.linspace(0, cuts.size - 1,
                                            config.max_numeric_thresholds)).astype(int)
                cuts = cuts[pick]
            tests = [NumericTest(float(theta)) for theta in cuts]
        else:
            tests = [CategoryTest(level) for level in range(len(feature.categories))]
            cuts = np.arange(len(tests))
        rank = _ranks(cuts, col, numeric)  # threshold m's true side: rank <= m
        n_true, e_true = (np.bincount(r, minlength=cuts.size + 1)[:cuts.size]
                          for r in (rank, rank[events]))
        if numeric:
            n_true, e_true = np.cumsum(n_true), np.cumsum(e_true)
        keep = ((np.minimum(n_true, n - n_true) >= config.min_leaf_subjects)
                & (np.minimum(e_true, total_events - e_true) >= config.min_leaf_events))
        out.extend(SplitCandidate(j, test) for test, ok in zip(tests, keep) if ok)
    return out


def _ranks(cuts: np.ndarray, values: np.ndarray, numeric: bool) -> np.ndarray:
    """Each value's rank among a feature's sorted cuts: the thresholds at or
    below it (NaN: all), or its level's place (``cuts.size`` if it has none)."""
    if numeric:
        return np.searchsorted(cuts, values, side="right")
    rank = np.minimum(np.searchsorted(cuts, values), cuts.size - 1)
    rank[cuts[rank] != values] = cuts.size
    return rank


class KuiperBounds:
    """A node's split-search table: the node in time order, its risk sets and
    each subject's rank among each feature's cuts. It gives each candidate
    bounds V_lo <= V <= V_hi on its Kuiper V from counts on a grid of blocks
    of the node's distinct death times, and V itself (:meth:`exact`).

    A block with D deaths, N subjects at risk at its first death time and s
    still at risk after its last one has Kaplan-Meier factors whose product
    lies in [s/(s+D), (N-D)/N]. Their cumulative products bound each child
    curve at the block ends, and within a block the curve lies between its
    values at the block's start and end. The blocks cut the node's own curve
    into equal drops. The counts of the candidates come from one histogram
    of the node's subjects, with a row per interval between the thresholds
    of a feature (summed cumulatively) or per level, and three columns per
    block.
    """

    def __init__(self, data: SurvivalDataset, candidates: list[SplitCandidate]):
        order = np.argsort(data.times, kind="stable")
        self._times, self._events = data.times[order], data.events[order]
        death_times, self._at_risk, self._deaths = risk_sets(
            self._times, self._events, np.ones((1, order.size), dtype=bool))
        survival = survival_on_grid(self._at_risk, self._deaths)[0]
        # 1 + j for subjects with t_j <= time < t_j+1, 0 before the first death time
        self._segment = np.searchsorted(death_times, self._times, side="right")
        # the node curve's drop before each death time, as a share of its whole drop
        self._drop = (1.0 - np.r_[1.0, survival][:-1]) / (1.0 - survival[-1:])
        # Per feature: its candidates, their places among the feature's sorted
        # cuts (thresholds or levels), the number of cuts and each subject's
        # rank (_ranks), so that a candidate's true side is rank <= place for
        # thresholds and rank == place for levels.
        by_feature: dict[int, list[int]] = {}
        for i, c in enumerate(candidates):
            by_feature.setdefault(c.feature, []).append(i)
        self._features = []
        for feature, idx in by_feature.items():
            numeric = isinstance(candidates[idx[0]].test, NumericTest)
            cut = np.array([candidates[i].test.threshold if numeric
                            else candidates[i].test.category_index for i in idx])
            cuts, col = np.unique(cut), data.columns[feature][order]
            place = np.searchsorted(cuts, cut)
            place[np.isnan(cut)] = -1  # a NaN threshold sends nobody to the true side
            self._features.append((np.array(idx), place, cuts.size,
                                   _ranks(cuts, col, numeric), numeric))
        self._n_candidates = len(candidates)

    def _kept(self, keep: np.ndarray):
        """Per feature with candidates in ``keep``: their positions in ``keep``
        and places, the feature's number of cuts, ranks and kind."""
        at = np.full(self._n_candidates, -1)
        at[keep] = np.arange(len(keep))
        for idx, place, n_cuts, rank, numeric in self._features:
            pos = at[idx]
            chosen = pos >= 0
            if chosen.any():
                yield pos[chosen], place[chosen], n_cuts, rank, numeric

    def exact(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kuiper V and child event counts (true side, false side) of the
        candidates ``keep`` (indices, in order), from each feature's candidates
        x subjects mask. Child curves are evaluated on the node's distinct
        death times, so V equals the :func:`kuiper_matrix` entry of the fitted curves."""
        v = np.zeros(len(keep))
        events_true = np.zeros(len(keep), dtype=np.int64)
        for pos, place, _, rank, numeric in self._kept(keep):
            mask = rank <= place[:, None] if numeric else rank == place[:, None]
            _, at_risk, deaths = risk_sets(self._times, self._events, mask)
            diff = survival_on_grid(at_risk, deaths)
            diff -= survival_on_grid(self._at_risk - at_risk, self._deaths - deaths)
            v[pos] = diff.max(axis=1, initial=0.0) - diff.min(axis=1, initial=0.0)
            events_true[pos] = deaths.sum(axis=1)
        return v, events_true, int(self._deaths.sum()) - events_true

    def __call__(self, keep: np.ndarray, blocks: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """V_lo, V_hi and child event counts (true side, false side) of the
        candidates ``keep`` (indices, in order) on ``blocks`` blocks."""
        # Block 0 holds the subjects before the first death time, who are never
        # at risk, so both curves start at 1; blocks 1.. hold the death times.
        block = np.r_[0, 1 + np.minimum((blocks * self._drop).astype(np.int64), blocks - 1)]
        last = np.r_[block[1:] != block[:-1], True]
        # Column (blocks + 1)k + b counts block b's subjects censored before its
        # last death time (k = 0), its deaths (k = 1) and the rest (k = 2).
        width = 3 * (blocks + 1)
        column = (block[self._segment]
                  + (blocks + 1) * np.where(self._events, 1, 2 * last[self._segment]))

        # a kept candidate's true side is rows base + 1 .. row of the histogram
        row, base = np.zeros((2, len(keep)), dtype=np.int64)
        hist, offset = [], 0
        for pos, place, n_cuts, rank, numeric in self._kept(keep):
            cuts = np.unique(place[place >= 0])
            if numeric:  # row 1 + m: values with m kept thresholds at or below them
                rows = 1 + np.searchsorted(cuts, np.arange(n_cuts + 1))
            else:  # row 1 + m: the m-th kept level; row 0: any other value
                rows = np.zeros(n_cuts + 1, dtype=np.int64)
                rows[cuts] = 1 + np.arange(cuts.size)
            row[pos] = offset + np.where(place >= 0, rows[place], 0)
            base[pos] = offset if numeric else row[pos] - 1
            n_rows = rows.max() + 1
            hist.append(np.bincount(rows[rank] * width + column, minlength=n_rows * width))
            offset += n_rows
        cum = np.cumsum(_block_risk(np.concatenate(hist), blocks), axis=0)
        true = cum[row] - cum[base]
        node = _block_risk(np.bincount(column, minlength=width), blocks)
        # (kind, side, candidate, block), kinds N, s + D and D as _block_risk gives them
        at_risk, late, deaths = np.moveaxis(np.stack([true, node - true]), 2, 0)
        low, high = survival_on_grid(late, deaths), survival_on_grid(at_risk, deaths)
        v_hi = ((high[0, :, :-1] - low[1, :, 1:]).max(axis=1, initial=0.0)
                + (high[1, :, :-1] - low[0, :, 1:]).max(axis=1, initial=0.0))
        v_lo = ((low[0] - high[1]).max(axis=1, initial=0.0)
                + (low[1] - high[0]).max(axis=1, initial=0.0))
        events_true, events_false = deaths.sum(axis=2).astype(np.int64)
        return v_lo, v_hi, events_true, events_false


def _block_risk(counts: np.ndarray, blocks: int) -> np.ndarray:
    """(rows, 3, blocks + 1) floats N, s + D and D of each block, from the
    flat histogram rows of (censored before the last death time, dead, the rest)."""
    early, deaths, rest = np.moveaxis(counts.reshape(-1, 3, blocks + 1).astype(np.float64), 1, 0)
    at_risk = np.cumsum((early + deaths + rest)[:, ::-1], axis=1)[:, ::-1]
    return np.stack([at_risk, at_risk - early, deaths], axis=1)


def best_split(data: SurvivalDataset, candidates: list[SplitCandidate],
               config: TreeConfig) -> Optional[SplitCandidate]:
    """Lowest-p candidate iff it clears the Bonferroni-corrected level.

    Ranks by log p-value (ordered even where p underflows to 0) and gates on
    log p < log(alpha) - log(m), m counting every candidate. Ties go to the
    earlier candidate. Where it pays, candidates are first bounded on a
    coarse grid of the node's death times (:class:`KuiperBounds`): those
    that cannot win or pass the gate are dropped, and the grid doubles on
    the rest while more than one is left, that pays, and the grid has fewer
    blocks than the node has deaths. Only the rest are scored exactly
    (:meth:`KuiperBounds.exact`), so the result is that of scoring them all.
    """
    if not candidates:
        return None
    gate = math.log(config.alpha) - math.log(len(candidates))
    n_events = data.n_events  # at least the number of death times
    table = KuiperBounds(data, candidates)
    keep, blocks = np.arange(len(candidates)), BOUND_BLOCKS
    while (keep.size > 1 and blocks < n_events
           and 4 * (PASS_COST_PER_BLOCK * keep.size * (blocks + 1) + PASS_COST_FIXED)
           <= keep.size * (len(data) + n_events)):
        v_lo, v_hi, events_true, events_false = table(keep, blocks)
        v = np.stack([v_hi + BOUND_SLACK, np.maximum(v_lo - BOUND_SLACK, 0.0)])
        log_p_lo, log_p_hi = kuiper_log_pvalue(v, events_true, events_false)
        log_p_lo -= BOUND_SLACK * (1.0 + np.abs(log_p_lo))
        log_p_hi += BOUND_SLACK * (1.0 + np.abs(log_p_hi))
        keep = keep[(log_p_lo <= log_p_hi.min())
                    & (log_p_lo < gate + BOUND_SLACK * (1.0 - gate))]
        blocks *= 2
    if keep.size == 0:
        return None
    v, events_true, events_false = table.exact(keep)
    log_p = kuiper_log_pvalue(v, events_true, events_false)
    best = int(np.argmin(log_p))
    if log_p[best] >= gate:
        return None
    result = kuiper_pvalue(v[best], int(events_true[best]), int(events_false[best]))
    return replace(candidates[keep[best]], p_value=result.p_value, statistic=result.statistic)


def grow_tree(data: SurvivalDataset, config: TreeConfig = TreeConfig()) -> SurvivalTree:
    """Recursively grow the significance-gated tree on a validated dataset."""
    if len(data) == 0 or not data.events.any():
        raise NoEventsAtRootError("tree growth requires at least one observed event")

    def make_node(node_data: SurvivalDataset, depth: int) -> TreeNode:
        n = len(node_data)
        n_events = node_data.n_events
        chosen, candidates = None, []
        if (depth < config.max_depth and n >= 2 * config.min_leaf_subjects
                and n_events >= 2 * config.min_leaf_events):
            candidates = enumerate_splits(node_data, node_data.schema, config)
            chosen = best_split(node_data, candidates, config)
        if chosen is None:
            curve = km_fit_arrays(node_data.times, node_data.events)
            return TreeNode(n_subjects=n, n_events=n_events, curve=curve)
        mask = chosen.test.evaluate(node_data.columns[chosen.feature])
        left = make_node(node_data.subset_mask(mask), depth + 1)
        right = make_node(node_data.subset_mask(~mask), depth + 1)
        return TreeNode(split=chosen, n_candidates=len(candidates), left=left, right=right)

    return SurvivalTree(data.schema, make_node(data, 0), config)


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
    leaf = 0

    def walk(node: TreeNode, idx: np.ndarray):
        nonlocal leaf
        if node.is_leaf:  # every leaf, even one given no rows, in preorder: left subtree first
            labels[idx] = leaf
            leaf += 1
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
