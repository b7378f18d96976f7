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
from .twosample import TestResult, kuiper_log_pvalue, kuiper_pvalue

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
    """All admissible attribute-value tests on a whole dataset, as
    :func:`grow_tree` enumerates them at a node, one :class:`SplitCandidate`
    each.

    Numeric features test midpoints between consecutive distinct non-NaN
    values (the upper one where the midpoint rounds onto the lower), thinned
    to at most ``max_numeric_thresholds`` equally spaced positions along
    that increasing sequence; categorical features test each level
    one-vs-rest. Candidates leaving either side short of the leaf minima
    are dropped. Order: schema, then ascending threshold / level.
    """
    feature, place, features = _enumerate(_Coded(data, schema), np.arange(len(data)), config)
    return [SplitCandidate(j, _test(features[j], m))
            for j, m in zip(feature.tolist(), place.tolist())]


class _Coded:
    """A dataset coded once for the split search. Its subjects are taken in
    time order (a stable sort): ``times``, ``events`` and row j of the int32
    ``codes`` (feature j's codes) are in that order. A numeric feature's code
    is its value's place among its ``sizes[j]`` sorted distinct non-NaN
    values, NaN coded one past the last, and ``holder[j, c]`` is the row of
    ``columns`` of a subject whose value has code c; a categorical feature's
    code is its level, a value outside its ``sizes[j]`` levels coded one
    past the last. No column is copied."""

    def __init__(self, data: SurvivalDataset, schema: FeatureSchema):
        order = np.argsort(data.times, kind="stable")
        self.times, self.events, self.columns = data.times[order], data.events[order], data.columns
        self.numeric = [feature.kind == NUMERIC for feature in schema]
        # one block, freed whole once the tree is grown
        self.codes, self.holder = np.empty((2, len(schema), order.size), dtype=np.int32)
        self.sizes = []
        for j, (feature, col) in enumerate(zip(schema, data.columns)):
            if feature.kind == NUMERIC:
                # all NaN values share one code, the last
                values, self.codes[j] = np.unique(col[order], return_inverse=True)
                self.holder[j, self.codes[j]] = order  # a subject of each code
                size = int(np.count_nonzero(~np.isnan(values)))
            else:
                size = len(feature.categories)
                self.codes[j] = np.where((col >= 0) & (col < size), col, size)[order]
            self.sizes.append(size)


def _enumerate(coded: _Coded, rows: np.ndarray, config: TreeConfig):
    """The admissible candidates of the node ``rows`` (ascending positions in
    ``coded``'s time order), as :func:`enumerate_splits` describes them: their
    features and their places among those features' cuts, in that order,
    and per feature with candidates its cuts, each subject's rank among
    them (as :func:`_ranks` defines it) and its kind.

    A numeric feature's distinct values in the node come from a ``bincount``
    of its codes, and each subject's rank from a lookup by code: the
    thresholds kept by thinning below its value. Ranks are the narrowest
    unsigned integers that hold the number of cuts.
    """
    dead = np.flatnonzero(coded.events[rows])
    n, total_events = rows.size, dead.size
    features, feature, place = {}, [], []
    for j, (codes, size, numeric) in enumerate(zip(coded.codes, coded.sizes, coded.numeric)):
        code = codes[rows]
        if numeric:
            present = np.flatnonzero(np.bincount(code, minlength=size + 1)[:-1] > 0)
            pick = np.arange(max(present.size - 1, 0))  # cut i: between distinct values i, i + 1
            if pick.size > config.max_numeric_thresholds:
                pick = np.round(np.linspace(0, pick.size - 1,
                                            config.max_numeric_thresholds)).astype(int)
            col, holder = coded.columns[j], coded.holder[j]
            lower, upper = col[holder[present[pick]]], col[holder[present[pick + 1]]]
            mid = 0.5 * (lower + upper)  # may round onto the lower double
            cuts = np.where(mid > lower, mid, upper)
            # a code's rank: the kept cuts below its value, one more from each
            # kept cut's upper value on
            lookup = np.repeat(np.arange(cuts.size + 1, dtype=np.min_scalar_type(cuts.size)),
                               np.diff(present[pick + 1], prepend=0, append=size + 1))
        else:
            cuts = np.arange(size)
            lookup = np.arange(size + 1, dtype=np.min_scalar_type(size))
        rank = lookup[code]  # threshold m's true side: rank <= m; level m's: rank == m
        n_true, e_true = (np.bincount(r, minlength=cuts.size + 1)[:cuts.size]
                          for r in (rank, rank[dead]))
        if numeric:
            n_true, e_true = np.cumsum(n_true), np.cumsum(e_true)
        ok = np.flatnonzero((np.minimum(n_true, n - n_true) >= config.min_leaf_subjects)
                            & (np.minimum(e_true, total_events - e_true)
                               >= config.min_leaf_events))
        if ok.size:
            features[j] = cuts, rank, numeric
            feature += [j] * ok.size
            place += ok.tolist()
    return np.array(feature, dtype=np.int64), np.array(place, dtype=np.int64), features


def _test(entry: tuple, place: int) -> Union[NumericTest, CategoryTest]:
    """The test at ``place`` among a feature's cuts, from its (cuts, ranks, kind)."""
    cuts, _, numeric = entry
    return NumericTest(float(cuts[place])) if numeric else CategoryTest(int(cuts[place]))


def _ranks(cuts: np.ndarray, values: np.ndarray, numeric: bool) -> np.ndarray:
    """Each value's rank among a feature's sorted cuts: the thresholds at or
    below it (NaN: all), or its level's place (``cuts.size`` if it has none)."""
    if numeric:
        return np.searchsorted(cuts, values, side="right")
    rank = np.minimum(np.searchsorted(cuts, values), cuts.size - 1)
    rank[cuts[rank] != values] = cuts.size
    return rank


class KuiperBounds:
    """A node's split-search table: the node in time order, its risk sets,
    its candidates as arrays (``feature``, and ``place`` among the feature's
    cuts, -1 for a NaN threshold) and, per feature with candidates
    (``features``), its sorted cuts (thresholds or levels), each subject's
    rank among them and its kind, so that a candidate's true side is
    rank <= place for thresholds and rank == place for levels. Enumeration,
    the bounds and exact scoring all read these ranks. It gives each
    candidate bounds V_lo <= V <= V_hi on its Kuiper V from counts on a grid
    of blocks of the node's distinct death times, and V itself (:meth:`exact`).

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

    def __init__(self, times: np.ndarray, events: np.ndarray, feature: np.ndarray,
                 place: np.ndarray, features: dict):
        self.times, self.events = times, events
        self.feature, self.place, self.features = feature, place, features
        death_times, self._at_risk, self._deaths = risk_sets(
            times, events, np.ones((1, times.size), dtype=bool))
        survival = survival_on_grid(self._at_risk, self._deaths)[0]
        # 1 + j for subjects with t_j <= time < t_j+1, 0 before the first death time
        self._segment = np.searchsorted(death_times, times, side="right")
        # the node curve's drop before each death time, as a share of its whole drop
        self._drop = (1.0 - np.r_[1.0, survival][:-1]) / (1.0 - survival[-1:])

    @classmethod
    def of(cls, data: SurvivalDataset, candidates: list[SplitCandidate]) -> "KuiperBounds":
        """The table of arbitrary ``candidates`` on the whole of ``data``: a
        feature's cuts are its candidates' distinct thresholds or levels."""
        order = np.argsort(data.times, kind="stable")
        feature = np.array([c.feature for c in candidates], dtype=np.int64)
        place = np.zeros(len(candidates), dtype=np.int64)
        features = {}
        for j in dict.fromkeys(feature.tolist()):
            idx = np.flatnonzero(feature == j)
            numeric = isinstance(candidates[idx[0]].test, NumericTest)
            cut = np.array([candidates[i].test.threshold if numeric
                            else candidates[i].test.category_index for i in idx])
            cuts = np.unique(cut)
            place[idx] = np.searchsorted(cuts, cut)
            place[idx[np.isnan(cut)]] = -1  # a NaN threshold sends nobody to the true side
            features[j] = cuts, _ranks(cuts, data.columns[j][order], numeric), numeric
        return cls(data.times[order], data.events[order], feature, place, features)

    def split(self, i: int) -> tuple[Union[NumericTest, CategoryTest], np.ndarray]:
        """Candidate ``i``'s test and its true side, in the table's time order."""
        _, rank, numeric = entry = self.features[int(self.feature[i])]
        place = self.place[i]
        return _test(entry, place), rank <= place if numeric else rank == place

    def _kept(self, keep: np.ndarray):
        """Per feature with candidates in ``keep``: their positions in ``keep``
        and places, the feature's number of cuts, ranks and kind."""
        feature = self.feature[keep]
        for j, (cuts, rank, numeric) in self.features.items():
            pos = np.flatnonzero(feature == j)
            if pos.size:
                yield pos, self.place[keep[pos]], cuts.size, rank, numeric

    def exact(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kuiper V and child event counts (true side, false side) of the
        candidates ``keep`` (indices, in order), from each feature's candidates
        x subjects mask. Child curves are evaluated on the node's distinct
        death times, so V equals the :func:`kuiper_matrix` entry of the fitted curves."""
        v = np.zeros(len(keep))
        events_true = np.zeros(len(keep), dtype=np.int64)
        for pos, place, _, rank, numeric in self._kept(keep):
            mask = rank <= place[:, None] if numeric else rank == place[:, None]
            _, at_risk, deaths = risk_sets(self.times, self.events, mask)
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
                  + (blocks + 1) * np.where(self.events, 1, 2 * last[self._segment]))

        # a kept candidate's true side is rows base + 1 .. row of the histogram
        row, base = np.zeros((2, len(keep)), dtype=np.int64)
        hist, offset = [], 0
        for pos, place, n_cuts, rank, numeric in self._kept(keep):
            # the row of each rank: for thresholds, 1 + the kept thresholds at or below
            # the value; for levels, the kept level's number from 1, or 0 for any other
            kept = np.zeros(n_cuts + 1, dtype=np.int64)
            kept[place[place >= 0]] = 1
            count = np.cumsum(kept)
            rows = 1 + count - kept if numeric else count * kept
            row[pos] = offset + np.where(place >= 0, rows[place], 0)
            base[pos] = offset if numeric else row[pos] - 1
            n_rows = rows.max() + 1
            hist.append(np.bincount((rows * width)[rank] + column, minlength=n_rows * width))
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
    """Lowest-p candidate iff it clears the Bonferroni-corrected level, on a
    whole dataset taken as one node of :func:`grow_tree`: the candidates,
    which may be any tests, are ranked on :meth:`KuiperBounds.of` and
    searched by the loop :func:`grow_tree` runs at every node.

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
    found = _search(KuiperBounds.of(data, candidates), config)
    if found is None:
        return None
    best, result = found
    return replace(candidates[best], p_value=result.p_value, statistic=result.statistic)


def _search(table: KuiperBounds, config: TreeConfig) -> Optional[tuple[int, TestResult]]:
    """The index of :func:`best_split`'s choice among the table's candidates
    and its test result, or None if it fails the gate."""
    gate = math.log(config.alpha) - math.log(table.feature.size)
    n, n_events = table.times.size, int(table.events.sum())  # at least the death times
    keep, blocks = np.arange(table.feature.size), BOUND_BLOCKS
    while (keep.size > 1 and blocks < n_events
           and 4 * (PASS_COST_PER_BLOCK * keep.size * (blocks + 1) + PASS_COST_FIXED)
           <= keep.size * (n + n_events)):
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
    return int(keep[best]), kuiper_pvalue(v[best], int(events_true[best]),
                                          int(events_false[best]))


def grow_tree(data: SurvivalDataset, config: TreeConfig = TreeConfig()) -> SurvivalTree:
    """Recursively grow the significance-gated tree on a validated dataset.

    The dataset is coded once (:class:`_Coded`): its subjects in time order
    and each feature's int32 codes. A node is an ascending array of positions
    in that order, so its times and events are gathers already sorted. Each
    node enumerates its candidates (:func:`_enumerate`), ranking every
    feature once; its :class:`KuiperBounds` reads those ranks and keeps the
    candidates as arrays, and only the winner becomes a
    :class:`SplitCandidate`. The table is dropped before the children are
    grown. Growing node by node through :func:`enumerate_splits` and
    :func:`best_split` on ``subset_mask`` datasets gives the same tree.
    """
    if len(data) == 0 or not data.events.any():
        raise NoEventsAtRootError("tree growth requires at least one observed event")
    return SurvivalTree(data.schema, _grow(_Coded(data, data.schema), np.arange(len(data)),
                                           0, config), config)


def _grow(coded: _Coded, rows: np.ndarray, depth: int, config: TreeConfig) -> TreeNode:
    """The subtree of :func:`grow_tree` on the node ``rows`` at ``depth``."""
    times, events = coded.times[rows], coded.events[rows]
    n, n_events = rows.size, int(events.sum())
    chosen, m = None, 0
    if (depth < config.max_depth and n >= 2 * config.min_leaf_subjects
            and n_events >= 2 * config.min_leaf_events):
        table = KuiperBounds(times, events, *_enumerate(coded, rows, config))
        m = table.feature.size
        found = _search(table, config) if m else None
        if found is not None:
            best, result = found
            test, mask = table.split(best)
            chosen = SplitCandidate(int(table.feature[best]), test,
                                    result.p_value, result.statistic)
        del table  # before the children's tables are made
    if chosen is None:
        return TreeNode(n_subjects=n, n_events=n_events, curve=km_fit_arrays(times, events))
    return TreeNode(split=chosen, n_candidates=m,
                    left=_grow(coded, rows[mask], depth + 1, config),
                    right=_grow(coded, rows[~mask], depth + 1, config))


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
    return int(route_columns(tree, row[:, None], 1, None)[0])


def assign_leaves(tree: SurvivalTree, data: SurvivalDataset,
                  unknown: Optional[str] = None) -> np.ndarray:
    """Vectorized leaf routing for a whole dataset (schema must match).

    By default NaN and out-of-range categories fail every test and go to the
    false child. ``unknown="majority"`` sends them to the child that held
    more training subjects instead; ties go left.
    """
    if data.schema != tree.schema:
        raise SchemaMismatchError("dataset schema does not match the tree's schema")
    return route_columns(tree, data.columns, len(data), unknown)


def _training_subjects(node: TreeNode) -> int:
    return (node.n_subjects if node.is_leaf
            else _training_subjects(node.left) + _training_subjects(node.right))


def route_columns(tree: SurvivalTree, columns, n: int, unknown: Optional[str] = None) -> np.ndarray:
    """Leaf index of ``n`` rows held as one column per feature in schema order; a
    column the tree does not test may be None (``unknown`` as in assign_leaves)."""
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
