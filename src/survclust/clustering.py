"""Cluster tree leaves on a p-value similarity graph.

Leaves form a complete graph weighted by pairwise Kuiper p-values between
their survival curves. The weight matrix is balanced to doubly stochastic
form with Sinkhorn-Knopp (neutralizing the heavy edges small leaves would
otherwise form) and partitioned by the Markov Cluster algorithm; a merge /
inflation-sweep step then coarsens or refines the partition to a requested
cluster count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Subject, SurvivalDataset
from .errors import NonConvergenceError, SchemaMismatchError, UnreachableKError
from .kaplan_meier import SurvivalCurve, km_fit_arrays
from .tree import SurvivalTree, assign_leaf, assign_leaves, route_columns
from .twosample import kuiper_matrix

# Strict-positivity floor applied to W before balancing; far below any
# decision threshold but enough to guarantee total support.
WEIGHT_FLOOR = 1e-12

INFLATION_SWEEP_STEP = 0.25
INFLATION_SWEEP_MAX = 10.0

# MCL zeroes entries below the pruning floor; it stops once no entry moves by the tolerance.
MCL_PRUNE_TOL = 1e-8
MCL_CONV_TOL = 1e-9
MCL_MAX_ITER = 200


@dataclass(frozen=True)
class LeafGraph:
    """Complete weighted graph over leaves, in leaf order; weights are Kuiper p-values."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def build_leaf_graph(tree: SurvivalTree) -> LeafGraph:
    """Pairwise Kuiper p-values between leaf curves; diagonal fixed at 1."""
    _, p = kuiper_matrix([node.curve for node in tree.leaves()])
    return LeafGraph(p)


def sinkhorn_knopp(w: np.ndarray, tol: float = 1e-8, max_iter: int = 10000) -> np.ndarray:
    """Balance a nonnegative square matrix to doubly stochastic form.

    Alternates row and column normalization (via diagonal scaling vectors)
    until every row and column sum is within ``tol`` of 1. Symmetric input
    keeps a single scaling vector x (Knight 2008: x <- sqrt(x / Wx)), so the
    output diag(x) W diag(x) is symmetric bit-for-bit.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(w < 0):
        raise ValueError("matrix must be nonnegative")
    if np.any(w.sum(axis=0) == 0) or np.any(w.sum(axis=1) == 0):
        raise ValueError("matrix must have no all-zero row or column")

    symmetric = np.array_equal(w, w.T)
    r = c = np.ones(w.shape[0])
    worst = np.inf
    for it in range(max_iter + 1):
        wc = w @ c
        wr = wc if symmetric else w.T @ r
        worst = float(max(np.max(np.abs(r * wc - 1.0)), np.max(np.abs(c * wr - 1.0))))
        if worst <= tol:
            return np.outer(r, c) * w
        if it == max_iter:
            break
        if symmetric:
            r = c = np.sqrt(r / wc)
        else:
            r = 1.0 / wc
            c = 1.0 / (w.T @ r)
    raise NonConvergenceError(
        f"Sinkhorn-Knopp did not converge in {max_iter} iterations; "
        f"worst row/col deviation {worst:.3e}")


def check_mcl_params(expansion: int, inflation: float):
    """Raise ValueError unless expansion is a positive integer and inflation
    is positive and finite (so a NaN fails)."""
    if expansion < 1 or int(expansion) != expansion:
        raise ValueError("expansion must be a positive integer")
    if not 0 < inflation < np.inf:
        raise ValueError("inflation must be positive and finite")


def mcl(m: np.ndarray, expansion: int = 2, inflation: float = 2.0) -> list[list[int]]:
    """Markov clustering of a column-stochastic matrix.

    Repeats expansion (matrix power), inflation (entrywise power with
    column renormalization), and pruning until the matrix stops changing.
    Each vertex joins the attractor (row with positive diagonal mass)
    holding the largest entry of its column, ties to the lowest attractor;
    a column with no attractor mass joins the row holding its largest entry.
    Returns the blocks ordered by their smallest vertex. An inflation that
    underflows a whole column to 0 raises NonConvergenceError.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    check_mcl_params(expansion, inflation)
    col_sums = m.sum(axis=0)
    if np.any(np.abs(col_sums - 1.0) > 1e-6):
        raise ValueError("columns must sum to 1")
    m = m / col_sums

    converged = False
    for _ in range(MCL_MAX_ITER):
        prev = m
        m = np.linalg.matrix_power(m, expansion)
        m = m ** inflation
        if not (sums := m.sum(axis=0)).all():
            raise NonConvergenceError(f"MCL inflation {inflation} underflowed a column to 0")
        m /= sums
        m = np.where(m < MCL_PRUNE_TOL, 0.0, m)
        m /= m.sum(axis=0)
        if np.max(np.abs(m - prev)) < MCL_CONV_TOL:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(f"MCL did not converge in {MCL_MAX_ITER} iterations")

    held = np.where((np.diag(m) > 0)[:, None], m, -1.0)
    labels = np.where(held.max(axis=0) > 0, held.argmax(axis=0), m.argmax(axis=0))
    _, first = np.unique(labels, return_index=True)
    return [np.flatnonzero(labels == labels[j]).tolist() for j in np.sort(first)]


@dataclass(frozen=True)
class ClusterModel:
    """Leaf ``i`` is in cluster ``leaf_to_cluster[i]``; one pooled survival curve per cluster."""

    tree: SurvivalTree
    leaf_to_cluster: tuple[int, ...]
    cluster_curves: tuple[SurvivalCurve, ...]

    def __post_init__(self):
        clusters, n_leaves = tuple(self.leaf_to_cluster), len(self.tree.leaf_ids)
        if len(clusters) < n_leaves:
            raise SchemaMismatchError(f"the model maps leaf {len(clusters)} to no cluster")
        if len(clusters) > n_leaves or set(clusters) != set(range(self.k)):
            raise SchemaMismatchError(
                f"leaf_to_cluster must map each of the {n_leaves} leaves to one of clusters "
                f"0..{self.k - 1}, and each cluster to a leaf; got {list(clusters)}")
        object.__setattr__(self, "leaf_to_cluster", tuple(map(int, clusters)))

    @property
    def k(self) -> int:
        return len(self.cluster_curves)


def leaf_samples(tree: SurvivalTree, data: SurvivalDataset) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Route a dataset through the tree: leaf id -> (times, events) arrays."""
    labels = assign_leaves(tree, data)
    return {lid: (data.times[labels == lid], data.events[labels == lid])
            for lid in tree.leaf_ids}


def _pooled_curve(group: list[int], samples: dict[int, tuple[np.ndarray, np.ndarray]]) -> SurvivalCurve:
    times = np.concatenate([samples[lid][0] for lid in group])
    events = np.concatenate([samples[lid][1] for lid in group])
    return km_fit_arrays(times, events)


def coarsen_to_k(partition: list[list[int]], graph: LeafGraph, tree: SurvivalTree,
                 k: int, samples: dict[int, tuple[np.ndarray, np.ndarray]],
                 balanced: np.ndarray, expansion: int, inflation: float) -> ClusterModel:
    """Adjust an MCL partition to exactly ``k`` clusters.

    Too few groups: rerun MCL on ``balanced`` at ``expansion`` with
    ``inflation`` raised in 0.25 steps (up to 10.0) until a run reaches at
    least ``k`` groups. Too many: in each round, score the current clusters'
    pooled curves with one :func:`kuiper_matrix` pass and merge the pair with
    the highest Kuiper p-value (most similar survival). A partition of
    exactly ``k`` groups scores no pairs.

    ``samples`` maps leaf ids to their training (times, events) arrays;
    pooled curves cannot be rebuilt from the tree alone.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    groups, infl = partition, inflation
    while len(groups) < k:
        infl += INFLATION_SWEEP_STEP
        if infl > INFLATION_SWEEP_MAX + 1e-9:
            raise UnreachableKError(
                f"cannot produce {k} clusters from {len(partition)} "
                f"group(s); inflation sweep exhausted")
        groups = mcl(balanced, expansion, infl)

    groups = [sorted(block) for block in groups]
    curves = [_pooled_curve(g, samples) for g in groups]
    while len(groups) > k:
        _, p = kuiper_matrix(curves)
        # the first pair with the highest p wins
        i, j = max(itertools.combinations(range(len(groups)), 2), key=p.__getitem__)
        groups[i] = sorted(groups[i] + groups[j])
        del groups[j]
        curves[i] = _pooled_curve(groups[i], samples)
        del curves[j]

    order = sorted(range(len(groups)), key=lambda g: groups[g][0])
    leaf_to_cluster = [0] * len(graph.weights)
    for new_id, g in enumerate(order):
        for lid in groups[g]:
            leaf_to_cluster[lid] = new_id
    return ClusterModel(tree, leaf_to_cluster, tuple(curves[g] for g in order))


def cluster_assign(model: ClusterModel, subject: Subject) -> int:
    """Cluster label for one subject: leaf routing then the leaf map."""
    return model.leaf_to_cluster[assign_leaf(model.tree, subject)]


def cluster_assign_dataset(model: ClusterModel, data: SurvivalDataset,
                           unknown: str | None = None) -> np.ndarray:
    """Vectorized cluster labels for a whole dataset (``unknown`` as in assign_leaves)."""
    return np.array(model.leaf_to_cluster)[assign_leaves(model.tree, data, unknown)]


def cluster_assign_columns(model: ClusterModel, columns, n: int, unknown=None) -> np.ndarray:
    """Cluster labels of ``n`` rows held as columns, as :func:`route_columns` takes them."""
    return np.array(model.leaf_to_cluster)[route_columns(model.tree, columns, n, unknown)]


def fit_cluster_model(data: SurvivalDataset, tree: SurvivalTree, k: int | None = None,
                      expansion: int = 2, inflation: float = 2.0) -> ClusterModel:
    """Leaf graph -> floor -> Sinkhorn-Knopp -> MCL -> coarsen, end to end."""
    samples = leaf_samples(tree, data)
    graph = build_leaf_graph(tree)
    balanced = sinkhorn_knopp(np.maximum(graph.weights, WEIGHT_FLOOR))
    partition = mcl(balanced, expansion, inflation)
    if k is None:
        k = len(partition)
    return coarsen_to_k(partition, graph, tree, k, samples, balanced, expansion, inflation)
