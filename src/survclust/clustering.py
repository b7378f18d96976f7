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
from .errors import NonConvergenceError, SurvClustError, UnreachableKError
from .kaplan_meier import SurvivalCurve, km_fit_arrays
from .tree import SurvivalTree, assign_leaf, assign_leaves
from .twosample import kuiper_test

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
    """Complete weighted graph over leaves; weights are Kuiper p-values."""

    leaf_ids: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        n = len(self.leaf_ids)
        if w.shape != (n, n):
            raise ValueError("weight matrix shape does not match leaf count")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def build_leaf_graph(tree: SurvivalTree) -> LeafGraph:
    """Pairwise Kuiper p-values between leaf curves; diagonal fixed at 1."""
    leaves = sorted(tree.leaves(), key=lambda node: node.leaf_id)
    n = len(leaves)
    w = np.ones((n, n))
    for i, j in itertools.combinations(range(n), 2):
        w[i, j] = w[j, i] = kuiper_test(leaves[i].curve, leaves[j].curve).p_value
    return LeafGraph(tuple(node.leaf_id for node in leaves), w)


def sinkhorn_knopp(w: np.ndarray, tol: float = 1e-8, max_iter: int = 10000) -> np.ndarray:
    """Balance a nonnegative square matrix to doubly stochastic form.

    Alternates row and column normalization (via diagonal scaling vectors)
    until every row and column sum is within ``tol`` of 1. Symmetric input
    takes a single-scaling path so the output is symmetric bit-for-bit.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(w < 0):
        raise ValueError("matrix must be nonnegative")
    if np.any(w.sum(axis=0) == 0) or np.any(w.sum(axis=1) == 0):
        raise ValueError("matrix must have no all-zero row or column")

    symmetric = np.array_equal(w, w.T)
    if symmetric:
        x = np.ones(w.shape[0])
        worst = np.inf
        for it in range(max_iter + 1):
            worst = float(np.max(np.abs(x * (w @ x) - 1.0)))
            if worst <= tol:
                return np.outer(x, x) * w
            if it == max_iter:
                break
            x = np.sqrt(x / (w @ x))
        raise NonConvergenceError(
            f"Sinkhorn-Knopp did not converge in {max_iter} iterations; "
            f"worst row/col deviation {worst:.3e}")

    r = np.ones(w.shape[0])
    c = np.ones(w.shape[0])
    worst = np.inf
    for it in range(max_iter + 1):
        rows = r * (w @ c)
        cols = c * (w.T @ r)
        worst = float(max(np.max(np.abs(rows - 1.0)), np.max(np.abs(cols - 1.0))))
        if worst <= tol:
            return r[:, None] * w * c[None, :]
        if it == max_iter:
            break
        r = 1.0 / (w @ c)
        c = 1.0 / (w.T @ r)
    raise NonConvergenceError(
        f"Sinkhorn-Knopp did not converge in {max_iter} iterations; "
        f"worst row/col deviation {worst:.3e}")


def mcl(m: np.ndarray, expansion: int = 2, inflation: float = 2.0) -> list[list[int]]:
    """Markov clustering of a column-stochastic matrix.

    Repeats expansion (matrix power), inflation (entrywise power with
    column renormalization), and pruning until the matrix stops changing.
    Each vertex joins the attractor (row with positive diagonal mass)
    holding the largest entry of its column, ties to the lowest attractor.
    Returns the blocks ordered by their smallest vertex.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if expansion < 1 or int(expansion) != expansion:
        raise ValueError("expansion must be a positive integer")
    if inflation <= 0:
        raise ValueError("inflation must be positive")
    n = m.shape[0]
    col_sums = m.sum(axis=0)
    if np.any(np.abs(col_sums - 1.0) > 1e-6):
        raise ValueError("columns must sum to 1")
    m = m / col_sums

    converged = False
    for _ in range(MCL_MAX_ITER):
        prev = m
        m = np.linalg.matrix_power(m, expansion)
        m = m ** inflation
        m /= m.sum(axis=0)
        m = np.where(m < MCL_PRUNE_TOL, 0.0, m)
        m /= m.sum(axis=0)
        if np.max(np.abs(m - prev)) < MCL_CONV_TOL:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(f"MCL did not converge in {MCL_MAX_ITER} iterations")

    attractors = np.flatnonzero(np.diag(m) > 0)
    labels = np.empty(n, dtype=np.int64)
    for j in range(n):
        if attractors.size and m[attractors, j].max() > 0:
            labels[j] = attractors[int(np.argmax(m[attractors, j]))]
        else:
            labels[j] = int(np.argmax(m[:, j]))
    blocks: dict[int, list[int]] = {}
    for j in range(n):
        blocks.setdefault(int(labels[j]), []).append(j)
    return sorted(blocks.values(), key=lambda block: block[0])


@dataclass(frozen=True)
class ClusterModel:
    """Final leaf-to-cluster map with per-cluster pooled survival curves."""

    tree: SurvivalTree
    leaf_to_cluster: dict[int, int]
    k: int
    cluster_curves: tuple[SurvivalCurve, ...]


def leaf_samples(tree: SurvivalTree, data: SurvivalDataset) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Route a dataset through the tree: leaf id -> (times, events) arrays."""
    labels = assign_leaves(tree, data)
    return {int(lid): (data.times[labels == lid], data.events[labels == lid])
            for lid in tree.leaf_ids}


def _pooled_curve(group: list[int], samples: dict[int, tuple[np.ndarray, np.ndarray]]) -> SurvivalCurve:
    times = np.concatenate([samples[lid][0] for lid in group])
    events = np.concatenate([samples[lid][1] for lid in group])
    return km_fit_arrays(times, events)


def coarsen_to_k(partition: list[list[int]], graph: LeafGraph, tree: SurvivalTree,
                 k: int, samples: dict[int, tuple[np.ndarray, np.ndarray]],
                 balanced: np.ndarray | None = None, expansion: int = 2,
                 inflation: float = 2.0) -> ClusterModel:
    """Adjust an MCL partition to exactly ``k`` clusters.

    Too many groups: repeatedly merge the pair whose pooled populations
    have the highest Kuiper p-value (most similar survival), recomputing
    pooled curves after each merge. Too few: rerun MCL on the balanced
    matrix with inflation raised in 0.25 steps (up to 10.0), take the
    first run reaching at least ``k`` groups, then merge down.

    ``samples`` maps leaf ids to their training (times, events) arrays;
    pooled curves cannot be rebuilt from the tree alone.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    groups = [sorted(block) for block in partition]

    if len(groups) < k:
        if balanced is None:
            raise ValueError("refining the partition requires the balanced matrix")
        infl = inflation + INFLATION_SWEEP_STEP
        while infl <= INFLATION_SWEEP_MAX + 1e-9:
            candidate = mcl(balanced, expansion, infl)
            if len(candidate) >= k:
                groups = [sorted(block) for block in candidate]
                break
            infl += INFLATION_SWEEP_STEP
        if len(groups) < k:
            raise UnreachableKError(
                f"cannot produce {k} clusters from {len(groups)} "
                f"group(s); inflation sweep exhausted")

    curves = [_pooled_curve(g, samples) for g in groups]
    while len(groups) > k:
        # the first pair with the highest p wins
        i, j = max(itertools.combinations(range(len(groups)), 2),
                   key=lambda ij: kuiper_test(curves[ij[0]], curves[ij[1]]).p_value)
        groups[i] = sorted(groups[i] + groups[j])
        del groups[j]
        curves[i] = _pooled_curve(groups[i], samples)
        del curves[j]

    order = sorted(range(len(groups)), key=lambda g: groups[g][0])
    leaf_to_cluster = {}
    for new_id, g in enumerate(order):
        for lid in groups[g]:
            leaf_to_cluster[int(graph.leaf_ids[lid])] = new_id
    cluster_curves = tuple(curves[g] for g in order)
    return ClusterModel(tree, leaf_to_cluster, len(groups), cluster_curves)


def cluster_assign(model: ClusterModel, subject: Subject) -> int:
    """Cluster label for one subject: leaf routing then the leaf map."""
    return model.leaf_to_cluster[assign_leaf(model.tree, subject)]


def cluster_assign_dataset(model: ClusterModel, data: SurvivalDataset,
                           unknown: str | None = None) -> np.ndarray:
    """Vectorized cluster labels for a whole dataset (``unknown`` as in assign_leaves)."""
    leaf_labels = assign_leaves(model.tree, data, unknown)
    lookup = np.full(max(model.tree.leaf_ids) + 1, -1, dtype=np.int64)
    for lid in model.tree.leaf_ids:
        if lid not in model.leaf_to_cluster:
            raise SurvClustError(f"the model maps leaf {lid} to no cluster")
        lookup[lid] = model.leaf_to_cluster[lid]
    return lookup[leaf_labels]


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
