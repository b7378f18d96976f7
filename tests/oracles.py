"""Independent reference computations used by the test suite.

These deliberately avoid the library's own code paths wherever they act as
oracles: the permutation machinery below works on raw pooled samples and
rank masks, never on fitted curves.
"""

import csv
import math

import numpy as np


def brute_force_km(samples, t):
    """Product over death times <= t of (n_j - d_j) / n_j, evaluated naively."""
    death_times = sorted({time for time, event in samples if event})
    value = 1.0
    for tj in death_times:
        if tj > t:
            break
        nj = sum(1 for time, _ in samples if time >= tj)
        dj = sum(1 for time, event in samples if event and time == tj)
        value *= (nj - dj) / nj
    return value


def brute_force_risk_sets(times, events, members):
    """Distinct death times, then per member row and death time t the counts
    #(time >= t) and #(event and time == t), tallied one subject at a time."""
    death_times = sorted({float(t) for t, e in zip(times, events) if e})
    at_risk = [[sum(1 for t, m in zip(times, row) if m and t >= tj) for tj in death_times]
               for row in members]
    deaths = [[sum(1 for t, e, m in zip(times, events, row) if m and e and t == tj)
               for tj in death_times] for row in members]
    return death_times, at_risk, deaths


def brute_force_split_v(times, events, mask):
    """Kuiper V of one split: naive KM curves of both sides at the node's death times."""
    samples = [(float(t), bool(e)) for t, e in zip(times, events)]
    true_side = [s for s, m in zip(samples, mask) if m]
    false_side = [s for s, m in zip(samples, mask) if not m]
    grid = sorted({t for t, e in samples if e})
    diff = [brute_force_km(true_side, t) - brute_force_km(false_side, t) for t in grid]
    return max(max(diff, default=0.0), 0.0) + max(max((-x for x in diff), default=0.0), 0.0)


def two_sample_kuiper_v(sample_a, sample_b):
    """Classic two-sample Kuiper V from empirical CDFs of uncensored data."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    diff = fa - fb
    return max(diff.max(), 0.0) + max((-diff).max(), 0.0)


def kuiper_permutation_pvalue(sample_a, sample_b, v_threshold, n_perm=10_000, seed=0):
    """Fraction of random relabelings whose Kuiper statistic reaches ``v_threshold``.

    Labels of the pooled sample are permuted ``n_perm`` times; each
    relabeling's V is computed from empirical CDF differences evaluated at
    the pooled order statistics (vectorized across permutations).
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    n_a, n_b = a.size, b.size
    pooled = np.concatenate([a, b])
    n = pooled.size
    order = np.argsort(pooled, kind="stable")
    pooled_sorted = pooled[order]
    # last index of each tie-run: the only positions where both ECDFs have stepped
    valid = np.r_[pooled_sorted[1:] != pooled_sorted[:-1], True]

    rng = np.random.default_rng(seed)
    keys = rng.random((n_perm, n))
    take_a = np.argpartition(keys, n_a - 1, axis=1)[:, :n_a]
    masks = np.zeros((n_perm, n), dtype=bool)
    np.put_along_axis(masks, take_a, True, axis=1)

    masks_sorted = masks[:, order]
    count_a = np.cumsum(masks_sorted, axis=1, dtype=np.int64)
    ranks = np.arange(1, n + 1)
    diff = count_a / n_a - (ranks - count_a) / n_b
    diff = diff[:, valid]
    v = np.maximum(diff.max(axis=1), 0.0) + np.maximum((-diff).max(axis=1), 0.0)
    return float(np.mean(v >= v_threshold))


def best_label_agreement(truth, predicted):
    """Max accuracy over all assignments of predicted labels to truth labels.

    Exhaustive over permutations when the label counts allow, otherwise a
    greedy matching; cluster counts in this suite are tiny so permutations
    are always used.
    """
    from itertools import permutations

    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    t_labels = np.unique(truth)
    p_labels = np.unique(predicted)
    best = 0.0
    for perm in permutations(range(t_labels.size), min(p_labels.size, t_labels.size)):
        mapping = {p_labels[i]: t_labels[j] for i, j in enumerate(perm)}
        mapped = np.array([mapping.get(p, -1) for p in predicted])
        best = max(best, float(np.mean(mapped == truth)))
    return best


def reference_subject_csv(path, schema, strict):
    """Parse a subject CSV row by row with ``csv.DictReader``.

    Returns ``(ids, times, events, columns)`` as lists. The first bad row
    raises ``SchemaMismatchError("line N: <problem>")``, N being the reader's
    line count after the row, for the first of: its field count, ``event``,
    the features in schema order, ``time``. Blank lines are skipped; lenient
    mode reads blank numeric cells as NaN and unknown levels as -1.
    """
    from survclust.errors import SchemaMismatchError

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = set(reader.fieldnames or ())
        reserved = {"id", "time", "event"}
        if not reserved <= fields or fields - reserved != set(schema.names):
            raise SchemaMismatchError("header does not match the schema")
        ids, times, events = [], [], []
        columns = [[] for _ in schema]
        for row in reader:
            line = reader.reader.line_num

            def reject(message):
                raise SchemaMismatchError(f"line {line}: {message}")

            def number(raw, name):
                if not raw.strip():
                    reject(f"missing value in column {name!r}")
                try:
                    return float(raw)
                except ValueError:
                    reject(f"{raw!r} is not a number in column {name!r}")

            width = len(reader.fieldnames)
            if None in row:
                reject(f"expected {width} fields, got {width + len(row[None])}")
            if None in row.values():
                got = sum(value is not None for value in row.values())
                reject(f"expected {width} fields, got {got}")
            event = row["event"].strip()
            if event not in ("0", "1"):
                reject(f"event must be 0 or 1, got {event!r}")
            values = []
            for feature in schema:
                raw = row[feature.name]
                if feature.kind == "numeric":
                    blank = not raw.strip()
                    values.append(float("nan") if blank and not strict
                                  else number(raw, feature.name))
                elif raw in feature.categories:
                    values.append(feature.categories.index(raw))
                elif strict:
                    reject(f"unknown category {raw!r} in column {feature.name!r}")
                else:
                    values.append(-1)
            times.append(number(row["time"], "time"))
            ids.append(row["id"])
            events.append(event == "1")
            for column, value in zip(columns, values):
                column.append(value)
    return ids, times, events, columns


def reference_route(tree, values, unknown=None):
    """Leaf id of one row of feature values, walking the tree node by node.

    ``unknown="majority"`` sends NaN numerics and out-of-range categories to
    the child whose leaves hold more training subjects, ties to the left.
    """
    def size(node):
        return node.n_subjects if node.is_leaf else size(node.left) + size(node.right)

    node = tree.root
    while not node.is_leaf:
        feature = tree.schema[node.split.feature]
        value = values[node.split.feature]
        if feature.kind == "numeric":
            missing = math.isnan(value)
            go_left = value < node.split.test.threshold
        else:
            missing = not 0 <= value < len(feature.categories)
            go_left = value == node.split.test.category_index
        if missing and unknown == "majority":
            go_left = size(node.left) >= size(node.right)
        node = node.left if go_left else node.right
    return node.leaf_id
