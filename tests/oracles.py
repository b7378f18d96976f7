"""Independent reference computations used by the test suite.

These deliberately avoid the library's own code paths wherever they act as
oracles: the permutation machinery below works on raw pooled samples and
rank masks, never on fitted curves.
"""

import bisect
import csv
import decimal
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


def reference_enumerate_splits(dataset, config):
    """(feature, cut) of every admissible split, one row at a time. Thresholds
    are the midpoints of a numeric feature's sorted distinct non-NaN values,
    or the upper value of a pair whose midpoint rounds onto the lower one;
    past ``max_numeric_thresholds`` of them, only those at the rounded (half
    to even) positions i * (M - 1) / (cap - 1) of the M thresholds are kept,
    the last at M - 1 (cap = 1 keeps the first). Levels are 0 .. L - 1. A
    subject is on a threshold's true side iff value < threshold and on a
    level's iff code == level, so NaN values and unknown codes never are."""
    events = [bool(e) for e in dataset.events]
    total_events = sum(events)
    out = []
    for j, feature in enumerate(dataset.schema):
        values = dataset.columns[j].tolist()
        if feature.kind == "numeric":
            distinct = sorted({v for v in values if not math.isnan(v)})
            cuts = [0.5 * (a + b) if 0.5 * (a + b) > a else b
                    for a, b in zip(distinct, distinct[1:])]
            cap = config.max_numeric_thresholds
            if len(cuts) > cap:
                if cap == 1:
                    positions = [0]
                else:
                    step = (len(cuts) - 1) / (cap - 1)
                    positions = [round(i * step) for i in range(cap - 1)] + [len(cuts) - 1]
                cuts = [cuts[p] for p in positions]
            true_side = [[v < cut for v in values] for cut in cuts]
        else:
            cuts = list(range(len(feature.categories)))
            true_side = [[v == cut for v in values] for cut in cuts]
        for cut, side in zip(cuts, true_side):
            n_true = sum(side)
            e_true = sum(1 for s, e in zip(side, events) if s and e)
            if (min(n_true, len(values) - n_true) >= config.min_leaf_subjects
                    and min(e_true, total_events - e_true) >= config.min_leaf_events):
                out.append((j, cut))
    return out


def union_grid_kuiper_v(curve_a, curve_b):
    """Kuiper V of two fitted curves, one pair at a time: both step functions
    evaluated by bisection at each point of the pair's own union grid."""
    def step(curve, t):
        i = bisect.bisect_right(curve.event_times.tolist(), t) - 1
        return 1.0 if i < 0 else float(curve.survival[i])

    grid = sorted(set(curve_a.event_times.tolist()) | set(curve_b.event_times.tolist()))
    diff = [step(curve_a, t) - step(curve_b, t) for t in grid]
    return max(max(diff, default=0.0), 0.0) + max(max((-x for x in diff), default=0.0), 0.0)


def reference_mcl_blocks(m):
    """MCL's final labeling, one column at a time: each column joins the
    attractor (row with positive diagonal) holding its largest entry, ties to
    the lowest, else the row holding its largest entry; blocks ordered by
    their smallest vertex."""
    m = np.asarray(m, dtype=np.float64)
    attractors = [i for i in range(m.shape[0]) if m[i, i] > 0]
    blocks = {}
    for j in range(m.shape[1]):
        column = m[:, j].tolist()
        held = [column[a] for a in attractors]
        if held and max(held) > 0:
            label = attractors[held.index(max(held))]
        else:
            label = column.index(max(column))
        blocks.setdefault(label, []).append(j)
    return sorted(blocks.values(), key=lambda block: block[0])


def reference_violations(dataset):
    """validate_dataset's violations as (subject id, message), found one row at
    a time: per row a repeated id then its time, then per feature in schema
    order its bad rows, then the dataset-level checks."""
    out, seen = [], set()
    for sid, t in zip(dataset.ids, dataset.times.tolist()):
        if sid in seen:
            out.append((sid, "duplicate id"))
        seen.add(sid)
        if not math.isfinite(t):
            out.append((sid, "non-finite time"))
        elif t < 0:
            out.append((sid, "negative time"))
    for feature, col in zip(dataset.schema, dataset.columns):
        for sid, x in zip(dataset.ids, col.tolist()):
            if feature.kind == "numeric" and not math.isfinite(x):
                out.append((sid, f"missing or non-finite value for feature {feature.name!r}"))
            elif feature.kind != "numeric" and not 0 <= x < len(feature.categories):
                out.append((sid, f"unknown category for feature {feature.name!r}"))
    if not dataset.ids:
        out.append((None, "empty dataset"))
    elif not any(dataset.events.tolist()):
        out.append((None, "no observed events"))
    return out


def two_sample_kuiper_v(sample_a, sample_b):
    """Classic two-sample Kuiper V from empirical CDFs of uncensored data."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    diff = fa - fb
    return max(diff.max(), 0.0) + max((-diff).max(), 0.0)


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937511")


def reference_chi2_sf(x, df):
    """Chi-squared upper tail Q(df/2, x/2) at 50 significant digits.

    Climbs Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1) from Q(1, y) = e^-y
    (even df) or Q(1/2, y) = erfc(sqrt(y)) (odd df), carrying each step's
    term to the next by the ratio y / (a + 1).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        y = decimal.Decimal(x) / 2
        if df % 2:
            a, q = decimal.Decimal("0.5"), decimal.Decimal(math.erfc(math.sqrt(x / 2)))
            term = 2 * (y / _PI).sqrt() * (-y).exp()   # Gamma(3/2) = sqrt(pi) / 2
        else:
            a, q = decimal.Decimal(1), (-y).exp()
            term = y * (-y).exp()                      # Gamma(2) = 1
        while 2 * a < df:
            q += term
            term = term * y / (a + 1)
            a += 1
        return float(q)


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

    Leaves are numbered in preorder, left subtree first: the id counts the
    leaves of every left subtree the walk passes by going right.
    ``unknown="majority"`` sends NaN numerics and out-of-range categories to
    the child whose leaves hold more training subjects, ties to the left.
    """
    def size(node):
        return node.n_subjects if node.is_leaf else size(node.left) + size(node.right)

    def n_leaves(node):
        return 1 if node.is_leaf else n_leaves(node.left) + n_leaves(node.right)

    node, leaf_id = tree.root, 0
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
        if not go_left:
            leaf_id += n_leaves(node.left)
        node = node.left if go_left else node.right
    return leaf_id


def reference_read_activity_csv(path):
    """Activity CSV rows as ``(user_id, timestamp, direction, partner_id)``
    tuples, one ``csv.reader`` row at a time.

    Blank lines are skipped. A missing header column raises
    ``SchemaMismatchError`` naming the columns; the first bad row raises
    ``SchemaMismatchError("line N: <problem>")``, N being the reader's line
    count after the row, for the first of: its field count, a timestamp
    that is not a number, one that is not finite, its direction, a blank
    partner_id.
    """
    from survclust.errors import SchemaMismatchError

    required = ("user_id", "timestamp", "direction", "partner_id")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = set(required) - set(header)
        if missing:
            raise SchemaMismatchError(f"activity CSV missing columns: {sorted(missing)}")
        column = {name: i for i, name in enumerate(header)}
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise SchemaMismatchError(
                    f"line {line}: expected {len(header)} fields, got {len(row)}")
            uid, ts, direction, partner = (row[column[name]] for name in required)
            try:
                stamp = float(ts)
            except ValueError:
                raise SchemaMismatchError(
                    f"line {line}: {ts!r} is not a number in column 'timestamp'") from None
            if not math.isfinite(stamp):
                raise SchemaMismatchError(
                    f"line {line}: {ts!r} is not finite in column 'timestamp'")
            if direction not in ("sent", "received"):
                raise SchemaMismatchError(f"line {line}: direction must be 'sent' or "
                                          f"'received', got {direction!r}")
            if not partner.strip():
                raise SchemaMismatchError(f"line {line}: missing value in column 'partner_id'")
            rows.append((uid, stamp, direction, partner))
    return rows


def reference_ingest(rows, join_times, study_end, window, cutoff,
                     profile_schema=None, profiles=None):
    """Activity rows to ``(ids, times, events, columns, discards)``, one object
    per record and per user.

    Builds a sorted record tuple per user and walks the users in id order,
    raising ``ValueError`` (``InvalidCutoffError`` for the cutoff) on the
    first broken invariant: rows in order (unknown user, then direction),
    users in ``join_times`` order (activity before joining), users in id
    order (joins, then activity, after the study end). Early-window counts
    use ``[join, join + window)``; with a profile schema, profile values
    come first and users without a profile are discarded. ``discards`` is a
    list of ``(id, reason)`` in id order; columns follow the merged schema.
    """
    from survclust.errors import InvalidCutoffError

    per_user = {uid: [] for uid in join_times}
    for uid, ts, direction, partner in rows:
        if uid not in per_user:
            raise ValueError(f"activity row for unknown user {uid!r}")
        if direction not in ("sent", "received"):
            raise ValueError(f"direction must be 'sent' or 'received', got {direction!r}")
        per_user[uid].append((ts, direction, partner))
    for uid, records in per_user.items():
        records.sort()
        if records and records[0][0] < join_times[uid]:
            raise ValueError(f"user {uid!r} has activity before joining")
    users = sorted(per_user)
    for uid in users:
        if join_times[uid] > study_end:
            raise ValueError(f"user {uid!r} joins after the study end")
        if per_user[uid] and per_user[uid][-1][0] > study_end:
            raise ValueError(f"user {uid!r} has activity after the study end")

    if not (window > 0) or not math.isfinite(window):
        raise ValueError(f"window must be a positive duration, got {window}")
    features = {}
    for uid in users:
        join = join_times[uid]
        in_window = [r for r in per_user[uid] if join <= r[0] < join + window]
        sent = sum(1 for r in in_window if r[1] == "sent")
        activity = [float(sent), float(len(in_window) - sent),
                    float(len({r[2] for r in in_window})),
                    float(len({math.floor(r[0] - join) for r in in_window}))]
        if profile_schema is None:
            features[uid] = activity
        elif uid in profiles:
            features[uid] = list(profiles[uid]) + activity
    kinds = [f.kind for f in profile_schema or ()] + ["numeric"] * 4

    if not (cutoff > 0) or not math.isfinite(cutoff):
        raise InvalidCutoffError(f"cutoff must be a positive duration, got {cutoff}")
    ids, values, times, events, discards = [], [], [], [], []
    for uid in users:
        join = join_times[uid]
        last = per_user[uid][-1][0] if per_user[uid] else join
        dead = study_end - last >= cutoff
        time = last - join if dead else study_end - join
        if study_end - join < cutoff:
            discards.append((uid, "observation window shorter than cutoff"))
        elif uid not in features:
            discards.append((uid, "no profile features"))
        elif dead and time == 0:
            discards.append((uid, "zero lifetime"))
        else:
            ids.append(uid)
            values.append(features[uid])
            times.append(time)
            events.append(dead)
    columns = [np.array([row[j] for row in values],
                        dtype=np.float64 if kind == "numeric" else np.int64)
               for j, kind in enumerate(kinds)]
    return ids, times, events, columns, discards


def reference_tree_dict(tree):
    """JSON form of a tree with every field named: each node a dict holding
    its children, and the config's five fields listed one by one."""
    def node_dict(node):
        if node.is_leaf:
            return {"n_subjects": node.n_subjects, "n_events": node.n_events}
        feature = tree.schema[node.split.feature]
        test = ({"threshold": node.split.test.threshold} if feature.kind == "numeric"
                else {"category_index": node.split.test.category_index})
        return {
            "feature": feature.name,
            **test,
            "p_value": node.split.p_value,
            "statistic": node.split.statistic,
            "n_candidates": node.n_candidates,
            "left": node_dict(node.left),
            "right": node_dict(node.right),
        }

    config = tree.config
    features = [{"name": f.name, "kind": f.kind,
                 **({"categories": list(f.categories)} if f.kind == "categorical" else {})}
                for f in tree.schema]
    return {
        "schema": {"features": features},
        "config": {
            "alpha": config.alpha,
            "min_leaf_subjects": config.min_leaf_subjects,
            "min_leaf_events": config.min_leaf_events,
            "max_depth": config.max_depth,
            "max_numeric_thresholds": config.max_numeric_thresholds,
        },
        "root": node_dict(tree.root),
    }


def reference_hazard_ratio_dict(hr):
    """JSON form of a hazard-ratio result, field by field."""
    return {
        "beta": hr.beta,
        "hazard_ratio": hr.hazard_ratio,
        "std_err": hr.std_err,
        "ci95": list(hr.ci95),
        "iterations": hr.iterations,
        "diverged": hr.diverged,
    }


def reference_survival_labels(ids, times, events, t0, t1):
    """(id, alive at t1) one row at a time: rows at or before t0 are dropped
    (a NaN time is neither), rows seen to t1 are alive, deaths before t1 are
    not, and rows censored before t1 are dropped."""
    out = []
    for sid, time, event in zip(ids, times, events):
        if time <= t0:
            continue
        if time >= t1:
            out.append((sid, True))
        elif event:
            out.append((sid, False))
    return out


def reference_classification_dict(rep):
    """JSON form of a classification report, field by field."""
    return {
        "tp": rep.tp, "fp": rep.fp, "tn": rep.tn, "fn": rep.fn,
        "precision": rep.precision, "recall": rep.recall,
        "f_measure": rep.f_measure, "accuracy": rep.accuracy,
        "fpr": rep.fpr,
    }


def reference_generate(config):
    """A synthetic population drawn one subject at a time, every value from
    the subject's own stream: ``(ids, times, events, columns, labels)``."""
    n = config.n_subjects
    weights = np.array([g.weight for g in config.groups])
    cum = np.cumsum(weights)
    labels = np.empty(n, dtype=np.int64)
    times = np.empty(n)
    events = np.empty(n, dtype=bool)
    values = np.empty((n, config.n_signature + config.noise_features))
    for i in range(n):
        rng = np.random.default_rng([config.seed, i])
        u = rng.random()
        g = int(np.searchsorted(cum, u, side="right"))
        g = min(g, len(config.groups) - 1)
        spec = config.groups[g]
        lifetime = rng.exponential(1.0 / spec.hazard_rate)
        entry = rng.uniform(0.0, config.entry_window)
        horizon = config.study_duration - entry
        sig = rng.normal(np.asarray(spec.feature_means), 1.0)
        noise = rng.normal(0.0, 1.0, config.noise_features)
        labels[i] = g
        if lifetime <= horizon:
            times[i] = lifetime
            events[i] = True
        else:
            times[i] = horizon
            events[i] = False
        values[i, :config.n_signature] = sig
        values[i, config.n_signature:] = noise
    ids = [f"s{i:06d}" for i in range(n)]
    return ids, times, events, list(values.T), labels


def reference_save_dataset_csv(dataset, path):
    """Write a subject CSV one cell at a time; ids are written as they are."""
    def format_value(feature, value):
        if feature.kind == "numeric":
            return repr(float(value))
        idx = int(value)
        if 0 <= idx < len(feature.categories):
            return feature.categories[idx]
        return ""

    header = ["id", "time", "event"] + list(dataset.schema.names)
    lines = [",".join(header)]
    for i, sid in enumerate(dataset.ids):
        row = [sid, repr(float(dataset.times[i])), "1" if dataset.events[i] else "0"]
        row += [format_value(f, col[i]) for f, col in
                zip(dataset.schema, dataset.columns)]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
