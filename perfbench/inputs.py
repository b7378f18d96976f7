"""Seeded input generators for the benchmark workloads.

Synthetic subject populations go through the program's public
``synth.generate`` and ``dataio.save_dataset_csv``. The activity log is
generated here, with numpy, because the program has no generator for it;
the same code also derives, independently of ``survclust.ingest``, the
censored dataset that ingestion must produce from that log, so the
benchmark can check the program's ingest counts and score the ingested
users with ``predict``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from survclust.dataio import save_dataset_csv, save_json, schema_to_dict
from survclust.synth import SynthConfig, default_group_specs, generate

# Activity-log shape: about 10k users and 500k records per seed.
ACTIVITY_USERS = 10_000
ACTIVITY_RATE = 4.0          # records per time unit while a user is active
JOIN_SPAN = 52.0             # joins after STUDY_END - CUTOFF are discarded by ingest
STUDY_END = 60.0
CUTOFF = 10.0
WINDOW = 5.0
PLANS = ("free", "basic", "pro", "team")
# The plan level sets the hazard: free/basic users churn fast, pro/team slowly.
PLAN_HAZARD = (1.0 / 6.0, 1.0 / 6.0, 1.0 / 30.0, 1.0 / 30.0)
PLAN_GROUP = (1, 1, 0, 0)
ACTIVITY_FEATURES = ("comments_sent", "comments_received", "partners", "days_active")


def write_text(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def synth_population(tracer, groups, n, seed, out_dir, name):
    """Default-parameter ``simulate`` population; returns (csv, schema, dataset, planted labels)."""
    config = SynthConfig(default_group_specs(groups, 5), n, 4.0, 12.0, 20, seed)
    with tracer.span("synth.generate"):
        dataset, labels = generate(config)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    schema_path = os.path.join(out_dir, f"{name}.schema.json")
    with tracer.span("dataio.save_dataset_csv"):
        save_dataset_csv(dataset, csv_path)
        save_json(schema_to_dict(dataset.schema), schema_path)
    return csv_path, schema_path, dataset, labels


def activity_log(seed, out_dir):
    """Write activity, profile and schema files plus the expected ingested subjects.

    Returns the paths and the expectation: planted group per kept user,
    ingest counts, and the expected subject CSV that ``predict`` scores.
    """
    rng = np.random.default_rng([seed, 7])
    n = ACTIVITY_USERS
    uids = [f"u{i:05d}" for i in range(n)]
    join = rng.uniform(0.0, JOIN_SPAN, n)
    plan = rng.integers(0, len(PLANS), n)
    age = rng.normal(35.0, 10.0, n)
    lifetime = rng.exponential(1.0 / np.asarray(PLAN_HAZARD)[plan])
    active_end = np.minimum(join + lifetime, STUDY_END)
    counts = rng.poisson(ACTIVITY_RATE * (active_end - join))
    owner = np.repeat(np.arange(n), counts)
    stamps = join[owner] + rng.random(owner.size) * (active_end - join)[owner]
    sent = rng.random(owner.size) < 0.5
    partner = rng.integers(0, n, owner.size)

    order = np.argsort(stamps, kind="stable")  # a log arrives in time order
    act_path = os.path.join(out_dir, "activity.csv")
    write_text(act_path, ["user_id,timestamp,direction,partner_id"] + [
        f"{uids[u]},{t!r},{'sent' if s else 'received'},{uids[p]}"
        for u, t, s, p in zip(owner[order].tolist(), stamps[order].tolist(),
                              sent[order].tolist(), partner[order].tolist())])
    prof_path = os.path.join(out_dir, "profiles.csv")
    write_text(prof_path, ["user_id,join_time,age,plan"] + [
        f"{uids[i]},{float(join[i])!r},{float(age[i])!r},{PLANS[plan[i]]}"
        for i in range(n)])
    schema_path = os.path.join(out_dir, "profile_schema.json")
    with open(schema_path, "w") as fh:
        json.dump({"features": [{"name": "age", "kind": "numeric"},
                                {"name": "plan", "kind": "categorical",
                                 "categories": list(PLANS)}]}, fh)

    # The ingestion rule, restated: lifetime runs from joining to the last
    # activity; a gap of at least CUTOFF before the study end means death.
    study_end = max(float(stamps.max(initial=-math.inf)), float(join.max()))
    last = join.copy()
    np.maximum.at(last, owner, stamps)
    window_len = study_end - join
    dead = (study_end - last) >= CUTOFF
    life = last - join
    keep = (window_len >= CUTOFF) & ~(dead & (life == 0))
    times = np.where(dead, life, window_len)

    in_window = stamps < join[owner] + WINDOW
    w_owner = owner[in_window]
    n_sent = np.bincount(w_owner[sent[in_window]], minlength=n)
    n_recv = np.bincount(w_owner[~sent[in_window]], minlength=n)
    partners = _distinct_per_owner(w_owner, partner[in_window], n)
    days = _distinct_per_owner(
        w_owner, np.floor(stamps[in_window] - join[w_owner]).astype(np.int64), n)

    kept = np.flatnonzero(keep)  # user ids sort like their indices
    subj_path = os.path.join(out_dir, "ingested_subjects.csv")
    write_text(subj_path, ["id,time,event,age,plan," + ",".join(ACTIVITY_FEATURES)] + [
        f"{uids[i]},{float(times[i])!r},{int(dead[i])},{float(age[i])!r},{PLANS[plan[i]]},"
        f"{float(n_sent[i])!r},{float(n_recv[i])!r},{float(partners[i])!r},{float(days[i])!r}"
        for i in kept.tolist()])
    expected = {"records": int(owner.size), "users": n,
                "subjects": int(kept.size), "events": int(dead[kept].sum()),
                "discarded": int(n - kept.size)}
    return act_path, prof_path, schema_path, subj_path, np.asarray(PLAN_GROUP)[plan[kept]], expected


def _distinct_per_owner(owner, values, n):
    """Number of distinct ``values`` per owner index."""
    if owner.size == 0:
        return np.zeros(n, dtype=np.int64)
    pairs = np.unique(np.stack([owner, values.astype(np.int64)]), axis=1)
    return np.bincount(pairs[0], minlength=n)
