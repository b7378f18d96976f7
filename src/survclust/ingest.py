"""Turn raw activity logs into censored survival datasets.

A user's lifetime runs from joining to their last recorded activity. If
the gap between that last activity and the study end reaches the
inactivity cutoff, the user is dead and the lifetime is observed;
otherwise the lifetime is censored at the study end. Users whose whole
observation window is shorter than the cutoff carry no usable signal and
are discarded, as are dead users with zero lifetime.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import NUMERIC, Feature, FeatureSchema, SurvivalDataset
from .errors import InvalidCutoffError, SchemaMismatchError

SENT = "sent"
RECEIVED = "received"

ACTIVITY_FEATURE_NAMES = ("comments_sent", "comments_received",
                          "partners", "days_active")


@dataclass(frozen=True)
class ActivityRecord:
    """One comment, sent or received, with the counterparty."""

    timestamp: float
    direction: str
    partner_id: str

    def __post_init__(self):
        if self.direction not in (SENT, RECEIVED):
            raise ValueError(f"direction must be 'sent' or 'received', got {self.direction!r}")


@dataclass(frozen=True)
class UserActivity:
    user_id: str
    join_time: float
    records: tuple[ActivityRecord, ...]

    def __post_init__(self):
        records = tuple(sorted(self.records, key=lambda r: (r.timestamp, r.direction, r.partner_id)))
        object.__setattr__(self, "records", records)
        if records and records[0].timestamp < self.join_time:
            raise ValueError(f"user {self.user_id!r} has activity before joining")

    @property
    def last_activity(self) -> float:
        return self.records[-1].timestamp if self.records else self.join_time


@dataclass(frozen=True)
class ActivityLog:
    users: tuple[UserActivity, ...]
    study_end: float

    def __post_init__(self):
        users = tuple(sorted(self.users, key=lambda u: u.user_id))
        object.__setattr__(self, "users", users)
        seen = set()
        for u in users:
            if u.user_id in seen:
                raise ValueError(f"duplicate user id {u.user_id!r}")
            seen.add(u.user_id)
            if u.join_time > self.study_end:
                raise ValueError(f"user {u.user_id!r} joins after the study end")
            if u.records and u.records[-1].timestamp > self.study_end:
                raise ValueError(f"user {u.user_id!r} has activity after the study end")


@dataclass(frozen=True)
class DiscardedUser:
    user_id: str
    reason: str


def activity_to_survival(log: ActivityLog, cutoff: float, schema: FeatureSchema,
                         features_by_user: Mapping[str, Sequence]) -> tuple[SurvivalDataset, list[DiscardedUser]]:
    """Apply the inactivity-cutoff rule to every user in the log.

    ``features_by_user`` supplies each user's feature values in schema
    order; users without an entry are discarded. Every input user lands in
    exactly one of the outputs.
    """
    if not (cutoff > 0) or not math.isfinite(cutoff):
        raise InvalidCutoffError(f"cutoff must be a positive duration, got {cutoff}")
    ids: list[str] = []
    rows: list[Sequence] = []
    times: list[float] = []
    events: list[bool] = []
    discards: list[DiscardedUser] = []
    for user in log.users:
        window = log.study_end - user.join_time
        if window < cutoff:
            discards.append(DiscardedUser(user.user_id,
                                          "observation window shorter than cutoff"))
            continue
        values = features_by_user.get(user.user_id)
        if values is None:
            discards.append(DiscardedUser(user.user_id, "no profile features"))
            continue
        dead = log.study_end - user.last_activity >= cutoff
        time = user.last_activity - user.join_time if dead else window
        if dead and time == 0:
            discards.append(DiscardedUser(user.user_id, "zero lifetime"))
            continue
        ids.append(user.user_id)
        rows.append(values)
        times.append(time)
        events.append(dead)
    columns = [np.array([row[j] for row in rows],
                        dtype=np.float64 if f.kind == NUMERIC else np.int64)
               for j, f in enumerate(schema)]
    dataset = SurvivalDataset(schema, ids, columns,
                              np.array(times, dtype=np.float64),
                              np.array(events, dtype=bool))
    return dataset, discards


def activity_feature_schema() -> tuple[Feature, ...]:
    return tuple(Feature(name, NUMERIC) for name in ACTIVITY_FEATURE_NAMES)


def early_window_features(log: ActivityLog, window: float,
                          profile_schema: Optional[FeatureSchema] = None,
                          profiles: Optional[Mapping[str, Sequence]] = None,
                          ) -> tuple[FeatureSchema, dict[str, list]]:
    """Per-user activity counts over [join, join + window), merged with profiles.

    Counts comments sent and received, distinct interaction partners, and
    distinct whole-unit periods with activity ("days active" when times
    are in days). Users with no activity get zeros. With a profile schema,
    profile features come first and users missing a profile are omitted.
    """
    if not (window > 0) or not math.isfinite(window):
        raise ValueError(f"window must be a positive duration, got {window}")
    features = list(profile_schema) if profile_schema is not None else []
    schema = FeatureSchema(tuple(features) + activity_feature_schema())
    out: dict[str, list] = {}
    for user in log.users:
        horizon = user.join_time + window
        in_window = [r for r in user.records if user.join_time <= r.timestamp < horizon]
        sent = sum(1 for r in in_window if r.direction == SENT)
        received = len(in_window) - sent
        partners = len({r.partner_id for r in in_window})
        days = len({math.floor(r.timestamp - user.join_time) for r in in_window})
        activity = [float(sent), float(received), float(partners), float(days)]
        if profile_schema is not None:
            assert profiles is not None
            row = profiles.get(user.user_id)
            if row is None:
                continue
            out[user.user_id] = list(row) + activity
        else:
            out[user.user_id] = activity
    return schema, out


def _csv_rows(path, required: Sequence[str], what: str):
    """(line, the required fields' cells) for each non-blank row of a CSV;
    a row whose field count differs from the header's raises."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = set(required) - set(header)
        if missing:
            raise ValueError(f"{what} CSV missing columns: {sorted(missing)}")
        column = {name: i for i, name in enumerate(header)}  # last one, if repeated
        pick = operator.itemgetter(*(column[name] for name in required))
        for row in filter(None, reader):
            if len(row) != len(header):
                raise SchemaMismatchError(f"line {reader.line_num}: expected "
                                          f"{len(header)} fields, got {len(row)}")
            yield reader.line_num, pick(row)


def _number(raw: str, name: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise SchemaMismatchError(
            f"line {line}: {raw!r} is not a number in column {name!r}") from None


def read_activity_csv(path) -> list[tuple[str, float, str, str]]:
    """Rows of (user_id, timestamp, direction, partner_id).

    Blank lines are skipped. A row with the wrong number of fields or a
    non-numeric timestamp raises :class:`SchemaMismatchError` naming its line.
    """
    rows = _csv_rows(path, ("user_id", "timestamp", "direction", "partner_id"), "activity")
    return [(uid, _number(ts, "timestamp", line), direction, partner)
            for line, (uid, ts, direction, partner) in rows]


def read_profiles_csv(path, schema: FeatureSchema) -> dict[str, tuple[float, list]]:
    """user_id -> (join_time, feature values in schema order).

    Numeric cells parse as floats (blank -> NaN); categorical cells map to
    their category index, with unknown levels marked -1 so that dataset
    validation reports them. Blank lines are skipped. A row with the wrong
    number of fields, a repeated user_id, or a non-numeric join_time or
    numeric cell raises :class:`SchemaMismatchError` naming its line.
    """
    out: dict[str, tuple[float, list]] = {}
    for line, (uid, join, *cells) in _csv_rows(
            path, ("user_id", "join_time", *schema.names), "profile"):
        if uid in out:
            raise SchemaMismatchError(f"line {line}: duplicate user_id {uid!r}")
        values = []
        for feature, raw in zip(schema, cells):
            if feature.kind == NUMERIC:
                values.append(_number(raw, feature.name, line) if raw.strip() else float("nan"))
            else:
                values.append(feature.categories.index(raw) if raw in feature.categories else -1)
        out[uid] = (_number(join, "join_time", line), values)
    return out


def build_activity_log(activity_rows: Iterable[tuple[str, float, str, str]],
                       join_times: Mapping[str, float], study_end: float) -> ActivityLog:
    """Assemble a log from raw rows plus per-user join times.

    Users present in ``join_times`` but without activity rows still appear
    (with empty records); activity rows for unknown users are rejected.
    """
    per_user: dict[str, list[ActivityRecord]] = {uid: [] for uid in join_times}
    for uid, ts, direction, partner in activity_rows:
        if uid not in per_user:
            raise ValueError(f"activity row for unknown user {uid!r}")
        per_user[uid].append(ActivityRecord(ts, direction, partner))
    users = tuple(UserActivity(uid, join_times[uid], tuple(records))
                  for uid, records in per_user.items())
    return ActivityLog(users, study_end)
