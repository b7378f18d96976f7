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
from itertools import compress, count, repeat
from typing import Mapping, Sequence

import numpy as np

from .core import NUMERIC, Feature, FeatureSchema, SurvivalDataset
from .errors import InvalidCutoffError, SchemaMismatchError

SENT = "sent"
RECEIVED = "received"
_DIRECTIONS = {RECEIVED: 0, SENT: 1}
_DIRECTION_ERROR = f"direction must be {SENT!r} or {RECEIVED!r}, got {{!r}}"

ACTIVITY_FEATURE_NAMES = ("comments_sent", "comments_received",
                          "partners", "days_active")


@dataclass(frozen=True)
class ActivityLog:
    """Users and their activity records as read-only arrays.

    ``users`` holds the user ids in sorted order and ``join_times`` their
    join times. Record ``i`` belongs to user ``owner[i]``, happened at
    ``timestamps[i]``, was sent (else received) when ``sent[i]``, and names
    its counterparty by the code ``partners[i]``; records are in input order.
    """

    users: tuple[str, ...]
    join_times: np.ndarray
    study_end: float
    owner: np.ndarray
    timestamps: np.ndarray
    sent: np.ndarray
    partners: np.ndarray

    def __post_init__(self):
        for a, b in zip(self.users, self.users[1:]):
            if a == b:
                raise ValueError(f"duplicate user id {a!r}")
        for array in (self.join_times, self.owner, self.timestamps, self.sent, self.partners):
            array.flags.writeable = False


@dataclass(frozen=True)
class DiscardedUser:
    user_id: str
    reason: str


def activity_to_survival(log: ActivityLog, cutoff: float, schema: FeatureSchema,
                         features_by_user: Mapping[str, Sequence]) -> tuple[SurvivalDataset, list[DiscardedUser]]:
    """Apply the inactivity-cutoff rule to every user in the log.

    ``features_by_user`` supplies each user's feature values in schema
    order; users without an entry are discarded. Every input user lands in
    exactly one of the outputs, in id order.
    """
    if not (cutoff > 0) or not math.isfinite(cutoff):
        raise InvalidCutoffError(f"cutoff must be a positive duration, got {cutoff}")
    window = log.study_end - log.join_times
    last = log.join_times.copy()
    np.maximum.at(last, log.owner, log.timestamps)
    dead = log.study_end - last >= cutoff
    times = np.where(dead, last - log.join_times, window)
    has_features = np.fromiter(map(features_by_user.__contains__, log.users), bool,
                               count=len(log.users))
    reason = np.select([window < cutoff, ~has_features, dead & (times == 0)], [1, 2, 3])
    discarded = np.flatnonzero(reason)
    discards = [DiscardedUser(log.users[i], ("observation window shorter than cutoff",
                                             "no profile features", "zero lifetime")[r - 1])
                for i, r in zip(discarded.tolist(), reason[discarded].tolist())]
    keep = reason == 0
    ids = list(compress(log.users, keep.tolist()))
    rows = [features_by_user[uid] for uid in ids]
    columns = [[row[j] for row in rows] for j in range(len(schema))]
    return SurvivalDataset(schema, ids, columns, times[keep], dead[keep]), discards


def early_window_features(log: ActivityLog, window: float, profile_schema: FeatureSchema,
                          profiles: Mapping[str, Sequence]) -> tuple[FeatureSchema, dict[str, list]]:
    """Per-user activity counts over [join, join + window), appended to profiles.

    Counts comments sent and received, distinct interaction partners, and
    distinct whole-unit periods with activity ("days active" when times
    are in days). Users with no activity get zeros. Profile features come
    first; users missing a profile are omitted.
    """
    if not (window > 0) or not math.isfinite(window):
        raise ValueError(f"window must be a positive duration, got {window}")
    schema = FeatureSchema((*profile_schema,
                            *(Feature(name, NUMERIC) for name in ACTIVITY_FEATURE_NAMES)))
    n = len(log.users)
    join = log.join_times[log.owner]
    in_window = ((join <= log.timestamps)
                 & (log.timestamps < (log.join_times + window)[log.owner]))
    owner, sent = log.owner[in_window], log.sent[in_window]
    _, days = np.unique(np.floor(log.timestamps[in_window] - join[in_window]),
                        return_inverse=True)
    counts = np.stack([np.bincount(owner[sent], minlength=n),
                       np.bincount(owner[~sent], minlength=n),
                       _distinct_per_user(owner, log.partners[in_window], n),
                       _distinct_per_user(owner, days, n)], axis=1)
    rows = zip(log.users, counts.astype(np.float64).tolist())
    return schema, {uid: list(profiles[uid]) + activity for uid, activity in rows
                    if profiles.get(uid) is not None}


def _distinct_per_user(owner: np.ndarray, codes: np.ndarray, n_users: int) -> np.ndarray:
    """Number of distinct ``codes`` (non-negative ints) per owner index."""
    radix = int(codes.max(initial=0)) + 1
    pairs = np.sort(owner * radix + codes)
    first = np.ones(pairs.size, dtype=bool)
    first[1:] = pairs[1:] != pairs[:-1]
    return np.bincount(pairs[first] // radix, minlength=n_users)


def _csv_rows(path, required: Sequence[str], what: str):
    """(line, the required fields' cells) for each non-blank row of a CSV;
    a missing header column or a row whose field count differs from the
    header's raises."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = set(required) - set(header)
        if missing:
            raise SchemaMismatchError(f"{what} CSV missing columns: {sorted(missing)}")
        column = {name: i for i, name in enumerate(header)}  # last one, if repeated
        pick = operator.itemgetter(*(column[name] for name in required))
        for row in filter(None, reader):
            if len(row) != len(header):
                raise SchemaMismatchError(f"line {reader.line_num}: expected "
                                          f"{len(header)} fields, got {len(row)}")
            yield reader.line_num, pick(row)


def _number(raw: str, name: str, line: int, finite: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise SchemaMismatchError(
            f"line {line}: {raw!r} is not a number in column {name!r}") from None
    if finite and not math.isfinite(value):
        raise SchemaMismatchError(f"line {line}: {raw!r} is not finite in column {name!r}")
    return value


def read_activity_csv(path) -> list[tuple[str, float, str, str]]:
    """Rows of (user_id, timestamp, direction, partner_id).

    Blank lines are skipped. A row with the wrong number of fields, a
    non-numeric or non-finite timestamp, a direction other than
    ``sent``/``received`` or a blank partner_id raises
    :class:`SchemaMismatchError` naming its line.
    """
    rows = []
    for line, (uid, ts, direction, partner) in _csv_rows(
            path, ("user_id", "timestamp", "direction", "partner_id"), "activity"):
        stamp = _number(ts, "timestamp", line, True)
        if direction not in _DIRECTIONS:
            raise SchemaMismatchError(f"line {line}: " + _DIRECTION_ERROR.format(direction))
        if not partner.strip():
            raise SchemaMismatchError(f"line {line}: missing value in column 'partner_id'")
        rows.append((uid, stamp, direction, partner))
    return rows


def read_profiles_csv(path, schema: FeatureSchema) -> dict[str, tuple[float, list]]:
    """user_id -> (join_time, feature values in schema order).

    Numeric cells parse as floats (blank -> NaN); categorical cells map to
    their category index, with unknown levels marked -1 so that dataset
    validation reports them. Blank lines are skipped. A row with the wrong
    number of fields, a repeated user_id, a non-numeric or non-finite
    join_time, or a non-numeric numeric cell raises
    :class:`SchemaMismatchError` naming its line.
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
        out[uid] = (_number(join, "join_time", line, True), values)
    return out


def build_activity_log(activity_rows: Sequence[tuple[str, float, str, str]],
                       join_times: Mapping[str, float], study_end: float) -> ActivityLog:
    """Assemble a log from raw rows plus per-user join times.

    Users present in ``join_times`` but without activity rows still appear
    (with no records). Raises ``ValueError`` for the first row, in order,
    naming an unknown user or a bad direction; then for the first user, in
    ``join_times`` order, with activity before joining; then for the first
    user, in id order, who joins or has activity after the study end.
    """
    users = tuple(sorted(join_times))
    index = {uid: i for i, uid in enumerate(users)}
    n = len(activity_rows)
    uids, stamps, directions, partner_ids = (
        map(operator.itemgetter(i), activity_rows) for i in range(4))
    owner = np.fromiter(map(index.get, uids, repeat(-1)), np.int64, count=n)
    direction = np.fromiter(map(_DIRECTIONS.get, directions, repeat(-1)), np.int8, count=n)
    bad = np.flatnonzero((owner < 0) | (direction < 0))
    if bad.size:
        uid, _, name, _ = activity_rows[bad[0]]
        raise ValueError(f"activity row for unknown user {uid!r}" if owner[bad[0]] < 0
                         else _DIRECTION_ERROR.format(name))
    joins = np.fromiter(map(join_times.__getitem__, users), np.float64, count=len(users))
    timestamps = np.fromiter(stamps, np.float64, count=n)
    first_row: dict[str, int] = {}  # partner id -> first row naming it, its code
    partners = np.fromiter(map(first_row.setdefault, partner_ids, count()), np.int64, count=n)
    early = np.bincount(owner[timestamps < joins[owner]], minlength=len(users)) > 0
    if early.any():
        uid = next(u for u in join_times if early[index[u]])
        raise ValueError(f"user {uid!r} has activity before joining")
    late_join = joins > study_end
    late = late_join | (np.bincount(owner[timestamps > study_end], minlength=len(users)) > 0)
    if late.any():
        i = int(np.argmax(late))
        raise ValueError(f"user {users[i]!r} joins after the study end" if late_join[i]
                         else f"user {users[i]!r} has activity after the study end")
    return ActivityLog(users, joins, float(study_end), owner, timestamps, direction == 1, partners)
