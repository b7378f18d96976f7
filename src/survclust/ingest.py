"""Turn raw activity logs into censored survival datasets.

A user's lifetime runs from joining to their last recorded activity. If
the gap between that last activity and the study end reaches the
inactivity cutoff, the user is dead and the lifetime is observed;
otherwise the lifetime is censored at the study end. Users whose whole
observation window is shorter than the cutoff carry no usable signal and
are discarded, as are dead users with zero lifetime.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import NUMERIC, Feature, FeatureSchema, SurvivalDataset
from .dataio import _categories, _numbers, read_columns
from .errors import InvalidCutoffError, SchemaMismatchError

SENT = "sent"
RECEIVED = "received"
_DIRECTIONS = {SENT: True, RECEIVED: False}  # direction -> sent
_DIRECTION_ERROR = f"direction must be {SENT!r} or {RECEIVED!r}, got {{!r}}"

ACTIVITY_FEATURE_NAMES = ("comments_sent", "comments_received",
                          "partners", "days_active")


@dataclass(frozen=True)
class ActivityLog:
    """Users and their activity records as read-only arrays.

    ``users`` holds the user ids in sorted order and ``join_times`` their
    join times. Record ``i`` belongs to user ``owner[i]``, happened at
    ``timestamps[i]``, was sent (else received) when ``sent[i]``, and names
    its counterparty by the code ``partners[i]``, which only tells
    counterparties apart; records are in input order.
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


def _column_indices(what: str, required: Sequence[str], header: list[str]) -> list[int]:
    missing = set(required) - set(header)
    if missing:
        raise SchemaMismatchError(f"{what} CSV missing columns: {sorted(missing)}")
    column = {name: i for i, name in enumerate(header)}  # last one, if repeated
    return [column[name] for name in required]


def _finite(cells: Sequence[str], name: str) -> np.ndarray:
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:  # name the first cell float() rejects
        for raw in cells:
            try:
                float(raw)
            except ValueError:
                raise SchemaMismatchError(
                    f"{raw!r} is not a number in column {name!r}") from None
        raise
    finite = np.isfinite(values)
    if not finite.all():
        raw = cells[int(np.argmin(finite))]
        raise SchemaMismatchError(f"{raw!r} is not finite in column {name!r}")
    return values


@dataclass(frozen=True)
class ActivityTable:
    """Activity records as read-only columns, in input order.

    Record ``i`` is by user ``user_ids[users[i]]``, happened at
    ``timestamps[i]``, was sent (else received) when ``sent[i]`` and names
    the counterparty ``partner_ids[partners[i]]``. Ids are numbered in order
    of first appearance.
    """

    user_ids: tuple[str, ...]
    users: np.ndarray
    timestamps: np.ndarray
    sent: np.ndarray
    partner_ids: tuple[str, ...]
    partners: np.ndarray

    def __post_init__(self):
        for array in (self.users, self.timestamps, self.sent, self.partners):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[tuple[str, float, str, str]]:
        """Records as (user_id, timestamp, direction, partner_id) tuples."""
        return zip(map(self.user_ids.__getitem__, self.users.tolist()),
                   self.timestamps.tolist(),
                   map((RECEIVED, SENT).__getitem__, self.sent.tolist()),
                   map(self.partner_ids.__getitem__, self.partners.tolist()))


def _activity_chunk(codes: tuple[defaultdict, defaultdict], cells: list) -> tuple[np.ndarray, ...]:
    """A chunk's (user codes, timestamps, sent, partner codes) from its
    (user_id, timestamp, direction, partner_id) cells, checking the
    timestamps, the directions, then the partners. Ids are coded in order of
    first appearance."""
    uids, stamps, directions, partners = cells
    timestamps = _finite(stamps, "timestamp")
    try:
        sent = np.fromiter(map(_DIRECTIONS.__getitem__, directions), bool, count=len(uids))
    except KeyError:
        unknown = set(directions) - _DIRECTIONS.keys()
        raise SchemaMismatchError(_DIRECTION_ERROR.format(min(unknown))) from None
    if "" in partners or any(map(str.isspace, partners)):
        raise SchemaMismatchError("missing value in column 'partner_id'")
    return _dense_codes(codes[0], uids), timestamps, sent, _dense_codes(codes[1], partners)


def _dense_codes(code: defaultdict[str, int], ids: Sequence[str]) -> np.ndarray:
    """Each id's code in ``code``, whose ``default_factory`` is its own
    ``__len__``: a new id is stored with the count of ids before it."""
    return np.fromiter(map(code.__getitem__, ids), np.int64, count=len(ids))


def read_activity_csv(path) -> ActivityTable:
    """The records of an activity CSV (user_id, timestamp, direction, partner_id).

    Blank lines are skipped. A row with the wrong number of fields, a
    non-numeric or non-finite timestamp, a direction other than
    ``sent``/``received`` or a blank partner_id raises
    :class:`SchemaMismatchError` naming its line.
    """
    codes = (defaultdict(), defaultdict())  # user, partner id -> code
    for code in codes:
        code.default_factory = code.__len__
    parts = read_columns(path, partial(_column_indices, "activity",
                                       ("user_id", "timestamp", "direction", "partner_id")),
                         partial(_activity_chunk, codes))
    empty = (np.zeros(0, np.int64), np.zeros(0), np.zeros(0, bool), np.zeros(0, np.int64))
    users, timestamps, sent, partners = map(np.concatenate, zip(*parts, empty))
    return ActivityTable(tuple(codes[0]), users, timestamps, sent, tuple(codes[1]), partners)


def _profile_chunk(schema: FeatureSchema, out: dict, cells: list):
    """Add a chunk's profiles to ``out`` from its (user_id, join_time, the
    features) cells, checking for repeated user ids, the features, then the
    join times."""
    uids, joins, *raw = cells
    if len(set(uids)) < len(uids) or not out.keys().isdisjoint(uids):
        raise SchemaMismatchError(f"duplicate user_id {uids[0]!r}")
    values = [(_numbers(column, f.name, blank_ok=True) if f.kind == NUMERIC
               else _categories(column, f, strict=False)).tolist()
              for f, column in zip(schema, raw)]
    join_times = _finite(joins, "join_time").tolist()
    out.update({uid: (join, row) for uid, join, *row in zip(uids, join_times, *values)})


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
    for _ in read_columns(path, partial(_column_indices, "profile",
                                        ("user_id", "join_time", *schema.names)),
                          partial(_profile_chunk, schema, out)):
        pass  # each chunk's profiles are added to ``out``
    return out


def build_activity_log(table: ActivityTable, join_times: Mapping[str, float],
                       study_end: float) -> ActivityLog:
    """Assemble a log from activity records plus per-user join times.

    Users present in ``join_times`` but without records still appear (with
    no records). Raises ``ValueError`` for a non-finite ``study_end``; then
    for the first record, in order, by an unknown user; then for the first
    user, in ``join_times`` order, with activity before joining; then for
    the first user, in id order, who joins or has activity after the study
    end.
    """
    if not math.isfinite(study_end):
        raise ValueError(f"study end must be finite, got {study_end}")
    users = tuple(sorted(join_times))
    index = {uid: i for i, uid in enumerate(users)}
    owner = np.fromiter(map(index.get, table.user_ids, repeat(-1)), np.int64,
                        count=len(table.user_ids))[table.users]
    if owner.min(initial=0) < 0:
        uid = table.user_ids[table.users[np.argmin(owner)]]
        raise ValueError(f"activity row for unknown user {uid!r}")
    joins = np.fromiter(map(join_times.__getitem__, users), np.float64, count=len(users))
    timestamps = table.timestamps
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
    return ActivityLog(users, joins, float(study_end), owner, timestamps, table.sent,
                       table.partners)
