import csv
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_ingest, reference_read_activity_csv
from survclust import Feature, FeatureSchema, dataio, validate_dataset
from survclust.errors import InvalidCutoffError, SchemaMismatchError
from survclust.ingest import (ActivityTable, activity_to_survival, build_activity_log,
                              early_window_features, read_activity_csv,
                              read_profiles_csv)


def activity_table(rows):
    """An ActivityTable holding (user_id, timestamp, direction, partner_id) rows."""
    uids, stamps, directions, partners = zip(*rows) if rows else ((),) * 4
    assert set(directions) <= {"sent", "received"}
    user_ids, partner_ids = tuple(dict.fromkeys(uids)), tuple(dict.fromkeys(partners))
    return ActivityTable(user_ids, np.array([user_ids.index(u) for u in uids], dtype=np.int64),
                         np.array(stamps, dtype=np.float64),
                         np.array([d == "sent" for d in directions], dtype=bool), partner_ids,
                         np.array([partner_ids.index(p) for p in partners], dtype=np.int64))


def user(uid, join, activity):
    """(id, join time, activity rows). A float in ``activity`` is a comment
    sent to partner ``p<i>``; a ``(time, direction, partner)`` tuple is used
    as given."""
    rows = [(uid, *a) if isinstance(a, tuple) else (uid, a, "sent", f"p{i}")
            for i, a in enumerate(activity)]
    return uid, join, rows


def make_log(*users, study_end):
    rows = [row for _, _, user_rows in users for row in user_rows]
    return build_activity_log(activity_table(rows), {uid: join for uid, join, _ in users},
                              study_end)


def simple_schema():
    return FeatureSchema((Feature("age", "numeric"),))


def features_for(*uids):
    return {uid: [30.0] for uid in uids}


def no_profiles(log):
    """An empty profile schema and an empty profile for every user in the log."""
    return FeatureSchema(()), dict.fromkeys(log.users, ())


class TestActivityToSurvival:
    def test_dead_user(self):
        log = make_log(user("u1", 0.0, [1.0, 4.0]), study_end=20.0)
        ds, discards = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert discards == []
        assert ds.ids == ("u1",)
        assert ds.times[0] == 4.0
        assert bool(ds.events[0]) is True

    def test_censored_user(self):
        log = make_log(user("u1", 0.0, [15.0]), study_end=20.0)
        ds, _ = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert ds.times[0] == 20.0
        assert bool(ds.events[0]) is False

    def test_short_window_discarded(self):
        log = make_log(user("uE", 14.0, []), study_end=20.0)
        ds, discards = activity_to_survival(log, 10.0, simple_schema(), features_for("uE"))
        assert len(ds) == 0
        assert discards[0].user_id == "uE"
        assert "window" in discards[0].reason

    def test_zero_lifetime_dead_discarded(self):
        log = make_log(user("u1", 0.0, []), study_end=20.0)
        ds, discards = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert len(ds) == 0
        assert discards[0].reason == "zero lifetime"

    def test_gap_exactly_cutoff_is_dead(self):
        log = make_log(user("u1", 0.0, [10.0]), study_end=20.0)
        ds, _ = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert bool(ds.events[0]) is True
        assert ds.times[0] == 10.0

    def test_missing_profile_discarded(self):
        log = make_log(user("u1", 0.0, [4.0]), study_end=20.0)
        ds, discards = activity_to_survival(log, 10.0, simple_schema(), {})
        assert len(ds) == 0
        assert discards[0].reason == "no profile features"

    def test_every_user_appears_once(self):
        rng = np.random.default_rng(30)
        users = []
        for i in range(60):
            join = float(rng.uniform(0, 18))
            acts = sorted(rng.uniform(join, 20, size=rng.integers(0, 5)))
            users.append(user(f"u{i}", join, acts))
        log = make_log(*users, study_end=20.0)
        feats = features_for(*(f"u{i}" for i in range(60)))
        ds, discards = activity_to_survival(log, 6.0, simple_schema(), feats)
        assert len(ds) + len(discards) == 60
        assert set(ds.ids) | {d.user_id for d in discards} == {f"u{i}" for i in range(60)}
        assert set(ds.ids).isdisjoint({d.user_id for d in discards})

    def test_dead_and_censored_time_identities(self):
        rng = np.random.default_rng(31)
        users = []
        joins = {}
        for i in range(40):
            join = float(rng.uniform(0, 10))
            acts = sorted(rng.uniform(join, 20, size=rng.integers(1, 6)))
            users.append(user(f"u{i}", join, acts))
            joins[f"u{i}"] = join
        log = make_log(*users, study_end=20.0)
        feats = features_for(*(f"u{i}" for i in range(40)))
        ds, _ = activity_to_survival(log, 5.0, simple_schema(), feats)
        for sid, t, e in zip(ds.ids, ds.times, ds.events):
            window = 20.0 - joins[sid]
            if e:
                assert t + 5.0 <= window + 1e-12
            else:
                assert t == pytest.approx(window)

    def test_record_order_invariance(self):
        rng = np.random.default_rng(32)
        joins = {f"u{i}": float(i) for i in range(6)}
        rows = [(uid, join + float(rng.integers(0, 12)), ("sent", "received")[rng.integers(2)],
                 f"p{rng.integers(4)}") for uid, join in joins.items() for _ in range(5)]
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        log1 = build_activity_log(activity_table(rows), joins, 25.0)
        log2 = build_activity_log(activity_table(shuffled), dict(reversed(joins.items())), 25.0)
        assert log1.users == log2.users
        assert (early_window_features(log1, 5.0, *no_profiles(log1))
                == early_window_features(log2, 5.0, *no_profiles(log2)))
        feats = features_for(*joins)
        ds1, _ = activity_to_survival(log1, 10.0, simple_schema(), feats)
        ds2, _ = activity_to_survival(log2, 10.0, simple_schema(), feats)
        assert ds1.ids == ds2.ids
        assert np.array_equal(ds1.times, ds2.times)

    def test_received_counts_toward_lifetime(self):
        records = ((8.0, "received", "x"),)
        log = make_log(user("u1", 0.0, records), study_end=20.0)
        ds, _ = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert ds.times[0] == 8.0
        assert bool(ds.events[0]) is True

    def test_invalid_cutoff(self):
        log = make_log(user("u1", 0.0, [1.0]), study_end=20.0)
        for cutoff in (0.0, -3.0, float("nan")):
            with pytest.raises(InvalidCutoffError):
                activity_to_survival(log, cutoff, simple_schema(), features_for("u1"))

    def test_log_invariants(self):
        with pytest.raises(ValueError):
            make_log(user("u1", 0.0, [25.0]), study_end=20.0)
        with pytest.raises(ValueError):
            make_log(user("u1", 5.0, [(1.0, "sent", "p")]), study_end=20.0)
        log = make_log(user("u1", 0.0, []), user("u2", 1.0, []), study_end=20.0)
        with pytest.raises(ValueError):
            dataclasses.replace(log, users=("u1", "u1"))

    @pytest.mark.parametrize("study_end", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_study_end(self, study_end):
        with pytest.raises(ValueError) as err:
            make_log(user("u1", 0.0, [1.0]), study_end=study_end)
        assert str(err.value) == f"study end must be finite, got {study_end}"


class TestEarlyWindowFeatures:
    def test_no_activity_gives_zeros(self):
        log = make_log(user("u1", 0.0, []), study_end=20.0)
        schema, feats = early_window_features(log, 5.0, *no_profiles(log))
        assert feats["u1"] == [0.0, 0.0, 0.0, 0.0]
        assert schema.names == ("comments_sent", "comments_received",
                                "partners", "days_active")

    def test_sent_and_partner_counts(self):
        records = ((1.0, "sent", "a"), (2.0, "sent", "b"),
                   (3.0, "sent", "a"))
        log = make_log(user("u1", 0.0, records), study_end=20.0)
        _, feats = early_window_features(log, 5.0, *no_profiles(log))
        sent, received, partners, days = feats["u1"]
        assert sent == 3.0 and received == 0.0 and partners == 2.0 and days == 3.0

    def test_boundary_excluded(self):
        records = ((5.0, "sent", "a"), (4.999, "received", "b"))
        log = make_log(user("u1", 0.0, records), study_end=20.0)
        _, feats = early_window_features(log, 5.0, *no_profiles(log))
        sent, received, partners, days = feats["u1"]
        assert sent == 0.0 and received == 1.0 and partners == 1.0

    def test_window_relative_to_join(self):
        records = ((11.0, "sent", "a"), (16.0, "sent", "b"))
        log = make_log(user("u1", 10.0, records), study_end=30.0)
        _, feats = early_window_features(log, 5.0, *no_profiles(log))
        assert feats["u1"][0] == 1.0

    def test_merged_with_profiles(self):
        profile_schema = FeatureSchema((Feature("age", "numeric"),
                                        Feature("gender", "categorical", ("M", "F"))))
        log = make_log(user("u1", 0.0, [1.0]), user("u2", 0.0, []), study_end=20.0)
        profiles = {"u1": [44.0, 1]}
        schema, feats = early_window_features(log, 5.0, profile_schema, profiles)
        assert schema.names == ("age", "gender", "comments_sent",
                                "comments_received", "partners", "days_active")
        assert feats["u1"] == [44.0, 1, 1.0, 0.0, 1.0, 1.0]
        assert "u2" not in feats

    def test_invalid_window(self):
        log = make_log(user("u1", 0.0, []), study_end=20.0)
        with pytest.raises(ValueError):
            early_window_features(log, 0.0, *no_profiles(log))


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        activity = tmp_path / "activity.csv"
        activity.write_text(
            "user_id,timestamp,direction,partner_id\n"
            "u1,1.5,sent,u2\n"
            "u1,2.0,received,u3\n"
            "u2,4.0,sent,u1\n"
            "u3,5.0,sent,u1\n")
        profiles = tmp_path / "profiles.csv"
        profiles.write_text(
            "user_id,join_time,age,gender\n"
            "u1,0.0,35,M\n"
            "u2,1.0,28,F\n"
            "u3,2.0,51,X\n")
        schema = FeatureSchema((Feature("age", "numeric"),
                                Feature("gender", "categorical", ("M", "F"))))
        rows = read_activity_csv(activity)
        assert list(rows)[0] == ("u1", 1.5, "sent", "u2")
        prof = read_profiles_csv(profiles, schema)
        assert prof["u1"] == (0.0, [35.0, 0])
        assert prof["u2"] == (1.0, [28.0, 1])
        assert prof["u3"][1][1] == -1  # unknown level marked
        log = build_activity_log(rows, {uid: jt for uid, (jt, _) in prof.items()},
                                 study_end=20.0)
        ds, discards = activity_to_survival(
            log, 10.0, schema, {uid: vals for uid, (_, vals) in prof.items()})
        assert len(ds) + len(discards) == 3
        report = validate_dataset(ds)
        assert any("gender" in v.message for v in report.violations)  # u3 level X

    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,timestamp\nu1,1.0\n")
        with pytest.raises(SchemaMismatchError) as err:
            read_activity_csv(bad)
        assert str(err.value) == "activity CSV missing columns: ['direction', 'partner_id']"
        with pytest.raises(SchemaMismatchError) as err:
            read_profiles_csv(bad, simple_schema())
        assert str(err.value) == "profile CSV missing columns: ['age', 'join_time']"

    def test_unknown_user_rejected(self):
        with pytest.raises(ValueError):
            build_activity_log(activity_table([("ghost", 1.0, "sent", "x")]), {"u1": 0.0}, 10.0)

    def test_blank_lines_skipped(self, tmp_path):
        activity = tmp_path / "activity.csv"
        activity.write_text("user_id,timestamp,direction,partner_id\n\n"
                            "u1,1.5,sent,u2\n\n")
        assert list(read_activity_csv(activity)) == [("u1", 1.5, "sent", "u2")]
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("user_id,join_time,age\n\nu1,0.0,\n")
        prof = read_profiles_csv(profiles, simple_schema())
        assert list(prof) == ["u1"]
        assert prof["u1"][0] == 0.0 and np.isnan(prof["u1"][1][0])  # blank numeric -> NaN


class TestMalformedCsvRows:
    ACTIVITY = "user_id,timestamp,direction,partner_id\nu1,1.0,sent,u2\n"
    PROFILES = "user_id,join_time,age\nu1,0.0,30\n"

    @pytest.mark.parametrize("row, message", [
        ("u1,2.0,sent", "line 3: expected 4 fields, got 3"),
        ("u1,2.0,sent,u2,x", "line 3: expected 4 fields, got 5"),
        ("u1,soon,sent,u2", "line 3: 'soon' is not a number in column 'timestamp'"),
        ("u1,,sent,u2", "line 3: '' is not a number in column 'timestamp'"),
        ("u1,2.0,sideways,u2", "line 3: direction must be 'sent' or 'received', got 'sideways'"),
        ("u1,2.0,Sent,u2", "line 3: direction must be 'sent' or 'received', got 'Sent'"),
        ("u1,2.0,sent,", "line 3: missing value in column 'partner_id'"),
        ("u1,2.0,sent,  ", "line 3: missing value in column 'partner_id'"),
        ("u1,soon,up,", "line 3: 'soon' is not a number in column 'timestamp'"),
        ("u1,2.0,up,", "line 3: direction must be 'sent' or 'received', got 'up'"),
        ("u1,nan,sent,u2", "line 3: 'nan' is not finite in column 'timestamp'"),
        ("u1,-Infinity,sent,u2", "line 3: '-Infinity' is not finite in column 'timestamp'"),
        ("u1,inf,up,", "line 3: 'inf' is not finite in column 'timestamp'"),
    ])
    def test_activity(self, tmp_path, row, message):
        path = tmp_path / "activity.csv"
        path.write_text(self.ACTIVITY + row + "\n")
        with pytest.raises(SchemaMismatchError) as err:
            read_activity_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("row, message", [
        ("u2,1.0", "line 3: expected 3 fields, got 2"),
        ("u2,1.0,30,x", "line 3: expected 3 fields, got 4"),
        ("u1,1.0,31", "line 3: duplicate user_id 'u1'"),
        ("u2,later,30", "line 3: 'later' is not a number in column 'join_time'"),
        ("u2,1.0,old", "line 3: 'old' is not a number in column 'age'"),
        ("u2,NaN,30", "line 3: 'NaN' is not finite in column 'join_time'"),
        ("u2,inf,old", "line 3: 'old' is not a number in column 'age'"),
    ])
    def test_profiles(self, tmp_path, row, message):
        path = tmp_path / "profiles.csv"
        path.write_text(self.PROFILES + row + "\n")
        with pytest.raises(SchemaMismatchError) as err:
            read_profiles_csv(path, simple_schema())
        assert str(err.value) == message


class TestProfileReaderChunks:
    """Repeated ids are found through the profiles already read, which carry
    over between chunks and between the one-row retries of a failed chunk;
    a quoted cell sends the rest of the file through ``csv.reader``."""

    @pytest.mark.parametrize("budget", [1, 2, 3, 13, dataio.CHUNK_CHARS])
    @pytest.mark.parametrize("rows, message", [
        (["u1,0.0,30", "u2,0.0,31", "u3,0.0,32", "u4,0.0,33", "u1,1.0,34"],
         "line 6: duplicate user_id 'u1'"),
        (["u1,0.0,30", "u2,0.0,31", "u3,0.0,32", "u4,0.0,33", "u4,1.0,34"],
         "line 6: duplicate user_id 'u4'"),
        (["u1,0.0,30", '"u,2",0.0,31', "u3,0.0,32", "u4,soon,33"],
         "line 5: 'soon' is not a number in column 'join_time'"),
        (["u1,0.0,30", '"u,2",0.0,31', "u3,0.0,32", "u4,0.0,33", '"u,2",1.0,34'],
         "line 6: duplicate user_id 'u,2'"),
        (["u1,0.0,30", '"u\n2",0.0,31', "u3,inf,32"],
         "line 5: 'inf' is not finite in column 'join_time'"),
    ])
    def test_error_names_line(self, tmp_path, budget, rows, message):
        path = tmp_path / "profiles.csv"
        path.write_text("user_id,join_time,age\n" + "\n".join(rows) + "\n")
        with mock.patch.object(dataio, "CHUNK_CHARS", budget):
            with pytest.raises(SchemaMismatchError) as err:
                read_profiles_csv(path, simple_schema())
        assert str(err.value) == message


PROFILE_SCHEMA = FeatureSchema((Feature("age", "numeric"),
                                Feature("plan", "categorical", ("a", "b"))))


@st.composite
def activity_logs(draw):
    """Small logs on a quarter-unit grid: tied timestamps, records at join,
    join + window and the study end, users without activity or profile, and
    repeated partners. One case in four gets up to three faults: an unknown
    user, a bad direction, activity before joining, a join or activity after
    the study end, a zero window or a NaN cutoff."""
    study_end = draw(st.sampled_from([10.0, 15.0, 20.0]))
    window = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0]))
    cutoff = draw(st.sampled_from([1.0, 2.5, 5.0, 10.0]))
    ids = draw(st.lists(st.sampled_from([f"u{i}" for i in range(9)]), unique=True, max_size=7))
    joins = {uid: draw(st.integers(0, int(2 * study_end))) / 2 for uid in ids}
    rows = []
    for _ in range(draw(st.integers(0, 30)) if ids else 0):
        uid = draw(st.sampled_from(ids))
        join = joins[uid]
        stamp = draw(st.sampled_from([
            min(join + draw(st.integers(0, 40)) / 4, study_end), join, study_end,
            *([join + window] if join + window <= study_end else [])]))
        rows.append([uid, stamp, draw(st.sampled_from(["sent", "received"])),
                     draw(st.sampled_from("abc"))])
    faults = draw(st.lists(st.sampled_from(
        ["ghost", "bogus", "before", "after", "late join", "window", "cutoff"]), max_size=3)
        if draw(st.integers(0, 3)) == 0 else st.just([]))
    for fault in faults:
        row = rows[draw(st.integers(0, len(rows) - 1))] if rows else None
        if fault == "ghost" and row:
            row[0] = "ghost"
        elif fault == "bogus" and row:
            row[2] = "bogus"
        elif fault == "before" and row:
            row[1] = joins.get(row[0], 0.0) - 0.5
        elif fault == "after" and row:
            row[1] = study_end + 0.25
        elif fault == "late join" and ids:
            joins[draw(st.sampled_from(ids))] = study_end + 0.5
        elif fault == "window":
            window = 0.0
        elif fault == "cutoff":
            cutoff = float("nan")
    profiled = draw(st.booleans())
    profiles = {uid: [draw(st.integers(18, 22)) / 2, draw(st.sampled_from([0, 1, -1]))]
                for uid in ids if draw(st.integers(0, 4))}
    return ([tuple(row) for row in rows], joins, study_end, window, cutoff,
            PROFILE_SCHEMA if profiled else None, profiles if profiled else None)


def write_activity_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write("user_id,timestamp,direction,partner_id\n")
        fh.writelines(f"{uid},{stamp!r},{direction},{partner}\n"
                      for uid, stamp, direction, partner in rows)


def columnar_ingest(path, joins, study_end, window, cutoff, profile_schema, profiles):
    log = build_activity_log(read_activity_csv(path), joins, study_end)
    if profile_schema is None:
        profile_schema, profiles = no_profiles(log)
    schema, feats = early_window_features(log, window, profile_schema, profiles)
    ds, discards = activity_to_survival(log, cutoff, schema, feats)
    return (ds.ids, ds.times.tobytes(), ds.events.tobytes(), [c.tobytes() for c in ds.columns],
            [(d.user_id, d.reason) for d in discards])


def outcome(ingest, *case):
    try:
        return ingest(*case)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestReferenceIngest:
    @settings(max_examples=400, deadline=None)
    @given(activity_logs())
    def test_matches_reference(self, tmp_path_factory, case):
        rows, *rest = case
        path = tmp_path_factory.mktemp("ingest") / "activity.csv"
        write_activity_csv(path, rows)

        def reference(path, *args):
            ids, times, events, columns, discards = reference_ingest(
                reference_read_activity_csv(path), *args)
            return (tuple(ids), np.array(times, dtype=np.float64).tobytes(),
                    np.array(events, dtype=bool).tobytes(),
                    [c.tobytes() for c in columns], discards)

        assert outcome(columnar_ingest, path, *rest) == outcome(reference, path, *rest)


ACTIVITY_FIELDS = ["user_id", "timestamp", "direction", "partner_id"]
STAMPS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["0", " 2.5 ", "1e3", "1_0", "-0.0", "7."]))
IDS = st.one_of(st.text(alphabet="uv1 ", min_size=1, max_size=3),
                st.text(alphabet='uv1,"\r\n ', min_size=1, max_size=4))
FAULTS = {"ragged": None, "nan": ("timestamp", "nan"), "inf": ("timestamp", "-inf"),
          "word": ("timestamp", "soon"), "blank stamp": ("timestamp", ""),
          "direction": ("direction", "Sent"), "blank partner": ("partner_id", ""),
          "space partner": ("partner_id", "  ")}


@st.composite
def activity_csvs(draw):
    """Activity CSV text: fields in any order, maybe with an extra column;
    ids that need quoting (commas, quotes, CR, LF); blank lines; LF or CRLF
    endings, maybe no final newline; and rows with one fault each (a wrong
    field count, a non-finite or non-numeric timestamp, a bad direction, a
    blank partner) anywhere, so also past the first chunk."""
    header = draw(st.permutations(ACTIVITY_FIELDS + draw(st.sampled_from([[], ["note"]]))))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["clean"] * 12 + ["blank"] * 2 + list(FAULTS)))
        if kind == "blank":
            lines.append(None)
            continue
        cells = {"user_id": draw(IDS), "timestamp": draw(STAMPS), "partner_id": draw(IDS),
                 "direction": draw(st.sampled_from(["sent", "received"])), "note": "x"}
        if FAULTS.get(kind):
            field, value = FAULTS[kind]
            cells[field] = value
        row = [cells[name] for name in header]
        if kind == "ragged":
            row = row[:-1] if draw(st.booleans()) else row + ["7"]
        lines.append(row)
    return header, lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans())


class TestActivityReader:
    @settings(max_examples=400, deadline=None)
    @given(activity_csvs(), st.sampled_from([1, 2, 3, 13, dataio.CHUNK_CHARS]))
    def test_matches_row_by_row_reference(self, tmp_path_factory, case, budget):
        header, lines, ending, final_newline = case
        path = tmp_path_factory.mktemp("activity") / "activity.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=ending)
            writer.writerow(header)
            for row in lines:
                fh.write(ending) if row is None else writer.writerow(row)
        if not final_newline:
            path.write_bytes(path.read_bytes().removesuffix(ending.encode()))
        with mock.patch.object(dataio, "CHUNK_CHARS", budget):
            got = outcome(lambda: list(read_activity_csv(path)))
        assert got == outcome(reference_read_activity_csv, path)
