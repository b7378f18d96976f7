import numpy as np
import pytest

from survclust import Feature, FeatureSchema, validate_dataset
from survclust.errors import InvalidCutoffError, SchemaMismatchError
from survclust.ingest import (ActivityLog, ActivityRecord, UserActivity,
                              activity_to_survival, build_activity_log,
                              early_window_features, read_activity_csv,
                              read_profiles_csv)


def user(uid, join, activity_times, study_end=None):
    records = tuple(ActivityRecord(t, "sent", f"p{i}") for i, t in enumerate(activity_times))
    return UserActivity(uid, join, records)


def simple_schema():
    return FeatureSchema((Feature("age", "numeric"),))


def features_for(*uids):
    return {uid: [30.0] for uid in uids}


class TestActivityToSurvival:
    def test_dead_user(self):
        log = ActivityLog((user("u1", 0.0, [1.0, 4.0]),), study_end=20.0)
        ds, discards = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert discards == []
        assert ds.ids == ("u1",)
        assert ds.times[0] == 4.0
        assert bool(ds.events[0]) is True

    def test_censored_user(self):
        log = ActivityLog((user("u1", 0.0, [15.0]),), study_end=20.0)
        ds, _ = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert ds.times[0] == 20.0
        assert bool(ds.events[0]) is False

    def test_short_window_discarded(self):
        log = ActivityLog((user("uE", 14.0, []),), study_end=20.0)
        ds, discards = activity_to_survival(log, 10.0, simple_schema(), features_for("uE"))
        assert len(ds) == 0
        assert discards[0].user_id == "uE"
        assert "window" in discards[0].reason

    def test_zero_lifetime_dead_discarded(self):
        log = ActivityLog((user("u1", 0.0, []),), study_end=20.0)
        ds, discards = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert len(ds) == 0
        assert discards[0].reason == "zero lifetime"

    def test_gap_exactly_cutoff_is_dead(self):
        log = ActivityLog((user("u1", 0.0, [10.0]),), study_end=20.0)
        ds, _ = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert bool(ds.events[0]) is True
        assert ds.times[0] == 10.0

    def test_missing_profile_discarded(self):
        log = ActivityLog((user("u1", 0.0, [4.0]),), study_end=20.0)
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
        log = ActivityLog(tuple(users), study_end=20.0)
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
        log = ActivityLog(tuple(users), study_end=20.0)
        feats = features_for(*(f"u{i}" for i in range(40)))
        ds, _ = activity_to_survival(log, 5.0, simple_schema(), feats)
        for sid, t, e in zip(ds.ids, ds.times, ds.events):
            window = 20.0 - joins[sid]
            if e:
                assert t + 5.0 <= window + 1e-12
            else:
                assert t == pytest.approx(window)

    def test_record_order_invariance(self):
        records = [ActivityRecord(5.0, "sent", "a"), ActivityRecord(2.0, "received", "b")]
        u1 = UserActivity("u1", 0.0, tuple(records))
        u2 = UserActivity("u1", 0.0, tuple(reversed(records)))
        assert u1.records == u2.records
        log1 = ActivityLog((u1, user("u2", 0.0, [3.0])), study_end=25.0)
        log2 = ActivityLog((user("u2", 0.0, [3.0]), u2), study_end=25.0)
        feats = features_for("u1", "u2")
        ds1, _ = activity_to_survival(log1, 10.0, simple_schema(), feats)
        ds2, _ = activity_to_survival(log2, 10.0, simple_schema(), feats)
        assert ds1.ids == ds2.ids
        assert np.array_equal(ds1.times, ds2.times)

    def test_received_counts_toward_lifetime(self):
        records = (ActivityRecord(8.0, "received", "x"),)
        log = ActivityLog((UserActivity("u1", 0.0, records),), study_end=20.0)
        ds, _ = activity_to_survival(log, 10.0, simple_schema(), features_for("u1"))
        assert ds.times[0] == 8.0
        assert bool(ds.events[0]) is True

    def test_invalid_cutoff(self):
        log = ActivityLog((user("u1", 0.0, [1.0]),), study_end=20.0)
        for cutoff in (0.0, -3.0, float("nan")):
            with pytest.raises(InvalidCutoffError):
                activity_to_survival(log, cutoff, simple_schema(), features_for("u1"))

    def test_log_invariants(self):
        with pytest.raises(ValueError):
            ActivityLog((user("u1", 0.0, [25.0]),), study_end=20.0)
        with pytest.raises(ValueError):
            UserActivity("u1", 5.0, (ActivityRecord(1.0, "sent", "p"),))
        with pytest.raises(ValueError):
            ActivityLog((user("u1", 0.0, []), user("u1", 1.0, [])), study_end=20.0)


class TestEarlyWindowFeatures:
    def test_no_activity_gives_zeros(self):
        log = ActivityLog((user("u1", 0.0, []),), study_end=20.0)
        schema, feats = early_window_features(log, 5.0)
        assert feats["u1"] == [0.0, 0.0, 0.0, 0.0]
        assert schema.names == ("comments_sent", "comments_received",
                                "partners", "days_active")

    def test_sent_and_partner_counts(self):
        records = (ActivityRecord(1.0, "sent", "a"), ActivityRecord(2.0, "sent", "b"),
                   ActivityRecord(3.0, "sent", "a"))
        log = ActivityLog((UserActivity("u1", 0.0, records),), study_end=20.0)
        _, feats = early_window_features(log, 5.0)
        sent, received, partners, days = feats["u1"]
        assert sent == 3.0 and received == 0.0 and partners == 2.0 and days == 3.0

    def test_boundary_excluded(self):
        records = (ActivityRecord(5.0, "sent", "a"), ActivityRecord(4.999, "received", "b"))
        log = ActivityLog((UserActivity("u1", 0.0, records),), study_end=20.0)
        _, feats = early_window_features(log, 5.0)
        sent, received, partners, days = feats["u1"]
        assert sent == 0.0 and received == 1.0 and partners == 1.0

    def test_window_relative_to_join(self):
        records = (ActivityRecord(11.0, "sent", "a"), ActivityRecord(16.0, "sent", "b"))
        log = ActivityLog((UserActivity("u1", 10.0, records),), study_end=30.0)
        _, feats = early_window_features(log, 5.0)
        assert feats["u1"][0] == 1.0

    def test_merged_with_profiles(self):
        profile_schema = FeatureSchema((Feature("age", "numeric"),
                                        Feature("gender", "categorical", ("M", "F"))))
        log = ActivityLog((user("u1", 0.0, [1.0]), user("u2", 0.0, [])), study_end=20.0)
        profiles = {"u1": [44.0, 1]}
        schema, feats = early_window_features(log, 5.0, profile_schema, profiles)
        assert schema.names == ("age", "gender", "comments_sent",
                                "comments_received", "partners", "days_active")
        assert feats["u1"] == [44.0, 1, 1.0, 0.0, 1.0, 1.0]
        assert "u2" not in feats

    def test_invalid_window(self):
        log = ActivityLog((user("u1", 0.0, []),), study_end=20.0)
        with pytest.raises(ValueError):
            early_window_features(log, 0.0)


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
        assert rows[0] == ("u1", 1.5, "sent", "u2")
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
        with pytest.raises(ValueError):
            read_activity_csv(bad)

    def test_unknown_user_rejected(self):
        with pytest.raises(ValueError):
            build_activity_log([("ghost", 1.0, "sent", "x")], {"u1": 0.0}, 10.0)

    def test_blank_lines_skipped(self, tmp_path):
        activity = tmp_path / "activity.csv"
        activity.write_text("user_id,timestamp,direction,partner_id\n\n"
                            "u1,1.5,sent,u2\n\n")
        assert read_activity_csv(activity) == [("u1", 1.5, "sent", "u2")]
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
    ])
    def test_profiles(self, tmp_path, row, message):
        path = tmp_path / "profiles.csv"
        path.write_text(self.PROFILES + row + "\n")
        with pytest.raises(SchemaMismatchError) as err:
            read_profiles_csv(path, simple_schema())
        assert str(err.value) == message
