import json

import numpy as np

from survclust.cli import main


def run(*argv):
    return main(list(argv))


def simulate_two_group(tmp_path, seed=7, n=1200, out="data"):
    out_dir = tmp_path / out
    code = run("simulate", "--groups", "2", "--n", str(n), "--seed", str(seed),
               "--noise-features", "3", "--signature-features", "2",
               "--rate-decay", "0.15", "--out", str(out_dir))
    assert code == 0
    return out_dir


class TestSimulate:
    def test_writes_three_files(self, tmp_path):
        out = simulate_two_group(tmp_path)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["labels.csv", "schema.json", "subjects.csv"]

    def test_deterministic_bytes(self, tmp_path):
        a = simulate_two_group(tmp_path, out="a")
        b = simulate_two_group(tmp_path, out="b")
        for name in ("subjects.csv", "schema.json", "labels.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_weights_exit_2(self, tmp_path, capsys):
        code = run("simulate", "--groups", "2", "--weights", "0.9,0.9",
                   "--out", str(tmp_path / "x"))
        assert code == 2
        assert "--weights" in capsys.readouterr().err

    def test_weight_count_mismatch(self, tmp_path):
        assert run("simulate", "--groups", "3", "--weights", "0.5,0.5",
                   "--out", str(tmp_path / "x")) == 2

    def test_non_finite_options_exit_2(self, tmp_path, capsys):
        for flag, value in (("--weights", "nan,nan"), ("--rate-base", "nan"),
                            ("--entry-window", "nan"), ("--study-duration", "inf")):
            out = tmp_path / flag.strip("-")
            assert run("simulate", "--groups", "2", "--n", "50", flag, value,
                       "--out", str(out)) == 2, flag
            assert "must be finite" in capsys.readouterr().err
            assert not out.exists()

    def test_zero_groups_exit_2(self, tmp_path, capsys):
        assert run("simulate", "--groups", "0", "--out", str(tmp_path / "x")) == 2
        assert "need at least one group" in capsys.readouterr().err

    def test_equal_weights_flag_matches_default(self, tmp_path):
        a = simulate_two_group(tmp_path, out="a")
        assert run("simulate", "--groups", "2", "--n", "1200", "--seed", "7",
                   "--noise-features", "3", "--signature-features", "2",
                   "--rate-decay", "0.15", "--weights", "0.5,0.5",
                   "--out", str(tmp_path / "b")) == 0
        for name in ("subjects.csv", "schema.json", "labels.csv"):
            assert (a / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_weights_set_group_shares(self, tmp_path):
        assert run("simulate", "--groups", "2", "--n", "1000", "--weights", "0.9,0.1",
                   "--out", str(tmp_path / "x")) == 0
        groups = [line.split(",")[1] for line in
                  (tmp_path / "x" / "labels.csv").read_text().splitlines()[1:]]
        assert 850 < groups.count("0") < 950


class TestFit:
    def test_recovers_planted_groups(self, tmp_path):
        data = simulate_two_group(tmp_path)
        model_path = tmp_path / "model.json"
        code = run("fit", "--data", str(data / "subjects.csv"),
                   "--schema", str(data / "schema.json"),
                   "--k", "2", "--min-leaf-subjects", "40",
                   "--out", str(model_path))
        assert code == 0
        model = json.loads(model_path.read_text())
        assert model["k"] == 2
        # agreement with planted labels via predict
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path),
                   "--data", str(data / "subjects.csv"),
                   "--out", str(pred_path)) == 0
        pred = {}
        for line in pred_path.read_text().splitlines()[1:]:
            sid, c = line.split(",")
            pred[sid] = int(c)
        truth = {}
        for line in (data / "labels.csv").read_text().splitlines()[1:]:
            sid, g = line.split(",")
            truth[sid] = int(g)
        ids = sorted(truth)
        p = np.array([pred[i] for i in ids])
        t = np.array([truth[i] for i in ids])
        agreement = max(np.mean(p == t), np.mean(p == 1 - t))
        assert agreement >= 0.9

    def test_byte_identical_refit_across_thread_counts(self, tmp_path, monkeypatch):
        data = simulate_two_group(tmp_path, n=800)
        outputs = []
        for threads, name in (("1", "m1.json"), ("4", "m4.json"), ("0", "m0.json")):
            monkeypatch.setenv("SURVCLUST_THREADS", threads)
            path = tmp_path / name
            assert run("fit", "--data", str(data / "subjects.csv"),
                       "--schema", str(data / "schema.json"),
                       "--k", "2", "--min-leaf-subjects", "40",
                       "--out", str(path)) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_unreachable_k_exits_3(self, tmp_path):
        out_dir = tmp_path / "noise"
        assert run("simulate", "--groups", "1", "--n", "600", "--seed", "5",
                   "--signature-features", "1", "--noise-features", "5",
                   "--out", str(out_dir)) == 0
        code = run("fit", "--data", str(out_dir / "subjects.csv"),
                   "--schema", str(out_dir / "schema.json"),
                   "--alpha", "1e-12", "--k", "2",
                   "--out", str(tmp_path / "m.json"))
        assert code == 3

    def test_alpha_gate_closes_on_noise(self, tmp_path):
        out_dir = tmp_path / "noise"
        assert run("simulate", "--groups", "1", "--n", "400", "--seed", "3",
                   "--signature-features", "1", "--noise-features", "5",
                   "--out", str(out_dir)) == 0
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", str(out_dir / "subjects.csv"),
                   "--schema", str(out_dir / "schema.json"),
                   "--alpha", "1e-12", "--out", str(model_path)) == 0
        model = json.loads(model_path.read_text())
        assert model["k"] == 1
        assert len(model["tree"]["leaf_ids"]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "nope.csv"),
                   "--schema", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "m.json")) == 1

    def test_invalid_dataset_exits_2(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text('{"features":[{"name":"x","kind":"numeric"}]}')
        data = tmp_path / "subjects.csv"
        data.write_text("id,time,event,x\na,-1.0,1,0.5\n")
        assert run("fit", "--data", str(data), "--schema", str(schema),
                   "--out", str(tmp_path / "m.json")) == 2

    def test_usage_error_exits_2(self, tmp_path):
        assert run("fit", "--data") == 2


def fitted_model(tmp_path, **kw):
    data = simulate_two_group(tmp_path, **kw)
    model_path = tmp_path / "model.json"
    assert run("fit", "--data", str(data / "subjects.csv"),
               "--schema", str(data / "schema.json"),
               "--k", "2", "--min-leaf-subjects", "40",
               "--out", str(model_path)) == 0
    return data, model_path


class TestEvaluate:
    def test_report_blocks(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        report_path = tmp_path / "report.json"
        code = run("evaluate", "--model", str(model_path),
                   "--data", str(data / "subjects.csv"),
                   "--t0", "1.0", "--t1", "6.0", "--seed", "1",
                   "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["k"] == 2
        assert report["logrank"]["p"] < 0.01
        assert report["hazard_ratio"]["hazard_ratio"] > 1.0 or \
            report["hazard_ratio"]["hazard_ratio"] < 1.0
        cls = report["classification"]
        assert 0.0 <= cls["accuracy"] <= 1.0
        assert len(report["curves"]) == 2
        out = capsys.readouterr().out
        assert "Precision" in out and "F-measure" in out

    def test_k1_skips_logrank(self, tmp_path, capsys):
        out_dir = tmp_path / "noise"
        assert run("simulate", "--groups", "1", "--n", "400", "--seed", "4",
                   "--signature-features", "1", "--noise-features", "2",
                   "--out", str(out_dir)) == 0
        model_path = tmp_path / "m.json"
        assert run("fit", "--data", str(out_dir / "subjects.csv"),
                   "--schema", str(out_dir / "schema.json"),
                   "--alpha", "1e-12", "--out", str(model_path)) == 0
        code = run("evaluate", "--model", str(model_path),
                   "--data", str(out_dir / "subjects.csv"),
                   "--t0", "1.0", "--t1", "6.0")
        assert code == 0
        out = capsys.readouterr().out
        assert "skipped (k<2)" in out

    def test_split_outside_unit_interval_exit_2(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        for split in ("-0.3", "0", "1", "1.5", "inf", "nan"):
            code = run("evaluate", "--model", str(model_path),
                       "--data", str(data / "subjects.csv"),
                       "--t0", "1", "--t1", "5", "--split", split)
            assert code == 2, split
            assert capsys.readouterr().err == "error: --split must be between 0 and 1\n"

    def test_hazard_ratio_matches_planted_rates(self, tmp_path):
        # rate ratio 1.0 / 0.15 is planted; clusters recover direction and scale
        data, model_path = fitted_model(tmp_path, n=2000)
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--model", str(model_path),
                   "--data", str(data / "subjects.csv"),
                   "--t0", "1.0", "--t1", "6.0",
                   "--out", str(report_path)) == 0
        hr = json.loads(report_path.read_text())["hazard_ratio"]["hazard_ratio"]
        ratio = max(hr, 1.0 / hr)
        assert ratio > 3.0


class TestPredict:
    def test_training_data_self_consistent(self, tmp_path):
        data, model_path = fitted_model(tmp_path)
        p1 = tmp_path / "p1.csv"
        p2 = tmp_path / "p2.csv"
        assert run("predict", "--model", str(model_path),
                   "--data", str(data / "subjects.csv"), "--out", str(p1)) == 0
        assert run("predict", "--model", str(model_path),
                   "--data", str(data / "subjects.csv"), "--out", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_csv(self, tmp_path):
        data, model_path = fitted_model(tmp_path)
        header = (data / "subjects.csv").read_text().splitlines()[0]
        empty = tmp_path / "empty.csv"
        empty.write_text(header + "\n")
        out = tmp_path / "out.csv"
        assert run("predict", "--model", str(model_path),
                   "--data", str(empty), "--out", str(out)) == 0
        assert out.read_text() == "id,cluster\n"

    def test_unknown_category_strict_exit_2(self, tmp_path, capsys):
        schema_dict = {"features": [{"name": "g", "kind": "categorical",
                                     "categories": ["a", "b"]},
                                    {"name": "x", "kind": "numeric"}]}
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema_dict))
        rng = np.random.default_rng(0)
        rows = ["id,time,event,g,x"]
        for i in range(300):
            g = "a" if i < 150 else "b"
            t = rng.exponential(0.3 if g == "a" else 5.0)
            rows.append(f"s{i},{t!r},1,{g},{rng.normal()!r}")
        data_path = tmp_path / "subjects.csv"
        data_path.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "model.json"
        assert run("fit", "--data", str(data_path), "--schema", str(schema_path),
                   "--k", "2", "--min-leaf-subjects", "20",
                   "--out", str(model_path)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,event,g,x\nzz,1.0,1,MYSTERY,0.0\n")
        code = run("predict", "--model", str(model_path),
                   "--data", str(bad), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "g" in capsys.readouterr().err

    def test_unknown_as_majority_child(self, tmp_path):
        schema_dict = {"features": [{"name": "g", "kind": "categorical",
                                     "categories": ["a", "b"]},
                                    {"name": "x", "kind": "numeric"}]}
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema_dict))
        rng = np.random.default_rng(1)
        rows = ["id,time,event,g,x"]
        for i in range(400):
            g = "a" if i < 300 else "b"   # 'a' is the bigger side
            t = rng.exponential(0.3 if g == "a" else 5.0)
            rows.append(f"s{i},{t!r},1,{g},{rng.normal()!r}")
        data_path = tmp_path / "subjects.csv"
        data_path.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "model.json"
        assert run("fit", "--data", str(data_path), "--schema", str(schema_path),
                   "--k", "2", "--min-leaf-subjects", "20",
                   "--out", str(model_path)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("id,time,event,g,x\nzz,1.0,1,MYSTERY,0.0\n"
                       "aa,1.0,1,a,0.0\n")
        out = tmp_path / "o.csv"
        assert run("predict", "--model", str(model_path), "--data", str(bad),
                   "--out", str(out), "--unknown-as-majority-child") == 0
        lines = out.read_text().splitlines()
        labels = dict(line.split(",") for line in lines[1:])
        assert labels["zz"] == labels["aa"]  # routed with the majority ('a') side


class TestUnmappedLeaf:
    def test_predict_and_evaluate_exit_2(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        model = json.loads(model_path.read_text())
        model["leaf_to_cluster"] = model["leaf_to_cluster"][1:]
        model_path.write_text(json.dumps(model))
        subjects = str(data / "subjects.csv")
        assert run("predict", "--model", str(model_path), "--data", subjects,
                   "--out", str(tmp_path / "p.csv")) == 2
        assert run("evaluate", "--model", str(model_path), "--data", subjects) == 2
        assert "to no cluster" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()


class TestPredictNan:
    def test_strict_nan_goes_to_false_child(self, tmp_path):
        data, model_path = fitted_model(tmp_path)
        model = json.loads(model_path.read_text())["tree"]
        root = next(n for n in model["nodes"] if n["id"] == model["root"])
        lines = (data / "subjects.csv").read_text().splitlines()
        column = lines[0].split(",").index(root["feature"])
        rows = [lines[0]]
        for sid, value in (("nan", "nan"), ("inf", "inf")):
            cells = lines[1].split(",")
            cells[0], cells[column] = sid, value
            rows.append(",".join(cells))
        scored = tmp_path / "scored.csv"
        scored.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        assert run("predict", "--model", str(model_path), "--data", str(scored),
                   "--out", str(out)) == 0
        labels = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert labels["nan"] == labels["inf"]  # both fail every `value < threshold`


class TestBadSubjectRows:
    """fit, predict and evaluate reject a bad subject row with exit 2 and name its line."""

    def check(self, tmp_path, capsys, edit, expected):
        data, model_path = fitted_model(tmp_path, n=400)
        lines = (data / "subjects.csv").read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        predicted = tmp_path / "p.csv"
        for argv in (["fit", "--data", str(bad), "--schema", str(data / "schema.json"),
                      "--out", str(tmp_path / "m.json")],
                     ["predict", "--model", str(model_path), "--data", str(bad),
                      "--out", str(predicted)],
                     ["evaluate", "--model", str(model_path), "--data", str(bad)]):
            capsys.readouterr()
            assert run(*argv) == 2
            assert expected in capsys.readouterr().err
        assert not predicted.exists()

    def test_short_row(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda cells: cells[:-1],
                   "line 3: expected 8 fields, got 7")

    def test_row_with_extra_field(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda cells: cells + ["9"],
                   "line 3: expected 8 fields, got 9")

    def test_non_numeric_time(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda cells: [cells[0], "soon"] + cells[2:],
                   "line 3: 'soon' is not a number in column 'time'")

    def test_non_numeric_feature(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda cells: cells[:-1] + ["n/a"],
                   "line 3: 'n/a' is not a number in column 'noise2'")


class TestEvaluateValidatesData:
    """evaluate rejects a dataset that fit would reject, with fit's messages."""

    def check(self, tmp_path, capsys, edit, message):
        data, model_path = fitted_model(tmp_path, n=400)
        lines = (data / "subjects.csv").read_text().splitlines()
        first, second = (line.split(",") for line in lines[2:4])
        lines[3] = ",".join(edit(first, second))
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        errors = []
        for argv in (["fit", "--data", str(bad), "--schema", str(data / "schema.json"),
                      "--out", str(tmp_path / "m.json")],
                     ["evaluate", "--model", str(model_path), "--data", str(bad),
                      "--out", str(tmp_path / "r.json")]):
            capsys.readouterr()
            assert run(*argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"invalid data: {lines[3].split(',')[0]}: {message}\n" in errors[1]
        assert "1 validation violation(s)" in errors[1]
        assert not (tmp_path / "r.json").exists()

    def test_nan_time(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda a, b: [b[0], "nan", *b[2:]], "non-finite time")

    def test_infinite_time(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda a, b: [b[0], "inf", *b[2:]], "non-finite time")

    def test_negative_time(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda a, b: [b[0], "-1.5", *b[2:]], "negative time")

    def test_duplicate_id(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda a, b: [a[0], *b[1:]], "duplicate id")


class TestBadActivityRows:
    """fit and evaluate reject a malformed activity or profile row with exit 2
    and name its line."""

    ACTIVITY = "user_id,timestamp,direction,partner_id\nu1,1.0,sent,u2\nu2,2.0,received,u1\n"
    PROFILES = "user_id,join_time,age\nu1,0.0,30\nu2,0.5,41\n"

    def check(self, tmp_path, capsys, expected, activity=ACTIVITY, profiles=PROFILES):
        (tmp_path / "a.csv").write_text(activity)
        (tmp_path / "p.csv").write_text(profiles)
        (tmp_path / "s.json").write_text(
            json.dumps({"features": [{"name": "age", "kind": "numeric"}]}))
        ingest = ["--activity", str(tmp_path / "a.csv"), "--profiles", str(tmp_path / "p.csv"),
                  "--schema", str(tmp_path / "s.json"), "--cutoff", "1", "--window", "1"]
        _, model_path = fitted_model(tmp_path, n=400)
        for argv in (["fit", *ingest, "--out", str(tmp_path / "m.json")],
                     ["evaluate", "--model", str(model_path), *ingest]):
            capsys.readouterr()
            assert run(*argv) == 2
            assert expected in capsys.readouterr().err

    def test_profile_row_missing_a_cell(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "line 3: expected 3 fields, got 2",
                   profiles=self.PROFILES.replace("u2,0.5,41", "u2,0.5"))

    def test_profile_row_with_extra_field(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "line 3: expected 3 fields, got 4",
                   profiles=self.PROFILES.replace("u2,0.5,41", "u2,0.5,41,7"))

    def test_activity_row_missing_partner(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "line 2: expected 4 fields, got 3",
                   activity=self.ACTIVITY.replace("u1,1.0,sent,u2", "u1,1.0,sent"))

    def test_duplicate_profile_id(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "line 4: duplicate user_id 'u1'",
                   profiles=self.PROFILES + "u1,0.2,55\n")

    def test_non_numeric_timestamp(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "line 3: 'noon' is not a number in column 'timestamp'",
                   activity=self.ACTIVITY.replace("2.0", "noon"))

    def test_non_numeric_join_time(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "line 2: 'day one' is not a number in column 'join_time'",
                   profiles=self.PROFILES.replace("u1,0.0", "u1,day one"))

    def test_non_finite_timestamp(self, tmp_path, capsys):
        for raw in ("nan", "inf", "-inf"):
            self.check(tmp_path, capsys, f"line 3: {raw!r} is not finite in column 'timestamp'",
                       activity=self.ACTIVITY.replace("2.0", raw))

    def test_non_finite_join_time(self, tmp_path, capsys):
        for raw in ("nan", "inf"):
            self.check(tmp_path, capsys, f"line 3: {raw!r} is not finite in column 'join_time'",
                       profiles=self.PROFILES.replace("0.5", raw))

    def test_bad_direction(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "line 3: direction must be 'sent' or 'received', got 'sideways'",
                   activity=self.ACTIVITY.replace("received", "sideways"))

    def test_blank_partner(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "line 2: missing value in column 'partner_id'",
                   activity="user_id,timestamp,direction,partner_id\nu1,1.0,sent,\n")

    def test_missing_activity_column(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "activity CSV missing columns: ['partner_id']",
                   activity="user_id,timestamp,direction\nu1,1.0,sent\n")

    def test_missing_profile_column(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "profile CSV missing columns: ['age']",
                   profiles="user_id,join_time\nu1,0.0\n")


class TestReport:
    def test_curve_export(self, tmp_path):
        _, model_path = fitted_model(tmp_path)
        out = tmp_path / "curves.json"
        assert run("report", "--model", str(model_path), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["k"] == 2
        for curve in payload["curves"]:
            assert set(curve) == {"t", "s", "n_events", "n_subjects"}
            assert all(0.0 <= s <= 1.0 for s in curve["s"])
