import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import survclust
from survclust import cli, dataio
from survclust.cli import main
from survclust.clustering import cluster_assign_dataset
from survclust.dataio import load_dataset_csv, load_model


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

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("simulate", "--groups", "2", "--n", "50", "--seed", "-1",
                   "--out", str(out)) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_signature_features_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("simulate", "--groups", "2", "--n", "50", "--signature-features", "-3",
                   "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "error: n_signature must be nonnegative\n")
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
        assert len(model["cluster_curves"]) == 2
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
        assert len(model["cluster_curves"]) == 1
        assert len(model["leaf_to_cluster"]) == 1

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

    def test_malformed_schema_exits_2(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        data = tmp_path / "subjects.csv"
        data.write_text("id,time,event,x\na,1.0,1,0.5\n")
        activity, profiles = tmp_path / "activity.csv", tmp_path / "profiles.csv"
        activity.write_text("user_id,timestamp,direction,partner_id\n")
        profiles.write_text("user_id,join_time\n")
        for text, error in ((b"{}", "KeyError"), (b"[1]", "TypeError"),
                            (b'{"features":[{"name":"x"}]}', "KeyError"),
                            (b"not json", "JSONDecodeError"), (b"\xff{}", "UnicodeDecodeError"),
                            (b'{"features":[{"name":"","kind":"numeric"}]}', "ValueError"),
                            (b'{"features":[{"name":"x","kind":"ordinal"}]}', "ValueError"),
                            (b'{"features":[{"name":"x","kind":"numeric"},'
                             b'{"name":"x","kind":"numeric"}]}', "ValueError")):
            schema.write_bytes(text)
            for source in (["--data", str(data)],
                           ["--activity", str(activity), "--profiles", str(profiles)]):
                capsys.readouterr()
                assert run("fit", *source, "--schema", str(schema),
                           "--out", str(tmp_path / "m.json")) == 2, (text, source)
                assert f"error: {schema}: malformed schema file ({error}: " in \
                    capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_prints_splits_by_preorder_number(self, tmp_path, capsys):
        _, model_path = fitted_model(tmp_path)
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  node ")]

        def preorder(node):
            children = preorder(node["left"]) + preorder(node["right"]) if "feature" in node else []
            return [node] + children

        nodes = preorder(json.loads(model_path.read_text())["tree"]["root"])
        expected = [f"  node {i}: {node['feature']} < " for i, node in enumerate(nodes)
                    if "feature" in node][:10]
        assert len(printed) == len(expected) > 1
        assert all(line.startswith(prefix) for line, prefix in zip(printed, expected))

    def test_non_finite_inflation_exits_2(self, tmp_path, capsys):
        data = simulate_two_group(tmp_path, n=400)
        for value in ("nan", "inf"):
            assert run("fit", "--data", str(data / "subjects.csv"),
                       "--schema", str(data / "schema.json"), "--inflation", value,
                       "--out", str(tmp_path / "m.json")) == 2
            assert "inflation must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, error", [
        pytest.param("--alpha", "0", "alpha must be in (0, 1]", id="alpha"),
        pytest.param("--min-leaf-subjects", "0", "min_leaf_subjects must be positive",
                     id="min-leaf-subjects"),
        pytest.param("--min-leaf-events", "0", "min_leaf_events must be positive",
                     id="min-leaf-events"),
        pytest.param("--max-depth", "0", "max_depth must be positive", id="max-depth"),
        pytest.param("--max-thresholds", "0", "max_numeric_thresholds must be positive",
                     id="max-thresholds"),
        pytest.param("--k", "0", "--k must be at least 1", id="k"),
        pytest.param("--expansion", "0", "expansion must be a positive integer",
                     id="expansion"),
        pytest.param("--inflation", "nan", "inflation must be positive and finite",
                     id="inflation"),
    ])
    def test_bad_flag_exits_2_before_reading_data(self, tmp_path, monkeypatch, capsys,
                                                  flag, value, error):
        for reader in ("load_schema", "load_dataset_csv", "iter_tested_columns",
                       "read_activity_csv", "read_profiles_csv"):
            monkeypatch.setattr(cli, reader, unreachable)
        out = tmp_path / "m.json"
        assert run("fit", "--data", "subjects.csv", "--schema", "schema.json",
                   flag, value, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not list(tmp_path.iterdir())

    def test_underflowing_inflation_exits_2_without_a_warning(self, tmp_path, capsys):
        data = simulate_two_group(tmp_path, n=400)
        capsys.readouterr()
        assert run("fit", "--data", str(data / "subjects.csv"),
                   "--schema", str(data / "schema.json"), "--inflation", "1e308",
                   "--out", str(tmp_path / "m.json")) == 2
        assert capsys.readouterr() == (
            "", "error: MCL inflation 1e+308 underflowed a column to 0\n")
        assert not (tmp_path / "m.json").exists()


def unreachable(*args, **kwargs):
    raise AssertionError("ran before the flags and --out were checked")


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

    def test_bad_seed_or_horizons_exit_2_before_reading_data(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        capsys.readouterr()
        for flags, message in (
                (["--seed", "-1"], "--seed must be a non-negative integer"),
                (["--t0", "5", "--t1", "1"], "need 0 < t0 < t1, got t0=5.0, t1=1.0"),
                (["--t0", "nan"], "need 0 < t0 < t1, got t0=nan, t1=10.0")):
            code = run("evaluate", "--model", str(model_path),
                       "--data", str(data / "subjects.csv"), *flags)
            assert code == 2, flags
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_cluster_without_deaths_skips_hazard_ratio(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        labels = tmp_path / "labels.csv"
        assert run("predict", "--model", str(model_path),
                   "--data", str(data / "subjects.csv"), "--out", str(labels)) == 0
        cluster = dict(csv.reader(labels.read_text().splitlines()[1:]))
        rows = list(csv.reader((data / "subjects.csv").read_text().splitlines()))
        for row in rows[1:]:
            if cluster[row[0]] == "1":
                row[2] = "0"
        censored = tmp_path / "censored.csv"
        censored.write_text("".join(",".join(row) + "\n" for row in rows))
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        assert run("evaluate", "--model", str(model_path), "--data", str(censored),
                   "--t0", "1.0", "--t1", "6.0", "--out", str(report_path)) == 0
        out = capsys.readouterr().out
        assert "hazard ratio: skipped (cluster 1 has no observed events)\n" in out
        report = json.loads(report_path.read_text())
        assert report["hazard_ratio"] == {"skipped": "cluster 1 has no observed events"}
        assert "logrank" in report and "classification" in report

    def test_empty_cluster_skips_logrank(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        labels = tmp_path / "labels.csv"
        assert run("predict", "--model", str(model_path),
                   "--data", str(data / "subjects.csv"), "--out", str(labels)) == 0
        cluster = dict(csv.reader(labels.read_text().splitlines()[1:]))
        lines = (data / "subjects.csv").read_text().splitlines(keepends=True)
        only_zero = tmp_path / "cluster0.csv"
        only_zero.write_text(lines[0] + "".join(
            line for line in lines[1:] if cluster[line.split(",", 1)[0]] == "0"))
        report_path = tmp_path / "report.json"
        capsys.readouterr()
        assert run("evaluate", "--model", str(model_path), "--data", str(only_zero),
                   "--t0", "1.0", "--t1", "6.0", "--out", str(report_path)) == 0
        out = capsys.readouterr().out
        assert "log-rank: skipped (cluster 1 has no subjects)\n" in out
        report = json.loads(report_path.read_text())
        assert report["cluster_sizes"][1] == 0
        assert report["logrank"] == {"skipped": "cluster 1 has no subjects"}
        assert report["hazard_ratio"] == {"skipped": "cluster 1 has no observed events"}
        assert "classification" in report

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

    def test_schema_mismatch_exits_2_before_reading_data(self, tmp_path, monkeypatch, capsys):
        data, model_path = fitted_model(tmp_path, n=400)
        schema = json.loads((data / "schema.json").read_text())
        schema["features"].pop()
        (tmp_path / "other.json").write_text(json.dumps(schema))
        for reader in ("load_dataset_csv", "load_tested_dataset", "iter_tested_columns"):
            monkeypatch.setattr(cli, reader, unreachable)
        monkeypatch.setattr(dataio, "read_columns", unreachable)
        capsys.readouterr()
        assert run("evaluate", "--model", str(model_path), "--data", str(data / "subjects.csv"),
                   "--schema", str(tmp_path / "other.json"),
                   "--out", str(tmp_path / "r.json")) == 2
        assert capsys.readouterr() == (
            "", "error: dataset schema does not match the model's schema\n")
        assert not (tmp_path / "r.json").exists()

    def test_matching_schema_gives_the_same_report(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path, n=400)
        reports = []
        for flags in ([], ["--schema", str(data / "schema.json")]):
            out = tmp_path / f"r{len(reports)}.json"
            assert run("evaluate", "--model", str(model_path), "--data",
                       str(data / "subjects.csv"), "--t0", "1", "--t1", "5", *flags,
                       "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


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

    def test_ids_quoted_like_the_subject_csv(self, tmp_path):
        data, model_path = fitted_model(tmp_path)
        lines = (data / "subjects.csv").read_text().splitlines(keepends=True)
        lines[1] = '"a,b"' + lines[1][lines[1].index(","):]
        lines[2] = '"q""x"' + lines[2][lines[2].index(","):]
        quoted = tmp_path / "quoted.csv"
        quoted.write_text("".join(lines))
        out = tmp_path / "labels.csv"
        assert run("predict", "--model", str(model_path),
                   "--data", str(quoted), "--out", str(out)) == 0
        with open(quoted, newline="") as fh:
            ids = [row[0] for row in csv.reader(fh)][1:]
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert ids[:2] == ["a,b", 'q"x']
        assert {len(row) for row in rows} == {2}
        assert [row[0] for row in rows] == ids

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


class TestHostileModel:
    """A malformed model file exits 2 from every command that loads it, with a
    message naming the problem."""

    def check(self, tmp_path, capsys, edit, expected):
        data, model_path = fitted_model(tmp_path, n=400)
        text = edit(json.loads(model_path.read_text()))
        model_path.write_text(text if isinstance(text, str) else json.dumps(text))
        for argv in (["predict", "--model", str(model_path),
                      "--data", str(data / "subjects.csv"), "--out", str(tmp_path / "p.csv")],
                     ["evaluate", "--model", str(model_path), "--data", str(data / "subjects.csv")],
                     ["report", "--model", str(model_path)]):
            capsys.readouterr()
            assert run(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expected in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda model: model["tree"]["config"].update(alpha=0), "alpha must be in (0, 1]"),
        (lambda model: model["cluster_curves"][0]["s"].reverse(),
         "survival values must be non-increasing within [0, 1]")], ids=["alpha", "rising-curve"])
    def test_value_a_constructor_rejects(self, tmp_path, capsys, edit, error):
        def edited(model):
            edit(model)
            return model
        self.check(tmp_path, capsys, edited,
                   f"{tmp_path / 'model.json'}: malformed model file (ValueError: {error})")

    @pytest.mark.parametrize("key", ["t", "s"])
    @pytest.mark.parametrize("value", [float("nan"), None], ids=["NaN", "null"])
    def test_curve_value_not_finite(self, tmp_path, capsys, key, value):
        def edit(model):
            model["cluster_curves"][0][key][-1] = value
            return model
        self.check(tmp_path, capsys, edit, f"{tmp_path / 'model.json'}: malformed model file "
                                           "(ValueError: event_times and survival must be finite)")

    @pytest.mark.parametrize("place, key, value", [
        *[("curve", key, value) for key in ("n_events", "n_subjects") for value in (True, "7", 3.7)],
        ("leaf", "n_subjects", True), ("leaf", "n_events", True), ("split", "n_candidates", True)])
    def test_count_not_a_json_integer(self, tmp_path, capsys, place, key, value):
        def edit(model):
            node = model["tree"]["root"]
            while place == "leaf" and "feature" in node:
                node = node["left"]
            (model["cluster_curves"][0] if place == "curve" else node)[key] = value
            return model
        self.check(tmp_path, capsys, edit, f"{tmp_path / 'model.json'}: malformed model file "
                                           f"(ValueError: {key} is {value!r}, not a JSON integer)")

    def test_missing_cluster_curves(self, tmp_path, capsys):
        def edit(model):
            del model["cluster_curves"]
            return model
        self.check(tmp_path, capsys, edit, "malformed model file (KeyError: 'cluster_curves')")

    def test_format_1_file(self, tmp_path, capsys):
        curve = {"t": [1.0], "s": [0.5], "n_events": 1, "n_subjects": 2}
        old = {"k": 1, "leaf_to_cluster": [[0, 0]], "cluster_curves": [curve],
               "tree": {"schema": {"features": [{"name": "x", "kind": "numeric"}]},
                        "config": {}, "root": 0, "leaf_ids": [0],
                        "nodes": [{"id": 0, "leaf_id": 0, "n_subjects": 2, "n_events": 1,
                                   "curve": curve}]}}
        self.check(tmp_path, capsys, lambda model: old,
                   "model format_version is None, not 2: refit the model")

    def test_unknown_split_feature(self, tmp_path, capsys):
        def edit(model):
            model["tree"]["root"]["feature"] = "f999"
            return model
        self.check(tmp_path, capsys, edit, "malformed model file (KeyError: 'f999')")

    def test_deep_nesting(self, tmp_path, capsys):
        def edit(model):
            model["tree"]["root"] = "ROOT"
            deep = '{"feature":"sig0","left":' * 5000 + "{}" + "}" * 5000
            return json.dumps(model).replace('"ROOT"', deep)
        self.check(tmp_path, capsys, edit, "malformed model file (RecursionError: ")

    def test_cluster_without_curve(self, tmp_path, capsys):
        def edit(model):
            model["leaf_to_cluster"][0] = 5
            return model
        self.check(tmp_path, capsys, edit, "leaf_to_cluster must map each of the")

    def test_leaf_map_one_entry_short(self, tmp_path, capsys):
        def edit(model):
            model["leaf_to_cluster"].pop()
            return model
        self.check(tmp_path, capsys, edit, "to no cluster")

    def test_not_json(self, tmp_path, capsys):
        self.check(tmp_path, capsys, lambda model: "not json",
                   f"{tmp_path / 'model.json'}: malformed model file (JSONDecodeError: ")

    def test_non_finite_threshold(self, tmp_path, capsys):
        def edit(model):
            model["tree"]["root"]["threshold"] = float("nan")
            return model
        self.check(tmp_path, capsys, edit, "cannot route: NumericTest(threshold=nan)")

    def test_category_index_outside_levels(self, tmp_path, capsys):
        for index in (7, 3, -1):
            def edit(model):
                root = model["tree"]["root"]
                feature, = (f for f in model["tree"]["schema"]["features"]
                            if f["name"] == root["feature"])
                feature.update(kind="categorical", categories=["a", "b", "c"])
                del root["threshold"]
                root["category_index"] = index
                return model
            self.check(tmp_path / str(index), capsys, edit,
                       f"cannot route: CategoryTest(category_index={index})")

    def test_split_fields_of_another_json_type(self, tmp_path, capsys):
        for field, value, kind in (("category_index", 1.7, "integer"),
                                   ("category_index", True, "integer"),
                                   ("threshold", "1.5", "number")):
            def edit(model):
                root = model["tree"]["root"]
                if field == "category_index":
                    feature, = (f for f in model["tree"]["schema"]["features"]
                                if f["name"] == root["feature"])
                    feature.update(kind="categorical", categories=["a", "b", "c"])
                    del root["threshold"]
                root[field] = value
                return model
            # the message names the split's feature, in quotes, just before this
            self.check(tmp_path / f"{field}-{value}", capsys, edit,
                       f"' has {field} {value!r}, not a JSON {kind}")


def child_pids() -> set:
    """Pids of this process's children, as Linux lists them (none elsewhere)."""
    return {int(pid) for path in Path(f"/proc/{os.getpid()}/task").glob("*/children")
            for pid in path.read_text().split()}


class TestReadInRanges:
    """A subject CSV of two or more ranges is read by worker processes, and
    predict and evaluate write the same bytes, stdout, stderr and exit code
    as when it is read in one process; no worker outlives a command."""

    def outcomes(self, tmp_path, capsys, model_path, data, cpus):
        results = []
        with mock.patch.object(dataio, "RANGE_BYTES", 16 << 10), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
            assert len(dataio._range_starts(data)[0]) >= 2
            for flags in (["predict"], ["evaluate", "--t0", "1", "--t1", "5"]):
                out = tmp_path / "out"
                capsys.readouterr()
                code = run(*flags, "--model", str(model_path), "--data", str(data),
                           "--out", str(out))
                assert not child_pids()
                results.append((code, *capsys.readouterr(),
                                out.read_bytes() if out.exists() else None))
                out.unlink(missing_ok=True)
        return results

    def test_same_outputs_with_one_cpu(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        subjects = data / "subjects.csv"
        ranged = self.outcomes(tmp_path, capsys, model_path, subjects, cpus=2)
        assert ranged == self.outcomes(tmp_path, capsys, model_path, subjects, cpus=1)
        assert [code for code, *_ in ranged] == [0, 0]

    def test_bad_cell_in_the_last_range(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path)
        lines = (data / "subjects.csv").read_text().splitlines()
        lines[-3] = lines[-3].rsplit(",", 1)[0] + ",n/a"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        ranged = self.outcomes(tmp_path, capsys, model_path, bad, cpus=2)
        assert ranged == self.outcomes(tmp_path, capsys, model_path, bad, cpus=1)
        message = f"error: line {len(lines) - 2}: 'n/a' is not a number in column 'noise2'\n"
        assert ranged == [(2, "", message, None)] * 2

    def test_nan_in_an_untested_column_of_the_first_range(self, tmp_path, capsys):
        # evaluate drops its read at the chunk, then reads every column again
        data, model_path = fitted_model(tmp_path)
        lines = (data / "subjects.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        ranged = self.outcomes(tmp_path, capsys, model_path, bad, cpus=2)
        assert ranged == self.outcomes(tmp_path, capsys, model_path, bad, cpus=1)
        assert [code for code, *_ in ranged] == [0, 2]
        assert "missing or non-finite value for feature 'noise2'" in ranged[1][2]


class TestPredictNan:
    def test_strict_nan_goes_to_false_child(self, tmp_path):
        data, model_path = fitted_model(tmp_path)
        root = json.loads(model_path.read_text())["tree"]["root"]
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
        bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
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

    def test_oversized_quoted_id(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        self.check(tmp_path, capsys, lambda cells: ['"' + "x" * 200_000 + '"'] + cells[1:],
                   f"line 3: field larger than field limit ({limit})")

    def test_oversized_bare_id(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        self.check(tmp_path, capsys, lambda cells: ["x" * 200_000] + cells[1:],
                   f"line 3: field larger than field limit ({limit})")

    def test_byte_not_utf8(self, tmp_path, capsys):
        # "\udcff" is written as the byte 0xff; a quoted id sends the file
        # through the csv module's reader
        for bad_id in ("s\udcff", '"s,\udcff"'):
            self.check(tmp_path, capsys, lambda cells: [bad_id] + cells[1:],
                       f"{tmp_path / 'bad.csv'}: line 3: byte 0xff is not UTF-8")

    def test_utf8_id(self, tmp_path):
        data, model_path = fitted_model(tmp_path, n=400)
        lines = (data / "subjects.csv").read_text().splitlines()
        lines[2] = "s\u00e9" + lines[2][lines[2].index(","):]
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("predict", "--model", str(model_path), "--data", str(tmp_path / "s.csv"),
                   "--out", str(tmp_path / "p.csv")) == 0
        labels = (tmp_path / "p.csv").read_text(encoding="utf-8").splitlines()
        assert labels[2].startswith("s\u00e9,")


@pytest.fixture
def color_model(tmp_path):
    """Subject lines with a categorical ``color`` column, a depth-1 model fitted
    on them and the name of a numeric column its tree does not test."""
    data = simulate_two_group(tmp_path, n=400)
    lines = (data / "subjects.csv").read_text().splitlines()
    lines = [lines[0] + ",color"] + [f"{line},{'rg'[i % 2]}"
                                     for i, line in enumerate(lines[1:])]
    (data / "subjects.csv").write_text("\n".join(lines) + "\n")
    schema = json.loads((data / "schema.json").read_text())
    schema["features"].append({"name": "color", "kind": "categorical",
                               "categories": ["r", "g"]})
    (data / "schema.json").write_text(json.dumps(schema))
    model = tmp_path / "model.json"
    assert run("fit", "--data", str(data / "subjects.csv"), "--schema",
               str(data / "schema.json"), "--k", "2", "--max-depth", "1",
               "--min-leaf-subjects", "40", "--out", str(model)) == 0
    tested = json.loads(model.read_text())["tree"]["root"]["feature"]
    header = lines[0].split(",")
    untested = next(name for name in header[3:] if name not in (tested, "color"))
    return lines, model, untested


def edited(lines, row, column, value):
    """``lines`` with the cell of ``column`` on ``row`` set to ``value``."""
    lines = list(lines)
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    return lines


class TestPredictUntestedColumns:
    """predict converts only the columns its tree tests, yet rejects a bad
    cell in any other column with the message full conversion gives."""

    @staticmethod
    def predict(tmp_path, model, lines, *flags):
        scored, out = tmp_path / "scored.csv", tmp_path / "labels.csv"
        scored.write_text("\n".join(lines) + "\n")
        return run("predict", "--model", str(model), "--data", str(scored),
                   "--out", str(out), *flags), out

    @pytest.mark.parametrize("column, value, message", [
        (None, "", "missing value in column {untested!r}"),
        (None, "n/a", "'n/a' is not a number in column {untested!r}"),
        (None, " ", "missing value in column {untested!r}"),
        ("color", "b", "unknown category 'b' in column 'color'"),
        ("time", "soon", "'soon' is not a number in column 'time'"),
        ("event", "2", "event must be 0 or 1, got '2'"),
    ])
    def test_bad_cell_exits_2_naming_line_and_column(self, tmp_path, capsys, color_model,
                                                     column, value, message):
        lines, model, untested = color_model
        lines = edited(lines, 3, column or untested, value)
        capsys.readouterr()
        code, out = self.predict(tmp_path, model, lines)
        assert code == 2
        assert capsys.readouterr().err == f"error: line 4: {message.format(untested=untested)}\n"
        assert not out.exists()

    def test_majority_flag_accepts_a_blank_untested_cell(self, tmp_path, color_model):
        lines, model, untested = color_model
        code, out = self.predict(tmp_path, model, lines)
        assert code == 0
        clean = out.read_bytes()
        code, out = self.predict(tmp_path, model, edited(lines, 3, untested, ""),
                                 "--unknown-as-majority-child")
        assert code == 0 and out.read_bytes() == clean

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "9" * 400])
    def test_non_finite_untested_cell_labels_as_before(self, tmp_path, color_model, value):
        lines, model, untested = color_model
        code, out = self.predict(tmp_path, model, lines)
        clean = out.read_bytes()
        code, out = self.predict(tmp_path, model, edited(lines, 3, untested, value))
        assert code == 0 and out.read_bytes() == clean

    def test_switch_to_csv_reader_midway_labels_as_full_conversion(self, tmp_path, color_model):
        lines, model, _ = color_model
        lines = list(lines)
        lines[300] = '"a,b"' + lines[300][lines[300].index(","):]
        with mock.patch.object(dataio, "CHUNK_CHARS", 4096):
            code, out = self.predict(tmp_path, model, lines)
        assert code == 0
        loaded = load_model(model)
        expected = cluster_assign_dataset(
            loaded, load_dataset_csv(tmp_path / "scored.csv", loaded.tree.schema))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows[299][0] == "a,b"
        assert [int(label) for _, label in rows] == expected.tolist()


class TestEvaluateUntestedColumns:
    """evaluate converts only ``time`` and the columns its tree tests, yet
    reports a bad cell in any other column as full conversion does."""

    @staticmethod
    def evaluate(tmp_path, model, lines):
        scored, out = tmp_path / "scored.csv", tmp_path / "report.json"
        scored.write_text("\n".join(lines) + "\n")
        return run("evaluate", "--model", str(model), "--data", str(scored),
                   "--t0", "1", "--t1", "5", "--out", str(out)), out

    @pytest.mark.parametrize("column, value, message", [
        (None, "", "missing or non-finite value for feature {untested!r}"),
        (None, " ", "missing or non-finite value for feature {untested!r}"),
        (None, "nan", "missing or non-finite value for feature {untested!r}"),
        (None, "inf", "missing or non-finite value for feature {untested!r}"),
        (None, "-inf", "missing or non-finite value for feature {untested!r}"),
        (None, "1e999", "missing or non-finite value for feature {untested!r}"),
        (None, "9" * 400, "missing or non-finite value for feature {untested!r}"),
        ("color", "b", "unknown category for feature 'color'"),
        ("time", "-1.5", "negative time"),
    ])
    def test_invalid_cell_is_reported_for_its_id(self, tmp_path, capsys, color_model,
                                                 column, value, message):
        lines, model, untested = color_model
        capsys.readouterr()
        code, out = self.evaluate(tmp_path, model, edited(lines, 3, column or untested, value))
        assert code == 2
        assert capsys.readouterr() == (
            "", f"invalid data: {lines[3].split(',')[0]}: {message.format(untested=untested)}\n"
                "error: 1 validation violation(s)\n")
        assert not out.exists()

    def test_repeated_id_is_reported(self, tmp_path, capsys, color_model):
        lines, model, _ = color_model
        first = lines[2].split(",")[0]
        capsys.readouterr()
        code, _ = self.evaluate(tmp_path, model, edited(lines, 3, "id", first))
        assert code == 2
        assert capsys.readouterr().err == (f"invalid data: {first}: duplicate id\n"
                                           "error: 1 validation violation(s)\n")

    @pytest.mark.parametrize("column, value, message", [
        (None, "n/a", "'n/a' is not a number in column {untested!r}"),
        ("time", "soon", "'soon' is not a number in column 'time'"),
        ("event", "2", "event must be 0 or 1, got '2'"),
    ])
    def test_unreadable_cell_exits_2_naming_line_and_column(self, tmp_path, capsys, color_model,
                                                            column, value, message):
        lines, model, untested = color_model
        capsys.readouterr()
        code, out = self.evaluate(tmp_path, model, edited(lines, 3, column or untested, value))
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: line 4: {message.format(untested=untested)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, error", [
        ("inf", "invalid data: {id}: missing or non-finite value for feature {untested!r}\n"
                "error: 1 validation violation(s)\n"),
        ("n/a", "error: line 301: 'n/a' is not a number in column {untested!r}\n"),
    ])
    def test_bad_cell_after_good_chunks(self, tmp_path, capsys, color_model, value, error):
        lines, model, untested = color_model
        capsys.readouterr()
        with mock.patch.object(dataio, "CHUNK_CHARS", 4096):
            code, _ = self.evaluate(tmp_path, model, edited(lines, 300, untested, value))
        assert code == 2
        assert capsys.readouterr().err == error.format(id=lines[300].split(",")[0],
                                                       untested=untested)

    def test_report_equals_full_conversion(self, tmp_path, monkeypatch, capsys, color_model):
        lines, model, untested = color_model
        for row in range(5, len(lines), 7):
            lines = edited(lines, row, untested, "1e-05")
        monkeypatch.setattr(cli, "load_dataset_csv", unreachable)  # no cell is converted twice
        capsys.readouterr()
        code, out = self.evaluate(tmp_path, model, lines)
        assert code == 0
        tested = out.read_bytes(), capsys.readouterr()
        monkeypatch.undo()
        monkeypatch.setattr(cli, "load_tested_dataset", lambda *args: None)
        code, out = self.evaluate(tmp_path, model, lines)
        assert code == 0
        assert (out.read_bytes(), capsys.readouterr()) == tested


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


class TestDataWithActivityFlags:
    """--data with --activity or --profiles names two inputs: fit and
    evaluate exit 2 before they open --out or read any file."""

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    @pytest.mark.parametrize("flags", [
        ["--activity", "a.csv"],
        ["--profiles", "p.csv"],
        ["--activity", "a.csv", "--profiles", "p.csv", "--schema", "s.json"],
    ])
    def test_exits_2_before_reading(self, tmp_path, monkeypatch, capsys, command, flags):
        for reader in ("load_model", "load_schema", "load_dataset_csv", "load_tested_dataset",
                       "read_activity_csv", "read_profiles_csv"):
            monkeypatch.setattr(cli, reader, unreachable)
        monkeypatch.setattr(dataio, "read_columns", unreachable)
        monkeypatch.chdir(tmp_path)
        model = ["--model", "model.json"] if command == "evaluate" else []
        assert run(command, *model, "--data", "subjects.csv", *flags, "--out", "out.json") == 2
        assert capsys.readouterr() == (
            "", "error: --data cannot be combined with --activity or --profiles\n")
        assert not list(tmp_path.iterdir())


class TestBadActivityRows:
    """fit and evaluate reject a malformed activity or profile row with exit 2
    and name its line."""

    ACTIVITY = "user_id,timestamp,direction,partner_id\nu1,1.0,sent,u2\nu2,2.0,received,u1\n"
    PROFILES = "user_id,join_time,age\nu1,0.0,30\nu2,0.5,41\n"

    def check(self, tmp_path, capsys, expected, activity=ACTIVITY, profiles=PROFILES,
              flags=()):
        (tmp_path / "a.csv").write_bytes(activity.encode("utf-8", "surrogateescape"))
        (tmp_path / "p.csv").write_bytes(profiles.encode("utf-8", "surrogateescape"))
        (tmp_path / "s.json").write_text(
            json.dumps({"features": [{"name": "age", "kind": "numeric"}]}))
        ingest = ["--activity", str(tmp_path / "a.csv"), "--profiles", str(tmp_path / "p.csv"),
                  "--schema", str(tmp_path / "s.json"), "--cutoff", "1", "--window", "1",
                  *flags]
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

    def test_non_finite_study_end(self, tmp_path, capsys):
        for raw in ("nan", "inf"):
            self.check(tmp_path, capsys, f"error: study end must be finite, got {raw}\n",
                       flags=["--study-end", raw])

    def test_no_records_or_profiles_for_the_default_study_end(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "error: no timestamps or join times to default --study-end to\n",
                   activity="user_id,timestamp,direction,partner_id\n",
                   profiles="user_id,join_time,age\n")

    def test_missing_activity_column(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "activity CSV missing columns: ['partner_id']",
                   activity="user_id,timestamp,direction\nu1,1.0,sent\n")

    def test_missing_profile_column(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "profile CSV missing columns: ['age']",
                   profiles="user_id,join_time\nu1,0.0\n")

    def test_oversized_activity_field(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   f"line 3: field larger than field limit ({csv.field_size_limit()})",
                   activity=self.ACTIVITY.replace("received,u1", "received," + "u" * 200_000))

    def test_byte_not_utf8(self, tmp_path, capsys):
        self.check(tmp_path, capsys, f"{tmp_path / 'a.csv'}: line 3: byte 0xe9 is not UTF-8",
                   activity=self.ACTIVITY.replace("received,u1", "received,u\udce9"))
        self.check(tmp_path, capsys, f"{tmp_path / 'p.csv'}: line 2: byte 0xfe is not UTF-8",
                   profiles=self.PROFILES.replace("u1,0.0,30", "u1,0.0,3\udcfe"))

    def test_oversized_profile_field(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   f"line 2: field larger than field limit ({csv.field_size_limit()})",
                   profiles=self.PROFILES.replace("u1,0.0,30", '"' + "u" * 200_000 + '",0.0,30'))


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["fit", "predict", "evaluate", "report"])
    def test_missing_directory_exits_1_naming_the_path(self, tmp_path, capsys, command):
        data, model_path = fitted_model(tmp_path, n=400)
        csv, model = ["--data", str(data / "subjects.csv")], ["--model", str(model_path)]
        args = {"fit": csv + ["--schema", str(data / "schema.json")],
                "predict": model + csv, "evaluate": model + csv, "report": model}[command]
        out = tmp_path / "missing" / "x.json"
        errors = []
        for _ in range(2):
            capsys.readouterr()
            assert run(command, *args, "--out", str(out)) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize("command", ["fit", "predict", "evaluate", "report"])
    def test_directory_as_output_exits_1_naming_the_path(self, tmp_path, monkeypatch, capsys,
                                                         command):
        """A directory ``--out`` fails before any data is read."""
        data, model_path = fitted_model(tmp_path, n=400)
        csv, model = ["--data", str(data / "subjects.csv")], ["--model", str(model_path)]
        args = {"fit": csv + ["--schema", str(data / "schema.json")],
                "predict": model + csv, "evaluate": model + csv, "report": model}[command]
        out = tmp_path / "out"
        out.mkdir()
        for reader in ("load_dataset_csv", "iter_tested_columns"):
            monkeypatch.setattr(cli, reader, unreachable)
        capsys.readouterr()
        assert run(command, *args, "--out", str(out)) == 1
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{out}'\n")
        assert not list(tmp_path.glob(".tmp-*.part")) and not list(out.iterdir())

    def test_symlink_to_a_directory_as_output_is_replaced(self, tmp_path):
        _, model_path = fitted_model(tmp_path, n=400)
        target, out = tmp_path / "target", tmp_path / "link"
        target.mkdir()
        out.symlink_to(target)
        assert run("report", "--model", str(model_path), "--out", str(out)) == 0
        assert not out.is_symlink() and json.loads(out.read_text())["k"] == 2
        assert target.is_dir() and not list(target.iterdir())

    def check_out_opened_first(self, tmp_path, monkeypatch, capsys, stage, *argv):
        """``argv`` with an unwritable ``--out`` exits 1 before ``stage`` runs."""
        monkeypatch.setattr(cli, stage, unreachable)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run(*argv, "--out", os.path.join("missing", "x.json")) == 1
        assert os.path.join("missing", "x.json") in capsys.readouterr().err
        assert not list(tmp_path.rglob(".tmp-*.part"))

    def test_fit_opens_out_before_growing_the_tree(self, tmp_path, monkeypatch, capsys):
        data = simulate_two_group(tmp_path, n=400)
        self.check_out_opened_first(tmp_path, monkeypatch, capsys, "grow_tree", "fit",
                                    "--data", str(data / "subjects.csv"),
                                    "--schema", str(data / "schema.json"))

    def test_evaluate_opens_out_before_assigning_clusters(self, tmp_path, monkeypatch, capsys):
        data, model_path = fitted_model(tmp_path, n=400)
        self.check_out_opened_first(tmp_path, monkeypatch, capsys, "cluster_assign_columns",
                                    "evaluate", "--model", str(model_path),
                                    "--data", str(data / "subjects.csv"))


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


def write_activity_log(tmp_path, seed=12, n=300):
    """An activity log, profiles and schema of ``n`` users on two plans whose
    lifetimes differ; the ``fit``/``evaluate`` flags that ingest them."""
    rng = np.random.default_rng(seed)
    join = rng.uniform(0.0, 10.0, n)
    plan = rng.integers(0, 2, n)
    end = np.minimum(join + rng.exponential(np.where(plan == 0, 3.0, 30.0)), 40.0)
    owner = np.repeat(np.arange(n), rng.poisson(2.0 * (end - join)))
    stamps = join[owner] + rng.random(owner.size) * (end - join)[owner]
    (tmp_path / "activity.csv").write_text("user_id,timestamp,direction,partner_id\n" + "".join(
        f"u{u},{t!r},sent,u{p}\n"
        for u, t, p in zip(owner.tolist(), stamps.tolist(),
                           rng.integers(0, n, owner.size).tolist())))
    (tmp_path / "profiles.csv").write_text("user_id,join_time,plan\n" + "".join(
        f"u{i},{t!r},{'ab'[p]}\n" for i, (t, p) in enumerate(zip(join.tolist(), plan.tolist()))))
    (tmp_path / "schema.json").write_text(json.dumps({"features": [
        {"name": "plan", "kind": "categorical", "categories": ["a", "b"]}]}))
    return ["--activity", str(tmp_path / "activity.csv"),
            "--profiles", str(tmp_path / "profiles.csv"), "--schema", str(tmp_path / "schema.json"),
            "--cutoff", "5", "--window", "2", "--study-end", "40"]


def curve_outputs(tmp_path, capsys, model_path, data_flags):
    """The bytes of ``evaluate --out``, ``report --out`` and ``report``'s stdout."""
    outputs = []
    for argv in (["evaluate", *data_flags, "--t0", "1", "--t1", "4", "--out", "e.json"],
                 ["report", "--out", "r.json"]):
        out = tmp_path / argv[-1]
        assert run(*argv[:-1], str(out), "--model", str(model_path)) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert run("report", "--model", str(model_path)) == 0
    outputs.append(capsys.readouterr().out.encode())
    return outputs


class TestCurvesCopiedFromTheModel:
    """``evaluate --out`` and ``report`` write the model file's own text of its
    curves when ``fit`` wrote the file, and encode the loaded curves
    otherwise; the bytes are those of encoding the whole report."""

    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("g3")
        assert run("simulate", "--groups", "3", "--n", "1500", "--seed", "7",
                   "--noise-features", "3", "--out", str(data)) == 0
        return data

    def check_canonical(self, tmp_path, capsys, model_path, data_flags):
        outputs = curve_outputs(tmp_path, capsys, model_path, data_flags)
        model = load_model(model_path)
        curves = [c.to_json_dict() for c in model.cluster_curves]
        for text in outputs:
            parsed = json.loads(text)
            assert text == (dataio.dump_json(parsed) + "\n").encode()
            assert parsed["curves"] == curves
        assert outputs[1] == outputs[2] == (
            dataio.dump_json({"k": model.k, "curves": curves}) + "\n").encode()
        return outputs

    @pytest.mark.parametrize("k", [None, "2", "1"], ids=["natural-k", "k2", "k1"])
    def test_fitted_models(self, tmp_path, capsys, simulated, k):
        data = ["--data", str(simulated / "subjects.csv")]
        model_path = tmp_path / "model.json"
        assert run("fit", *data, "--schema", str(simulated / "schema.json"),
                   *(["--k", k] if k else []), "--out", str(model_path)) == 0
        outputs = self.check_canonical(tmp_path, capsys, model_path, data)
        file_curves = json.loads(model_path.read_text())["cluster_curves"]
        assert json.loads(outputs[0])["curves"] == file_curves
        assert len(file_curves) == int(k) if k else len(file_curves) > 2

    def test_ingested_model(self, tmp_path, capsys):
        ingest = write_activity_log(tmp_path)
        model_path = tmp_path / "model.json"
        assert run("fit", *ingest, "--min-leaf-subjects", "20", "--k", "2",
                   "--out", str(model_path)) == 0
        outputs = self.check_canonical(tmp_path, capsys, model_path, ingest)
        assert json.loads(outputs[0])["curves"] == json.loads(
            model_path.read_text())["cluster_curves"]

    @pytest.mark.parametrize("rewrite", [
        lambda model: json.dumps(model, indent=2),
        lambda model: json.dumps(dict(reversed(model.items())), separators=(",", ":")),
        lambda model: json.dumps({**model, "cluster_curves": [
            dict(reversed(curve.items())) for curve in model["cluster_curves"]]},
            separators=(",", ":")),
        lambda model: dataio.dump_json(model).replace('"cluster_curves":', '"cluster_curves" :'),
        lambda model: dataio.dump_json(model).replace('"s":[', '"s":[ ')],
        ids=["indented", "unsorted", "unsorted-curves", "space-after-key", "space-in-curves"])
    def test_other_layouts_give_the_same_bytes(self, tmp_path, capsys, rewrite):
        data, model_path = fitted_model(tmp_path, n=400)
        data_flags = ["--data", str(data / "subjects.csv")]
        compact = curve_outputs(tmp_path, capsys, model_path, data_flags)
        model_path.write_text(rewrite(json.loads(model_path.read_text())))
        assert curve_outputs(tmp_path, capsys, model_path, data_flags) == compact

    @pytest.mark.parametrize("extra", [
        {"note": '],"format_version":'},
        {"a": [], "format_version": 1},  # a "],"format_version":" ends this curve's "a" array
        {"format_version": 1},  # written after "t", which it ends
    ], ids=["string", "array-key", "key-after-t"])
    def test_curve_with_an_extra_key_is_encoded_again(self, tmp_path, capsys, extra):
        data, model_path = fitted_model(tmp_path, n=400)
        model = json.loads(model_path.read_text())
        model["cluster_curves"][-1].update(extra)
        text = dataio.dump_json(model)
        if list(extra) == ["format_version"]:
            text = text.replace('{"format_version":1,', "{").replace(
                ']}],"format_version":', '],"format_version":1}],"format_version":')
        model_path.write_text(text + "\n")
        assert json.loads(text) == model
        self.check_canonical(tmp_path, capsys, model_path, ["--data", str(data / "subjects.csv")])

    def test_second_cluster_curves_key_is_encoded_again(self, tmp_path, capsys):
        # JSON keeps the last of two equal keys: the curves the model loads
        data, model_path = fitted_model(tmp_path, n=400)
        text = model_path.read_text()
        curves = json.loads(text)["cluster_curves"]
        model_path.write_text(text.removesuffix("}\n")
                              + f',"cluster_curves":{dataio.dump_json(curves[::-1])}}}\n')
        assert json.loads(model_path.read_text())["cluster_curves"] == curves[::-1]
        self.check_canonical(tmp_path, capsys, model_path, ["--data", str(data / "subjects.csv")])

    def test_respelled_number_is_echoed_as_spelled(self, tmp_path, capsys):
        data, model_path = fitted_model(tmp_path, n=400)
        data_flags = ["--data", str(data / "subjects.csv")]
        compact = curve_outputs(tmp_path, capsys, model_path, data_flags)
        text = model_path.read_text()
        first = text.split('"t":[', 1)[1].split(",", 1)[0]
        assert "." in first and "e" not in first
        model_path.write_text(text.replace(f'"t":[{first},', f'"t":[{first}00,', 1))
        respelled = curve_outputs(tmp_path, capsys, model_path, data_flags)
        old, new = f'"t":[{first},'.encode(), f'"t":[{first}00,'.encode()
        assert respelled == [out.replace(old, new, 1) for out in compact]
        assert all(out.count(new) == 1 for out in respelled)


    def test_each_command_reads_the_model_file_once(self, tmp_path, monkeypatch):
        data, model_path = fitted_model(tmp_path, n=400)
        data_flags = ["--data", str(data / "subjects.csv")]
        opened, real_open = [], open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        for argv in (["evaluate", *data_flags, "--out", str(tmp_path / "e.json")],
                     ["evaluate", *data_flags],
                     ["report", "--out", str(tmp_path / "r.json")], ["report"],
                     ["predict", *data_flags, "--out", str(tmp_path / "p.csv")]):
            opened.clear()
            assert run(*argv, "--model", str(model_path)) == 0
            assert opened.count(str(model_path)) == 1, argv


class TestIncompleteDataFlags:
    """fit and evaluate reject missing data flags with exit 2 before they
    open --out or read any file."""

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--data", "subjects.csv"], "need --data and --schema (or the activity trio)"),
        (["fit", "--activity", "a.csv"],
         "activity ingestion needs --activity, --profiles and --schema"),
        (["evaluate", "--model", "m.json"], "need --data (or the activity trio)"),
    ], ids=["fit-data-without-schema", "fit-activity-alone", "evaluate-without-data"])
    def test_exits_2_before_opening_out(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--out", os.path.join("missing", "x.json")) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not list(tmp_path.iterdir())


def test_cli_imports_only_numpy_and_the_standard_library():
    code = ("import sys; before = set(sys.modules); import survclust.cli; "
            "print(*{name.split('.')[0] for name in set(sys.modules) - before})")
    src = str(Path(survclust.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    loaded = set(proc.stdout.split())
    assert "survclust" in loaded
    assert loaded - {"numpy", "survclust"} - set(sys.stdlib_module_names) == set()
