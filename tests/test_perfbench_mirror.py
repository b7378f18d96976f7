"""The benchmark's traced replicas of fit, predict and evaluate
(``perfbench/mirror.py``) must keep calling the library the way the CLI
does: each replica, run without tracing, writes the command's bytes."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from survclust.cli import _load_training_dataset, build_parser, main
from survclust.dataio import save_dataset_csv

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load("mirror"), load("spans").NullTracer()


def replicate(tmp_path, bench, fit_argv, predict_csv, evaluate_argv):
    """Run fit, predict and evaluate through the CLI and through the replicas;
    return the pairs of files each wrote."""
    mirror, tracer = bench
    pairs = []
    for who in ("cli", "mirror"):
        model, labels, report = (tmp_path / f"{who}-{name}" for name in
                                 ("model.json", "labels.csv", "report.json"))
        runs = [("fit", fit_argv + ["--out", str(model)]),
                ("predict", ["predict", "--data", predict_csv, "--model", str(model),
                             "--out", str(labels)]),
                ("evaluate", evaluate_argv + ["--t0", "1", "--t1", "4", "--model", str(model),
                                              "--out", str(report)])]
        for kind, argv in runs:
            if who == "cli":
                assert main(argv) == 0
            else:
                getattr(mirror, kind)(tracer, argv, {})
        pairs.append((model, labels, report))
    return list(zip(*pairs))


def test_subject_csv_replicas_write_the_commands_bytes(tmp_path, bench):
    data = tmp_path / "data"
    assert main(["simulate", "--groups", "3", "--n", "900", "--seed", "11",
                 "--noise-features", "4", "--out", str(data)]) == 0
    csv, schema = str(data / "subjects.csv"), str(data / "schema.json")
    for cli_file, mirror_file in replicate(
            tmp_path, bench, ["fit", "--data", csv, "--schema", schema, "--k", "2"],
            csv, ["evaluate", "--data", csv]):
        assert cli_file.read_bytes() == mirror_file.read_bytes(), cli_file.name


def test_activity_replicas_write_the_commands_bytes(tmp_path, bench):
    rng = np.random.default_rng(12)
    n = 300
    join = rng.uniform(0.0, 10.0, n)
    plan = rng.integers(0, 2, n)
    end = np.minimum(join + rng.exponential(np.where(plan == 0, 3.0, 30.0)), 40.0)
    owner = np.repeat(np.arange(n), rng.poisson(2.0 * (end - join)))
    stamps = join[owner] + rng.random(owner.size) * (end - join)[owner]
    activity = tmp_path / "activity.csv"
    activity.write_text("user_id,timestamp,direction,partner_id\n" + "".join(
        f"u{u},{t!r},{'sent' if s else 'received'},u{p}\n"
        for u, t, s, p in zip(owner.tolist(), stamps.tolist(),
                              (rng.random(owner.size) < 0.5).tolist(),
                              rng.integers(0, n, owner.size).tolist())))
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("user_id,join_time,plan\n" + "".join(
        f"u{i},{t!r},{'ab'[p]}\n" for i, (t, p) in enumerate(zip(join.tolist(), plan.tolist()))))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"features": [
        {"name": "plan", "kind": "categorical", "categories": ["a", "b"]}]}))
    ingest = ["--activity", str(activity), "--profiles", str(profiles), "--schema", str(schema),
              "--cutoff", "5", "--window", "2", "--study-end", "40"]
    # predict reads a subject CSV: the ingested users
    scored = tmp_path / "scored.csv"
    save_dataset_csv(_load_training_dataset(build_parser().parse_args(
        ["fit", *ingest, "--out", "unused"])), str(scored))
    for cli_file, mirror_file in replicate(
            tmp_path, bench, ["fit", *ingest, "--min-leaf-subjects", "20"],
            str(scored), ["evaluate", *ingest]):
        assert cli_file.read_bytes() == mirror_file.read_bytes(), cli_file.name
