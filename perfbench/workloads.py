"""The three analyst sessions the benchmark drives through the CLI.

Each workload fits a model, then labels (``predict``) and scores
(``evaluate``) a population against it. They differ in which layer does
the work:

- ``fit-planted``: 3-group n=3,000 ``simulate`` population,
  ``fit --k 3 --max-depth 2``. Split enumeration and scoring are most of
  the time; predict/evaluate run on the same 3,000.
- ``score-50k``: a ``--max-depth 1`` 2-group model from n=3,000, then
  predict/evaluate on a fresh 2-group n=50,000 population. CSV parsing,
  routing, log-rank, Cox and the logistic task do the work.

The depth caps keep each fit the same size on every seed. Grown to full
depth, the 3-group tree has 7 to 11 nodes (2,200 to 3,600 candidates at
its internal nodes) depending on the seed, which alone spreads fit time
by about 20%; at depth 2 it always has 7 nodes.
- ``ingest-activity``: a ~500k-record activity log of 10k users whose plan
  level sets the hazard, ingested by ``fit --activity``. Predict/evaluate
  score the ingested users from a subject CSV the generator derives, so
  ingest loads ``fit`` only.

The program only sees files generated from the seed.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

import inputs

HORIZONS = ["--t0", "1", "--t1", "5"]


class Inputs(NamedTuple):
    argv: dict                 # per command kind, lacking --out (and --model)
    score_csv: str             # the subject CSV that predict and evaluate read
    truth: object              # planted group per row of score_csv
    scored: object             # score_csv as an in-memory dataset, when generated as one
    expect: Optional[dict]     # ingest counts the activity log must yield


def setup(name, tracer, seed, work) -> Inputs:
    """Write the workload's inputs from ``seed``."""
    expect = None
    if name == "fit-planted":
        csv, schema, scored, truth = inputs.synth_population(tracer, 3, 3000, seed, work, "train")
        fit = ["fit", "--data", csv, "--schema", schema, "--k", "3", "--max-depth", "2"]
        score_csv = csv
    elif name == "score-50k":
        csv, schema, _, _ = inputs.synth_population(tracer, 2, 3000, 2 * seed, work, "train")
        score_csv, _, scored, truth = inputs.synth_population(
            tracer, 2, 50_000, 2 * seed + 1, work, "score")
        fit = ["fit", "--data", csv, "--schema", schema, "--k", "2", "--max-depth", "1"]
    elif name == "ingest-activity":
        with tracer.span("perfbench.activity_log"):
            act, prof, schema, score_csv, truth, expect = inputs.activity_log(seed, work)
        scored = None
        fit = ["fit", "--activity", act, "--profiles", prof, "--schema", schema,
               "--cutoff", str(inputs.CUTOFF), "--window", str(inputs.WINDOW), "--k", "2"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    argv = {"fit": fit,
            "predict": ["predict", "--data", score_csv],
            "evaluate": ["evaluate", "--data", score_csv] + HORIZONS}
    return Inputs(argv, score_csv, truth, scored, expect)


def with_outputs(argv, kind, work, tag, model=None):
    """Complete a template with its output path (and model path)."""
    suffix = {"fit": ".json", "predict": ".csv", "evaluate": ".json"}[kind]
    out = os.path.join(work, f"{kind}-{tag}{suffix}")
    extra = [] if model is None else ["--model", model]
    return argv[kind] + extra + ["--out", out], out
