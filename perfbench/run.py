"""survclust benchmark: seeded analyst sessions driven through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-planted --seed 1 --seconds 20 --trace 0

Workloads are described in ``workloads.py`` and ``BENCHMARK.json``. The
program is imported from ``src/`` of the checkout this file sits in; the
run fails (non-zero exit, no result) when those sources are missing.

``--trace 0`` times the commands untraced and reports the end-to-end
metrics; setup, predict and evaluate times are medians of wall times
normalised to a reference machine speed with ``calibrate.probe`` (raw wall
medians are printed in the table), fit times are raw. ``--trace 1`` runs each command once untraced and once as a traced
replica and reports the per-layer metrics; its spans are written to
``.perfbench/trace-<workload>-s<seed>.json``.

Every command's output is checked (see ``check_commands``); a command
that exits non-zero or writes a wrong output counts as failed. Human-readable
tables and run info go to stdout first; the last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

from calibrate import normalised, probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_ROUNDS = 1
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_program():
    """Import survclust from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "survclust" / "__init__.py").is_file():
        raise SystemExit(f"error: survclust sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import survclust

    if Path(survclust.__file__).resolve().parent != SRC / "survclust":
        raise SystemExit(f"error: survclust imported from {survclust.__file__}, not {SRC}")


def run_info(args):
    import numpy
    import scipy

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "SURVCLUST_THREADS": os.environ.get("SURVCLUST_THREADS", "unset"),
            "commit": git_commit(), "machine": platform.machine()}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_session(spec, work, deadline):
    """Run ``session.py`` in a child process and return its result."""
    spec_path = work / "session.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(BENCH / "session.py"), str(spec_path)],
                          cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: session exited {proc.returncode}:\n{proc.stdout[-4000:]}")
    return json.loads(Path(spec["result"]).read_text())


def best_agreement(truth, predicted):
    """Largest share of rows on which a one-to-one relabelling of ``predicted`` equals ``truth``."""
    import numpy as np

    t_labels, p_labels = np.unique(truth), np.unique(predicted)
    table = np.array([[np.sum((predicted == p) & (truth == t)) for t in t_labels]
                      for p in p_labels])
    best = 0
    for cols in permutations(range(len(t_labels)), min(len(p_labels), len(t_labels))):
        best = max(best, sum(table[i, j] for i, j in enumerate(cols)))
    return best / len(truth)


def read_labels(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "id,cluster":
        raise ValueError("predict output lacks its header")
    ids, labels = zip(*(line.split(",") for line in lines[1:]))
    return ids, [int(x) for x in labels]


def check_commands(commands, prepared):
    """Mark each command ok or not; returns (ok flags, first predict labels, first report).

    A command is ok when it exits 0 and: a fit writes the same bytes as the
    first default fit (any thread setting); a predict writes the labels
    ``cluster_assign_dataset`` gives on the same data; an evaluate writes
    the same report as the first one, with log-rank p below 0.05.
    """
    import numpy as np
    from survclust.clustering import cluster_assign_dataset
    from survclust.dataio import load_dataset_csv, load_model

    def read(path):
        try:
            return Path(path).read_bytes()
        except OSError:
            return None

    reference = {}
    expected_labels = {}
    predicted = report = None
    flags = []
    for c in commands:
        ok = c["rc"] == 0
        body = read(c["out"]) if ok else None
        ok = ok and body is not None
        if ok and c["kind"] == "fit":
            ok = body == reference.setdefault("fit", body)
        elif ok and c["kind"] == "predict":
            if c["model"] not in expected_labels:
                model = load_model(c["model"])
                dataset = prepared.scored if prepared.scored is not None else \
                    load_dataset_csv(prepared.score_csv, model.tree.schema)
                expected_labels[c["model"]] = (dataset.ids, cluster_assign_dataset(model, dataset))
            ids, labels = expected_labels[c["model"]]
            try:
                got_ids, got = read_labels(c["out"])
                ok = tuple(got_ids) == ids and np.array_equal(got, labels)
            except ValueError:
                ok = False
            if ok and predicted is None:
                predicted = np.asarray(got)
        elif ok and c["kind"] == "evaluate":
            try:
                parsed = json.loads(body)
                ok = body == reference.setdefault("evaluate", body) and parsed["logrank"]["p"] < 0.05
            except (ValueError, KeyError, TypeError):
                ok = False
            if ok and report is None:
                report = parsed
        flags.append(ok)
    return flags, predicted, report


def end_to_end(commands, ok_share, setup_times, result, truth, predicted, report):
    """End-to-end metric values, plus the (wall, normalised) samples behind each timing.

    ``setup_s``, ``predict_s`` and ``evaluate_s`` are medians of wall times
    normalised to the reference machine speed (see ``calibrate.py``).
    ``fit_s`` is the median raw wall time: the probe's single-threaded
    work does not track the default thread pool, and normalising spread
    fit times more across runs than it narrowed them.
    """
    samples = {f"{kind}_s": [(c["wall"], normalised(c["wall"], *c["probe"])) for c in commands
                             if c["kind"] == kind and c["threads"] is None]
               for kind in ("fit", "predict", "evaluate")}
    samples["setup_s"] = [(wall, normalised(wall, before, after))
                          for wall, before, after in setup_times]
    values = {name: statistics.median(n for _, n in pairs) for name, pairs in samples.items()}
    values["fit_s"] = statistics.median(w for w, _ in samples["fit_s"])
    values.update({
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_share": ok_share,
        "planted_agreement": 0.0 if predicted is None else best_agreement(truth, predicted),
        "logrank_chi2": 0.0 if report is None else report["logrank"]["chi2"],
    })
    return values, samples


def _sample_note(pairs):
    if not pairs:
        return ()
    walls = [w for w, _ in pairs]
    return (f"median of {len(walls)}; wall median {statistics.median(walls):.4g} s, "
            f"range {min(walls):.4g}-{max(walls):.4g}",)


def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for r in rows:
        print("  " + r[0].ljust(width) + "  " + "  ".join(str(x) for x in r[1:]))


def main(argv=None):
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = parse_args(argv)
    import_program()
    import workloads
    from spans import NullTracer, Tracer

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {names}")
    info = run_info(args)
    print("run info: " + json.dumps(info, sort_keys=True))

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-s{args.seed}-{time.time_ns()}"
    try:
        tracer = Tracer(run_id) if args.trace else NullTracer()
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = probe()
            start = time.perf_counter()
            prepared = workloads.setup(args.workload, tracer, args.seed, str(work))
            setup_times.append((time.perf_counter() - start, before, probe()))
        spec = {"argv": prepared.argv, "work": str(work), "seconds": args.seconds,
                "min_rounds": MIN_ROUNDS, "trace": bool(args.trace), "run_id": run_id,
                "src": str(SRC), "result": str(work / "result.json"),
                "ingest_expect": prepared.expect and dict(prepared.expect,
                                                          subjects_csv=prepared.score_csv)}
        result = run_session(spec, work, deadline)
        commands = result["commands"]
        flags, predicted, report = check_commands(commands, prepared)
        for c, ok in zip(commands, flags):
            if not ok:
                print(f"FAILED {c['kind']} {c['tag']} rc={c['rc']}: {c['stdout'][-500:]}")
        checks = result.get("checks", {})
        for name, ok in checks.items():
            if not ok:
                print(f"FAILED check: {name}")
        attempted = len(flags) + len(checks)
        failed = flags.count(False) + list(checks.values()).count(False)

        if args.trace:
            import layers

            child = result["spans"]
            base = len(tracer.spans)
            for s in child:
                if s["parent"] is not None:
                    s["parent"] += base
            spans = tracer.spans + child
            untraced = sum(c["wall"] for c in commands)
            values = layers.derive(spans, result["counts"], untraced)
            specs = config["per_layer"]
            print_table("per-command accounting (traced span, layer spans, cli glue; s):",
                        [(n, f"{t:.4f}", f"{l:.4f}", f"{o:.4f}")
                         for n, t, l, o in layers.command_accounting(spans)])
            print(f"untraced commands: {untraced:.4f} s")
            tracer.spans = spans
            tracer.write(out_dir / f"trace-{args.workload}-s{args.seed}.json", info)
            rows = [(m["name"], f"{values[m['name']]:.6g}", m["unit"], m["better"],
                     "moves " + layers.MOVES[m["name"]]) for m in specs]
        else:
            values, samples = end_to_end(commands, (attempted - failed) / attempted, setup_times,
                                         result, prepared.truth, predicted, report)
            specs = config["end_to_end"]
            rows = [(m["name"], f"{values[m['name']]:.6g}", m["unit"], m["better"],
                     f"bound {m['bound']}") + _sample_note(samples.get(m["name"]))
                    for m in specs]
            rows.append(("failed_share", f"{failed / attempted:.6g}", "ratio", "lower",
                         f"{failed} of {attempted} commands"))
        print_table(f"metrics ({args.workload}, seed {args.seed}):", rows)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                                      for m in specs}}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
