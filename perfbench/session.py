"""One workload's commands, run in a fresh process so its peak RSS is theirs.

Usage: ``python3 session.py SPEC.json`` (written by ``run.py``). Commands
go through ``survclust.cli.main`` in this process. Untraced, the session
runs a default fit and a ``SURVCLUST_THREADS=1`` fit, each followed by
predict/evaluate pairs for at least ``PAIR_SECONDS``, then rounds until
``seconds`` have passed (at least ``min_rounds``): default fits for at
least ``FIT_SECONDS``, then another scoring burst. Traced, it runs each
command once untraced and once as a traced replica, then the per-layer
probes. Results go to the spec's ``result`` path as JSON.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

from calibrate import probe

THREADS_ENV = "SURVCLUST_THREADS"
FIT_SECONDS = 2.0
PAIR_SECONDS = 1.0


@contextlib.contextmanager
def threads_env(value):
    """Set SURVCLUST_THREADS for the block (unchanged when ``value`` is None)."""
    saved = os.environ.get(THREADS_ENV)
    if value is not None:
        os.environ[THREADS_ENV] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(THREADS_ENV, None)
        else:
            os.environ[THREADS_ENV] = saved


class Session:
    """Runs CLI commands in this process; each is timed between two speed probes."""

    def __init__(self, spec):
        from survclust.cli import main

        self.main = main
        self.spec = spec
        self.commands = []

    def argv(self, kind, tag, model=None):
        import workloads

        return workloads.with_outputs(self.spec["argv"], kind, self.spec["work"], tag, model)

    def run(self, kind, tag, model=None, threads=None):
        """Run one CLI command; record its wall time, exit code and output."""
        argv, out = self.argv(kind, tag, model)
        stdout = io.StringIO()
        gc.collect()  # each command starts from a collected heap, as in a fresh process
        with threads_env(threads):
            before = probe()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                    rc = self.main(argv)
            except Exception:  # a traceback is a failed command, not a failed run
                rc = -1
                stdout.write(traceback.format_exc())
            wall = time.perf_counter() - start
            after = probe()
        self.commands.append({"kind": kind, "tag": tag, "threads": threads, "rc": rc,
                              "wall": wall, "probe": [before, after], "out": out,
                              "model": model, "stdout": stdout.getvalue()[-2000:]})
        return out

    def untraced(self):
        seconds, min_rounds = self.spec["seconds"], self.spec["min_rounds"]
        start = time.perf_counter()
        model = self.run("fit", "0")
        self.score(model, "0")
        self.run("fit", "threads1", threads="1")
        self.score(model, "threads1")
        rounds = 0
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            rounds += 1
            fitting = time.perf_counter()
            fits = 0
            while fits == 0 or time.perf_counter() - fitting < FIT_SECONDS:
                fits += 1
                self.run("fit", f"{rounds}.{fits}")
            self.score(model, str(rounds))
        return {}

    def score(self, model, tag):
        """Predict/evaluate pairs for at least PAIR_SECONDS.

        A burst follows every fit, so the scoring samples spread over the
        whole session instead of one stretch of the machine's load.
        """
        start = time.perf_counter()
        pairs = 0
        while pairs == 0 or time.perf_counter() - start < PAIR_SECONDS:
            pairs += 1
            self.run("predict", f"{tag}.{pairs}", model)
            self.run("evaluate", f"{tag}.{pairs}", model)

    def traced(self):
        import mirror
        from spans import Tracer
        from survclust.dataio import load_dataset_csv, tree_to_dict
        from survclust.tree import assign_leaves, grow_tree

        tr = Tracer(self.spec["run_id"])
        counts, checks, replicas = {}, {}, {}
        model = None
        for kind, replica in (("fit", mirror.fit), ("predict", mirror.predict),
                              ("evaluate", mirror.evaluate)):
            cli_out = self.run(kind, "cli", model)
            argv, traced_out = self.argv(kind, "traced", model)
            gc.collect()
            replicas[kind] = replica(tr, argv, counts)
            checks[f"traced {kind} writes the command's bytes"] = _same_bytes(cli_out, traced_out)
            model = model or cli_out
        dataset, config, tree, _ = replicas["fit"]
        scored, fitted = replicas["evaluate"]

        with tr.span("probe"):
            with tr.span("tree.assign_leaves"):
                assign_leaves(fitted.tree, scored)
            with threads_env("1"), tr.span("tree.grow_tree_threads1"):
                tree1 = grow_tree(dataset, config)
            splits, leaves = mirror.replay_tree(tr, dataset, config, counts)

        grown = [(n.split, n.n_candidates) for n in tree.nodes() if not n.is_leaf]
        checks["replay rebuilds the grown tree"] = splits == grown and leaves == len(tree.leaf_ids)
        checks["threads=1 grows the same tree"] = tree_to_dict(tree1) == tree_to_dict(tree)
        expect = self.spec["ingest_expect"]
        if expect:
            restated = load_dataset_csv(expect["subjects_csv"], dataset.schema)
            checks["ingest matches the generator's restatement"] = (
                _same_dataset(dataset, restated)
                and all(counts[f"ingest.{k}"] == expect[k] for k in ("records", "users", "discarded")))
        return {"spans": tr.spans, "counts": counts, "checks": checks}


def _same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def _same_dataset(a, b):
    import numpy as np

    return (a.ids == b.ids and np.array_equal(a.times, b.times)
            and np.array_equal(a.events, b.events)
            and all(np.array_equal(x, y) for x, y in zip(a.columns, b.columns)))


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    session = Session(spec)
    result = session.traced() if spec["trace"] else session.untraced()
    result["commands"] = session.commands
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
