"""Self-check of the benchmark itself.

Usage (from the repository root):

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Checks that ``BENCHMARK.json`` stays within its format limits; that every
per-layer metric says what it should move; that one untraced run per
workload prints every end-to-end metric, and each traced run every
per-layer metric, with its unit and better-direction; that the counts
repeat exactly across two traced runs of one seed; and that the benchmark
fails, without a result, where the program's sources are missing.
Exits 1 if any check fails. Takes several minutes (three runs per
workload).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SEED = 1
REPEATED_COUNTS = ("tree.candidates_scored", "tree.nodes", "tree.leaves",
                   "clustering.mcl_groups", "clustering.merges", "clustering.kuiper_tests",
                   "ingest.records", "ingest.users", "ingest.discarded")

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_config(config):
    check(set(config) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly its six keys")
    check(1 <= len(config["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        and (ROOT / p).is_dir() for p in config["paths"]), "paths are relative benchmark directories")
    files = [f for p in config["paths"] for f in (ROOT / p).rglob("*")
             if "__pycache__" not in f.parts]
    check(all(f.is_file() and not f.is_symlink() for f in files if not f.is_dir()),
          "benchmark files are regular files")
    cmd = config["command"]
    check(len(cmd) <= 32 and all(len(a) <= 200 and not a.startswith("/") and ".." not in a
                                 for a in cmd), "command is a short list without absolute paths")
    check(isinstance(config["run_seconds"], int) and 1 <= config["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    check(2 <= len(config["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in config["workloads"]), "2 to 8 workloads, each a name and a one-line why")
    e2e, layer = config["end_to_end"], config["per_layer"]
    check(1 <= len(e2e) <= 16 and all(set(m) == {"name", "unit", "better", "bound"}
                                      and 0 < m["bound"] <= 0.25 for m in e2e),
          "1 to 16 end-to-end metrics with bounds up to 0.25")
    check(1 <= len(layer) <= 128 and all(set(m) == {"name", "unit", "better"} for m in layer),
          "1 to 128 per-layer metrics")
    names = [x["name"] for x in config["workloads"] + e2e + layer]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "names are unique and well formed")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in e2e + layer),
          "units are well formed and every metric has a better-direction")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is present, in seconds, lower-better, with the largest bound")
    check(len(json.dumps(config)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")

    import layers

    check(set(layers.MOVES) == {m["name"] for m in layer},
          "every per-layer metric names the end-to-end metric and workload it should move")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def check_output(workload, trace, rc, lines, specs):
    label = f"{workload} --trace {trace}"
    check(rc == 0, f"{label}: exits 0")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, f"{label}: last line is a JSON result")
        return None
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct/attempted/failed/metrics")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct, nothing failed")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in specs}
          and all(metrics[m["name"]]["unit"] == m["unit"]
                  and isinstance(metrics[m["name"]]["value"], (int, float)) for m in specs),
          f"{label}: every metric is reported with its unit")
    table = [line.split() for line in lines[:-1]]
    check(all(any(row[:1] == [m["name"]] and m["unit"] in row and m["better"] in row
                  for row in table) for m in specs),
          f"{label}: the table prints every metric with its unit and better-direction")
    return metrics


def check_bare_directory(config):
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in config["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run(["--workload", config["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=bare)
        check(rc != 0 and not any(line.startswith("{") for line in lines),
              "without the program's sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_config(config)
    check_bare_directory(config)
    chosen = argv or [w["name"] for w in config["workloads"]]
    for workload in chosen:
        base = ["--workload", workload, "--seed", str(SEED), "--seconds", "1"]
        check_output(workload, 0, *run(base + ["--trace", "0"]), config["end_to_end"])
        first = check_output(workload, 1, *run(base + ["--trace", "1"]), config["per_layer"])
        second = check_output(workload, 1, *run(base + ["--trace", "1"]), config["per_layer"])
        if first and second:
            check(all(first[n]["value"] == second[n]["value"] for n in REPEATED_COUNTS),
                  f"{workload}: counts repeat exactly across two traced runs of seed {SEED}")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
