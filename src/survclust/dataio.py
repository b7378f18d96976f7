"""File formats: subject CSV with a JSON schema sidecar, tree and model JSON.

All JSON is dumped with sorted keys and compact separators so identical
objects produce identical bytes; floats round-trip exactly through repr.
Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from itertools import islice, repeat
from typing import Iterator

import numpy as np

from .clustering import ClusterModel
from .core import CATEGORICAL, NUMERIC, Feature, FeatureSchema, Subject, SurvivalDataset
from .errors import SchemaMismatchError
from .kaplan_meier import SurvivalCurve
from .tree import (CategoryTest, NumericTest, SplitCandidate, SurvivalTree,
                   TreeConfig, TreeNode)

RESERVED_COLUMNS = ("id", "time", "event")
# Rows per chunk read or written: bounds the memory of cells held as Python objects.
CHUNK_ROWS = 1024


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def atomic_open(path):
    """Text file for writing that replaces ``path`` only if the block succeeds."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(obj, path):
    with atomic_open(path) as fh:
        fh.write(dump_json(obj) + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- schema

def schema_to_dict(schema: FeatureSchema) -> dict:
    features = []
    for f in schema:
        entry: dict = {"name": f.name, "kind": f.kind}
        if f.kind == CATEGORICAL:
            entry["categories"] = list(f.categories)
        features.append(entry)
    return {"features": features}


def schema_from_dict(d: dict) -> FeatureSchema:
    features = []
    for entry in d["features"]:
        features.append(Feature(entry["name"], entry["kind"],
                                tuple(entry.get("categories", ()))))
    return FeatureSchema(tuple(features))


# ------------------------------------------------------------- subjects

def _csv_field(text: str) -> str:
    """``text`` as a CSV cell, quoted as ``csv.writer``'s QUOTE_MINIMAL does."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def save_dataset_csv(dataset: SurvivalDataset, path):
    """Write the subject CSV ``CHUNK_ROWS`` rows at a time, each chunk one
    column of cells at a time; an out-of-range category code is written as
    an empty cell."""
    levels = [dict(enumerate(f.categories)) for f in dataset.schema]
    with atomic_open(path) as fh:
        fh.write(",".join(RESERVED_COLUMNS + dataset.schema.names) + "\n")
        for start in range(0, len(dataset), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            columns = [map(_csv_field, dataset.ids[rows]), map(repr, dataset.times[rows].tolist()),
                       map(("0", "1").__getitem__, dataset.events[rows].tolist())]
            columns += [map(repr, col[rows].tolist()) if f.kind == NUMERIC
                        else map(level.get, col[rows].tolist(), repeat(""))
                        for f, level, col in zip(dataset.schema, levels, dataset.columns)]
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _check_header(header: list[str], schema: FeatureSchema):
    fields, reserved, declared = set(header), set(RESERVED_COLUMNS), set(schema.names)
    if reserved - fields:
        raise SchemaMismatchError(f"subject CSV missing columns: {sorted(reserved - fields)}")
    parts = []
    if declared - fields:
        parts.append(f"columns missing for schema features: {sorted(declared - fields)}")
    if fields - reserved - declared:
        parts.append(f"columns not declared in the schema: {sorted(fields - reserved - declared)}")
    if parts:
        raise SchemaMismatchError("; ".join(parts))


def _events(cells: tuple) -> np.ndarray:
    flags = {raw: raw.strip() == "1" for raw in set(cells)}
    for raw in flags:
        if raw.strip() not in ("0", "1"):
            raise SchemaMismatchError(f"event must be 0 or 1, got {raw.strip()!r}")
    return np.fromiter(map(flags.__getitem__, cells), dtype=bool, count=len(cells))


def _number(raw: str, name: str, blank_ok: bool) -> float:
    if not (raw.strip() or blank_ok):
        raise SchemaMismatchError(f"missing value in column {name!r}")
    try:
        return float(raw) if raw.strip() else float("nan")
    except ValueError:
        raise SchemaMismatchError(f"{raw!r} is not a number in column {name!r}") from None


def _numbers(cells: tuple, name: str, blank_ok: bool) -> np.ndarray:
    try:
        return np.array(cells, dtype=np.float64)
    except ValueError:  # blank or non-numeric cells: convert one by one
        return np.array([_number(raw, name, blank_ok) for raw in cells], dtype=np.float64)


def _categories(cells: tuple, feature: Feature, strict: bool) -> np.ndarray:
    index = {level: i for i, level in enumerate(feature.categories)}
    codes = np.fromiter(map(index.get, cells, repeat(-1)), dtype=np.int64, count=len(cells))
    if strict and codes.min(initial=0) < 0:
        raw = cells[int(np.argmin(codes))]
        raise SchemaMismatchError(f"unknown category {raw!r} in column {feature.name!r}")
    return codes


def _chunk_dataset(rows: tuple, lines: tuple, header: list[str],
                   schema: FeatureSchema, strict: bool) -> SurvivalDataset:
    """Convert parsed rows one column at a time; the first bad row raises,
    checked for its field count, ``event``, the features, then ``time``."""
    column = {name: i for i, name in enumerate(header)}  # last one, if repeated
    try:
        if set(map(len, rows)) != {len(header)}:
            raise SchemaMismatchError(f"expected {len(header)} fields, got {len(rows[0])}")
        cells = list(zip(*rows))
        events = _events(cells[column["event"]])
        columns = [_numbers(cells[column[f.name]], f.name, blank_ok=not strict)
                   if f.kind == NUMERIC else _categories(cells[column[f.name]], f, strict)
                   for f in schema]
        times = _numbers(cells[column["time"]], "time", blank_ok=False)
    except SchemaMismatchError as bad:
        if len(rows) > 1:  # find the first bad row
            for row, line in zip(rows, lines):
                _chunk_dataset([row], [line], header, schema, strict)
        raise SchemaMismatchError(f"line {lines[0]}: {bad}") from None
    return SurvivalDataset(schema, cells[column["id"]], columns, times, events)


def iter_subject_chunks(path, schema: FeatureSchema, strict: bool) -> Iterator[SurvivalDataset]:
    """Read a subject CSV as consecutive datasets of at most ``CHUNK_ROWS`` rows.

    Strict mode rejects blank numeric cells and unknown categories; lenient
    mode stores them as NaN and -1 for :func:`validate_dataset` to report.
    Blank lines are skipped. A row with the wrong number of fields, an
    ``event`` other than 0/1 or a non-numeric ``time`` or feature cell
    raises :class:`SchemaMismatchError` naming its 1-based line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        _check_header(header, schema)
        numbered = ((reader.line_num, row) for row in reader if row)
        while chunk := list(islice(numbered, CHUNK_ROWS)):
            lines, rows = zip(*chunk)
            yield _chunk_dataset(rows, lines, header, schema, strict)


def iter_subjects_csv(path, schema: FeatureSchema, strict: bool = True) -> Iterator[Subject]:
    """Stream subjects; strict mode rejects unknown categories and blank numerics."""
    for chunk in iter_subject_chunks(path, schema, strict):
        yield from chunk.subjects()


def load_dataset_csv(path, schema: FeatureSchema, strict: bool = False) -> SurvivalDataset:
    """Read a subject CSV; lenient mode stores invalid cells for validation."""
    chunks = list(iter_subject_chunks(path, schema, strict))
    if not chunks:
        return SurvivalDataset(schema, [], [()] * len(schema), (), ())
    *columns, times, events = (np.concatenate(parts) for parts in
                               zip(*((*c.columns, c.times, c.events) for c in chunks)))
    return SurvivalDataset(schema, [sid for c in chunks for sid in c.ids],
                           columns, times, events)


# ------------------------------------------------------------------ tree

def _test_to_dict(test) -> dict:
    if isinstance(test, NumericTest):
        return {"kind": "numeric_lt", "threshold": test.threshold}
    return {"kind": "category_eq", "index": test.category_index}


def _test_from_dict(d: dict):
    if d["kind"] == "numeric_lt":
        return NumericTest(float(d["threshold"]))
    if d["kind"] == "category_eq":
        return CategoryTest(int(d["index"]))
    raise ValueError(f"unknown test kind {d['kind']!r}")


def tree_to_dict(tree: SurvivalTree) -> dict:
    nodes = []
    for node in tree.nodes():
        if node.is_leaf:
            nodes.append({
                "id": node.node_id,
                "leaf_id": node.leaf_id,
                "n_subjects": node.n_subjects,
                "n_events": node.n_events,
                "curve": node.curve.to_json_dict(),
            })
        else:
            nodes.append({
                "id": node.node_id,
                "feature": tree.schema[node.split.feature].name,
                "test": _test_to_dict(node.split.test),
                "p_value": node.split.p_value,
                "statistic": node.split.statistic,
                "n_candidates": node.n_candidates,
                "left": node.left.node_id,
                "right": node.right.node_id,
            })
    return {
        "schema": schema_to_dict(tree.schema),
        "config": asdict(tree.config),
        "root": tree.root.node_id,
        "nodes": nodes,
        "leaf_ids": list(tree.leaf_ids),
    }


def tree_from_dict(d: dict) -> SurvivalTree:
    schema = schema_from_dict(d["schema"])
    config = TreeConfig(**d["config"])
    by_id = {node["id"]: node for node in d["nodes"]}

    def build(node_id: int) -> TreeNode:
        raw = by_id[node_id]
        if "leaf_id" in raw:
            return TreeNode(raw["id"], leaf_id=raw["leaf_id"],
                            n_subjects=raw["n_subjects"], n_events=raw["n_events"],
                            curve=SurvivalCurve.from_json_dict(raw["curve"]))
        split = SplitCandidate(schema.index(raw["feature"]),
                               _test_from_dict(raw["test"]),
                               raw["p_value"], raw["statistic"])
        return TreeNode(raw["id"], split=split, n_candidates=raw["n_candidates"],
                        left=build(raw["left"]), right=build(raw["right"]))

    return SurvivalTree(schema, build(d["root"]), config, d["leaf_ids"])


# ----------------------------------------------------------------- model

def model_to_dict(model: ClusterModel) -> dict:
    return {
        "tree": tree_to_dict(model.tree),
        "k": model.k,
        "leaf_to_cluster": [[lid, model.leaf_to_cluster[lid]]
                            for lid in sorted(model.leaf_to_cluster)],
        "cluster_curves": [c.to_json_dict() for c in model.cluster_curves],
    }


def model_from_dict(d: dict) -> ClusterModel:
    tree = tree_from_dict(d["tree"])
    leaf_to_cluster = {int(lid): int(cid) for lid, cid in d["leaf_to_cluster"]}
    curves = tuple(SurvivalCurve.from_json_dict(c) for c in d["cluster_curves"])
    return ClusterModel(tree, leaf_to_cluster, int(d["k"]), curves)


def save_model(model: ClusterModel, path):
    save_json(model_to_dict(model), path)


def load_model(path) -> ClusterModel:
    return model_from_dict(load_json(path))
