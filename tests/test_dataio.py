import csv
import dataclasses
import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (reference_classification_dict, reference_hazard_ratio_dict,
                     reference_save_dataset_csv, reference_subject_csv,
                     reference_tree_dict)
from survclust import (Feature, FeatureSchema, SurvivalDataset, dataio,
                       validate_dataset)
from survclust.clustering import cluster_assign_dataset, fit_cluster_model
from survclust.dataio import (dump_json, dump_json_spliced, iter_subjects_csv,
                              iter_tested_columns, load_dataset_csv, load_model,
                              load_model_with_curves, model_to_dict,
                              save_dataset_csv, save_json, save_model, schema_from_dict,
                              schema_to_dict, tree_from_dict, tree_to_dict)
from survclust.errors import SchemaMismatchError
from survclust.evaluation import (classify_and_score, cox_hazard_ratio,
                                  logistic_fit, one_hot)
from survclust.synth import GroupSpec, SynthConfig, generate
from survclust.tree import TreeConfig, assign_leaves, grow_tree


# Block sizes in characters the chunked readers and writer are tested at.
BUDGETS = [1, 2, 3, 13, dataio.CHUNK_CHARS]


def mixed_schema():
    return FeatureSchema((Feature("age", "numeric"),
                          Feature("gender", "categorical", ("M", "F"))))


def mixed_dataset():
    schema = mixed_schema()
    return SurvivalDataset(schema, ["a", "b", "c"],
                           [np.array([25.5, 0.1, 43.0]), np.array([0, 1, 0])],
                           np.array([1.0, 2.5, 3.75]),
                           np.array([True, False, True]))


def planted_model(seed=33, k=2):
    config = SynthConfig(
        (GroupSpec(0.5, 2.0, (0.0,)), GroupSpec(0.5, 0.2, (4.0,))),
        n_subjects=800, entry_window=2.0, study_duration=10.0,
        noise_features=1, seed=seed)
    data, _ = generate(config)
    tree = grow_tree(data, TreeConfig(min_leaf_subjects=40, min_leaf_events=5))
    return data, fit_cluster_model(data, tree, k=k)


class TestSchemaJson:
    def test_round_trip(self):
        schema = mixed_schema()
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_category_order_preserved(self):
        schema = FeatureSchema((Feature("g", "categorical", ("z", "a", "m")),))
        out = schema_from_dict(schema_to_dict(schema))
        assert out[0].categories == ("z", "a", "m")


class TestSubjectCsv:
    def test_round_trip(self, tmp_path):
        ds = mixed_dataset()
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path, ds.schema)
        assert back.ids == ds.ids
        assert np.array_equal(back.times, ds.times)
        assert np.array_equal(back.events, ds.events)
        for a, b in zip(back.columns, ds.columns):
            assert np.array_equal(a, b)

    def test_float_values_round_trip_exactly(self, tmp_path):
        schema = FeatureSchema((Feature("x", "numeric"),))
        values = np.array([0.1, 1 / 3, np.pi, 1e-17, 12345.6789])
        ds = SurvivalDataset(schema, [f"s{i}" for i in range(5)], [values],
                             np.array([0.1, 0.2, 0.3, 0.4, 1 / 7]),
                             np.ones(5, dtype=bool))
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path, schema)
        assert np.array_equal(back.columns[0], values)
        assert np.array_equal(back.times, ds.times)

    def test_unknown_category_lenient_vs_strict(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text("id,time,event,age,gender\n"
                        "a,1.0,1,30,M\n"
                        "b,2.0,0,40,UNKNOWN\n")
        schema = mixed_schema()
        ds = load_dataset_csv(path, schema)
        report = validate_dataset(ds)
        assert any("gender" in v.message and v.subject_id == "b"
                   for v in report.violations)
        with pytest.raises(SchemaMismatchError) as err:
            list(iter_subjects_csv(path, schema, strict=True))
        assert "gender" in str(err.value)

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text("id,time,age,gender\na,1.0,30,M\n")
        with pytest.raises(SchemaMismatchError):
            load_dataset_csv(path, mixed_schema())

    def test_undeclared_extra_column(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text("id,time,event,age,gender,mystery\na,1.0,1,30,M,7\n")
        with pytest.raises(SchemaMismatchError):
            load_dataset_csv(path, mixed_schema())

    def test_bad_event_value(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text("id,time,event,age,gender\na,1.0,yes,30,M\n")
        with pytest.raises(SchemaMismatchError):
            load_dataset_csv(path, mixed_schema())

    def test_short_and_long_rows_name_their_line(self, tmp_path):
        path = tmp_path / "subjects.csv"
        for bad_row in ("b,2.0,0,40", "b,2.0,0,40,F,7"):
            path.write_text(f"id,time,event,age,gender\na,1.0,1,30,M\n\n{bad_row}\n")
            with pytest.raises(SchemaMismatchError, match="line 4: expected 5 fields"):
                load_dataset_csv(path, mixed_schema())

    def test_non_numeric_cell_names_column_and_line(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text("id,time,event,age,gender\na,1.0,1,30,M\nb,2.0,0,forty,F\n")
        with pytest.raises(SchemaMismatchError, match="line 3: 'forty' is not a number in column 'age'"):
            load_dataset_csv(path, mixed_schema())
        path.write_text("id,time,event,age,gender\na,1.0,1,30,M\nb,,0,40,F\n")
        with pytest.raises(SchemaMismatchError, match="line 3: missing value in column 'time'"):
            load_dataset_csv(path, mixed_schema())

    def test_first_bad_row_wins_across_columns(self, tmp_path):
        path = tmp_path / "subjects.csv"
        path.write_text("id,time,event,age,gender\n"
                        "a,1.0,1,30,NOPE\nb,2.0,0,forty,F\nc,3.0,1,50\n")
        with pytest.raises(SchemaMismatchError, match="line 2: unknown category 'NOPE'"):
            list(iter_subjects_csv(path, mixed_schema(), strict=True))
        with pytest.raises(SchemaMismatchError, match="line 3: 'forty'"):
            list(iter_tested_columns(path, mixed_schema(), False, {0, 1, 2}))

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries_match_reference(self, tmp_path, budget, offset):
        # A row ends ``offset`` characters after a block edge: the first id is
        # padded so that it does.
        edge = budget * -(-200 // budget)  # the first edge at least 200 characters in
        n = edge // 20 + 10
        rng = np.random.default_rng(budget + offset)
        ids = [f"s{i}" for i in range(n)]
        rest = ([rng.normal(size=n), rng.integers(0, 2, n)], rng.exponential(size=n),
                rng.random(n) < 0.5)
        path = tmp_path / "subjects.csv"
        save_dataset_csv(SurvivalDataset(mixed_schema(), ids, *rest), path)
        data = path.read_text().split("\n", 1)[1]
        ends = np.cumsum([len(row) + 1 for row in data.split("\n")[:-1]])
        ids[0] += "0" * int(edge + offset - ends[ends <= edge + offset].max())
        save_dataset_csv(SurvivalDataset(mixed_schema(), ids, *rest), path)
        data = path.read_text().split("\n", 1)[1]
        assert data[edge + offset - 1] == "\n"
        with mock.patch.object(dataio, "CHUNK_CHARS", budget):
            assert_matches_reference(path, mixed_schema(), strict=True)

    def test_iter_subjects_matches_dataset_rows(self, tmp_path):
        ds = mixed_dataset()
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        for budget in BUDGETS:
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                assert list(iter_subjects_csv(path, ds.schema)) == list(ds.subjects())


def outcome(parse):
    """``("ok", value)``, or the error type and, for a bad row, its message."""
    try:
        return "ok", parse()
    except SchemaMismatchError as err:
        return type(err), str(err) if str(err).startswith("line ") else None


def assert_matches_reference(path, schema, strict):
    expected = outcome(lambda: reference_subject_csv(path, schema, strict))
    got = outcome(lambda: list(iter_subjects_csv(path, schema, strict=True)) if strict
                  else list(load_dataset_csv(path, schema).subjects()))
    if expected[0] != "ok" or got[0] != "ok":
        assert got == expected
        return
    ids, times, events, columns = expected[1]
    subjects = got[1]
    assert [s.id for s in subjects] == ids
    assert (np.array([s.time for s in subjects], dtype=np.float64).tobytes()
            == np.array(times, dtype=np.float64).tobytes())
    assert [s.event for s in subjects] == events
    for j, (feature, ref) in enumerate(zip(schema, columns)):
        dtype = np.float64 if feature.kind == "numeric" else np.int64
        assert (np.array([s.values[j] for s in subjects], dtype=dtype).tobytes()
                == np.array(ref, dtype=dtype).tobytes())


NUMBERS = st.one_of(st.floats(allow_nan=False, width=64).map(repr),
                    st.sampled_from(["0", " 2.5 ", "1e3", "nan", "-inf", "1_0", "-0.0"]))
BLANKS = st.sampled_from(["", " ", "\t"])
JUNK = st.sampled_from(["abc", "0x1", "2", "yes", "zz", ""])
LEVELS = ["a", "b", " a", "c,d", "é"]


@st.composite
def subject_csvs(draw):
    """Schema plus subject CSV rows: each row clean, with cells lenient mode
    accepts (blank numerics, unknown levels), with junk, blank or ragged."""
    features = []
    for j in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            features.append(Feature(f"x{j}", "numeric"))
        else:
            levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3,
                                   unique=True))
            features.append(Feature(f"g{j}", "categorical", tuple(levels)))
    schema = FeatureSchema(tuple(features))
    header = ["id", "time", "event"] + list(schema.names)
    order = draw(st.permutations(range(len(header))))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["clean"] * 8 + ["lenient"] * 4
                                    + ["junk", "blank", "ragged"]))
        if kind == "blank":
            rows.append([])
            continue
        number = st.one_of(NUMBERS, BLANKS) if kind == "lenient" else NUMBERS
        level = (st.sampled_from(LEVELS + ["zz", ""]) if kind == "lenient"
                 else st.sampled_from(LEVELS))
        if kind == "junk":
            number, level = st.one_of(number, JUNK), st.one_of(level, JUNK)
        row = [draw(st.text(alphabet="ab,\" \n", max_size=4)), draw(number),
               draw(st.sampled_from(["0", "1", " 1", "0 "]) if kind != "junk" else JUNK)]
        row += [draw(number if f.kind == "numeric" else level) for f in schema]
        row = [row[i] for i in order]
        if kind == "ragged":
            row = row[:-1] if draw(st.booleans()) else row + ["7"]
        rows.append(row)
    lineterminator = draw(st.sampled_from(["\n", "\r\n"]))
    return schema, [header[i] for i in order], rows, lineterminator


class TestColumnarReader:
    @settings(max_examples=300, deadline=None)
    @given(subject_csvs(), st.booleans(), st.sampled_from(BUDGETS))
    def test_matches_row_by_row_reference(self, tmp_path_factory, case, strict, budget):
        schema, header, rows, lineterminator = case
        path = tmp_path_factory.mktemp("csv") / "subjects.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=lineterminator)
            writer.writerow(header)
            writer.writerows(rows)
        with mock.patch.object(dataio, "CHUNK_CHARS", budget):
            assert_matches_reference(path, schema, strict)


def tokenizer_outcome(path):
    """Non-blank rows after the header as read by ``read_columns`` picking
    every column, then ``("error", message)`` if it raised."""
    header, rows = [], []

    def pick(names):
        header.extend(names)
        return range(len(names))

    try:
        for columns in dataio.read_columns(path, pick, lambda cells: cells):
            rows += map(list, zip(*columns))
    except SchemaMismatchError as err:
        rows.append(("error", str(err)))
    return header, rows


def reader_outcome(path):
    """The same, from ``csv.reader`` row by row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                rows.append(("error", f"line {reader.line_num}: expected {len(header)} "
                                      f"fields, got {len(row)}"))
                break
            rows.append(row)
    return header, rows


PIECES = ["a", "b", " ", ",", ",", '"', "\r", "\n", "\n", "\r\n", "\n\n", '"x\ny"', '"q""r"']


@st.composite
def csv_texts(draw):
    """CSV text: rows of cells joined by commas, each cell plain or a random
    run of commas, quotes, CRs, LFs, CRLFs, blank lines and quoted fields
    holding a line break; LF or CRLF endings, maybe no final newline."""
    width = draw(st.integers(1, 3))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    pieces = st.sampled_from(draw(st.lists(st.sampled_from(PIECES), min_size=1, unique=True)))
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        count = width + draw(st.sampled_from([0] * 8 + [-1, 1]))
        cells = [draw(st.sampled_from(["c", "dd", ""])) if draw(st.integers(0, 3))
                 else "".join(draw(st.lists(pieces, max_size=3))) for _ in range(count)]
        lines.append(",".join(cells) + ending)
    text = "".join(lines)
    return text if draw(st.booleans()) else text.removesuffix(ending)


# Pieces of float() syntax: digits, signs, exponent, separators, blanks,
# inf/nan letters, a non-ASCII digit, a comma, numbers at the edge of
# overflow and underflow, and runs of 300 or more digits.
FLOAT_PIECES = ["0", "1", "5", "9", "-", "+", ".", "e", "E", "_", " ", "\t", "\n",
                "inf", "nan", "infinity", "i", "n", "a", "\u0661", ",",
                "1e308", "1e309", "1e-400", "9" * 300, "0" * 300, "5" * 309]


RANGE_SCHEMA = FeatureSchema((Feature("x", "numeric"), Feature("g", "categorical", ("M", "F")),
                              Feature("y", "numeric")))
RANGE_NUMBERS = st.sampled_from(["0.5", "-2", "1e3", "7", "nan", "inf"])


@st.composite
def range_csvs(draw):
    """Bytes of a subject CSV over ``RANGE_SCHEMA`` of 20-60 rows: valid
    rows, and rows with a non-number, blank or unknown cell, a bad event, a
    wrong field count, a byte that is not UTF-8 or a bare CR, and blank
    lines; LF or CRLF endings, maybe no final newline."""
    lines = [b"id,time,event,x,g,y"]
    for i in range(draw(st.integers(20, 60))):
        kind = draw(st.sampled_from(["valid"] * 40 + ["non-number", "blank", "unknown", "event",
                                                      "ragged", "byte", "bare-cr", "blank-line"]))
        if kind == "blank-line":
            lines.append(b"")
            continue
        cells = [f"s{i}", draw(RANGE_NUMBERS), draw(st.sampled_from(["0", "1"])),
                 draw(RANGE_NUMBERS), draw(st.sampled_from(["M", "F"])), draw(RANGE_NUMBERS)]
        at = draw(st.sampled_from([1, 3, 5]))
        if kind in ("non-number", "blank"):
            cells[at] = "abc" if kind == "non-number" else ""
        elif kind == "unknown":
            cells[4] = "Z"
        elif kind == "event":
            cells[2] = "2"
        elif kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["9"]
        row = ",".join(cells).encode()
        if kind == "byte":
            row = row.replace(b",", b"\xff,", 1)
        elif kind == "bare-cr":
            row = row.replace(b",", b"\r,", 1)
        lines.append(row)
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    text = ending.join(lines) + ending
    return text if draw(st.booleans()) else text.removesuffix(ending)


def ranged_outcome(path, strict, tested, cpus):
    """The ids, events, then the columns ``iter_tested_columns`` converts
    for ``tested`` (the categorical ones, the tested numerics and time if
    tested), joined over chunks, with ``cpus`` CPUs to run on; or the error
    type and message."""
    parts = []
    try:
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
            for ids, events, columns, times in iter_tested_columns(
                    path, RANGE_SCHEMA, strict, tested):
                kept = [column for i, column in enumerate(columns)
                        if RANGE_SCHEMA[i].kind == "categorical" or i in tested]
                parts.append([np.array(ids, dtype=object), events, *kept,
                              *([times] if len(RANGE_SCHEMA) in tested else [])])
    except SchemaMismatchError as err:
        return type(err), str(err)
    if not parts:
        return "ok", []
    return "ok", [np.concatenate(column).tolist() if j == 0 else np.concatenate(column).tobytes()
                  for j, column in enumerate(zip(*parts))]


class TestLineRanges:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(range_csvs(), st.booleans(), st.sets(st.integers(0, 3)),
           st.sampled_from([64, 256]), st.sampled_from(BUDGETS))
    def test_matches_one_process(self, tmp_path_factory, text, strict, tested, size, budget):
        path = tmp_path_factory.mktemp("csv") / "subjects.csv"
        path.write_bytes(text)
        with mock.patch.object(dataio, "RANGE_BYTES", size), \
                mock.patch.object(dataio, "CHUNK_CHARS", budget):
            if len(text) >= 2 * size and b"\r" not in text.replace(b"\r\n", b""):
                assert len(dataio._line_ranges(path)) >= 2  # a bare CR keeps one
            assert (ranged_outcome(path, strict, tested, cpus=2)
                    == ranged_outcome(path, strict, tested, cpus=1))

    def test_rows_before_an_error_are_yielded_first(self, tmp_path):
        # one row per chunk, so both reads yield every row before the bad one
        path = tmp_path / "subjects.csv"
        rows = [f"s{i},{i + 1},1,{i},M,{i}" for i in range(100)]
        rows[90] += ",9"
        path.write_text("\n".join(["id,time,event,x,g,y", *rows, ""]))
        read = {1: [], 2: []}
        for cpus, ids_read in read.items():
            with mock.patch.object(dataio, "RANGE_BYTES", 512), \
                    mock.patch.object(dataio, "CHUNK_CHARS", 1), \
                    mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
                assert dataio._line_ranges(path)[-1][2] < 92  # the bad row is in the last range
                with pytest.raises(SchemaMismatchError, match="line 92: expected 6 fields, got 7"):
                    for ids, *_ in iter_tested_columns(path, RANGE_SCHEMA, True, {0, 2}):
                        ids_read += ids
        assert read[1] == read[2] == [f"s{i}" for i in range(90)]

    def test_ranges_start_at_line_starts(self, tmp_path):
        path = tmp_path / "subjects.csv"
        text = b"h\n" + b"".join(b"x" * (i % 7) + b"\n" for i in range(200))
        path.write_bytes(text)
        with mock.patch.object(dataio, "RANGE_BYTES", 64):
            ranges = dataio._line_ranges(path)
            assert len(ranges) == len(text) // 64
        assert ranges[0][0] == 2 and ranges[-1][1] == len(text)
        for (start, stop, line), (after, _, _) in zip(ranges, ranges[1:] + [(len(text), 0, 0)]):
            assert stop == after and text[start - 1:start] == b"\n"
            assert line == text[:start].count(b"\n")

    def test_quoted_id_keeps_one_process(self, tmp_path):
        ds = mixed_dataset()
        ids = [f"s{i}" for i in range(300)]
        ids[200] = 'two\nlines, "quoted"'
        ds = SurvivalDataset(mixed_schema(), ids, [np.arange(300.0), np.arange(300) % 2],
                             np.arange(1.0, 301.0), np.arange(300) % 3 == 0)
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        with mock.patch.object(dataio, "RANGE_BYTES", 256), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}):
            assert dataio._line_ranges(path) == []
            assert_matches_reference(path, ds.schema, strict=True)
            assert load_dataset_csv(path, ds.schema).ids == ds.ids


class TestFinite:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.sampled_from(FLOAT_PIECES), max_size=6).map("".join),
                    max_size=8))
    def test_matches_float_cell_by_cell(self, cells):
        def finite(cell):
            try:
                return math.isfinite(float(cell))
            except ValueError:
                return False

        # both ways: no cell validation would flag passes, and no finite
        # column is sent to be converted whole
        assert dataio._finite(cells) == all(map(finite, cells))


class TestCsvTokenizer:
    @settings(max_examples=500, deadline=None)
    @given(csv_texts(), st.sampled_from(BUDGETS))
    def test_matches_csv_reader(self, tmp_path_factory, text, budget):
        path = tmp_path_factory.mktemp("csv") / "text.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(dataio, "CHUNK_CHARS", budget):
            assert tokenizer_outcome(path) == reader_outcome(path)

    def test_examples(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_bytes(b'h,k\n\na,b\n"c\nd",e\r\n\n"f,g",""')
        assert reader_outcome(path) == (["h", "k"], [["a", "b"], ["c\nd", "e"], ["f,g", ""]])
        for budget in BUDGETS:
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                assert tokenizer_outcome(path) == reader_outcome(path)
        path.write_bytes(b"h,k\na,b\n\nc\nd,e\n")
        for budget in BUDGETS:
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                assert tokenizer_outcome(path) == (["h", "k"], [["a", "b"], (
                    "error", "line 4: expected 2 fields, got 1")])
        limit = csv.field_size_limit()
        path.write_text("h,k\n" + "x" * (limit + 1) + ",1\n")
        assert tokenizer_outcome(path) == (["h", "k"], [
            ("error", f"line 2: field larger than field limit ({limit})")])
        with pytest.raises(csv.Error, match="field larger than field limit"):
            reader_outcome(path)

    def test_crlf_rows_stay_on_the_split_path(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_bytes(b"h,k\r\na,b\r\nc,d\r\ne,f")
        with mock.patch.object(dataio, "_reader_chunks", side_effect=AssertionError("csv.reader")):
            for budget in BUDGETS:
                with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                    assert tokenizer_outcome(path) == (
                        ["h", "k"], [["a", "b"], ["c", "d"], ["e", "f"]]), budget

    @pytest.mark.parametrize("blank", ["", "\n"], ids=["split", "csv.reader"])
    def test_first_bad_row_wins_over_a_later_bad_byte(self, tmp_path, blank):
        # whatever the chunks, as a file read in ranges must give one process's error
        path = tmp_path / "text.csv"
        path.write_bytes(f"h,k\n{blank}a,b\nc\n".encode() + b"d\xff,e\nf,g\n")
        for budget in BUDGETS:
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                assert tokenizer_outcome(path) == (["h", "k"], [["a", "b"], (
                    "error", f"line {len(blank) + 3}: expected 2 fields, got 1")]), budget

    def test_rows_before_a_csv_error_in_the_same_chunk_are_read(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "text.csv"
        path.write_text("h,k\n\na,b\nc,d\n" + "x" * (limit + 1) + ",1\n")
        for budget in BUDGETS:
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                assert tokenizer_outcome(path) == (["h", "k"], [["a", "b"], ["c", "d"], (
                    "error", f"line 5: field larger than field limit ({limit})")]), budget

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_byte_not_utf8_on_cr_only_lines_names_the_reader_line(self, tmp_path, ending):
        # CR-only lines are read by csv.reader, which counts them as lines
        path = tmp_path / "text.csv"
        text = ending.join(["h,k", "a,b", "c\udcff,d", "e,f"]) + ending
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        for budget in BUDGETS:
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                assert tokenizer_outcome(path)[1][-1] == (
                    "error", f"{path}: line 3: byte 0xff is not UTF-8"), budget

    @staticmethod
    def assert_matches_at_every_edge(path, data):
        """``read_columns`` reads ``path``, whose text after the header is
        ``data``, as ``csv.reader`` does with a block edge at every character."""
        for budget in range(1, len(data) + 2):
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                assert tokenizer_outcome(path) == reader_outcome(path), budget

    def test_crlf_pair_split_by_a_block_edge(self, tmp_path):
        data = "a,b\ncc,d\r\ne,f\ng\n"  # a block of 9 ends between the CR and the LF
        path = tmp_path / "text.csv"
        path.write_bytes(("h,k\n" + data).encode())
        assert reader_outcome(path) == (["h", "k"], [
            ["a", "b"], ["cc", "d"], ["e", "f"], ("error", "line 5: expected 2 fields, got 1")])
        self.assert_matches_at_every_edge(path, data)

    def test_quote_first_seen_in_a_later_block_with_a_line_carried(self, tmp_path):
        # csv.reader must get the line a block cuts whole, or it reads two rows
        data = 'a,b\ncc,d\n"e",f\ngg,hh\ni,j\nk\n'
        path = tmp_path / "text.csv"
        path.write_bytes(("h,k\n" + data).encode())
        assert reader_outcome(path) == (["h", "k"], [
            ["a", "b"], ["cc", "d"], ["e", "f"], ["gg", "hh"], ["i", "j"],
            ("error", "line 7: expected 2 fields, got 1")])
        self.assert_matches_at_every_edge(path, data)

    @pytest.mark.parametrize("last", ["e,f", "e", '"e",f', '"e\nf",g', "e,f,g"])
    def test_no_final_newline(self, tmp_path, last):
        data = "a,b\ncc,d\n" + last
        path = tmp_path / "text.csv"
        path.write_bytes(("h,k\n" + data).encode())
        self.assert_matches_at_every_edge(path, data)

    def test_over_long_line_without_newline_stops_reading(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("h,k\n" + "x" * 5000)
        sizes = []

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            read = fh.read
            fh.read = lambda size: sizes.append(size) or read(size)
            return fh

        limit = csv.field_size_limit(100)
        try:
            with mock.patch.object(dataio, "open", counting_open, create=True), \
                    mock.patch.object(dataio, "CHUNK_CHARS", 7):
                assert tokenizer_outcome(path) == (["h", "k"], [
                    ("error", "line 2: field larger than field limit (100)")])
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                next(reader)
                with pytest.raises(csv.Error, match=r"field larger than field limit \(100\)"):
                    next(reader)
                assert reader.line_num == 2
        finally:
            csv.field_size_limit(limit)
        assert sizes and len(sizes) <= 100 // 7 + 2  # not one read per block of the line

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_quoted_multi_line_id_across_chunks(self, tmp_path, at):
        ids = [f"s{i}" for i in range(6)]
        ids[at] = "two\nlines,\n\nand \"quotes\""
        ds = SurvivalDataset(mixed_schema(), ids, [np.arange(6.0), np.arange(6) % 2],
                             np.arange(1.0, 7.0), np.arange(6) % 3 == 0)
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        whole = load_dataset_csv(path, ds.schema)
        assert whole.ids == ds.ids
        for budget in BUDGETS:
            with mock.patch.object(dataio, "CHUNK_CHARS", budget):
                small = load_dataset_csv(path, ds.schema)
            assert small.ids == whole.ids
            for a, b in zip((*small.columns, small.times, small.events),
                            (*whole.columns, whole.times, whole.events)):
                assert a.tobytes() == b.tobytes()


CELL_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e16]))


@st.composite
def datasets(draw, ids, codes_valid):
    """Datasets of 0-8 rows over 0-3 numeric or categorical features; category
    codes are in range, or also -1 and beyond the last level."""
    features = []
    for j in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            features.append(Feature(f"x{j}", "numeric"))
        else:
            features.append(Feature(f"g{j}", "categorical",
                                    tuple(f"L{k}" for k in range(draw(st.integers(1, 3))))))
    schema = FeatureSchema(tuple(features))
    n = draw(st.integers(0, 8))
    columns = []
    for f in schema:
        top = len(f.categories) - 1
        cells = (CELL_FLOATS if f.kind == "numeric"
                 else st.integers(0, top) if codes_valid else st.integers(-1, top + 2))
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return SurvivalDataset(schema, draw(st.lists(ids, min_size=n, max_size=n, unique=True)),
                           columns, draw(st.lists(CELL_FLOATS, min_size=n, max_size=n)),
                           draw(st.lists(st.booleans(), min_size=n, max_size=n)))


PLAIN_IDS = st.text(alphabet="abs0123456789_-.", min_size=1, max_size=8)
HOSTILE_IDS = st.text(alphabet='ab,"\r\n \t', max_size=6)


class TestSubjectCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(datasets(PLAIN_IDS, codes_valid=False), st.sampled_from(BUDGETS))
    def test_matches_per_cell_reference(self, tmp_path_factory, ds, budget):
        folder = tmp_path_factory.mktemp("csv")
        with mock.patch.object(dataio, "CHUNK_CHARS", budget):
            save_dataset_csv(ds, folder / "got.csv")
        reference_save_dataset_csv(ds, folder / "want.csv")
        assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(datasets(HOSTILE_IDS, codes_valid=True))
    def test_quoted_ids_round_trip(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("csv") / "subjects.csv"
        save_dataset_csv(ds, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == list(ds.ids)
        lines = []
        for sid, row in zip(ds.ids, rows[1:]):  # csv.writer's default dialect, one row each
            written = io.StringIO()
            csv.writer(written).writerow([sid] + row[1:])
            lines.append(written.getvalue().removesuffix("\r\n") + "\n")
        assert path.read_bytes().decode().split("\n", 1)[1] == "".join(lines)
        back = load_dataset_csv(path, ds.schema)
        assert back.ids == ds.ids
        assert back.events.tolist() == ds.events.tolist()
        np.testing.assert_array_equal(back.times, ds.times)
        for a, b in zip(back.columns, ds.columns):
            np.testing.assert_array_equal(a, b)

    def test_id_with_comma_and_quote(self, tmp_path):
        schema = FeatureSchema((Feature("x", "numeric"),))
        ds = SurvivalDataset(schema, ["a,b", 'say "hi"', "plain"],
                             [np.array([1.0, 2.0, 3.0])], np.array([1.0, 2.0, 3.0]),
                             np.array([True, False, True]))
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        assert path.read_text() == ('id,time,event,x\n"a,b",1.0,1,1.0\n'
                                    '"say ""hi""",2.0,0,2.0\nplain,3.0,1,3.0\n')
        assert load_dataset_csv(path, schema).ids == ds.ids


class TestTreeJson:
    def test_round_trip_reproduces_routing(self):
        data, model = planted_model()
        tree = model.tree
        clone = tree_from_dict(json.loads(dump_json(tree_to_dict(tree))))
        assert np.array_equal(assign_leaves(clone, data), assign_leaves(tree, data))
        assert clone.leaf_ids == tree.leaf_ids
        assert clone.config == tree.config

    def test_serialized_bytes_deterministic(self):
        _, m1 = planted_model(seed=34)
        _, m2 = planted_model(seed=34)
        assert dump_json(model_to_dict(m1)) == dump_json(model_to_dict(m2))


def categorical_tree():
    """A tree grown where a three-level category sets the hazard."""
    rng = np.random.default_rng(35)
    n = 900
    level = rng.integers(0, 3, n)
    schema = FeatureSchema((Feature("x", "numeric"),
                            Feature("plan", "categorical", ("a", "b", "c"))))
    data = SurvivalDataset(schema, [f"s{i}" for i in range(n)], [rng.normal(size=n), level],
                           rng.exponential(np.array([0.2, 1.0, 5.0])[level]),
                           rng.random(n) < 0.8)
    return grow_tree(data, TreeConfig(min_leaf_subjects=40, min_leaf_events=5))


class TestReferenceSerializers:
    def test_tree_bytes_match_reference(self):
        trees = [planted_model()[1].tree, planted_model(seed=34)[1].tree,
                 categorical_tree()]
        kinds = {tree.schema[node.split.feature].kind
                 for tree in trees for node in tree.nodes() if not node.is_leaf}
        assert kinds == {"numeric", "categorical"}
        for tree in trees:
            assert dump_json(tree_to_dict(tree)) == dump_json(reference_tree_dict(tree))

    def test_result_bytes_match_reference(self):
        data, model = planted_model()
        labels = cluster_assign_dataset(model, data)
        separated = (np.arange(10) % 2, np.arange(10.0), np.ones(10, dtype=bool))
        for group, times, events in ((labels, data.times, data.events), separated):
            hr = cox_hazard_ratio(zip(times.tolist(), events.tolist(), group.tolist()))
            assert dump_json(hr.to_json_dict()) == dump_json(reference_hazard_ratio_dict(hr))
        x = one_hot(labels, model.k)
        y = data.times > np.median(data.times)
        rep = classify_and_score(logistic_fit(x, y), x, y)
        assert dump_json(rep.to_json_dict()) == dump_json(reference_classification_dict(rep))


class TestFittedObjectsImmutable:
    def test_grown_and_loaded_models_reject_mutation(self, tmp_path):
        _, model = planted_model()
        save_model(model, tmp_path / "model.json")
        for m in (model, load_model(tmp_path / "model.json")):
            with pytest.raises(AttributeError):
                m.tree.leaf_ids = range(99)
            with pytest.raises(AttributeError):
                m.tree.root = None
            with pytest.raises(TypeError):
                m.leaf_to_cluster[0] = 7
            with pytest.raises(AttributeError):
                m.k = 5
            assert m.leaf_to_cluster == model.leaf_to_cluster
            assert [n.is_leaf for n in m.tree.nodes()] == [n.is_leaf for n in model.tree.nodes()]

    def test_model_copies_its_leaf_map(self):
        _, model = planted_model()
        leaf_to_cluster = list(model.leaf_to_cluster)
        copy = dataclasses.replace(model, leaf_to_cluster=leaf_to_cluster)
        leaf_to_cluster[0] = 7
        assert copy.leaf_to_cluster == model.leaf_to_cluster


class TestModelJson:
    def test_round_trip(self, tmp_path):
        data, model = planted_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.k == model.k
        assert back.leaf_to_cluster == model.leaf_to_cluster
        assert np.array_equal(cluster_assign_dataset(back, data),
                              cluster_assign_dataset(model, data))
        for a, b in zip(back.cluster_curves, model.cluster_curves):
            assert np.array_equal(a.event_times, b.event_times)
            assert np.array_equal(a.survival, b.survival)

    @pytest.mark.parametrize("obj", [{}, {"k": 2}, {"z": [1.5, None], "a": {"b": "\u00e9"}}])
    def test_spliced_member_is_written_as_given(self, obj):
        for curves in ([], [{"t": [0.25], "s": [0.5]}], "caf\u00e9"):
            assert dump_json_spliced(obj, curves=dump_json(curves)) == \
                dump_json({**obj, "curves": curves})
        assert dump_json_spliced({"k": 1}, curves="[0.50]") == '{"curves":[0.50],"k":1}'

    def test_atomic_write_leaves_no_droppings(self, tmp_path):
        path = tmp_path / "out.json"
        save_json({"x": 1}, path)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestModelRoundTrip:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(150, 400), st.data())
    def test_save_then_load_keeps_routing_curves_and_bytes(self, tmp_path_factory, seed, n,
                                                           draw):
        rng = np.random.default_rng(seed)
        schema = FeatureSchema((Feature("x", "numeric"),
                                Feature("plan", "categorical", ("a", "b", "c")),
                                Feature("noise", "numeric")))
        x, level = rng.normal(size=n), rng.integers(0, 3, n)
        scale = np.array([0.3, 1.0, 4.0])[level] * np.where(x < 0, 1.0, 3.0)
        data = SurvivalDataset(schema, [f"s{i}" for i in range(n)],
                               [x, level, rng.normal(size=n)],
                               rng.exponential(scale), rng.random(n) < 0.85)
        tree = grow_tree(data, TreeConfig(min_leaf_subjects=20, min_leaf_events=3))
        k = draw.draw(st.integers(1, fit_cluster_model(data, tree).k), label="k")
        model = fit_cluster_model(data, tree, k=k)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        back = load_model(path)

        assert [node.is_leaf for node in back.tree.nodes()] == \
            [node.is_leaf for node in tree.nodes()]
        assert back.k == model.k and back.leaf_to_cluster == model.leaf_to_cluster
        # rows with a missing value or an unknown category take every policy's branch
        x_scored, level_scored = x.copy(), level.copy()
        x_scored[::7] = np.nan
        level_scored[::5] = rng.choice([-1, 3], size=level_scored[::5].size)
        scored = SurvivalDataset(schema, data.ids, [x_scored, level_scored, data.columns[2]],
                                 data.times, data.events)
        for unknown in (None, "majority"):
            assert np.array_equal(cluster_assign_dataset(back, scored, unknown),
                                  cluster_assign_dataset(model, scored, unknown))
        for a, b in zip(back.cluster_curves, model.cluster_curves, strict=True):
            assert a.to_json_dict() == b.to_json_dict()
        assert dump_json(model_to_dict(back)) + "\n" == path.read_text()
        again, curves = load_model_with_curves(path)
        assert dump_json(model_to_dict(again)) + "\n" == path.read_text()
        assert curves == dump_json([c.to_json_dict() for c in model.cluster_curves])
        assert dataio._curves_text(path.read_text(), json.loads(curves)) == curves
