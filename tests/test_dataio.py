import csv
import dataclasses
import io
import json
import math
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
from survclust.dataio import (dump_json, iter_subjects_csv, load_dataset_csv,
                              load_model, model_to_dict, save_dataset_csv,
                              save_json, save_model, schema_from_dict,
                              schema_to_dict, tree_from_dict, tree_to_dict)
from survclust.errors import SchemaMismatchError
from survclust.evaluation import (classify_and_score, cox_hazard_ratio,
                                  logistic_fit, one_hot)
from survclust.synth import GroupSpec, SynthConfig, generate
from survclust.tree import TreeConfig, assign_leaves, grow_tree


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
        ds = load_dataset_csv(path, schema, strict=False)
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
            load_dataset_csv(path, mixed_schema(), strict=True)
        with pytest.raises(SchemaMismatchError, match="line 3: 'forty'"):
            load_dataset_csv(path, mixed_schema(), strict=False)

    @pytest.mark.parametrize("n", [dataio.CHUNK_ROWS - 1, dataio.CHUNK_ROWS,
                                   dataio.CHUNK_ROWS + 1])
    def test_chunk_boundaries_match_reference(self, tmp_path, n):
        rng = np.random.default_rng(n)
        ds = SurvivalDataset(mixed_schema(), [f"s{i}" for i in range(n)],
                             [rng.normal(size=n), rng.integers(0, 2, n)],
                             rng.exponential(size=n), rng.random(n) < 0.5)
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        assert_matches_reference(path, mixed_schema(), strict=True)

    def test_iter_subjects_matches_dataset_rows(self, tmp_path):
        ds = mixed_dataset()
        path = tmp_path / "subjects.csv"
        save_dataset_csv(ds, path)
        with mock.patch.object(dataio, "CHUNK_ROWS", 2):
            assert list(iter_subjects_csv(path, ds.schema)) == list(ds.subjects())


def outcome(parse):
    """``("ok", value)``, or the error type and, for a bad row, its message."""
    try:
        return "ok", parse()
    except SchemaMismatchError as err:
        return type(err), str(err) if str(err).startswith("line ") else None


def assert_matches_reference(path, schema, strict):
    expected = outcome(lambda: reference_subject_csv(path, schema, strict))
    got = outcome(lambda: load_dataset_csv(path, schema, strict))
    if expected[0] != "ok" or got[0] != "ok":
        assert got == expected
        return
    ids, times, events, columns = expected[1]
    ds = got[1]
    assert ds.ids == tuple(ids)
    assert ds.times.tobytes() == np.array(times, dtype=np.float64).tobytes()
    assert ds.events.tolist() == events
    for feature, col, ref in zip(schema, ds.columns, columns):
        dtype = np.float64 if feature.kind == "numeric" else np.int64
        assert col.tobytes() == np.array(ref, dtype=dtype).tobytes()


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
    @given(subject_csvs(), st.booleans(), st.sampled_from([1, 2, 3, 1024]))
    def test_matches_row_by_row_reference(self, tmp_path_factory, case, strict, chunk_rows):
        schema, header, rows, lineterminator = case
        path = tmp_path_factory.mktemp("csv") / "subjects.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=lineterminator)
            writer.writerow(header)
            writer.writerows(rows)
        with mock.patch.object(dataio, "CHUNK_ROWS", chunk_rows):
            assert_matches_reference(path, schema, strict)


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
    @given(datasets(PLAIN_IDS, codes_valid=False), st.sampled_from([1, 2, 3, 1024]))
    def test_matches_per_cell_reference(self, tmp_path_factory, ds, chunk_rows):
        folder = tmp_path_factory.mktemp("csv")
        with mock.patch.object(dataio, "CHUNK_ROWS", chunk_rows):
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
                m.tree.leaf_ids.append(99)
            with pytest.raises(AttributeError):
                m.tree.root = None
            with pytest.raises(TypeError):
                m.leaf_to_cluster[0] = 7
            with pytest.raises(AttributeError):
                m.k = 5
            assert m.leaf_to_cluster == dict(model.leaf_to_cluster)

    def test_model_copies_its_leaf_map(self):
        _, model = planted_model()
        leaf_to_cluster = dict(model.leaf_to_cluster)
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

    def test_atomic_write_leaves_no_droppings(self, tmp_path):
        path = tmp_path / "out.json"
        save_json({"x": 1}, path)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
