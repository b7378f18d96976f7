"""File formats: subject CSV with a JSON schema sidecar, tree and model JSON.

All JSON is dumped with sorted keys and compact separators so identical
objects produce identical bytes; floats round-trip exactly through repr.
Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import tempfile
from collections import deque
from contextlib import closing, contextmanager, nullcontext
from dataclasses import asdict
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, Iterator, TypeVar

import numpy as np

from .clustering import ClusterModel
from .core import CATEGORICAL, NUMERIC, Feature, FeatureSchema, Subject, SurvivalDataset
from .errors import SchemaMismatchError, SurvClustError
from .kaplan_meier import SurvivalCurve, json_count
from .tree import (CategoryTest, NumericTest, SplitCandidate, SurvivalTree,
                   TreeConfig, TreeNode)

T = TypeVar("T")
RESERVED_COLUMNS = ("id", "time", "event")
# Characters per block read: a chunk is the whole lines of one block, which
# bounds the memory of cells held as Python objects. Chunks read by
# ``csv.reader``, and chunks written, are sized to about as many characters.
CHUNK_CHARS = 1 << 16
# Bytes per range of a subject CSV that one worker process reads: a file of
# at least two ranges is read in ranges when the process may run on two or
# more CPUs (see :func:`_read_in_ranges`). On a 2-vCPU machine, in-process
# ``predict`` of the first 1, 2, 4 and 8 MiB of a 50k-row ``simulate`` CSV
# read as two ranges was faster than one process in 1, 4, 15 and 23 of 25
# runs (medians 60 against 49, 72/65, 91/94 and 130/151 ms), so a file is
# split only from twice the size where the two break even.
RANGE_BYTES = 4 << 20


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dump_json_spliced(obj: dict, **encoded: str) -> str:
    """:func:`dump_json` of ``obj`` with the members ``encoded`` names added
    as the JSON text given for each, which is written as it is."""
    members = [f"{json.dumps(key)}:{encoded[key] if key in encoded else dump_json(obj[key])}"
               for key in sorted({*obj, *encoded})]
    return "{" + ",".join(members) + "}"


@contextmanager
def atomic_open(path):
    """Text file for writing that replaces ``path`` only if the block succeeds.
    A ``path`` that is a directory (not a symlink to one) raises
    IsADirectoryError before the block runs; an OSError making or renaming
    the temp file is raised again naming ``path``."""
    if os.path.isdir(path) and not os.path.islink(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    except OSError as err:
        raise type(err)(err.errno, err.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as err:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError) and err.filename == tmp:
            raise type(err)(err.errno, err.strerror, path) from None
        raise


def save_json(obj, path):
    with atomic_open(path) as fh:
        fh.write(dump_json(obj) + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load(path, what: str, from_text: Callable[[str], T]) -> T:
    """``from_text`` of the text at ``path``; a file that is not JSON or holds
    a value ``from_text`` rejects raises :class:`SchemaMismatchError` naming it."""
    try:
        with open(path) as fh:
            return from_text(fh.read())
    except (ValueError, LookupError, TypeError, AttributeError, RecursionError,
            SurvClustError) as err:
        raise SchemaMismatchError(
            f"{path}: malformed {what} file ({type(err).__name__}: {err})") from None


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


def load_schema(path) -> FeatureSchema:
    return _load(path, "schema", lambda text: schema_from_dict(json.loads(text)))


# ------------------------------------------------------------- subjects

def _csv_field(text: str) -> str:
    """``text`` as a CSV cell, quoted as ``csv.writer``'s QUOTE_MINIMAL does."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def save_dataset_csv(dataset: SurvivalDataset, path):
    """Write the subject CSV one chunk of about ``CHUNK_CHARS`` characters at
    a time (its row count set from the chunk before), each chunk one column
    of cells at a time; an out-of-range category code is written as an
    empty cell."""
    levels = [dict(enumerate(f.categories)) for f in dataset.schema]
    with atomic_open(path) as fh:
        fh.write(",".join(RESERVED_COLUMNS + dataset.schema.names) + "\n")
        start, size = 0, 1
        while start < len(dataset):
            rows = slice(start, start + size)
            columns = [map(_csv_field, dataset.ids[rows]), map(repr, dataset.times[rows].tolist()),
                       map(("0", "1").__getitem__, dataset.events[rows].tolist())]
            columns += [map(repr, col[rows].tolist()) if f.kind == NUMERIC
                        else map(level.get, col[rows].tolist(), repeat(""))
                        for f, level, col in zip(dataset.schema, levels, dataset.columns)]
            text = "".join([",".join(row) + "\n" for row in zip(*columns)])
            fh.write(text)
            start += size
            size = size * CHUNK_CHARS // len(text) + 1


def _check_header(schema: FeatureSchema, header: list[str]) -> list[int]:
    """Positions of ``id``, ``event``, the schema's features, then ``time``."""
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
    column = {name: i for i, name in enumerate(header)}  # last one, if repeated
    return [column[name] for name in ("id", "event", *schema.names, "time")]


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


_ZEROS = str.maketrans("123456789", "0" * 9)


def _finite(cells) -> bool:
    """Whether ``float()`` reads every cell as a finite number. Its grammar
    tells no ASCII digit from another, so it reads each distinct cell once
    with the digits 1-9 read as 0. Such a pattern cannot overflow, so a cell
    with an exponent, or of 300 or more characters, is then read as it is."""
    text = ",".join(cells)
    patterns = text.translate(_ZEROS).split(",")
    if len(patterns) != len(cells):  # a cell holds a comma, or there are no cells
        return not cells
    distinct = set(patterns)
    risky = [*_cells_holding(text, "e"), *_cells_holding(text, "E")]
    if max(map(len, distinct)) >= 300:
        risky += [cell for cell in cells if len(cell) >= 300]
    return all(map(_reads_finite, chain(distinct, risky)))


def _reads_finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _cells_holding(text: str, mark: str) -> Iterator[str]:
    """Each cell of the comma-joined ``text`` that holds ``mark``."""
    at = text.find(mark)
    while at >= 0:
        end = text.find(",", at)
        if end < 0:  # the last cell
            end = len(text)
        yield text[text.rfind(",", 0, at) + 1:end]
        at = text.find(mark, end)


def _categories(cells: tuple, feature: Feature, strict: bool) -> np.ndarray:
    index = {level: i for i, level in enumerate(feature.categories)}
    codes = np.fromiter(map(index.get, cells, repeat(-1)), dtype=np.int64, count=len(cells))
    if strict and codes.min(initial=0) < 0:
        raw = cells[int(np.argmin(codes))]
        raise SchemaMismatchError(f"unknown category {raw!r} in column {feature.name!r}")
    return codes


def _tested_chunk(schema: FeatureSchema, strict: bool, tested: set, cells: list) -> tuple:
    """``(ids, events, columns, times)`` of a chunk's cells (id, event, the
    features, then time), converted one column at a time and checked in that
    order. A numeric feature whose position is not in ``tested`` is None, and
    so is ``time`` unless ``len(schema)`` is in it; those columns are only
    checked by :func:`_finite`. If that check fails, the chunk is converted
    with every position tested, which raises its error if any."""
    ids, events, *columns = cells  # the features, then time
    kinds = [f.kind for f in schema] + [NUMERIC]
    if not _finite([*chain(*[column for i, (kind, column) in enumerate(zip(kinds, columns))
                             if kind == NUMERIC and i not in tested])]):
        return _tested_chunk(schema, strict, set(range(len(kinds))), cells)
    events = _events(events)
    converted = [_categories(column, f, strict) if f.kind == CATEGORICAL
                 else _numbers(column, f.name, blank_ok=not strict) if i in tested
                 else None for i, (f, column) in enumerate(zip(schema, columns))]
    times = _numbers(columns[-1], "time", blank_ok=False) if len(schema) in tested else None
    return ids, events, converted, times


def read_columns(path, pick: Callable[[list[str]], list[int]],
                 convert: Callable[[list], T], span: tuple[int, int, int] | None = None
                 ) -> Iterator[T]:
    """``convert`` of each chunk of a CSV's non-blank rows after the header,
    given as the columns at the positions ``pick(header)`` returns, each a
    sequence of cells. With ``span``, ``(start, stop, line)``, only the rows
    in bytes ``start`` to ``stop`` of the file are read: ``start`` is a line
    start after the header, and ``line`` lines come before it.

    The file is read as UTF-8 text with ``newline=""``, each byte that is
    not UTF-8 read as a lone surrogate, in blocks of ``CHUNK_CHARS``
    characters. A chunk is the whole lines within one block; the line a
    block cuts is carried into the next. Cells are those ``csv.reader``
    yields. A chunk of plain rows is split on newlines and commas, each
    CRLF read as a newline; from the first block holding a quote, a CR
    not before a newline, a NUL, a blank line or a line longer than
    ``csv.field_size_limit()`` on, ``csv.reader`` reads the rest of the
    file, so a quoted field may span chunks; its chunks hold about one
    block's characters. A row whose field count differs from the
    header's, or a field larger than the limit, raises
    :class:`SchemaMismatchError` naming its line, after the chunk of the
    rows before it; a byte that is not UTF-8 raises it naming the file and
    its line (only a block that is not ASCII is checked). If ``convert``
    raises :class:`SchemaMismatchError`, the chunk's rows are converted
    one at a time and the first one's error is raised with its line, so
    only a single row's message is ever shown.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        _, header = next(_numbered_rows(reader, 0), (0, []))
        if (at := _bad_byte(names := "".join(header))) >= 0:
            raise _byte_error(fh.name, names, at, reader.line_num)
        picked = pick(header)
        with _open_span(path, *span[:2]) if span else nullcontext(fh) as body:
            for columns, line in _chunks(body, len(header), span[2] if span else reader.line_num):
                yield _convert(convert, [columns[i] for i in picked], line)


def _open_span(path, start: int, stop: int) -> io.TextIOWrapper:
    """Bytes ``start`` to ``stop`` of ``path`` as :func:`read_columns` reads
    text, named as ``open(path)`` names it."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = io.BytesIO(fh.read(stop - start))
    data.name = fh.name
    return io.TextIOWrapper(data, encoding="utf-8", errors="surrogateescape", newline="")


def _line_ranges(path) -> list[tuple[int, int, int]]:
    """``(start, stop, line)`` of the ranges of ``RANGE_BYTES`` to twice that
    the rows after the header of the file at ``path`` split into, found in
    one pass over its bytes: each starts at a line start, after ``line``
    lines. Empty when the file is smaller than two ranges, splits into
    fewer, or must be read in one pass: it holds a quote, as a quoted field
    may hold a line break, or a CR not before a newline, which
    ``csv.reader`` counts as a line end."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        count = size // RANGE_BYTES
        if count < 2:
            return []
        aims = iter(size * i // count for i in range(1, count))  # the first line start after each
        starts, aim, lines, at, crs, crlfs, last = [], 0, 0, 0, 0, 0, b""
        while block := fh.read(1 << 20):
            if b'"' in block:
                return []
            if b"\r" in block:  # counted only then: bytes.count is slower than numpy's
                crs += block.count(b"\r")
                crlfs += block.count(b"\r\n")
            crlfs += last == b"\r" and block.startswith(b"\n")
            newlines = np.frombuffer(block, dtype=np.uint8) == ord("\n")
            while aim is not None and (end := block.find(b"\n", max(aim - at, 0))) >= 0:
                start = at + end + 1
                if not starts or start > starts[-1][0]:
                    starts.append((start, lines + int(np.count_nonzero(newlines[:end + 1]))))
                aim = next(aims, None)
            lines += int(np.count_nonzero(newlines))
            at, last = at + len(block), block[-1:]
    starts = [(start, line) for start, line in starts if start < size]
    if crs != crlfs or len(starts) < 2:
        return []
    stops = [start for start, _ in starts[1:]] + [size]
    return [(start, stop, line) for (start, line), stop in zip(starts, stops)]


def _read_span(path, pick, convert, span) -> tuple[list, Exception | None]:
    """The chunks :func:`read_columns` gives for ``span``, then the
    :class:`SchemaMismatchError` or OSError that ended them, if any."""
    chunks = []
    try:
        for chunk in read_columns(path, pick, convert, span):
            chunks.append(chunk)
    except (SchemaMismatchError, OSError) as err:
        return chunks, err
    return chunks, None


def _read_in_ranges(path, pick: Callable[[list[str]], list[int]],
                    convert: Callable[[list], T]) -> Iterator[T]:
    """What ``read_columns(path, pick, convert)`` yields and raises, read by
    one worker process per CPU this process may run on, each reading one
    of :func:`_line_ranges` at a time, when there are two or more of both
    and processes can be forked; else read here. Chunks come in file order,
    and a range's error is raised after every earlier range's chunks, so
    the first error in the file wins. One range per worker is read ahead
    of the one being yielded. The workers are shut down when the read
    ends, fails or is dropped."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    ranges = _line_ranges(path) if cpus > 1 and hasattr(os, "fork") else []
    if not ranges:
        yield from read_columns(path, pick, convert)
        return
    # imported here: at module level they load __mp_main__ into every command
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(cpus, len(ranges))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        queued = iter(ranges)
        pending = deque(pool.submit(_read_span, path, pick, convert, span)
                        for span in islice(queued, workers))
        while pending:
            chunks, error = pending.popleft().result()
            pending.extend(pool.submit(_read_span, path, pick, convert, span)
                           for span in islice(queued, 1))
            yield from chunks
            if error is not None:
                raise error


def _bad_byte(text: str) -> int:
    """Index of the first character of ``text`` read from a byte that is not
    UTF-8, or -1."""
    if text.isascii():
        return -1
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:
        return err.start
    return -1


def _byte_error(name, text: str, at: int, line: int) -> SchemaMismatchError:
    byte = ord(text[at]) - 0xDC00  # surrogateescape's code for the byte
    return SchemaMismatchError(f"{name}: line {line}: byte 0x{byte:02x} is not UTF-8")


def _numbered_rows(reader, first: int) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` per row of ``reader``, lines counted on from ``first``;
    a ``csv.Error`` becomes :class:`SchemaMismatchError` naming its line."""
    try:
        for row in reader:
            yield first + reader.line_num, row
    except csv.Error as err:
        raise SchemaMismatchError(f"line {first + reader.line_num}: {err}") from None


def _chunks(fh, width: int, line: int) -> Iterator[tuple[list, Callable[[int], int]]]:
    """Per chunk, one sequence of cells per field and the 1-based line on
    which each row ends. A bad row's error is raised after the chunk of the
    rows before it, so the first bad row wins whatever the chunks."""
    carry = ""  # the line the last block cut
    while text := carry + (block := fh.read(CHUNK_CHARS)):
        limit = csv.field_size_limit()
        cut = text.rfind("\n") + 1 if block else len(text)  # the last line may lack "\n"
        whole = text[:cut]
        if "\r" in whole and whole.count("\r") == whole.count("\r\n"):
            whole = whole.replace("\r\n", "\n")
        if ('"' in text or "\r" in whole or "\0" in text
                or whole.startswith("\n") or "\n\n" in whole  # a blank line
                or len(text) > limit and max(map(len, text.split("\n"))) > limit):
            # the cut line completed, so that csv.reader sees it whole
            lines = io.StringIO(text + fh.readline(), newline="")
            yield from _reader_chunks(fh.name, chain(lines, fh), width, line)
            return
        text, carry = whole, text[cut:]
        if not text:
            continue
        rows = text.count("\n") + (not text.endswith("\n"))
        where = (line + 1).__add__
        line += rows
        # Each line break becomes a "\n" cell, so the rows all have ``width``
        # fields if and only if every ``width + 1``-th cell is one of them.
        cells = text.removesuffix("\n").replace("\n", ",\n,").split(",")
        good, error = rows, None
        if (len(cells) != rows * (width + 1) - 1
                or cells[width::width + 1].count("\n") != rows - 1):
            good, fields = next((i, row.count(",") + 1) for i, row in enumerate(text.split("\n"))
                                if row.count(",") != width - 1)
            error = SchemaMismatchError(f"line {where(good)}: expected {width} fields, "
                                        f"got {fields}")
        at = _bad_byte(text)
        if at >= 0 and (row := text.count("\n", 0, at)) <= good:
            good, error = row, _byte_error(fh.name, text, at, where(row))
        if good:
            yield [cells[j:good * (width + 1):width + 1] for j in range(width)], where
        if error:
            raise error


def _reader_chunks(name, lines: Iterator[str], width: int, line: int
                   ) -> Iterator[tuple[list, Callable[[int], int]]]:
    """:func:`_chunks` of the rows ``csv.reader`` reads from ``lines``."""
    numbered = ((end, row) for end, row in _numbered_rows(csv.reader(lines), line) if row)
    size, error = 1, None  # rows per chunk
    while not error:
        chunk = []
        try:
            for item in islice(numbered, size):
                chunk.append(item)
        except SchemaMismatchError as err:  # csv.reader's, on the row after the chunk
            error = err
        if not chunk:
            break
        ends, rows = zip(*chunk)
        text = "".join(map("".join, rows))
        # the next chunk: as many rows as one block holds at this chunk's
        # characters per row, its cells plus a comma or line break each
        size = len(rows) * CHUNK_CHARS // (len(text) + len(rows) * width or 1) + 1
        good = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
        if good < len(rows):
            error = SchemaMismatchError(f"line {ends[good]}: expected {width} fields, "
                                        f"got {len(rows[good])}")
        if not text.isascii():
            for i, (end, row) in enumerate(chunk[:good + 1]):
                if (at := _bad_byte(cells := "".join(row))) >= 0:
                    good, error = i, _byte_error(name, cells, at, end)
                    break
        if good:
            yield list(zip(*rows[:good])), ends.__getitem__
    if error:
        raise error


def _convert(convert: Callable[[list], T], cells: list, line: Callable[[int], int]) -> T:
    """``convert(cells)``, or the first failing row's error with its line."""
    try:
        return convert(cells)
    except SchemaMismatchError:
        for i in range(len(cells[0])):
            try:
                convert([column[i:i + 1] for column in cells])
            except SchemaMismatchError as bad:
                raise SchemaMismatchError(f"line {line(i)}: {bad}") from None
        raise


def iter_tested_columns(path, schema: FeatureSchema, strict: bool, tested: set) -> Iterator[tuple]:
    """:func:`_tested_chunk` of each chunk of a subject CSV (see
    :func:`read_columns`), read in line-aligned ranges by worker processes
    when it is large (see :func:`_read_in_ranges`).

    Strict mode rejects blank numeric cells and unknown categories; lenient
    mode stores them as NaN and -1 for :func:`validate_dataset` to report.
    Blank lines are skipped. A row with the wrong number of fields, an
    ``event`` other than 0/1 or a non-numeric ``time`` or feature cell
    raises :class:`SchemaMismatchError` naming its 1-based line.
    """
    return _read_in_ranges(path, partial(_check_header, schema),
                           partial(_tested_chunk, schema, strict, tested))


def iter_subjects_csv(path, schema: FeatureSchema, strict: bool = True) -> Iterator[Subject]:
    """Stream subjects; strict mode rejects unknown categories and blank numerics."""
    every = set(range(len(schema) + 1))
    for ids, events, columns, times in iter_tested_columns(path, schema, strict, every):
        yield from SurvivalDataset(schema, ids, columns, times, events).subjects()


def load_dataset_csv(path, schema: FeatureSchema) -> SurvivalDataset:
    """Read a subject CSV leniently: invalid cells are stored for validation."""
    return load_tested_dataset(path, schema, set(range(len(schema))))


def load_tested_dataset(path, schema: FeatureSchema, tested: set) -> SurvivalDataset | None:
    """Read a subject CSV as :func:`load_dataset_csv` does, converting only
    ``time``, the categorical features and the numeric ones at the positions
    in ``tested``: a dataset of those features alone, or None once a chunk's
    other cells are not all finite numbers. So validating it reports what
    validating every column would. Each chunk is dropped once its ids and
    columns are taken, and each column's parts once they are joined."""
    kept = [i for i, f in enumerate(schema) if f.kind == CATEGORICAL or i in tested]
    ids, parts = [], [[] for _ in range(len(kept) + 2)]
    with closing(iter_tested_columns(path, schema, False, {*tested, len(schema)})) as chunks:
        for chunk_ids, events, columns, times in chunks:
            if sum(column is not None for column in columns) > len(kept):  # converted whole
                return None
            ids += chunk_ids
            for column, part in zip(parts, (*[columns[i] for i in kept], times, events)):
                column.append(part)
    schema = FeatureSchema(tuple(schema[i] for i in kept))
    if not ids:
        return SurvivalDataset(schema, [], [()] * len(schema), (), ())
    joined = []
    while parts:
        joined.append(np.concatenate(parts.pop(0)))
    *columns, times, events = joined
    return SurvivalDataset(schema, ids, columns, times, events)


# ------------------------------------------------------------------ tree

def _node_to_dict(node: TreeNode, schema: FeatureSchema) -> dict:
    if node.is_leaf:
        return {"n_subjects": node.n_subjects, "n_events": node.n_events}
    return {"feature": schema[node.split.feature].name, **asdict(node.split.test),
            "p_value": node.split.p_value, "statistic": node.split.statistic,
            "n_candidates": node.n_candidates,
            "left": _node_to_dict(node.left, schema), "right": _node_to_dict(node.right, schema)}


def tree_to_dict(tree: SurvivalTree) -> dict:
    """The schema, the config and the nodes nested from the root; ids, leaf
    ids and leaf curves are not stored."""
    return {"schema": schema_to_dict(tree.schema), "config": asdict(tree.config),
            "root": _node_to_dict(tree.root, tree.schema)}


def tree_from_dict(d: dict) -> SurvivalTree:
    """The tree of :func:`tree_to_dict`; leaves have no curve. A split whose
    threshold is not a finite JSON number, or whose level is not the JSON
    integer of one of its feature's levels, raises :class:`SchemaMismatchError`."""
    schema = schema_from_dict(d["schema"])
    config = TreeConfig(**d["config"])

    def build(raw: dict) -> TreeNode:
        if "feature" not in raw:
            return TreeNode(n_subjects=json_count(raw["n_subjects"], "n_subjects"),
                            n_events=json_count(raw["n_events"], "n_events"))
        feature = schema.index(raw["feature"])
        numeric = schema[feature].kind == NUMERIC
        field, kinds = ("threshold", (int, float)) if numeric else ("category_index", int)
        value = raw[field]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise SchemaMismatchError(f"the split on {raw['feature']!r} has {field} {value!r}, "
                                      f"not a JSON {'number' if numeric else 'integer'}")
        test = NumericTest(float(value)) if numeric else CategoryTest(value)
        if not (math.isfinite(test.threshold) if numeric
                else 0 <= test.category_index < len(schema[feature].categories)):
            raise SchemaMismatchError(f"the split on {raw['feature']!r} cannot route: {test}")
        split = SplitCandidate(feature, test, float(raw["p_value"]), float(raw["statistic"]))
        return TreeNode(split=split, n_candidates=json_count(raw["n_candidates"], "n_candidates"),
                        left=build(raw["left"]), right=build(raw["right"]))

    return SurvivalTree(schema, build(d["root"]), config)


# ----------------------------------------------------------------- model

FORMAT_VERSION = 2


def model_to_dict(model: ClusterModel) -> dict:
    return {"format_version": FORMAT_VERSION, "tree": tree_to_dict(model.tree),
            "leaf_to_cluster": list(model.leaf_to_cluster),
            "cluster_curves": [c.to_json_dict() for c in model.cluster_curves]}


def model_from_dict(d: dict) -> ClusterModel:
    if d.get("format_version") != FORMAT_VERSION:
        raise SchemaMismatchError(f"model format_version is {d.get('format_version')!r}, "
                                  f"not {FORMAT_VERSION}: refit the model")
    return ClusterModel(tree_from_dict(d["tree"]), d["leaf_to_cluster"],
                        tuple(SurvivalCurve.from_json_dict(c) for c in d["cluster_curves"]))


def save_model(model: ClusterModel, path):
    save_json(model_to_dict(model), path)


def load_model(path) -> ClusterModel:
    return _load(path, "model", lambda text: model_from_dict(json.loads(text)))


def load_model_with_curves(path) -> tuple[ClusterModel, str]:
    """:func:`load_model`'s model, reading the file once, and its curves as
    JSON text: the file's own text of ``cluster_curves`` if ``fit`` wrote it
    (see :func:`_curves_text`), else :func:`dump_json` of the model's curves."""
    def parse(text: str) -> tuple[ClusterModel, str]:
        raw = json.loads(text)
        model = model_from_dict(raw)
        return model, (_curves_text(text, raw["cluster_curves"]) or dump_json(
            [c.to_json_dict() for c in model.cluster_curves]))
    return _load(path, "model", parse)


_CURVES_START = '{"cluster_curves":'
_CURVE_KEYS = ["n_events", "n_subjects", "s", "t"]


def _curves_text(text: str, curves: list) -> str | None:
    """The text of the ``cluster_curves`` array of the model file ``text``
    whose parsed curves are ``curves``, when the file is in the compact,
    sorted form :func:`dump_json` writes; else None.

    The array is taken to end at the first ``],"format_version":``. Each
    curve must hold only its four keys; none of their values, as
    :func:`model_from_dict` accepts them, holds an object, so no earlier
    ``],"format_version":`` is inside the array. The strings of
    the text taken must be those keys, in sorted order, curve by curve: had
    it run past the array's end it would hold another key. The file has no
    second ``cluster_curves`` key, and the text no whitespace. Numbers are
    kept as the file spells them."""
    if not text.startswith(_CURVES_START + "["):
        return None
    end = text.find('],"format_version":') + 1
    span = text[len(_CURVES_START):end]
    if (not end or any(len(curve) != len(_CURVE_KEYS) for curve in curves)
            or any(space in span for space in " \t\n\r")
            or span.split('"')[1::2] != _CURVE_KEYS * len(curves)
            or text.find('"cluster_curves":', end) >= 0):
        return None
    return span
