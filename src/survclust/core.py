"""Shared data model: feature schemas, subjects, and censored-lifetime datasets.

A dataset is stored column-wise (one numpy array per feature plus time and
event arrays) and is immutable after construction. Row-level views are
materialized as :class:`Subject` objects on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Sequence

import numpy as np

from .errors import SchemaMismatchError

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Feature:
    """One column of the schema: a name plus numeric/categorical kind."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("feature name must be non-empty")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == CATEGORICAL:
            if len(self.categories) < 1:
                raise ValueError(f"categorical feature {self.name!r} needs at least one category")
            if len(set(self.categories)) != len(self.categories):
                raise ValueError(f"categorical feature {self.name!r} has duplicate categories")
        elif self.categories:
            raise ValueError(f"numeric feature {self.name!r} cannot declare categories")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered, immutable list of features. Category order is significant."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[Feature]:
        return iter(self.features)

    def __getitem__(self, i: int) -> Feature:
        return self.features[i]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class Subject:
    """One individual: feature values, observed time, and event flag.

    ``values`` holds floats for numeric features and integer category
    indices for categorical ones, in schema order. ``event`` is True when
    the death was observed and False when the time is right-censored.
    """

    id: str
    values: tuple
    time: float
    event: bool


class SurvivalDataset:
    """Immutable censored-lifetime sample bound to a schema."""

    def __init__(self, schema: FeatureSchema, ids: Sequence[str],
                 columns: Sequence[np.ndarray], times: np.ndarray, events: np.ndarray):
        n = len(ids)
        if len(columns) != len(schema):
            raise SchemaMismatchError(
                f"expected {len(schema)} feature columns, got {len(columns)}")
        cols = []
        for feature, col in zip(schema, columns):
            arr = np.asarray(col, dtype=np.float64 if feature.kind == NUMERIC else np.int64)
            if arr.shape != (n,):
                raise SchemaMismatchError(
                    f"column {feature.name!r} has shape {arr.shape}, expected ({n},)")
            arr = arr.copy()
            arr.flags.writeable = False
            cols.append(arr)
        times = np.asarray(times, dtype=np.float64).copy()
        events = np.asarray(events, dtype=bool).copy()
        if times.shape != (n,) or events.shape != (n,):
            raise SchemaMismatchError("times/events length does not match ids")
        times.flags.writeable = False
        events.flags.writeable = False
        self.schema = schema
        self.ids = tuple(ids)
        self.columns = tuple(cols)
        self.times = times
        self.events = events

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    def subjects(self) -> Iterator[Subject]:
        columns = [col.tolist() for col in self.columns]
        for sid, time, event, *values in zip(self.ids, self.times.tolist(),
                                             self.events.tolist(), *columns):
            yield Subject(sid, tuple(values), time, event)

    def subset_mask(self, mask: np.ndarray) -> "SurvivalDataset":
        """Row subset in original order; shares the schema."""
        mask = np.asarray(mask, dtype=bool)
        ids = tuple(compress(self.ids, mask.tolist()))
        columns = [col[mask] for col in self.columns]
        return SurvivalDataset(self.schema, ids, columns, self.times[mask], self.events[mask])


@dataclass(frozen=True)
class Violation:
    """One invariant breach; ``subject_id`` is None for dataset-level issues."""

    subject_id: str | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_dataset(dataset: SurvivalDataset) -> ValidationReport:
    """Check every dataset invariant, reporting violations as data.

    Covers per-subject time validity, missing or out-of-range feature
    values, duplicate ids, and the requirement of at least one observed
    event.
    """
    ids = dataset.ids
    duplicate = np.zeros(len(ids), dtype=bool)
    if len(set(ids)) < len(ids):
        duplicate[:] = True
        duplicate[np.unique(np.array(ids, dtype=object), return_index=True)[1]] = False
    nonfinite = ~np.isfinite(dataset.times)
    # per row: duplicate id, then its time; row-major nonzero keeps that order
    rows, kinds = np.nonzero(np.column_stack([duplicate, nonfinite,
                                              ~nonfinite & (dataset.times < 0)]))
    messages = ("duplicate id", "non-finite time", "negative time")
    out = [Violation(ids[i], messages[k]) for i, k in zip(rows.tolist(), kinds.tolist())]
    for feature, col in zip(dataset.schema, dataset.columns):
        if feature.kind == NUMERIC:
            bad = ~np.isfinite(col)
            message = f"missing or non-finite value for feature {feature.name!r}"
        else:
            bad = (col < 0) | (col >= len(feature.categories))
            message = f"unknown category for feature {feature.name!r}"
        out.extend(Violation(ids[i], message) for i in np.flatnonzero(bad).tolist())
    if len(dataset) == 0:
        out.append(Violation(None, "empty dataset"))
    elif not dataset.events.any():
        out.append(Violation(None, "no observed events"))
    return ValidationReport(tuple(out))
