"""Product-limit (Kaplan-Meier) estimation of survival curves.

The estimate at time t multiplies, over the distinct death times t_j <= t,
the risk-set survival fractions (n_j - d_j) / n_j, where n_j counts the
subjects still at risk just before t_j. A subject censored exactly at a
death time is kept in the risk set for that time. :func:`risk_sets` applies
this rule for the curves, the split scores, the log-rank test and Cox.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError, NoEventsError


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous step function produced by :func:`km_fit`.

    ``event_times`` are the distinct death times in increasing order and
    ``survival`` the curve value at each; the curve is 1 before the first
    death time. ``n_events`` is the total number of observed deaths,
    ``n_subjects`` the sample size the curve was fitted on.
    """

    event_times: np.ndarray
    survival: np.ndarray
    n_events: int
    n_subjects: int

    def __post_init__(self):
        et = np.asarray(self.event_times, dtype=np.float64)
        s = np.asarray(self.survival, dtype=np.float64)
        if et.ndim != 1 or et.shape != s.shape:
            raise ValueError("event_times and survival must be 1-d arrays of equal length")
        if et.size and np.any(np.diff(et) <= 0):
            raise ValueError("event_times must be strictly increasing")
        if np.any(s < 0) or np.any(s > 1) or (s.size and np.any(np.diff(s) > 0)):
            raise ValueError("survival values must be non-increasing within [0, 1]")
        et = et.copy()
        s = s.copy()
        et.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "event_times", et)
        object.__setattr__(self, "survival", s)

    def to_json_dict(self) -> dict:
        return {
            "t": self.event_times.tolist(),
            "s": self.survival.tolist(),
            "n_events": int(self.n_events),
            "n_subjects": int(self.n_subjects),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SurvivalCurve":
        return cls(np.asarray(d["t"], dtype=np.float64),
                   np.asarray(d["s"], dtype=np.float64),
                   int(d["n_events"]), int(d["n_subjects"]))


def risk_sets(times, events, members) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct death times t_j, then (G, T) int64 at-risk and death counts.

    Inputs are in time order; ``members`` is a boolean (G, n) matrix. Row g
    counts its members with time >= t_j, and those among them dying at t_j.
    """
    death_times = np.unique(times[events])
    # Segment j holds the subjects with t_j <= time < t_j+1, so its events all
    # die at t_j; reverse cumulative sums of segment counts are the risk sets.
    starts = np.searchsorted(times, death_times, side="left")
    segments = np.add.reduceat(members, starts, axis=1, dtype=np.int64)
    at_risk = np.cumsum(segments[:, ::-1], axis=1)[:, ::-1]
    deaths = np.add.reduceat(members & events, starts, axis=1, dtype=np.int64)
    return death_times, at_risk, deaths


def survival_on_grid(at_risk: np.ndarray, deaths: np.ndarray) -> np.ndarray:
    """Product-limit curve on a shared death-time grid; factor 1 where nobody is at risk."""
    factor = deaths / np.maximum(at_risk, 1)
    np.subtract(1.0, factor, out=factor)
    return np.cumprod(factor, axis=-1, out=factor)


def km_fit_arrays(times: np.ndarray, events: np.ndarray) -> SurvivalCurve:
    """Fit a survival curve from parallel time/event arrays."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    if times.size == 0:
        raise EmptySampleError("cannot fit a survival curve on an empty sample")
    if not events.any():
        raise NoEventsError("cannot fit a survival curve without observed events")
    order = np.argsort(times, kind="stable")
    death_times, (n_at_risk,), (d,) = risk_sets(times[order], events[order],
                                                np.ones((1, times.size), dtype=bool))
    survivors = n_at_risk - d
    # Consecutive death times with no censoring between them telescope exactly:
    # the product of (n_j - d_j)/n_j over such a run is survivors_end/n_start.
    # Collapsing runs keeps the uncensored estimate bit-equal to #(time > t)/n.
    breaks = np.empty(death_times.size, dtype=bool)
    breaks[0] = True
    breaks[1:] = n_at_risk[1:] != survivors[:-1]
    run_idx = np.cumsum(breaks) - 1
    run_start = n_at_risk[breaks]
    within = survivors / run_start[run_idx]
    run_end = within[np.r_[breaks[1:], True]]
    prefix = np.r_[1.0, np.cumprod(run_end)[:-1]][run_idx]
    survival = prefix * within
    return SurvivalCurve(death_times, survival, int(d.sum()), int(times.size))


def km_fit(subjects) -> SurvivalCurve:
    """Fit a survival curve from an iterable of (time, event) pairs."""
    pairs = list(subjects)
    times = np.array([t for t, _ in pairs], dtype=np.float64)
    events = np.array([bool(e) for _, e in pairs], dtype=bool)
    return km_fit_arrays(times, events)


def km_eval_many(curve: SurvivalCurve, times: np.ndarray) -> np.ndarray:
    """Right-continuous evaluation of the curve at each requested time."""
    idx = np.searchsorted(curve.event_times, np.asarray(times, dtype=np.float64), side="right") - 1
    return np.where(idx < 0, 1.0, curve.survival[np.clip(idx, 0, None)])


def km_eval(curve: SurvivalCurve, t: float) -> float:
    """Survival probability at time ``t`` (1.0 before the first death)."""
    return float(km_eval_many(curve, np.array([t]))[0])
