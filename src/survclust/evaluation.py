"""Evaluation instruments: Cox hazard ratio, horizon labels, and the
cluster-label classification task.

The hazard ratio comes from a single-covariate Cox partial likelihood with
Breslow tie handling, fitted by Newton-Raphson. The classification task
turns cluster labels into one-hot features for a ridge-stabilized logistic
regression fitted by IRLS and reports threshold metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SurvivalDataset
from .errors import (InvalidHorizonsError, NoEventsError, SingleClassError)
from .kaplan_meier import risk_sets

COX_TOL = 1e-10
COX_MAX_ITER = 50
COX_DIVERGENCE_BOUND = 20.0

LOGISTIC_RIDGE = 1e-6
LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_ITER = 100


@dataclass(frozen=True)
class HazardRatioResult:
    beta: float
    hazard_ratio: float
    std_err: float
    ci95: tuple[float, float]
    iterations: int
    diverged: bool = False

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta,
            "hazard_ratio": self.hazard_ratio,
            "std_err": self.std_err,
            "ci95": list(self.ci95),
            "iterations": self.iterations,
            "diverged": self.diverged,
        }


def cox_hazard_ratio(samples) -> HazardRatioResult:
    """Hazard ratio of group 1 versus group 0 from (time, event, group) triples.

    Newton-Raphson on the Breslow partial likelihood, beta starting at 0;
    stops when the step falls below 1e-10 or after 50 iterations. A fit
    wandering past |beta| > 20 is flagged as diverged (separated groups).
    """
    rows = list(samples)
    times = np.array([t for t, _, _ in rows], dtype=np.float64)
    events = np.array([bool(e) for _, e, _ in rows], dtype=bool)
    group = np.array([int(x) for _, _, x in rows], dtype=np.int64)
    if not set(np.unique(group)) <= {0, 1}:
        raise ValueError("group labels must be 0 or 1")
    for x in (0, 1):
        if not events[group == x].any():
            raise NoEventsError(f"group {x} has no observed events")

    order = np.argsort(times, kind="stable")
    # per death time: at-risk counts by group, total and group-1 deaths
    _, (n0, n1), deaths = risk_sets(times[order], events[order],
                                    group[order] == np.arange(2)[:, None])
    d, s = deaths.sum(axis=0), deaths[1]

    beta = 0.0
    iterations = 0
    diverged = False
    info = 1.0
    for iterations in range(1, COX_MAX_ITER + 1):
        w1 = n1 * np.exp(beta)
        denom = n0 + w1
        mean1 = w1 / denom
        score = float(np.sum(s - d * mean1))
        info = float(np.sum(d * mean1 * (1.0 - mean1)))
        if info <= 0:
            diverged = True
            break
        step = score / info
        beta += step
        if abs(beta) > COX_DIVERGENCE_BOUND:
            diverged = True
            break
        if abs(step) < COX_TOL:
            break

    std_err = float(1.0 / np.sqrt(info)) if info > 0 else float("inf")
    with np.errstate(over="ignore"):
        # a diverged fit legitimately yields an unbounded ratio and interval
        hazard_ratio = float(np.exp(beta))
        ci = (float(np.exp(beta - 1.96 * std_err)), float(np.exp(beta + 1.96 * std_err)))
    return HazardRatioResult(float(beta), hazard_ratio, std_err, ci, iterations, diverged)


def survival_labels(dataset: SurvivalDataset, t0: float, t1: float) -> list[tuple[str, bool]]:
    """(id, alive_at_t1) for subjects alive at t0 with a determined outcome.

    Alive at t0 means observed time strictly greater than t0. Death before
    t1 labels False; surviving to t1 or beyond (censored or not) labels
    True; censoring inside (t0, t1) leaves the outcome unknown and drops
    the subject.
    """
    if not (0 < t0 < t1):
        raise InvalidHorizonsError(f"need 0 < t0 < t1, got t0={t0}, t1={t1}")
    out: list[tuple[str, bool]] = []
    for sid, time, event in zip(dataset.ids, dataset.times, dataset.events):
        if time <= t0:
            continue
        if time >= t1:
            out.append((sid, True))
        elif event:
            out.append((sid, False))
    return out


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    """Cluster labels to an n x k one-hot design (no intercept column)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("labels out of range")
    x = np.zeros((labels.size, k))
    x[np.arange(labels.size), labels] = 1.0
    return x


def _design(features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def logistic_fit(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """IRLS fit of a ridge-stabilized logistic model; intercept weight last.

    The L2 penalty (1e-6) applies to the feature weights only, bounding
    them under perfect separation; iteration stops when the penalized
    log-likelihood moves by less than 1e-8.
    """
    y = np.asarray(labels, dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise SingleClassError("both label classes must be present")
    x = _design(features)
    n, dim = x.shape
    penalty = np.full(dim, LOGISTIC_RIDGE)
    penalty[-1] = 0.0  # intercept unpenalized
    w = np.zeros(dim)

    def objective(w):
        eta = x @ w
        # log-likelihood via logaddexp for stability
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        return ll - 0.5 * float(penalty @ (w * w))

    prev = objective(w)
    for _ in range(LOGISTIC_MAX_ITER):
        p = _sigmoid(x @ w)
        grad = x.T @ (y - p) - penalty * w
        s = np.clip(p * (1.0 - p), 1e-12, None)
        hess = (x * s[:, None]).T @ x + np.diag(penalty)
        w = w + np.linalg.solve(hess, grad)
        cur = objective(w)
        if abs(cur - prev) < LOGISTIC_TOL:
            break
        prev = cur
    return w


def predict_proba(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    return _sigmoid(_design(features) @ np.asarray(weights, dtype=np.float64))


@dataclass(frozen=True)
class ClassificationReport:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f_measure: float
    accuracy: float
    fpr: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "ClassificationReport":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total = tp + fp + tn + fn
        accuracy = (tp + tn) / total if total else 0.0
        fpr = fp / (fp + tn) if fp + tn else 0.0
        return cls(tp, fp, tn, fn, precision, recall, f, accuracy, fpr)

    def to_json_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn,
            "precision": self.precision, "recall": self.recall,
            "f_measure": self.f_measure, "accuracy": self.accuracy,
            "fpr": self.fpr,
        }


def classify_and_score(weights: np.ndarray, features: np.ndarray,
                       labels: np.ndarray, threshold: float = 0.5) -> ClassificationReport:
    """Threshold predicted probabilities and tabulate the five metrics."""
    y = np.asarray(labels, dtype=bool)
    pred = predict_proba(weights, features) >= threshold
    tp = int(np.sum(pred & y))
    fp = int(np.sum(pred & ~y))
    tn = int(np.sum(~pred & ~y))
    fn = int(np.sum(~pred & y))
    return ClassificationReport.from_counts(tp, fp, tn, fn)
