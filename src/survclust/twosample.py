"""Two-sample statistics driving split search and leaf comparison.

The Kuiper statistic V = D+ + D- is computed directly on fitted survival
curves over the union of their death times, so censoring is absorbed by
the curves themselves. Its p-value uses the asymptotic null series with
the small-sample correction factor (sqrt(N) + 0.155 + 0.24/sqrt(N)) on the
effective event count N = n_a*n_b/(n_a+n_b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from .errors import (EmptySampleError, InvalidAlphaError, InvalidCountError,
                     InvalidEventCountError, NoEventsError)
from .kaplan_meier import SurvivalCurve, km_eval_many, risk_sets

# Series truncation: below this term magnitude (or past _SERIES_MAX_TERMS)
# the tail is far below p-value comparison granularity.
_SERIES_TERM_TOL = 1e-12
_SERIES_MAX_TERMS = 100
# Below this lambda the series is numerically indistinguishable from 1.
_LAMBDA_FLOOR = 0.4


@dataclass(frozen=True)
class TestResult:
    """Statistic, p-value, and the sample-size proxy behind the p-value."""

    statistic: float
    p_value: float
    effective_n: float


def kuiper_statistic(curve_a: SurvivalCurve, curve_b: SurvivalCurve) -> float:
    """Kuiper V between two survival curves, evaluated on their union grid."""
    grid = np.union1d(curve_a.event_times, curve_b.event_times)
    diff = km_eval_many(curve_a, grid) - km_eval_many(curve_b, grid)
    d_plus = max(float(diff.max(initial=0.0)), 0.0)
    d_minus = max(float((-diff).max(initial=0.0)), 0.0)
    return d_plus + d_minus


def _kuiper_lambda(v, n_a, n_b):
    """Validated Kuiper lambda and effective event count, elementwise."""
    if np.any(np.asarray(n_a) < 1) or np.any(np.asarray(n_b) < 1):
        raise InvalidEventCountError("both samples need at least one event")
    if np.any(np.asarray(v) < 0):
        raise ValueError("Kuiper statistic must be nonnegative")
    n_eff = n_a * n_b / (n_a + n_b)
    return (np.sqrt(n_eff) + 0.155 + 0.24 / np.sqrt(n_eff)) * v, n_eff


def _kuiper_series(lam: np.ndarray) -> np.ndarray:
    """Q_KP(lam) = 2 sum_j (4 j^2 lam^2 - 1) exp(-2 j^2 lam^2), each element
    truncated after its own first term below the tolerance."""
    total = np.zeros_like(lam)
    active = np.ones(lam.shape, dtype=bool)
    for j in range(1, _SERIES_MAX_TERMS + 1):
        jjll = j * j * lam * lam
        term = (4.0 * jjll - 1.0) * np.exp(-2.0 * jjll)
        total += np.where(active, term, 0.0)
        active &= np.abs(term) >= _SERIES_TERM_TOL
        if not active.any():
            break
    return 2.0 * total


def kuiper_pvalue(v: float, n_a: int, n_b: int) -> TestResult:
    """Asymptotic p-value for Kuiper statistic ``v`` at the given event counts."""
    lam, n_eff = _kuiper_lambda(v, n_a, n_b)
    p = 1.0 if lam < _LAMBDA_FLOOR else min(float(_kuiper_series(np.array([lam]))[0]), 1.0)
    return TestResult(float(v), p, float(n_eff))


def kuiper_log_pvalue(v, n_a, n_b):
    """Natural log of :func:`kuiper_pvalue`'s p, for scalars or arrays.

    Where Q_KP is not a normal float, the log of its leading term
    2(4 lam^2 - 1) exp(-2 lam^2) plus a log1p correction for the second term
    keeps p-values that round to 0 finite and ordered by lambda.
    """
    lam = np.atleast_1d(_kuiper_lambda(v, n_a, n_b)[0])
    above = lam >= _LAMBDA_FLOOR
    q = np.ones_like(lam)
    q[above] = _kuiper_series(lam[above])
    ll = lam * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        leading = (np.log(8.0 * ll - 2.0) - 2.0 * ll
                   + np.log1p((16.0 * ll - 1.0) / (4.0 * ll - 1.0) * np.exp(-6.0 * ll)))
        out = np.where(q >= np.finfo(np.float64).tiny, np.log(q), leading)
    return out if np.ndim(v) or np.ndim(n_a) or np.ndim(n_b) else float(out[0])


def kuiper_test(curve_a: SurvivalCurve, curve_b: SurvivalCurve) -> TestResult:
    """Kuiper test between two curves, using their event counts as sample sizes."""
    v = kuiper_statistic(curve_a, curve_b)
    return kuiper_pvalue(v, curve_a.n_events, curve_b.n_events)


def logrank_test(group_samples) -> TestResult:
    """Multi-group log-rank test on lists of (time, event) samples.

    Observed vs expected deaths per group accumulate under the
    hypergeometric model at each distinct death time; the statistic is the
    quadratic form over the first g-1 groups and the p-value comes from a
    chi-squared distribution with g-1 degrees of freedom. A degenerate
    variance (every death falling where a single group holds the whole
    risk set) reports statistic 0 and p = 1.
    """
    groups = [list(g) for g in group_samples]
    if len(groups) < 2:
        raise InvalidCountError("log-rank test needs at least two groups")
    if any(len(g) == 0 for g in groups):
        raise EmptySampleError("log-rank groups must be non-empty")
    g = len(groups)
    times = np.array([t for grp in groups for t, _ in grp], dtype=np.float64)
    events = np.array([bool(e) for grp in groups for _, e in grp], dtype=bool)
    labels = np.repeat(np.arange(g), [len(grp) for grp in groups])
    total_events = float(events.sum())
    if total_events == 0:
        raise NoEventsError("log-rank test needs at least one event overall")

    order = np.argsort(times, kind="stable")
    _, at_risk, deaths = risk_sets(times[order], events[order],
                                   labels[order] == np.arange(g)[:, None])
    n_tot = at_risk.sum(axis=0)
    d_tot = deaths.sum(axis=0)
    p = at_risk / n_tot
    observed = deaths.sum(axis=1)
    expected = (p * d_tot).sum(axis=1)
    # hypergeometric variance factor; zero when only one subject is at risk
    scale = np.where(n_tot > 1, d_tot * (n_tot - d_tot) / np.maximum(n_tot - 1.0, 1.0), 0.0)
    ps = p * scale
    cov = np.diag(ps.sum(axis=1)) - ps @ p.T

    z = (observed - expected)[: g - 1]
    v = cov[: g - 1, : g - 1]
    if not np.any(np.abs(v) > 0):
        return TestResult(0.0, 1.0, total_events)
    stat = float(z @ np.linalg.pinv(v) @ z)
    if not np.isfinite(stat) or stat < 0:
        return TestResult(0.0, 1.0, total_events)
    p = float(chi2.sf(stat, df=g - 1))
    return TestResult(stat, p, total_events)


def bonferroni_threshold(alpha: float, m: int) -> float:
    """Family-wise corrected significance level alpha / m."""
    if not (0 < alpha <= 1):
        raise InvalidAlphaError(f"alpha must be in (0, 1], got {alpha}")
    if m < 1 or int(m) != m:
        raise InvalidCountError(f"test count must be a positive integer, got {m}")
    return alpha / m
