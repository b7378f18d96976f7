"""Two-sample statistics driving split search and leaf comparison.

The Kuiper statistic V = D+ + D- is computed directly on fitted survival
curves over the union of their death times, so censoring is absorbed by
the curves themselves. Its p-value uses the asymptotic null series with
the small-sample correction factor (sqrt(N) + 0.155 + 0.24/sqrt(N)) on the
effective event count N = n_a*n_b/(n_a+n_b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EmptySampleError, InvalidCountError, InvalidEventCountError,
                     NoEventsError)
from .kaplan_meier import km_eval_many, risk_sets

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


def kuiper_matrix(curves) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise Kuiper V and p-values of G survival curves, as G x G matrices.

    Every curve is evaluated once on the union of all the curves' death
    times; a pair's V there equals V on the pair's own union grid, since the
    extra points repeat differences the pair's grid already holds (or 0).
    Sample sizes are the curves' event counts. V is 0 and p is 1 on the
    diagonal, and both matrices are symmetric bit for bit.
    """
    grid = np.unique(np.concatenate([c.event_times for c in curves]))
    s = np.empty((len(curves), grid.size))
    for row, c in zip(s, curves):
        row[:] = km_eval_many(c, grid)
    # d[a, b] = max(0, max_t S_a(t) - S_b(t)); V = D+ + D- = d + d.T
    d = np.stack([(row - s).max(axis=1, initial=0.0) for row in s])
    v = d + d.T
    n = np.array([c.n_events for c in curves])
    return v, _kuiper_q(v, n[:, None], n[None, :])[1]


def _kuiper_q(v, n_a, n_b):
    """Validated Kuiper lambda, p = Q_KP(lambda) clipped to 1, and the
    effective event count, elementwise (lambda and p at least 1-d).

    Q_KP(lam) = 2 sum_j (4 j^2 lam^2 - 1) exp(-2 j^2 lam^2), each element
    truncated after its own first term below the tolerance; p is 1 below
    the lambda floor.
    """
    if np.any(np.asarray(n_a) < 1) or np.any(np.asarray(n_b) < 1):
        raise InvalidEventCountError("both samples need at least one event")
    if not np.all(np.asarray(v) >= 0):
        raise ValueError("Kuiper statistic must be nonnegative")
    n_eff = n_a * n_b / (n_a + n_b)
    lam = np.atleast_1d((np.sqrt(n_eff) + 0.155 + 0.24 / np.sqrt(n_eff)) * v)
    above = lam >= _LAMBDA_FLOOR
    lam_above = lam[above]
    total = np.zeros_like(lam_above)
    active = np.ones(lam_above.shape, dtype=bool)
    for j in range(1, _SERIES_MAX_TERMS + 1):
        jjll = j * j * lam_above * lam_above
        term = (4.0 * jjll - 1.0) * np.exp(-2.0 * jjll)
        total += np.where(active, term, 0.0)
        active &= np.abs(term) >= _SERIES_TERM_TOL
        if not active.any():
            break
    p = np.ones_like(lam)
    p[above] = np.minimum(2.0 * total, 1.0)
    return lam, p, n_eff


def kuiper_pvalue(v: float, n_a: int, n_b: int) -> TestResult:
    """Asymptotic p-value for Kuiper statistic ``v`` at the given event counts."""
    _, p, n_eff = _kuiper_q(v, n_a, n_b)
    return TestResult(float(v), float(p[0]), float(n_eff))


def kuiper_log_pvalue(v, n_a, n_b):
    """Natural log of :func:`kuiper_pvalue`'s p, for scalars or arrays.

    Where Q_KP is not a normal float, the log of its leading term
    2(4 lam^2 - 1) exp(-2 lam^2) plus a log1p correction for the second term
    keeps p-values that round to 0 finite and ordered by lambda.
    """
    lam, q, _ = _kuiper_q(v, n_a, n_b)
    ll = lam * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        leading = (np.log(8.0 * ll - 2.0) - 2.0 * ll
                   + np.log1p((16.0 * ll - 1.0) / (4.0 * ll - 1.0) * np.exp(-6.0 * ll)))
        out = np.where(q >= np.finfo(np.float64).tiny, np.log(q), leading)
    return out if np.ndim(v) or np.ndim(n_a) or np.ndim(n_b) else float(out[0])


def logrank_test(group_samples) -> TestResult:
    """Multi-group log-rank test; each group is an (n, 2) array of
    (time, event) rows or a list of such pairs (an event is any nonzero).

    Observed vs expected deaths per group accumulate under the
    hypergeometric model at each distinct death time; the statistic is the
    quadratic form over the first g-1 groups and the p-value comes from a
    chi-squared distribution with g-1 degrees of freedom. A degenerate
    variance (every death falling where a single group holds the whole
    risk set) reports statistic 0 and p = 1.
    """
    groups = [np.asarray(grp, dtype=np.float64) for grp in group_samples]
    if len(groups) < 2:
        raise InvalidCountError("log-rank test needs at least two groups")
    if any(len(grp) == 0 for grp in groups):
        raise EmptySampleError("log-rank groups must be non-empty")
    g = len(groups)
    times, events = np.concatenate([grp.reshape(len(grp), 2) for grp in groups]).T
    events = events != 0
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
    return TestResult(stat, _chi2_sf(stat, g - 1), total_events)


def _chi2_sf(x: float, df: int) -> float:
    """Chi-squared upper tail Q(a, y) at a = df/2, y = x/2 (A&S 26.4.4-5).

    With t_k = y^k e^-y / Gamma(k + 1), each formed in log space so that no
    factor underflows alone, Q is erfc(sqrt(y)) for odd df plus t_k summed
    over k = a - 1, a - 2, ... >= 0, and 1 - Q is t_k summed over k = a,
    a + 1, ... Below y = a, Q is 1 minus that series, so that p-values
    within rounding of 1 read 1 rather than scatter below it.
    """
    y, a = x / 2.0, df / 2
    if y <= 0:
        return 1.0

    def term(k):
        return math.exp(k * math.log(y) - y - math.lgamma(k + 1))

    if y < a:
        lower, k = 0.0, a
        while (t := term(k)) > lower * 1e-17:
            lower, k = lower + t, k + 1
        return 1.0 - lower
    half = df % 2 / 2
    total = math.erfc(math.sqrt(y)) if half else 0.0
    return total + sum(term(j + half) for j in range(df // 2))
