"""Shared numerical kernels for the Monte Carlo estimators.

Everything here works in log space: the stability products have ~n^2/2
factors, each 1 - O(1/n), so linear-space accumulation would lose the
signal to rounding long before n reaches the experiment grid.
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_THRESHOLD = 0.5
_SERIES_ATOL = 1e-13
_SERIES_MAX_ORDER = 96


def batch_sizes(total: int, size: int) -> list[int]:
    """Sizes of the consecutive batches of at most ``size`` that cover
    ``total`` draws, in draw order."""
    return [min(size, total - lo) for lo in range(0, total, size)]


def logsumexp(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    m = np.max(a)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(a - m))))


def pair_log1p_sum_exact(x: np.ndarray, skip_partner: np.ndarray | None = None) -> float:
    """Compensated sum of log(1 - x_i x_j) over unordered pairs i < j,
    skipping pairs matched by ``skip_partner``.  Returns -inf when a factor
    vanishes.  Scalar reference path; the batched path must agree with this
    to 1e-10 relative."""
    n = len(x)
    terms = []
    for i in range(n):
        xi = x[i]
        for j in range(i + 1, n):
            if skip_partner is not None and skip_partner[i] == j:
                continue
            f = 1.0 - xi * x[j]
            if f <= 0.0:
                return float("-inf")
            terms.append(math.log(f))
    return math.fsum(terms)


def pair_log1p_sum_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise sum of log(1 - x_i x_j) over all unordered pairs.

    Entries at or below 0.5 go through the power-sum identity

        sum_{i<j} log(1 - x_i x_j) = -sum_k (p_k^2 - p_{2k}) / (2k),
        p_k = sum_i x_i^k,

    truncated once the geometric tail bound drops below 1e-13; rows with
    larger entries get those coordinates' pairs corrected exactly.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nrows, n = X.shape
    big = X > _SERIES_THRESHOLD
    has_big = big.any(axis=1)
    Xs = np.where(big, 0.0, X)

    total = np.zeros(nrows)
    tau2 = _SERIES_THRESHOLD**2
    Xs2 = Xs * Xs
    cur = Xs.copy()  # Xs^k
    sq = np.ones_like(Xs)  # Xs^{2k} after the in-loop multiply
    for k in range(1, _SERIES_MAX_ORDER + 1):
        p_k = cur.sum(axis=1)
        sq = sq * Xs2
        p_2k = sq.sum(axis=1)
        total -= (p_k * p_k - p_2k) / (2.0 * k)
        # later terms are at most p_k^2 tau^(2(k'-k)) / (2(k+1))
        tail = p_k * p_k * tau2 / (2.0 * (k + 1) * (1.0 - tau2))
        if np.all(tail < _SERIES_ATOL):
            break
        cur = cur * Xs
    else:
        raise RuntimeError("pair log-sum series failed to converge")

    for idx in np.nonzero(has_big)[0]:
        row = X[idx]
        big_idx = np.nonzero(big[idx])[0]
        corr = 0.0
        for b in big_idx:
            prods = row[b] * row
            prods[b] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log1p(-prods)
            if np.any(prods >= 1.0):
                corr = float("-inf")
                break
            corr += float(logs.sum())
        else:
            for a_pos in range(len(big_idx)):
                for b_pos in range(a_pos + 1, len(big_idx)):
                    f = 1.0 - row[big_idx[a_pos]] * row[big_idx[b_pos]]
                    corr -= math.log(f) if f > 0.0 else float("-inf")
        total[idx] += corr
    return total


def matched_log1p_sum_rows(X: np.ndarray, partner) -> np.ndarray:
    """Row-wise sum of log(1 - x_i x_j) over the matched pairs only."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    idx = [(i, j) for i, j in enumerate(partner) if i < j]
    left = X[:, [i for i, _ in idx]]
    right = X[:, [j for _, j in idx]]
    with np.errstate(divide="ignore"):
        return np.log1p(-left * right).sum(axis=1)


def stability_log_rows(X: np.ndarray, partner) -> np.ndarray:
    """Row-wise log of the conditional stability product: the sum of
    log(1 - x_i x_j) over non-matched pairs."""
    all_pairs = pair_log1p_sum_rows(X)
    matched = matched_log1p_sum_rows(X, partner)
    out = all_pairs - matched
    out[~np.isfinite(all_pairs)] = float("-inf")
    return out


class TruncatedExponential:
    """Exponential distribution of the given rate truncated to [0, 1]."""

    def __init__(self, rate: float):
        if not 0 < rate < math.inf:
            raise ValueError(f"proposal rate must be positive and finite, got {rate}")
        self.rate = rate
        self._mass = -math.expm1(-rate)  # P(Exp(rate) <= 1)

    def sample(self, gen: np.random.Generator, size) -> np.ndarray:
        u = gen.random(size)
        return -np.log1p(-u * self._mass) / self.rate

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        return math.log(self.rate) - self.rate * np.asarray(x) - math.log(self._mass)

    def sample_shifted(self, gen: np.random.Generator, lo: np.ndarray) -> np.ndarray:
        """Draw from Exp(rate) truncated to (lo, 1), one per entry of lo."""
        lo = np.asarray(lo, dtype=float)
        mass = -np.expm1(-self.rate * (1.0 - lo))
        u = gen.random(lo.shape)
        return lo - np.log1p(-u * mass) / self.rate

    def log_pdf_shifted(self, x: np.ndarray, lo: np.ndarray) -> np.ndarray:
        mass = -np.expm1(-self.rate * (1.0 - np.asarray(lo)))
        return math.log(self.rate) - self.rate * (np.asarray(x) - lo) - np.log(mass)


def ess_from_log_weights(logw: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2 of unnormalized weights."""
    logw = np.asarray(logw, dtype=float)
    finite = logw[np.isfinite(logw)]
    if finite.size == 0:
        return 0.0
    return float(math.exp(2.0 * logsumexp(finite) - logsumexp(2.0 * finite)))


def self_normalized_mean(logw: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Self-normalized importance estimate of E[value] with its standard
    error (delta-method: sqrt(sum wn^2 (v - mean)^2))."""
    logw = np.asarray(logw, dtype=float)
    values = np.asarray(values, dtype=float)
    m = np.max(logw)
    w = np.exp(logw - m)
    wn = w / w.sum()
    mean = float(np.sum(wn * values))
    stderr = float(math.sqrt(np.sum((wn * (values - mean)) ** 2)))
    return mean, stderr
