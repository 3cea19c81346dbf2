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
# Entries per row block of the batch kernels: the series' four float64
# arrays of a block take 1 MB, 32 rows at n = 1000, and stay in a core's L2
# cache (2^15 ran the series at n = 1000 ~10% faster than 2^14 or 2^16).
_BLOCK_ENTRIES = 1 << 15


def batch_sizes(total: int, size: int) -> list[int]:
    """Sizes of the consecutive batches of at most ``size`` that cover
    ``total`` draws, in draw order."""
    return [min(size, total - lo) for lo in range(0, total, size)]


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_ENTRIES // n)


def row_sums(f, X: np.ndarray) -> np.ndarray:
    """``f(X).sum(axis=1)`` for an ``f`` that maps each row of a 2-D batch
    alone, computed on cache-sized blocks of rows, bit for bit.

    numpy sums the rows of a C-ordered array pairwise and those of an
    F-ordered one (what a gather of columns gives) one column at a time,
    but a single row always pairwise.  So every block holds two rows or
    more unless the batch has one: the last block overlaps the one before
    it instead of holding the remainder."""
    rows = max(2, _block_rows(X.shape[1]))
    last = max(len(X) - rows, 0)
    out = np.empty(len(X))
    for lo in range(0, len(X), rows):
        lo = min(lo, last)
        out[lo : lo + rows] = f(X[lo : lo + rows]).sum(axis=1)
    return out


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


def _power_series_rows(Xs: np.ndarray, k_min: int) -> tuple[np.ndarray, int]:
    """The series -sum_k (p_k^2 - p_{2k}) / (2k) on each row of ``Xs``
    (entries at most 0.5), run to the first order K >= ``k_min`` at which
    every row's geometric tail bound is below 1e-13.  Returns the sums and
    K."""
    total = np.zeros(len(Xs))
    tau2 = _SERIES_THRESHOLD**2
    Xs2 = Xs * Xs
    cur = Xs.copy()  # Xs^k
    sq = Xs2.copy()  # Xs^{2k}
    for k in range(1, _SERIES_MAX_ORDER + 1):
        p_k = cur.sum(axis=1)
        p_2k = sq.sum(axis=1)
        total -= (p_k * p_k - p_2k) / (2.0 * k)
        # later terms are at most p_k^2 tau^(2(k'-k)) / (2(k+1))
        tail = p_k * p_k * tau2 / (2.0 * (k + 1) * (1.0 - tau2))
        if k >= k_min and np.all(tail < _SERIES_ATOL):
            return total, k
        np.multiply(cur, Xs, out=cur)
        np.multiply(sq, Xs2, out=sq)
    raise RuntimeError("pair log-sum series failed to converge")


def pair_log1p_sum_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise sum of log(1 - x_i x_j) over all unordered pairs.

    Entries at or below 0.5 go through the power-sum identity

        sum_{i<j} log(1 - x_i x_j) = -sum_k (p_k^2 - p_{2k}) / (2k),
        p_k = sum_i x_i^k,

    truncated at the first order K at which every row's geometric tail
    bound drops below 1e-13; rows with larger entries get those
    coordinates' pairs corrected exactly.

    The series runs on blocks of rows that fit in cache.  Each row's sums
    do not depend on its block, so the output equals one pass over the
    whole batch when every block stops at the batch's K: the first order
    at which all blocks' bounds hold.  A block runs to at least the largest
    order seen so far, and blocks that stopped below a later, larger one
    run again; blocks go in decreasing order of their largest entry, which
    sets the order, so that second run is rare.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nrows, n = X.shape
    big = X > _SERIES_THRESHOLD
    has_big = big.any(axis=1)

    rows = _block_rows(n)
    row_max = np.max(X, axis=1, where=~big, initial=0.0)
    starts = sorted(range(0, nrows, rows), key=lambda lo: -row_max[lo : lo + rows].max())
    total = np.empty(nrows)
    order, ran = 1, dict.fromkeys(starts, 0)
    while any(k < order for k in ran.values()):
        for lo in starts:
            if ran[lo] < order:
                block = slice(lo, lo + rows)
                Xs = np.where(big[block], 0.0, X[block])
                total[block], ran[lo] = _power_series_rows(Xs, order)
                order = ran[lo]

    # the exact correction: for every pair (row, big entry b) the sum of
    # log(1 - x_b x_j) over j != b, each a C-ordered row summed as its own
    # row, in blocks as the series runs; each row's sums added up in the
    # order of its big entries, less the pairs of big entries counted twice,
    # and -inf where a product reaches 1
    rows_big = np.flatnonzero(has_big)
    if rows_big.size:
        r, b = np.nonzero(big[rows_big])
        row = rows_big[r]
        sums, hit = np.empty(len(r)), np.empty(len(r), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, len(r), rows):
                at, bp = row[lo : lo + rows], b[lo : lo + rows]
                prods = X[at] * X[at, bp][:, None]
                prods[np.arange(len(bp)), bp] = 0.0
                hit[lo : lo + rows] = (prods >= 1.0).any(axis=1)
                sums[lo : lo + rows] = np.log1p(-prods).sum(axis=1)
        count = np.bincount(r)
        ends = np.cumsum(count)
        first = ends - count
        corr = np.zeros(len(rows_big))
        for k in range(count.max()):
            more = count > k
            corr[more] += sums[first[more] + k]
        dead = np.logical_or.reduceat(hit, first)
        multi = np.flatnonzero((count > 1) & ~dead)
        vals, out = X[row, b].tolist(), corr.tolist()
        for i, lo, hi in zip(multi.tolist(), first[multi].tolist(), ends[multi].tolist()):
            v, c = vals[lo:hi], out[i]
            for a_pos, va in enumerate(v):
                for vb in v[a_pos + 1 :]:
                    c -= math.log(1.0 - va * vb)
            out[i] = c
        corr = np.array(out)
        corr[dead] = -math.inf
        total[rows_big] += corr
    return total


def matched_log1p_sum_rows(X: np.ndarray, partner) -> np.ndarray:
    """Row-wise sum of log(1 - x_i x_j) over the matched pairs only."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    idx = [(i, j) for i, j in enumerate(partner) if i < j]
    left = np.array([i for i, _ in idx], dtype=np.intp)
    right = np.array([j for _, j in idx], dtype=np.intp)
    with np.errstate(divide="ignore"):
        return row_sums(lambda b: np.log1p(-b[:, left] * b[:, right]), X)


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
        """-log1p(-u * mass) / rate in the uniforms' own array, bit for bit:
        negating the constants, not the array, keeps every sign."""
        x = gen.random(size)
        x *= -self._mass
        np.log1p(x, out=x)
        x /= -self.rate
        return x

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
