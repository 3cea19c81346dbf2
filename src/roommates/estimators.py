"""Monte Carlo estimators built on exact conditional stability identities.

Conditioned on the matched-partner utilities x_i, the probability that a
fixed matching is stable is the product of (1 - x_i x_j) over non-matched
pairs; conditioning two matchings jointly yields a kernel over pairs outside
both, restricted to utility vectors whose per-cycle comparisons alternate.
Those two identities drive everything here: the expected-count estimator,
the conditional two-point ratio, and the conditional instance sampler.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from ._numerics import (
    TruncatedExponential,
    batch_sizes,
    ess_from_log_weights,
    pair_log1p_sum_exact,
    row_sums,
    self_normalized_mean,
    stability_log_rows,
)
from .combinatorics import double_factorial
from .instances import (
    PreferenceProfile, RngStream, UtilityMatrix, check_agent_count, rank_from_utilities
)
from .matchings import Matching, orient, symmetric_difference


@dataclass(frozen=True)
class PartnerUtilities:
    """The length-n vector of utilities each agent assigns to its partner
    under a reference matching: values[i] = u[i, reference[i]].

    values[i] and values[reference[i]] are the two endpoints' independent
    utilities for the same pair; no symmetry is implied.
    """

    values: np.ndarray
    reference: Matching

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.reference.n,):
            raise ValueError("one utility per agent required")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("utilities must lie in [0,1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.reference.n


_DEGENERACY_FRACTION = 0.01


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo point estimate with its sampling diagnostics."""

    mean: float
    stderr: float
    samples: int
    ess: float
    degenerate: bool = False

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("standard error cannot be negative")
        if self.ess > self.samples + 1e-9:
            raise ValueError("effective sample size cannot exceed sample count")

    @classmethod
    def importance(cls, logw: np.ndarray) -> "Estimate":
        """Importance-sampling mean of the weights exp(logw), with the
        standard error of that mean."""
        shift = float(np.max(logw))
        w = np.exp(logw - shift)
        mean = math.exp(shift) * float(w.mean())
        stderr = math.exp(shift) * float(w.std(ddof=1)) / math.sqrt(len(logw))
        return cls.weighted(mean, stderr, logw)

    @classmethod
    def weighted(cls, mean: float, stderr: float, logw: np.ndarray) -> "Estimate":
        """An estimate over the draws with log-weights ``logw``: their
        effective sample size, flagged degenerate below a fixed fraction of
        the sample count."""
        ess = ess_from_log_weights(logw)
        return cls(
            mean, stderr, len(logw), ess, degenerate=ess < _DEGENERACY_FRACTION * len(logw)
        )


_GPI_CONVENTION = (
    "statistics on the raw [0,1] utility scale: sum x_i vs sqrt(n) within "
    "10 log n, max x_i vs log^2(n)/sqrt(n), sum over matched pairs of "
    "x_i x_j vs 1/2 within n^(-1/3), sum x_i^2 vs 2 within n^(-1/3)"
)


@dataclass(frozen=True)
class GpiReport:
    """The four quasirandomness sub-events on a partner-utility vector,
    with the measured statistics and the scale convention used."""

    n: int
    sum_x: float
    max_x: float
    matched_pair_sum: float
    square_sum: float
    sum_ok: bool
    max_ok: bool
    pair_ok: bool
    square_ok: bool
    convention: str = field(default=_GPI_CONVENTION, repr=False)

    @property
    def holds(self) -> bool:
        return self.sum_ok and self.max_ok and self.pair_ok and self.square_ok


def gpi_rows(X: np.ndarray, m: Matching) -> tuple[np.ndarray, np.ndarray]:
    """The quasirandomness event on each row of ``X``, a batch of
    partner-utility vectors under ``m``.  Returns the four statistics (sum,
    max, matched-pair sum, square sum) as a (4, rows) array and their band
    checks as a (4, rows) bool array; the event holds where all four do."""
    n = m.n
    logn = math.log(n)
    tol = n ** (-1.0 / 3.0)
    left, right = np.array(m.pairs()).T
    stats = np.stack(
        [X.sum(axis=1), X.max(axis=1), (X[:, left] * X[:, right]).sum(axis=1), (X * X).sum(axis=1)]
    )
    ok = np.stack(
        [
            np.abs(stats[0] - math.sqrt(n)) <= 10.0 * logn,
            stats[1] <= logn**2 / math.sqrt(n),
            np.abs(stats[2] - 0.5) <= tol,
            np.abs(stats[3] - 2.0) <= tol,
        ]
    )
    return stats, ok


def check_gpi(x: PartnerUtilities) -> GpiReport:
    """Evaluate the quasirandomness event on a partner-utility vector."""
    stats, ok = gpi_rows(x.values[None, :], x.reference)
    return GpiReport(x.n, *(float(v) for v in stats[:, 0]), *(bool(f) for f in ok[:, 0]))


def stability_product_log(x: PartnerUtilities) -> float:
    """Log-probability that the reference matching is stable conditioned on
    its partner utilities: sum over non-matched pairs of log(1 - x_i x_j).
    Returns -inf when some factor vanishes."""
    return pair_log1p_sum_exact(x.values, np.array(x.reference.partner))


def two_point_kernel_log(x: PartnerUtilities, y: PartnerUtilities) -> float | None:
    """Log of the joint-stability kernel of the two reference matchings,
    conditioned on both partner-utility vectors.

    Requires y to agree with x off the symmetric difference.  Returns None
    when the vectors violate the per-cycle alternation (a configuration of
    zero probability under joint stability).  With identical references this
    delegates to ``stability_product_log``, bit for bit.
    """
    m, m1 = x.reference, y.reference
    if m.n != m1.n:
        raise ValueError("mismatched references")
    dec = symmetric_difference(m, m1)
    off = [i for i in range(m.n) if i not in dec.vertex_set]
    if any(y.values[i] != x.values[i] for i in off):
        raise ValueError("y must agree with x off the difference vertices")
    if dec.is_empty():
        return stability_product_log(x)
    xv, yv = x.values, y.values
    if not orient(m, m1, xv, yv).valid:
        return None
    terms = []
    n = m.n
    for i in range(n):
        for j in range(i + 1, n):
            if m[i] == j or m1[i] == j:
                continue
            f = (
                1.0
                - xv[i] * xv[j]
                - yv[i] * yv[j]
                + min(xv[i], yv[i]) * min(xv[j], yv[j])
            )
            if f <= 0.0:
                return float("-inf")
            terms.append(math.log(f))
    return math.fsum(terms)


def _proposal(n: int, proposal_rate: float | None) -> TruncatedExponential:
    return TruncatedExponential(math.sqrt(n) if proposal_rate is None else proposal_rate)


def expected_count_log_weights(
    n: int, count: int, gen: np.random.Generator, proposal_rate: float | None = None
) -> np.ndarray:
    """Importance log-weights of ``count`` proposal draws for the expected
    stable-matching count: log (n-1)!! plus the log stability product of the
    reference matching, minus the draw's log proposal density."""
    prop = _proposal(n, proposal_rate)
    partner = np.array(Matching.consecutive(n).partner)
    log_df = double_factorial(n - 1).log_value
    X = prop.sample(gen, (count, n))
    # this left-to-right order is part of the output bytes
    return log_df + stability_log_rows(X, partner) - row_sums(prop.log_pdf, X)


EX_MIN_SAMPLES = 1000  # fewest samples estimate_expected_X accepts


def estimate_expected_X(
    n: int,
    samples: int,
    rng: RngStream,
    *,
    proposal_rate: float | None = None,
    batch_size: int = 4096,
) -> Estimate:
    """Importance-sampling estimate of the expected number of stable
    matchings: (n-1)!! times the integral of the stability product, sampled
    from i.i.d. truncated-exponential coordinates of rate sqrt(n).

    Log-weights fluctuate by O(1) around log E[X] under this proposal, so
    the estimator stays non-degenerate across the whole n grid.
    """
    check_agent_count(n)
    if samples < EX_MIN_SAMPLES:
        raise ValueError(f"at least {EX_MIN_SAMPLES} samples required")
    gen = rng.generator()
    batches = batch_sizes(samples, batch_size)
    logw = np.concatenate([expected_count_log_weights(n, b, gen, proposal_rate) for b in batches])
    return Estimate.importance(logw)


def estimate_conditional_two_point(
    m: Matching,
    m1: Matching,
    samples: int,
    rng: RngStream,
    *,
    proposal_rate: float | None = None,
    batch_size: int = 2048,
) -> Estimate:
    """Ratio estimate of P(m1 stable | m stable), normalized by
    2^mu * n^(-|m1 minus m|) so the asymptotic target is 1.

    Numerator and denominator share the same x draws (common random
    numbers); the new-partner utilities y are integrated by one draw per
    orientation, summing all 2^mu orientations explicitly.
    """
    if m.n != m1.n:
        raise ValueError("matchings must cover the same agents")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = m.n
    dec = symmetric_difference(m, m1)
    if dec.is_empty():
        return Estimate(1.0, 0.0, samples, float(samples))
    d = dec.total_length // 2
    if 2 * d > n ** 0.25 + 1e-9:
        warnings.warn(
            f"difference size {2 * d} exceeds n^(1/4); the normalized ratio "
            "target is outside its derivation regime",
            stacklevel=2,
        )
    log_norm = dec.mu * math.log(2.0) - d * math.log(n)
    prop = _proposal(n, proposal_rate)
    partner = np.array(m.partner)
    verts = sorted(dec.vertex_set)
    outside = np.array([i for i in range(n) if i not in dec.vertex_set], dtype=np.intp)
    new_edges = [(i, j) for i, j in m1.pairs() if m[i] != j]
    vv_pairs = [
        (i, j)
        for ai, i in enumerate(verts)
        for j in verts[ai + 1:]
        if m[i] != j and m1[i] != j
    ]
    # each cycle alternates, so the two parities of its canonical order are
    # the only candidates for its improving side
    per_cycle = [(np.array(cyc[0::2]), np.array(cyc[1::2])) for cyc in dec.cycles]

    gen = rng.generator()
    logw, log_r = [], []
    for b in batch_sizes(samples, batch_size):
        X = prop.sample(gen, (b, n))
        logw.append(stability_log_rows(X, partner) - row_sums(prop.log_pdf, X))
        xo = X[:, outside]

        base = np.zeros(b)
        for i, j in new_edges:
            base += -np.log1p(-X[:, i] * X[:, j])
        orient_logs = []
        for choice in product(range(2), repeat=dec.mu):
            a_side = np.concatenate([per_cycle[c][bit] for c, bit in enumerate(choice)])
            b_side = np.setdiff1d(verts, a_side)
            Y = X.copy()
            # improving side: uniform below x, weight x_i
            Y[:, a_side] = X[:, a_side] * gen.random((b, a_side.size))
            lo = X[:, b_side]
            yb = prop.sample_shifted(gen, lo)
            Y[:, b_side] = yb
            lr = base + np.log(X[:, a_side]).sum(axis=1)
            lr -= prop.log_pdf_shifted(yb, lo).sum(axis=1)
            # worsening side against the untouched agents
            for col, i in enumerate(b_side):
                lr += (
                    np.log1p(-yb[:, col : col + 1] * xo) - np.log1p(-X[:, i : i + 1] * xo)
                ).sum(axis=1)
            for i, j in vv_pairs:
                k = (
                    1.0
                    - X[:, i] * X[:, j]
                    - Y[:, i] * Y[:, j]
                    + np.minimum(X[:, i], Y[:, i]) * np.minimum(X[:, j], Y[:, j])
                )
                with np.errstate(divide="ignore"):
                    lr += np.log(k) - np.log1p(-X[:, i] * X[:, j])
            orient_logs.append(lr)
        stacked = np.stack(orient_logs)
        mx = stacked.max(axis=0)
        log_r.append(mx + np.log(np.exp(stacked - mx).sum(axis=0)))

    logw, log_r = np.concatenate(logw), np.concatenate(log_r)
    rshift = float(np.max(log_r))
    mean_r, stderr_r = self_normalized_mean(logw, np.exp(log_r - rshift))
    scale = math.exp(rshift - log_norm)
    return Estimate.weighted(mean_r * scale, stderr_r * scale, logw)


def _conditional_x_batch(
    m: Matching,
    count: int,
    gen: np.random.Generator,
    proposal_rate: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw partner-utility vectors from the truncated-exponential proposal
    with self-normalizing log-weights targeting the law of x conditioned on
    the reference matching being stable.  Log-weights are shifted by a
    deterministic per-n constant so they stay O(1)."""
    n = m.n
    prop = _proposal(n, proposal_rate)
    partner = np.array(m.partner)
    X = prop.sample(gen, (count, n))
    logw = stability_log_rows(X, partner) - row_sums(prop.log_pdf, X)
    typical = np.full((1, n), 1.0 / prop.rate)
    shift = float(
        stability_log_rows(typical, partner)[0] - prop.log_pdf(typical).sum()
    )
    return X, logw - shift


def _fill_conditional_pairs(
    m: Matching, x: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Complete a utility matrix given the partner utilities x, drawing each
    non-matched ordered pair (u_ij, u_ji) uniformly on the unit square minus
    the blocking rectangle [0, x_i) x [0, x_j)."""
    n = m.n
    U = np.full((n, n), np.nan)
    U[np.arange(n), np.array(m.partner)] = x
    # the non-matched pairs i < j in row-major order
    pi, pj = np.triu_indices(n, 1)
    keep = np.array(m.partner)[pi] != pj
    pi, pj = pi[keep], pj[keep]
    a = gen.random(pi.size)
    bvals = gen.random(pi.size)
    blocked = (a < x[pi]) & (bvals < x[pj])
    while blocked.any():
        idx = np.nonzero(blocked)[0]
        a[idx] = gen.random(idx.size)
        bvals[idx] = gen.random(idx.size)
        blocked[idx] = (a[idx] < x[pi[idx]]) & (bvals[idx] < x[pj[idx]])
    U[pi, pj] = a
    U[pj, pi] = bvals
    return U


def sample_instance_given_stable(
    m: Matching,
    n: int,
    rng: RngStream | np.random.Generator,
    *,
    proposal_rate: float | None = None,
) -> tuple[PreferenceProfile, float]:
    """Draw one weighted instance from the law of random preferences
    conditioned on ``m`` being stable.

    The matched utilities x come from an importance proposal (the returned
    weight is their self-normalizing factor, constant-shifted); the
    remaining utilities are then drawn exactly from the conditional law, so
    every output profile has ``m`` stable by construction.
    """
    if n != m.n:
        raise ValueError("n disagrees with the matching size")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    X, logw = _conditional_x_batch(m, 1, gen, proposal_rate)
    U = _fill_conditional_pairs(m, X[0], gen)
    profile = rank_from_utilities(UtilityMatrix(n, U))
    return profile, float(math.exp(logw[0]))


def exact_small_integral(
    m: Matching, b1: tuple[int, ...] = (), b2: tuple[int, ...] = ()
) -> Fraction:
    """Exact rational value of the stability-product integral over the unit
    cube, with optional extra first- and second-moment factors:

        integral of prod_{j in b1} x_j * prod_{j in b2} x_j^2
                    * prod_{non-matched i<j} (1 - x_i x_j) dx.

    Full polynomial expansion with variable-by-variable integration; the
    independent oracle for the importance-sampling estimators at tiny n.
    """
    n = m.n
    if n > 10:
        raise ValueError("exact expansion is limited to n <= 10")
    s1, s2 = set(b1), set(b2)
    if s1 & s2:
        raise ValueError("moment index sets must be disjoint")
    if not (s1 | s2) <= set(range(n)):
        raise ValueError("moment indices out of range")
    # Polynomial as {degree vector: coefficient}; eliminate variables in
    # increasing order, multiplying in each factor at its smaller endpoint.
    poly: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
    for v in range(n):
        deg_v = 1 if v in s1 else 2 if v in s2 else 0
        if deg_v:
            poly = {
                tuple(d + deg_v if k == v else d for k, d in enumerate(key)): c
                for key, c in poly.items()
            }
        for j in range(v + 1, n):
            if m[v] == j:
                continue
            new: dict[tuple[int, ...], Fraction] = dict(poly)
            for key, c in poly.items():
                lst = list(key)
                lst[v] += 1
                lst[j] += 1
                k2 = tuple(lst)
                prev = new.get(k2)
                new[k2] = (prev - c) if prev is not None else -c
            poly = {k: c for k, c in new.items() if c != 0}
        integrated: dict[tuple[int, ...], Fraction] = {}
        for key, c in poly.items():
            lst = list(key)
            d = lst[v]
            lst[v] = 0
            k2 = tuple(lst)
            c2 = c / (d + 1)
            prev = integrated.get(k2)
            integrated[k2] = (prev + c2) if prev is not None else c2
        poly = {k: c for k, c in integrated.items() if c != 0}
    assert set(poly) <= {(0,) * n}
    return poly.get((0,) * n, Fraction(0))
