"""Exact counting for matchings and difference cycles, with log-scale twins.

All closed-form counts come with independent brute-force oracles in the test
suite; the pair census here is itself the oracle for the overlap bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import check_agent_count
from .matchings import Matching, single_cycle_neighbors


@dataclass(frozen=True)
class CountValue:
    """An exact arbitrary-precision count plus its natural log.

    ``exact`` is omitted only in regimes where materializing the integer is
    pointless; when present, ``log_value`` agrees with ``log(exact)`` to
    1e-12 relative.
    """

    log_value: float
    exact: int | None = None

    def __int__(self) -> int:
        if self.exact is None:
            raise ValueError("no exact value materialized")
        return self.exact


_EXACT_LIMIT = 10_000  # beyond this, only the log is materialized


def double_factorial(m: int) -> CountValue:
    """Product of the odd integers up to ``m`` (``m`` odd, >= 1): the number
    of perfect matchings on ``m + 1`` labeled vertices."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"argument must be an odd integer >= 1, got {m}")
    k = (m - 1) // 2
    log_value = math.lgamma(m + 1) - k * math.log(2.0) - math.lgamma(k + 1)
    exact = None
    if m <= _EXACT_LIMIT:
        exact = 1
        for j in range(3, m + 1, 2):
            exact *= j
    return CountValue(log_value, exact)


def single_cycle_count(n: int, nu: int) -> CountValue:
    """Number of matchings at symmetric-difference distance one cycle of
    length 2*nu from any fixed matching on n agents:
    C(n/2, nu) * ((nu-1)!/2) * 2^nu."""
    check_agent_count(n)
    if not 2 <= nu <= n // 2:
        raise ValueError(f"cycle half-length must be in [2, {n // 2}], got {nu}")
    log_value = (
        math.lgamma(n // 2 + 1)
        - math.lgamma(nu + 1)
        - math.lgamma(n // 2 - nu + 1)
        + math.lgamma(nu)
        + (nu - 1) * math.log(2.0)
    )
    exact = None
    if n <= _EXACT_LIMIT:
        exact = math.comb(n // 2, nu) * math.factorial(nu - 1) * 2 ** (nu - 1)
    return CountValue(log_value, exact)


def harmonic(m: int) -> float:
    """The m-th harmonic number, summed exactly."""
    if m < 1:
        raise ValueError(f"harmonic number needs m >= 1, got {m}")
    return math.fsum(1.0 / j for j in range(1, m + 1))


def overlap_pair_bound(n: int, nu1: int, nu2: int, t: int, s: int) -> float:
    """Log of the leading-order upper bound on the number of ordered pairs
    of single cycles of half-lengths (nu1, nu2) sharing t new edges in s
    runs: (n^(nu1+nu2-t) / (nu1 nu2)) * (t nu1 nu2 / n)^s.

    One-sided: callers compare census counts against this value times an
    explicit slack factor, since the bound's lower-order constant is
    unspecified.  ``t = nu1`` is admitted so the identical-cycle census
    bucket can be compared too.
    """
    if not nu1 <= nu2:
        raise ValueError("cycle half-lengths must satisfy nu1 <= nu2")
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    if t > nu1:
        raise ValueError(f"shared edges cannot exceed the shorter cycle: t={t} > nu1={nu1}")
    return (
        (nu1 + nu2 - t) * math.log(n)
        - math.log(nu1 * nu2)
        + s * (math.log(t * nu1 * nu2) - math.log(n))
    )


def _diff_partner_rows(reference: Matching, nu: int) -> np.ndarray:
    """All single-cycle neighbors of half-length nu, encoded as int8 rows of
    new partners (-1 where the neighbor agrees with the reference)."""
    ref = np.array(reference.partner, dtype=np.int8)
    rows = []
    for nb in single_cycle_neighbors(reference, nu):
        arr = np.array(nb.partner, dtype=np.int8)
        rows.append(np.where(arr != ref, arr, -1))
    return np.array(rows, dtype=np.int8)


def brute_pair_census(n: int, nu1: int, nu2: int) -> dict[tuple[int, int], int]:
    """Exhaustive census of ordered pairs of single-cycle neighbors keyed by
    (shared new-edge count t, run count s); the disjoint bucket is keyed
    (0, 0).  Reference matching is (0,1)(2,3)...; counts are reference-free
    by symmetry."""
    if n > 12:
        raise ValueError("pair census is exhaustive; capped at n <= 12")
    check_agent_count(n)
    reference = Matching.consecutive(n)
    rows1 = _diff_partner_rows(reference, nu1)
    rows2 = _diff_partner_rows(reference, nu2) if nu2 != nu1 else rows1
    max_t = nu1 + 1
    acc = np.zeros((max_t + 1, max_t + 1), dtype=np.int64)
    chunk = max(1, (1 << 22) // (rows2.shape[0] * n))
    for lo in range(0, rows1.shape[0], chunk):
        part = rows1[lo : lo + chunk]
        marked = (part[:, None, :] == rows2[None, :, :]) & (part[:, None, :] >= 0)
        t = marked.sum(axis=2, dtype=np.int16) // 2
        # A run of shared edges loses one component per junction: a matched
        # reference pair whose two endpoints both sit on shared new edges.
        junctions = (marked[:, :, 0::2] & marked[:, :, 1::2]).sum(axis=2, dtype=np.int16)
        s = t - junctions
        s[(t > 0) & (s == 0)] = 1  # the fully shared (identical) cycle is one run
        np.add.at(acc, (t.ravel(), s.ravel()), 1)
    out: dict[tuple[int, int], int] = {}
    for t in range(max_t + 1):
        for s in range(max_t + 1):
            if acc[t, s]:
                out[(int(t), int(s))] = int(acc[t, s])
    return out
