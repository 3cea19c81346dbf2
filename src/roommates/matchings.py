"""Perfect matchings, stability, and symmetric-difference cycle structure.

The symmetric difference of two perfect matchings on the same agents is a
disjoint union of even cycles of length at least 4 that alternate between
the two matchings.  Matchings at symmetric-difference distance one cycle
from a reference are the building blocks of the census experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Iterator, Sequence

import numpy as np

from .instances import PreferenceProfile


@dataclass(frozen=True)
class Matching:
    """A perfect matching stored as a fixed-point-free involution."""

    partner: tuple[int, ...]

    def __post_init__(self):
        n = len(self.partner)
        if n % 2 != 0:
            raise ValueError("a perfect matching needs an even number of agents")
        for i, j in enumerate(self.partner):
            if not 0 <= j < n or j == i or self.partner[j] != i:
                raise ValueError("partner array is not a fixed-point-free involution")

    @property
    def n(self) -> int:
        return len(self.partner)

    def __getitem__(self, i: int) -> int:
        return self.partner[i]

    def pairs(self) -> list[tuple[int, int]]:
        """Unordered pairs as (min, max), sorted by the smaller endpoint."""
        return [(i, j) for i, j in enumerate(self.partner) if i < j]

    @staticmethod
    def from_pairs(n: int, pairs: Sequence[tuple[int, int]]) -> "Matching":
        partner = [-1] * n
        for i, j in pairs:
            partner[i] = j
            partner[j] = i
        if any(p < 0 for p in partner):
            raise ValueError("pairs do not cover all agents")
        return Matching(tuple(partner))

    @staticmethod
    def consecutive(n: int) -> "Matching":
        """The reference matching pairing (0,1), (2,3), ..."""
        return Matching.from_pairs(n, [(2 * k, 2 * k + 1) for k in range(n // 2)])

    def to_text(self) -> str:
        """Text form ``1-2 3-4 ...`` (1-indexed, sorted by smaller endpoint)."""
        return " ".join(f"{i + 1}-{j + 1}" for i, j in self.pairs())


def _canonical_cycle(cycle: list[int]) -> tuple[int, ...]:
    """Rotate to minimum vertex first, then pick the lexicographically
    smaller of the two traversal directions."""
    k = cycle.index(min(cycle))
    fwd = cycle[k:] + cycle[:k]
    rev = [fwd[0]] + fwd[1:][::-1]
    return tuple(fwd if fwd <= rev else rev)


@dataclass(frozen=True)
class CycleDecomposition:
    """Canonical even cycles of a symmetric difference of two matchings."""

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cyc in self.cycles:
            if len(cyc) < 4 or len(cyc) % 2 != 0:
                raise ValueError("difference cycles have even length >= 4")
            if seen & set(cyc):
                raise ValueError("difference cycles must be vertex-disjoint")
            seen.update(cyc)

    @property
    def mu(self) -> int:
        """Number of cycles."""
        return len(self.cycles)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(v for cyc in self.cycles for v in cyc)

    @property
    def total_length(self) -> int:
        """Total edge count of the symmetric difference."""
        return sum(len(cyc) for cyc in self.cycles)

    def is_empty(self) -> bool:
        return not self.cycles


def symmetric_difference(m1: Matching, m2: Matching) -> CycleDecomposition:
    """Decompose the edges in exactly one of the matchings into cycles."""
    if m1.n != m2.n:
        raise ValueError("matchings must cover the same agents")
    seen = [False] * m1.n
    cycles = []
    for start in range(m1.n):
        if seen[start] or m1[start] == m2[start]:
            continue
        cyc = []
        v, use_first = start, True
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = m1[v] if use_first else m2[v]
            use_first = not use_first
        cycles.append(_canonical_cycle(cyc))
    cycles.sort(key=lambda c: c[0])
    return CycleDecomposition(tuple(cycles))


@dataclass(frozen=True)
class OrientedDifference:
    """A cycle decomposition with each difference vertex classified by
    whether its new partner improves on the old one.

    ``a_side`` holds vertices whose utility for the new partner is lower
    (better); ``b_side`` the rest.  A realizable orientation alternates
    sides around every cycle, so the two sides have equal size; ``valid``
    is False when alternation fails (a zero-probability configuration when
    both matchings are stable).
    """

    decomposition: CycleDecomposition
    a_side: frozenset[int]
    b_side: frozenset[int]
    valid: bool


def orient(
    m: Matching, m1: Matching, x: np.ndarray, y: np.ndarray
) -> OrientedDifference:
    """Classify difference vertices of ``m1`` vs ``m`` by comparing the
    matched-partner utility vectors ``x`` (under ``m``) and ``y`` (under
    ``m1``)."""
    dec = symmetric_difference(m, m1)
    a_side, b_side = set(), set()
    for v in dec.vertex_set:
        if y[v] == x[v]:
            raise ValueError(f"difference vertex {v} has equal old/new utility")
        (a_side if y[v] < x[v] else b_side).add(v)
    valid = True
    for cyc in dec.cycles:
        for k, v in enumerate(cyc):
            w = cyc[(k + 1) % len(cyc)]
            if (v in a_side) == (w in a_side):
                valid = False
    return OrientedDifference(dec, frozenset(a_side), frozenset(b_side), valid)


def blocking_mask(score: np.ndarray, own: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Blocking pairs as a (rows, n) bool array: entry (r, j) is True when
    agents v = ``rows[r]`` and j each strictly prefer the other to their
    partners.

    ``score``: (n, n) ranks or utilities, lower meaning preferred.
    ``own[v]``: the score v gives its partner.  Under strict ``<`` a matched
    pair never qualifies, and neither does a diagonal that sorts last (n in a
    rank matrix) or is NaN (utilities).  Several matchings of one instance
    are checked at once when ``own`` is (c, n) and ``rows`` (c, k), one row
    each; the result is then (c, k, n).
    """
    with np.errstate(invalid="ignore"):
        own_rows = own[rows] if own.ndim == 1 else np.take_along_axis(own, rows, 1)
        return (score[rows] < own_rows[..., None]) & (score.T[rows] < own[..., None, :])


def _partner_scores(p: PreferenceProfile, m: Matching) -> tuple[np.ndarray, np.ndarray]:
    if p.n != m.n:
        raise ValueError("profile and matching sizes differ")
    pos = p.rank_matrix()
    return pos, pos[np.arange(m.n), np.array(m.partner)]


def blocking_pairs(p: PreferenceProfile, m: Matching) -> list[tuple[int, int]]:
    """All unordered pairs (i, j), i < j in row-major order, not matched
    together where each strictly prefers the other to their current partner."""
    i, j = np.nonzero(np.triu(blocking_mask(*_partner_scores(p, m)), 1))
    return list(zip(i.tolist(), j.tolist()))


def is_stable(p: PreferenceProfile, m: Matching) -> bool:
    """True when no blocking pair exists."""
    return not blocking_mask(*_partner_scores(p, m)).any()


def single_cycle_neighbors(m: Matching, nu: int) -> Iterator[Matching]:
    """Yield every matching whose symmetric difference with ``m`` is one
    cycle of length ``2 * nu``, each exactly once.

    Streaming iterator: the number of neighbors grows like n^nu / (2 nu),
    so census experiments consume it lazily.
    """
    n = m.n
    if not 2 <= nu <= n // 2:
        raise ValueError(f"cycle half-length must be in [2, {n // 2}], got {nu}")
    edges = m.pairs()
    for combo in combinations(range(len(edges)), nu):
        first, rest = combo[0], combo[1:]
        for perm in permutations(rest):
            order = (first,) + perm
            # Orientation of the first edge is pinned; flipping it reproduces
            # the same cycle traversed backwards.
            for bits in product((0, 1), repeat=nu - 1):
                orient_bits = (0,) + bits
                ends = []
                for e_idx, bit in zip(order, orient_bits):
                    a, b = edges[e_idx]
                    ends.append((a, b) if bit == 0 else (b, a))
                partner = list(m.partner)
                for k in range(nu):
                    _, exit_v = ends[k]
                    enter_v, _ = ends[(k + 1) % nu]
                    partner[exit_v] = enter_v
                    partner[enter_v] = exit_v
                yield Matching(tuple(partner))


def iter_perfect_matchings(n: int) -> Iterator[Matching]:
    """Enumerate all (n-1)!! perfect matchings on n agents."""
    partner = [-1] * n

    def rec(i: int) -> Iterator[Matching]:
        while i < n and partner[i] >= 0:
            i += 1
        if i >= n:
            yield Matching(tuple(partner))
            return
        for j in range(i + 1, n):
            if partner[j] < 0:
                partner[i], partner[j] = j, i
                yield from rec(i + 1)
                partner[i] = partner[j] = -1

    yield from rec(0)
