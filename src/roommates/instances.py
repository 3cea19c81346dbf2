"""Problem instances: utility arrays, ranked preference profiles, and file I/O.

An instance of the roommates problem on ``n`` agents (``n`` even) is a strict
ranking, per agent, of the other ``n - 1`` agents.  Random instances are
generated from an array of independent Unif[0,1] utilities ``u[i, j]``; agent
``i`` prefers ``a`` to ``b`` exactly when ``u[i, a] < u[i, b]`` (lower is
better, rank 0 is best).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from numpy.random import Generator, Philox, SeedSequence


class InvalidInstanceError(ValueError):
    """Agent count not an even integer >= 4, or malformed instance data."""


class TieError(ValueError):
    """Two entries in one agent's utility row coincide (null event for a
    continuous generator; signals a broken generator or a bad file)."""


class InstanceParseError(ValueError):
    """Instance text did not parse; message carries line and agent context."""


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Distinct ``stream_id`` values give statistically independent streams;
    the same ``(master_seed, stream_id)`` always reproduces the identical
    sequence, independent of thread or process layout.  Backed by the
    counter-based Philox generator keyed through ``SeedSequence`` hashing.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> Generator:
        seq = SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return Generator(Philox(seq))


def check_agent_count(n: int) -> None:
    """Raise InvalidInstanceError unless ``n`` is an even integer >= 4."""
    if n % 2 != 0 or n < 4:
        raise InvalidInstanceError(f"agent count must be an even integer >= 4, got {n}")


@dataclass(frozen=True)
class UtilityMatrix:
    """Off-diagonal array of utilities in [0,1]; diagonal entries are NaN,
    so the diagonal sorts last in every row.

    Row ``i`` restricted to a matching's partner column carries the vector of
    matched-partner utilities used throughout the estimators.
    """

    n: int
    u: np.ndarray

    def __post_init__(self):
        check_agent_count(self.n)
        if self.u.shape != (self.n, self.n):
            raise InvalidInstanceError(f"utility array must be {self.n}x{self.n}")
        if not np.all(np.isnan(np.diag(self.u))):
            raise InvalidInstanceError("diagonal utilities must be NaN")
        # the NaN diagonal sorts last; a NaN elsewhere stays in the slice
        srt = np.sort(self.u, axis=1)[:, : self.n - 1]
        if not np.all((srt >= 0.0) & (srt <= 1.0)):
            raise InvalidInstanceError("off-diagonal utilities must lie in [0,1]")
        tied = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if tied.any():
            raise TieError(f"tied utilities in row of agent {int(np.argmax(tied))}")
        self.u.setflags(write=False)


def _int_rows(rows, width: int) -> bool:
    """Whether every row holds ``width`` entries of type int exactly (a bool
    or a float is not one)."""
    return set(map(len, rows)) == {width} and {int}.issuperset(
        map(type, chain.from_iterable(rows))
    )


@dataclass(frozen=True)
class PreferenceProfile:
    """Strict ranked preferences: ``ranks[i]`` lists the other agents, most
    preferred first.  Agents are 0-indexed internally (1-indexed in files).
    The rows are checked, and ``rank_matrix`` holds their inverse."""

    n: int
    ranks: tuple[tuple[int, ...], ...]
    _position: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        check_agent_count(n)
        if len(self.ranks) != n:
            raise InvalidInstanceError("one ranking row required per agent")
        rows = self.ranks
        if not _int_rows(rows, n - 1):  # a bad row becomes -1s: the check names it
            rows = [row if _int_rows((row,), n - 1) else (-1,) * (n - 1) for row in rows]
        pref = np.array(rows)  # int64, or object for ints beyond its range
        cols = np.arange(n - 1)
        agents = np.arange(n)[:, None]
        bad = (np.sort(pref, axis=1) != cols + (cols >= agents)).any(axis=1)  # row i: all but i
        if bad.any():
            raise InvalidInstanceError(
                f"agent {int(np.argmax(bad))}: ranking must be a permutation of the other agents"
            )
        pref = pref.astype(np.int32)
        pos = np.full((n, n), n, dtype=np.int32)
        pos[agents, pref] = cols
        pos.setflags(write=False)
        object.__setattr__(self, "_position", pos)

    def rank_matrix(self) -> np.ndarray:
        """(n, n) int array, entry (i, a) = rank of a in i's list; n on the
        diagonal as a sentinel."""
        return self._position


def sample_utilities(n: int, rng: RngStream | Generator) -> UtilityMatrix:
    """Draw all n(n-1) off-diagonal utilities i.i.d. uniform on [0,1]."""
    check_agent_count(n)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    u = gen.random((n, n))
    np.fill_diagonal(u, np.nan)
    return UtilityMatrix(n, u)


def preference_rows(u: np.ndarray) -> np.ndarray:
    """Preference lists of (m, n) utility rows: the other agents of each row
    in ascending utility, (m, n-1), from one argsort.  Each row's own agent
    must sort last (a NaN, or any value above the others)."""
    return np.argsort(u, axis=1)[:, : u.shape[1] - 1]


def row_order(row: np.ndarray, score: np.ndarray, rows: int) -> np.ndarray:
    """The permutation that sorts entries by ``row`` (each below ``rows``),
    then by ascending ``score`` within a row.  The entries are sorted by
    score, then stably by row, which keeps each row's order exact (a key
    such as ``row + score`` rounds the score to the spacing at the row's
    size), and the row keys' narrow dtype makes the second sort a radix
    sort where they fit in 16 bits."""
    order = np.argsort(score)
    return order[np.argsort(row.astype(np.min_scalar_type(rows - 1))[order], kind="stable")]


def packed_rows(score: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For every row i of an (n, n) score array, the agents j with
    ``mask[i, j]``, in ascending score, packed in one int array: n+1 offsets
    into the array itself, then the rows' agents, row i at
    ``w[w[i]:w[i + 1]]``, in ``row_order``."""
    n = score.shape[0]
    flat = np.flatnonzero(mask)
    row_of = flat // n
    order = row_order(row_of, np.take(score, flat), n)
    w = np.empty(n + 1 + flat.size, dtype=np.intp)
    w[0] = n + 1
    np.cumsum(np.bincount(row_of, minlength=n), out=w[1 : n + 1])
    w[1 : n + 1] += n + 1
    np.remainder(flat[order], n, out=w[n + 1 :])
    return w


def preference_window(u: np.ndarray, t: float) -> np.ndarray:
    """The agents that each row of an (n, n) score array scores below ``t``,
    packed as ``packed_rows`` packs them.  A row's own agent is never
    listed, so with the diagonal above the row's other entries every window
    row is a prefix of its ``preference_rows`` row."""
    below = u < t
    np.fill_diagonal(below, False)
    return packed_rows(u, below)


def rank_from_utilities(um: UtilityMatrix) -> PreferenceProfile:
    """Convert utilities to the profile ranking each row ascending."""
    return PreferenceProfile(um.n, tuple(map(tuple, preference_rows(um.u).tolist())))


def sample_profile(n: int, rng: RngStream | Generator) -> PreferenceProfile:
    """Draw a uniform profile: each agent's list an independent uniform
    permutation.  Implemented as the rank of a fresh utility array, so the
    two generation routes are coupled through the same uniforms."""
    return rank_from_utilities(sample_utilities(n, rng))


def serialize_instance(profile: PreferenceProfile) -> str:
    """Instance text: line 1 is n; line i+1 is ``i: a b c ...`` (1-indexed,
    most preferred first).  Newline-terminated UTF-8."""
    lines = [str(profile.n)]
    for i, row in enumerate(profile.ranks):
        lines.append(f"{i + 1}: " + " ".join(str(a + 1) for a in row))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> PreferenceProfile:
    """Parse the instance format; raises InstanceParseError naming the line
    and agent on malformed input."""
    lines = text.splitlines()
    if not lines:
        raise InstanceParseError("line 1: empty input, expected agent count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise InstanceParseError(f"line 1: expected agent count, got {lines[0]!r}") from None
    try:
        check_agent_count(n)
    except InvalidInstanceError as exc:
        raise InstanceParseError(f"line 1: {exc}") from None
    if len(lines) < n + 1:
        raise InstanceParseError(f"expected {n} ranking lines, found {len(lines) - 1}")
    rows: list[tuple[int, ...]] = []
    for i in range(n):
        lineno = i + 2
        raw = lines[i + 1]
        head, sep, tail = raw.partition(":")
        if not sep:
            raise InstanceParseError(f"line {lineno}: missing ':' separator")
        try:
            agent = int(head.strip())
        except ValueError:
            raise InstanceParseError(f"line {lineno}: bad agent label {head!r}") from None
        if agent != i + 1:
            raise InstanceParseError(f"line {lineno}: expected agent {i + 1}, got {agent}")
        try:
            entries = [int(tok) for tok in tail.split()]
        except ValueError:
            raise InstanceParseError(f"line {lineno}: agent {agent}: non-integer entry") from None
        if len(entries) != len(set(entries)):
            raise InstanceParseError(f"line {lineno}: agent {agent}: duplicate entry")
        if sorted(entries) != [a for a in range(1, n + 1) if a != agent]:
            raise InstanceParseError(
                f"line {lineno}: agent {agent}: ranking is not a permutation "
                f"of the other {n - 1} agents"
            )
        rows.append(tuple(a - 1 for a in entries))
    return PreferenceProfile(n, tuple(rows))
