"""Deciding and counting stable matchings.

``irving_solve`` is the polynomial-time two-phase decision procedure
(proposal rounds, then all-or-nothing rotation elimination).  It is
deliberately cross-checked against ``enumerate_stable``, an independent
pruned exhaustive search that never reduces preference tables, so the two
share no logic beyond the blocking-pair definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import PreferenceProfile
from .matchings import Matching, symmetric_difference


class ResourceCapError(RuntimeError):
    """Exhaustive enumeration requested beyond the configured agent cap."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the decision procedure.

    ``matching`` is a stable matching when one exists (which particular one
    is unspecified), else None.  The counters record phase-1 proposal events
    and phase-2 rotation eliminations.
    """

    matching: Matching | None
    phase1_proposals: int
    eliminated_rotations: int

    @property
    def found(self) -> bool:
        return self.matching is not None


@dataclass(frozen=True)
class CensusResult:
    """Exhaustive stable-matching count, optionally with the matchings and
    a histogram of their distances to a reference matching keyed by
    (cycle count, total symmetric-difference edge count)."""

    X: int
    stable_list: tuple[Matching, ...] | None = None
    per_distance: dict[tuple[int, int], int] | None = None

    def single_cycle_marginal(self, nu: int) -> int:
        """Count of stable matchings one cycle of length 2*nu from the
        reference (requires per_distance)."""
        if self.per_distance is None:
            raise ValueError("census was run without a reference matching")
        return self.per_distance.get((1, 2 * nu), 0)


def irving_decide(pref: np.ndarray, score: np.ndarray):
    """Array-level core of the decision procedure.

    ``pref``: (n, n-1) rows of agents in preference order (best first).
    ``score``: (n, n) numbers consistent with that order: score[i][j] is
    lower the more i prefers j (raw utilities and rank positions both
    qualify).  Working with score thresholds instead of rank positions
    keeps the hot path free of an auxiliary rank-matrix build.  Scalars
    are read through memoryviews, which copy nothing and return Python
    numbers faster than numpy scalar indexing.
    Returns (partner list or None, proposal count, rotation count).
    """
    n = pref.shape[0]
    last_pos = n - 2
    P = memoryview(pref)
    S = memoryview(score)
    # ws[y]: y's table is truncated strictly below this score
    ws = [float("inf")] * n
    holder = [-1] * n
    nxt = [0] * n
    proposals = 0

    # Phase 1: proposal chains with truncation below each held proposal.
    # An agent is exhausted once its pointer enters the region of its own
    # row lying strictly below its held proposal.
    for x0 in range(n):
        x = x0
        while x != -1:
            pos = nxt[x]
            thr = ws[x]
            y = -1
            while pos <= last_pos:
                y = P[x, pos]
                if S[x, y] > thr:
                    pos = n
                    break
                if S[y, x] <= ws[y]:
                    break
                pos += 1
            nxt[x] = pos
            if pos > last_pos:
                return None, proposals, 0  # rejected by every admissible agent
            proposals += 1
            h = holder[y]
            holder[y] = x
            ws[y] = S[y, x]
            if h == -1:
                x = -1
            else:
                nxt[h] += 1
                x = h
    # At phase-1 end each agent holds exactly one proposal, sitting at the
    # end of its reduced row; recover those positions (worst_pos[x]: last
    # admissible position in x's own row) in one pass.
    worst_pos = (pref == np.asarray(holder, dtype=pref.dtype)[:, None]).argmax(axis=1).tolist()

    # Phase-2 table: entry (i, j) is alive iff both sides admit it.  Entries
    # only ever die, so every scan pointer below moves one way.
    fp = nxt  # phase 1 leaves each agent at its first live position
    sp = [1] * n  # no live entry lies strictly between fp and sp
    lp = list(worst_pos)  # last live position

    def first_alive(i):
        pos = fp[i]
        w = worst_pos[i]
        while pos <= w:
            z = P[i, pos]
            if S[z, i] <= ws[z]:
                fp[i] = pos
                return z
            pos += 1
        fp[i] = pos
        return -1

    def second_alive(i):
        if first_alive(i) < 0:
            return -1
        pos = sp[i]
        if pos <= fp[i]:
            pos = fp[i] + 1
        w = worst_pos[i]
        while pos <= w:
            z = P[i, pos]
            if S[z, i] <= ws[z]:
                sp[i] = pos
                return z
            pos += 1
        sp[i] = pos
        return -1

    def last_alive(i):
        pos = min(lp[i], worst_pos[i])
        while pos >= 0:
            z = P[i, pos]
            if S[z, i] <= ws[z]:
                lp[i] = pos
                return z
            pos -= 1
        lp[i] = pos
        return -1

    rotations = 0
    p0 = 0
    # The rotation search walks x -> last(second(x)) and keeps its path in
    # seq; after an elimination it resumes from the part of the path that
    # the elimination left intact instead of restarting (Gusfield & Irving
    # 1989, sec. 4.2).
    seq: list[int] = []
    at = [-1] * n  # at[i]: index of i in seq, or -1
    while True:
        if not seq:
            # agents before p0 hold a single entry, which no elimination removes
            while p0 < n:
                if first_alive(p0) < 0:
                    return None, proposals, rotations
                if second_alive(p0) >= 0:
                    break
                p0 += 1
            if p0 == n:
                break
            seq.append(p0)
            at[p0] = 0
        q = second_alive(seq[-1])
        if q < 0:  # the tail lost its second entry to the last elimination
            at[seq.pop()] = -1
            continue
        nxt_x = last_alive(q)
        k = at[nxt_x]
        if k < 0:
            at[nxt_x] = len(seq)
            seq.append(nxt_x)
            continue
        cycle = seq[k:]
        rot = [(x, second_alive(x)) for x in cycle]
        rotations += 1
        # Every entry the elimination removes touches a y of the rotation,
        # and a link a -> last(second(a)) changes only if a, its second or
        # that agent's last loses an entry.  So the links below the lowest
        # rotation agent on the path survive; the walk resumes there.
        for _, y in rot:
            if 0 <= at[y] < k:
                k = at[y]
        for x in seq[k:]:
            at[x] = -1
        del seq[k:]
        # Each y accepts the proposal of its rotation partner x, truncating
        # its list below x.  The table keeps first(a) = b iff last(b) = a, so
        # an agent cut loose from y had y as its first only if it was
        # last(y), i.e. a rotation agent: only those can change their first
        # entry, and only those can end up with empty lists.
        for x, y in rot:
            worst_pos[y] = int((pref[y, : worst_pos[y] + 1] == x).argmax())
            ws[y] = S[y, x]
        for x in cycle:
            if first_alive(x) < 0:
                return None, proposals, rotations

    partner = [P[i, fp[i]] for i in range(n)]
    for i, j in enumerate(partner):
        if partner[j] != i:  # cannot happen for a stable table
            raise AssertionError("phase 2 terminated on an inconsistent table")
    return partner, proposals, rotations


def irving_solve(p: PreferenceProfile) -> SolveResult:
    """Decide whether a stable matching exists; return one if so."""
    partner, proposals, rotations = irving_decide(p.pref_matrix(), p.rank_matrix())
    matching = Matching(tuple(partner)) if partner is not None else None
    return SolveResult(matching, proposals, rotations)


ENUM_CAP = 20  # default agent cap of enumerate_stable


def enumerate_stable(
    p: PreferenceProfile,
    limit: int | None = None,
    *,
    materialize: bool = True,
    reference: Matching | None = None,
    prune: bool = True,
) -> CensusResult:
    """Count (and optionally list) every stable matching by depth-first
    search over perfect matchings.

    The search always matches the lowest-index unmatched agent next and
    discards any partial matching whose fully-decided pairs already contain
    a blocking pair: such a pair blocks every extension.  ``limit`` raises
    the default agent cap of 20.  ``prune=False`` runs the plain exhaustive
    search (used to validate the pruning).
    """
    cap = limit if limit is not None else ENUM_CAP
    if p.n > cap:
        raise ResourceCapError(
            f"enumeration over {p.n} agents exceeds the cap of {cap}; "
            "pass a higher limit to override"
        )
    n = p.n
    rk = p.rank_matrix().tolist()
    partner = [-1] * n
    found: list[Matching] = []
    count = 0

    def blocked_by_decided(i: int, j: int) -> bool:
        ri, rj = rk[i], rk[j]
        own_i, own_j = ri[j], rj[i]
        for a in range(n):
            pa = partner[a]
            if pa == -1 or a == i or a == j:
                continue
            ra = rk[a]
            if ra[i] < ra[pa] and ri[a] < own_i:
                return True
            if ra[j] < ra[pa] and rj[a] < own_j:
                return True
        return False

    def full_check() -> bool:
        for i in range(n):
            ri = rk[i]
            own = ri[partner[i]]
            for j in range(i + 1, n):
                if partner[i] != j and ri[j] < own and rk[j][i] < rk[j][partner[j]]:
                    return False
        return True

    def dfs(lowest: int) -> None:
        nonlocal count
        i = lowest
        while i < n and partner[i] != -1:
            i += 1
        if i == n:
            # with pruning on, every decided pair was vetted on the way down
            if prune or full_check():
                count += 1
                if materialize:
                    found.append(Matching(tuple(partner)))
            return
        for j in range(i + 1, n):
            if partner[j] != -1:
                continue
            partner[i] = j
            partner[j] = i
            if not prune or not blocked_by_decided(i, j):
                dfs(i + 1)
            partner[i] = -1
            partner[j] = -1

    dfs(0)
    per_distance = None
    if reference is not None:
        if not materialize:
            raise ValueError("distance histogram requires materialized matchings")
        per_distance = {}
        for m in found:
            dec = symmetric_difference(reference, m)
            key = (dec.mu, dec.total_length)
            per_distance[key] = per_distance.get(key, 0) + 1
    return CensusResult(
        X=count,
        stable_list=tuple(found) if materialize else None,
        per_distance=per_distance,
    )
