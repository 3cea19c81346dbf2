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

from .instances import PreferenceProfile, preference_rows
from .matchings import Matching, symmetric_difference


class ResourceCapError(RuntimeError):
    """Work beyond a resource cap: exhaustive enumeration past its agent cap,
    a census neighbour search past its node cap, or an experiment whose
    instances would not fit in physical memory."""


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

    ``score``: (n, n) numbers, score[i][j] lower the more i prefers j (raw
    utilities and rank positions both qualify), with every diagonal entry
    above the row's other entries so that each agent sorts itself last.
    Working with score thresholds instead of rank positions keeps the hot
    path free of an auxiliary rank-matrix build.
    ``pref``: (n, k) with 1 <= k <= n-1, the first k agents of each row in
    preference order (best first), as ``preference_rows(score, k)`` gives;
    k = n-1 is the full table.  A proposer that runs off the end of its
    block has its row extended to the full list from ``score``, so the
    result does not depend on k.
    Phase 1 reads ``pref`` row by row; phase 2 never reads it, but runs on
    a table of the entries alive after phase 1, built once from its
    thresholds.  Scalars are read through memoryviews, which copy nothing
    and return Python numbers faster than numpy scalar indexing.
    Returns (partner list or None, proposal count, rotation count).
    """
    n = score.shape[0]
    if pref.ndim != 2 or pref.shape[0] != n or not 1 <= pref.shape[1] <= n - 1:
        raise ValueError(
            f"pref must have {n} rows and 1 to {n - 1} columns, got shape {pref.shape}"
        )
    S = memoryview(score)
    rows = [memoryview(r) for r in pref]
    # ws[y]: y's table is truncated strictly below this score
    ws = [float("inf")] * n
    holder = [-1] * n
    nxt = [0] * n
    proposals = 0

    # Phase 1: proposal chains with truncation below each held proposal.
    # An agent is exhausted once its pointer passes its list's end or enters
    # the region of its own row lying strictly below its held proposal.
    for x0 in range(n):
        x = x0
        while x != -1:
            pos = nxt[x]
            thr = ws[x]
            row = rows[x]
            end = len(row)
            while True:
                if pos == end:
                    if end == n - 1:
                        return None, proposals, 0  # rejected by every agent
                    row = rows[x] = memoryview(preference_rows(score[x : x + 1])[0])
                    end = n - 1
                y = row[pos]
                if S[x, y] > thr:
                    return None, proposals, 0  # rejected by every admissible agent
                if S[y, x] <= ws[y]:
                    break
                pos += 1
            nxt[x] = pos
            proposals += 1
            h = holder[y]
            holder[y] = x
            ws[y] = S[y, x]
            if h == -1:
                x = -1
            else:
                nxt[h] += 1
                x = h
    # Phase 2 runs on a table of the live entries: (i, j) is alive iff both
    # sides admit it.  Row i's live entries sit in L[off[i]:off[i + 1]] in
    # i's order (ascending score), found in numpy from the phase-1
    # thresholds.  Sorting by score, then stably by row keeps that order
    # exact, and the row keys' narrow dtype makes the second sort a radix
    # sort.
    admit = score <= np.array(ws)[:, None]
    flat = np.flatnonzero(admit & admit.T)
    del admit
    row_of = (flat // n).astype(np.min_scalar_type(n - 1))
    order = np.argsort(np.take(score, flat))
    order = order[np.argsort(row_of[order], kind="stable")]
    flat = flat[order]
    cols = flat % n
    L = memoryview(cols)
    # R[pos]: the score that agent L[pos] gives the row's agent, so the entry
    # stays alive while R[pos] <= ws[L[pos]]
    R = memoryview(np.take(score, cols * n + flat // n))
    off = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_of, minlength=n), out=off[1:])
    off = off.tolist()
    # Entries only ever die, so every scan pointer below moves one way.
    fp = off[:n]  # phase 1 leaves each agent's first live entry at its offset
    sp = off[:n]  # no live entry lies strictly between fp and sp
    worst_pos = [o - 1 for o in off[1:]]  # last admissible index: the held proposal

    def first_alive(i):
        pos = fp[i]
        w = worst_pos[i]
        while pos <= w:
            z = L[pos]
            if R[pos] <= ws[z]:
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
            z = L[pos]
            if R[pos] <= ws[z]:
                sp[i] = pos
                return z
            pos += 1
        sp[i] = pos
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
        # In a stable table y is first on x's list iff x is last on y's
        # (Gusfield & Irving 1989, sec. 4.2), so q's last live entry is the
        # proposal it holds.
        nxt_x = L[worst_pos[q]]
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
            pos = off[y]
            while L[pos] != x:
                pos += 1
            worst_pos[y] = pos
            ws[y] = S[y, x]
        for x in cycle:
            if first_alive(x) < 0:
                return None, proposals, rotations

    partner = [L[fp[i]] for i in range(n)]
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
) -> CensusResult:
    """Count (and optionally list) every stable matching by depth-first
    search over perfect matchings.

    The search always matches the lowest-index unmatched agent next and
    discards any partial matching whose fully-decided pairs already contain
    a blocking pair: such a pair blocks every extension, so every complete
    matching it reaches is stable.  Matchings come out in the order of
    ``matchings.iter_perfect_matchings``; the tests check the search
    against that enumeration filtered by ``is_stable``.  ``limit`` raises
    the default agent cap of 20.
    """
    cap = limit if limit is not None else ENUM_CAP
    if p.n > cap:
        raise ResourceCapError(
            f"enumeration over {p.n} agents exceeds the cap of {cap}; "
            "pass a higher limit to override"
        )
    n = p.n
    partner = [-1] * n
    found: list[Matching] = []
    count = 0
    # The search state is one int with a bit at v * n + a for each matched
    # agent a that ranks v above its partner: agent v's field holds the
    # agents that would leave their partners for v.  block[i][j] has the
    # bits i * n + a of the agents a that i ranks above j, and j * n + a of
    # those j ranks above i, so matching i with j is blocked by a decided
    # pair iff the state shares a bit with it.  Matching them XORs in
    # flip[i][j]: the bits v * n + i of the v that i ranks above j, and
    # v * n + j of the v that j ranks above i.
    above = [[0] * n for _ in range(n)]
    wanted = [[0] * n for _ in range(n)]
    for i, row in enumerate(p.ranks):
        a_mask = v_mask = 0
        for a in row:
            above[i][a] = a_mask
            wanted[i][a] = v_mask
            a_mask |= 1 << (i * n + a)
            v_mask |= 1 << (a * n + i)
    block = [[a | b for a, b in zip(r, c)] for r, c in zip(above, zip(*above))]
    flip = [[a ^ b for a, b in zip(r, c)] for r, c in zip(wanted, zip(*wanted))]

    def dfs(lowest: int, state: int) -> None:
        nonlocal count
        i = lowest
        while i < n and partner[i] != -1:
            i += 1
        if i == n:
            count += 1
            if materialize:
                found.append(Matching(tuple(partner)))
            return
        block_i, flip_i = block[i], flip[i]
        for j in range(i + 1, n):
            if partner[j] != -1 or state & block_i[j]:
                continue
            partner[i] = j
            partner[j] = i
            dfs(i + 1, state ^ flip_i[j])
            partner[i] = -1
            partner[j] = -1

    dfs(0, 0)
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
