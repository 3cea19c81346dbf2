"""Deciding and counting stable matchings.

``irving_solve`` is the polynomial-time two-phase decision procedure
(proposal rounds, then all-or-nothing rotation elimination).  It is
deliberately cross-checked against ``enumerate_stable``, an independent
pruned exhaustive search that never reduces preference tables, so the two
share no logic beyond the blocking-pair definition.  ``count_stable_stack``
is the census's fast path: the same search over a stack of instances at
once, counting only, with ``enumerate_stable`` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import (
    InvalidInstanceError,
    PreferenceProfile,
    check_agent_count,
    packed_rows,
    preference_rows,
    preference_window,
)
from .matchings import Matching


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
    """Exhaustive stable-matching count, optionally with the matchings."""

    X: int
    stable_list: tuple[Matching, ...] | None = None


def irving_decide(pref: np.ndarray, score: np.ndarray):
    """Array-level core of the decision procedure.

    ``score``: (n, n) numbers, score[i][j] lower the more i prefers j (raw
    utilities and rank positions both qualify), with every diagonal entry
    above the row's other entries so that each agent sorts itself last.
    Working with score thresholds instead of rank positions keeps the hot
    path free of an auxiliary rank-matrix build.
    ``pref``: each row's first agents, best first, in the format of
    ``packed_rows`` (``preference_window(score, t)`` gives one): n+1
    offsets into the array, then the rows, each up to n-1 agents long.  A
    proposer that runs off the end of its row has the row listed again from
    ``score``, up to four times the score of its last listed agent (the
    whole row when that adds no agent or the score is not positive), so the
    result is that of the full lists.
    Phase 1 reads ``pref`` as one flat array; phase 2 never reads it, but
    runs on a table of the entries alive after phase 1, packed once by
    ``packed_rows`` from its thresholds.  Scalars are read through
    memoryviews, which copy nothing and return Python numbers faster than
    numpy scalar indexing.
    Returns (partner list or None, proposal count, rotation count).
    """
    n = score.shape[0]
    ok = pref.ndim == 1 and pref.size > n
    if ok:
        lengths = np.diff(pref[: n + 1])
        ok = pref[0] == n + 1 and pref[n] == pref.size and 0 <= lengths.min()
        ok = ok and lengths.max() <= n - 1
    if not ok:
        raise ValueError(
            f"pref must be {n + 1} row offsets followed by the rows, got shape {pref.shape}"
        )
    P = memoryview(pref)
    start = pref[:n].tolist()
    end = pref[1 : n + 1].tolist()
    S = memoryview(score)
    # x's row is rows[x][start[x]:end[x]], and nxt[x] its next position
    # there; an extended row gets a list of its own
    rows = [P] * n
    # ws[y]: y's table is truncated strictly below this score
    ws = [float("inf")] * n
    holder = [-1] * n
    nxt = start[:]
    proposals = 0

    def extend(x, lo, k):
        # x's row lists its k best agents, scored up to lo: list it again up
        # to the next band's edge, four times lo, or whole if that adds none
        r = score[x]
        top = S[x, x]
        band = np.flatnonzero(r < (min(4 * lo, top) if lo > 0 else top))
        if band.size == k:
            band = np.flatnonzero(r < top)
        rows[x] = row = band[np.argsort(r[band], kind="stable")].tolist()
        start[x] = 0
        end[x] = len(row)
        return row

    # Phase 1: proposal chains with truncation below each held proposal.
    # An agent is exhausted once its pointer passes its list's end or enters
    # the region of its own row lying strictly below its held proposal.
    for x0 in range(n):
        x = x0
        while x != -1:
            pos = nxt[x]
            thr = ws[x]
            row = rows[x]
            stop = end[x]
            while True:
                if pos == stop:
                    pos = stop - start[x]
                    if pos == n - 1:
                        return None, proposals, 0  # rejected by every agent
                    row = extend(x, S[x, row[stop - 1]] if pos else -np.inf, pos)
                    stop = len(row)
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
    # i's order (ascending score), packed from the phase-1 thresholds.
    admit = score <= np.array(ws)[:, None]
    admit = admit & admit.T  # the rebinding frees the one-sided mask before the packing
    live = packed_rows(score, admit)
    del admit
    cols = live[n + 1 :]
    L = memoryview(cols)
    # R[pos]: the score that agent L[pos] gives the row's agent, so the entry
    # stays alive while R[pos] <= ws[L[pos]]
    off = live[: n + 1] - (n + 1)
    R = memoryview(score[cols, np.arange(n).repeat(off[1:] - off[:-1])])
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
    rank = p.rank_matrix()
    # a window at threshold n lists every row whole: no row is extended
    partner, proposals, rotations = irving_decide(preference_window(rank, p.n), rank)
    matching = Matching(tuple(partner)) if partner is not None else None
    return SolveResult(matching, proposals, rotations)


ENUM_CAP = 20  # default agent cap of enumerate_stable
# Scratch bytes that a search over a stack of instances holds at once: the
# census neighbour search's groups and slices, and count_stable_stack's blocks.
_SEARCH_BYTES = 1 << 20


def enumerate_stable(
    p: PreferenceProfile | np.ndarray,
    limit: int | None = None,
    *,
    materialize: bool = True,
) -> CensusResult:
    """Count every stable matching by depth-first search over perfect
    matchings, and list them unless ``materialize`` is False.

    The search always matches the lowest-index unmatched agent next and
    discards any partial matching whose fully-decided pairs already contain
    a blocking pair: such a pair blocks every extension, so every complete
    matching it reaches is stable.  Matchings come out in the order of
    ``matchings.iter_perfect_matchings``; the tests check the search
    against that enumeration filtered by ``is_stable``.  ``p`` is a profile
    or an (n, n) score matrix as ``irving_decide`` takes it, with no ties or
    NaN off the diagonal (unchecked).  ``limit`` (>= 1) replaces the cap of 20.
    The census counts its samples with ``count_stable_stack`` instead, a
    stack at a time; this search is that counter's oracle.
    """
    cap = limit if limit is not None else ENUM_CAP
    if cap < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    p = p.rank_matrix() if isinstance(p, PreferenceProfile) else p
    n = len(p)
    if p.shape != (n, n):
        raise InvalidInstanceError(f"score matrix must be square, got shape {p.shape}")
    check_agent_count(n)
    if n > cap:
        raise ResourceCapError(
            f"enumeration over {n} agents exceeds the cap of {cap}; "
            "pass a higher limit to override"
        )
    pref = preference_rows(p)
    if (pref == np.arange(n)[:, None]).any():
        raise InvalidInstanceError("a score matrix must rank each agent last in its own row")
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
    for i, row in enumerate(pref.tolist()):
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
    return CensusResult(X=count, stable_list=tuple(found) if materialize else None)


def count_stable_stack(U: np.ndarray) -> np.ndarray:
    """The stable-matching count X of every instance of a (samples, n, n)
    stack of score matrices, as ``enumerate_stable(U[s],
    materialize=False).X`` gives it, with no ties off the diagonal and the
    diagonal never read.

    The same search as ``enumerate_stable``, one depth at a time over the
    live partial matchings of every sample, as rows of (sample, free
    agents, best).  best[v] is v's lowest score of a decided agent that
    would leave its partner for v (inf if none), so v may take an agent only
    if it scores it below best[v]: the bit state of ``enumerate_stable`` as
    a min over decided agents.  Rows live in blocks of at most about
    _SEARCH_BYTES on a stack, each block's children made a slice at a time.
    """
    g, n = U.shape[:2]
    check_agent_count(n)
    rows_U = U.reshape(g * n, n)
    rows_UT = U.transpose(0, 2, 1).reshape(g * n, n)
    X = np.zeros(g, dtype=np.int64)
    # a child row takes about 64 bytes per agent with its scratch
    rows_max = max(1, _SEARCH_BYTES // (64 * n))
    stack = []
    for lo in range(0, g, rows_max):
        s = np.arange(lo, min(g, lo + rows_max))
        stack.append((s, np.ones((s.size, n), dtype=bool), np.full((s.size, n), np.inf), 0, None))
    while stack:
        s, free, best, depth, todo = stack.pop()
        if todo is None:
            rows = np.arange(s.size)
            i = free.argmax(axis=1)  # the lowest unmatched agent of each row
            k = s * n + i
            free[rows, i] = False
            # e = r n + j for each unmatched j that row r's i may take
            ok = free & (rows_U[k] < best[rows, i][:, None]) & (rows_UT[k] < best)
            e = np.flatnonzero(ok)
            if depth == n // 2 - 1:  # the children are complete matchings
                X += np.bincount(s[e // n], minlength=g)
                continue
            todo = i, k, e, 0
        i, k, e, lo = todo
        if lo + rows_max < e.size:
            stack.append((s, free, best, depth, (i, k, e, lo + rows_max)))
        r, j = np.divmod(e[lo : lo + rows_max], n)
        c = np.arange(r.size)
        kr, kj = k[r], s[r] * n + j
        Ui, Uj = rows_U[kr], rows_U[kj]
        yi, yj = Ui[c, j], Uj[c, i[r]]
        child_free = free[r]
        child_free[c, j] = False
        # i and j each let in the agents they score below their new partner
        child_best = np.minimum(best[r], np.where(Ui < yi[:, None], rows_UT[kr], np.inf))
        np.minimum(child_best, np.where(Uj < yj[:, None], rows_UT[kj], np.inf), out=child_best)
        stack.append((s[r], child_free, child_best, depth + 1, None))
    return X
