import math
from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter, or_

import numpy as np
import pytest

from roommates.estimators import exact_small_integral
from roommates.instances import PreferenceProfile
from roommates.matchings import Matching, blocking_mask
from roommates.solvers import enumerate_stable


def make_partner_first_profile(n: int) -> PreferenceProfile:
    """Everyone ranks their reference-matching partner first; the unique
    stable matching is the reference."""
    ref = Matching.consecutive(n)
    rows = []
    for i in range(n):
        others = [a for a in range(n) if a not in (i, ref[i])]
        rows.append(tuple([ref[i]] + others))
    return PreferenceProfile(n, tuple(rows))


@pytest.fixture(scope="session")
def no_stable_profile_4() -> PreferenceProfile:
    """The classic 4-agent instance admitting no stable matching."""
    return PreferenceProfile(4, ((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 1, 2)))


def relabel_profile(p: PreferenceProfile, sigma: list[int]) -> PreferenceProfile:
    rows = [None] * p.n
    for i, row in enumerate(p.ranks):
        rows[sigma[i]] = tuple(sigma[a] for a in row)
    return PreferenceProfile(p.n, tuple(rows))


def relabel_matching(m: Matching, sigma: list[int]) -> Matching:
    partner = [0] * m.n
    for i in range(m.n):
        partner[sigma[i]] = sigma[m[i]]
    return Matching(tuple(partner))


def reference_stability_masks(U: np.ndarray, m: Matching) -> np.ndarray:
    """Vectorized stability of matching ``m`` for a batch of utility arrays
    U of shape (B, n, n): independent double-loop over pairs, used as the
    brute-force oracle in several tests."""
    n = m.n
    x = U[:, np.arange(n), np.array(m.partner)]
    ok = np.ones(U.shape[0], dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i] == j:
                continue
            ok &= ~((U[:, i, j] < x[:, i]) & (U[:, j, i] < x[:, j]))
    return ok


def reference_single_cycle_neighbors(
    U: np.ndarray, m: Matching, nu_cap: int, pending_set: bool = True
):
    """``experiments.stable_single_cycle_neighbors`` as a depth-first
    recursion over one instance, the reference the flat search must match
    in order.  Returns the (half-length, new-partner map) list and the
    number of search nodes, which the flat search counts against
    SEARCH_NODE_CAP.

    Searches oriented cycles directly: along a realizable cycle the
    improving and worsening vertices alternate, and every improving vertex
    must rank its new partner above its old one.  With ``pending_set``, a
    step is dropped when the admirers that the b's of the path prefer to
    their new partners, less a1 and the path, hold more agents than the
    steps left can absorb, or hold the b about to worsen or an agent below
    a1, which no later improving vertex can be.  Without it, only
    the current b's admirers are counted: the unpruned search, whose found
    list must be the same.
    """
    n = m.n
    partner = list(m.partner)
    p_arr = np.array(partner)
    x = U[np.arange(n), p_arr]
    # (b, j) for every j that prefers b to its partner (an admirer of b),
    # each b's admirers in ascending index
    with np.errstate(invalid="ignore"):
        bs, js = np.nonzero((U < x[:, None]).T)
    ub = U[bs, js]
    off = np.searchsorted(bs, np.arange(n + 1))
    # covet[b]: b's admirers as (U[b, j], j) in b's order, to count and
    # identify agents that would block b's candidate new match
    order = np.lexsort((ub, bs))  # sorts within each b's block only
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - off[bs]
    off = off.tolist()
    cv = list(zip(ub[order].tolist(), js[order].tolist()))
    covet = [cv[off[b] : off[b + 1]] for b in range(n)]
    # first[b][r]: b's first r admirers in b's order, as the bits of an int
    first = [list(accumulate((1 << j for _, j in row), or_, initial=0)) for row in covet]
    # cands[b]: admirers a2 that b would take only as a worse partner, in
    # ascending index, as (a2, U[b, a2], U[a2, b], partner of a2, rank of a2
    # in covet[b])
    keep = ub > x[bs]
    bs, js = bs[keep], js[keep]
    coff = np.searchsorted(bs, np.arange(n + 1)).tolist()
    cl = list(zip(js.tolist(), ub[keep].tolist(), U[js, bs].tolist(), p_arr[js].tolist(),
                  rank[keep].tolist()))
    cands = [cl[coff[b] : coff[b + 1]] for b in range(n)]
    Ul = U.tolist()
    xl = x.tolist()
    out: list[tuple[int, dict[int, int]]] = []
    used = 0  # bits of a1 and the path's vertices
    # committed vertices and their new utilities, step i's (b, a2) at 2i, 2i + 1
    path: list[tuple[int, float]] = []
    nodes = 0

    def extend(a1: int, b: int, depth: int, pending: int) -> None:
        nonlocal nodes, used
        nodes += 1
        Ub = Ul[b]
        Ua1 = Ul[a1]
        if depth >= 2:
            # try to close the cycle back to a1, first looking for an exact
            # witness against it: a path vertex blocking b or a1 at their
            # closing utilities, or an unused admirer that b prefers
            y_close = Ub[a1]
            ya1 = Ua1[b]
            if y_close > xl[b] and ya1 < xl[a1]:
                witness = False
                for j, yj in path:
                    if (Ub[j] < y_close and Ul[j][b] < yj) or (Ua1[j] < ya1 and Ul[j][a1] < yj):
                        witness = True
                        break
                if not witness:
                    for val, j in covet[b]:
                        if val >= y_close:
                            break
                        if not used >> j & 1:
                            witness = True
                            break
                if not witness:
                    cand = {v: path[i ^ 1][0] for i, (v, _) in enumerate(path)}
                    cand[b] = a1
                    cand[a1] = b
                    # a full check of every pair of agents
                    own = x.copy()
                    v, w = np.array([*cand.items()]).T
                    own[v] = U[v, w]
                    if not blocking_mask(U, own).any():
                        out.append((depth, cand))
        if depth >= nu_cap:
            return
        budget = nu_cap - depth - 1
        xa1 = xl[a1]
        for a2, yb, ya, b2, r in cands[b][bisect_right(cands[b], a1, key=itemgetter(0)) :]:
            if used >> a2 & 1:
                continue
            if budget == 0 and not (Ul[b2][a1] > xl[b2] and Ua1[b2] < xa1):
                continue  # the next step must close the cycle, and b2 cannot
            # agents outside the path that would block b's new match, or an
            # earlier b's, can only be absorbed as future improving vertices
            if pending_set:
                kid = (pending | first[b][r]) & ~(used | 1 << a2)
                if kid.bit_count() > budget or kid >> b2 & 1 or kid & ((1 << a1) - 1):
                    continue
            elif r > budget:
                # committed ones are used, a2 itself sorts at yb, and at most
                # r agents sort below it
                count = 0
                for val, j in covet[b]:
                    if val >= yb:
                        break
                    if not used >> j & 1:
                        count += 1
                        if count > budget:
                            break
                if count > budget:
                    continue
            # exact blocking against committed vertices
            blocked = False
            if path:
                Ua2 = Ul[a2]
                for j, yj in path:
                    if (Ub[j] < yb and Ul[j][b] < yj) or (Ua2[j] < ya and Ul[j][a2] < yj):
                        blocked = True
                        break
            if blocked:
                continue
            saved = used
            used |= 1 << a2 | 1 << b2
            path.append((b, yb))
            path.append((a2, ya))
            extend(a1, b2, depth + 1, kid if pending_set else 0)
            del path[-2:]
            used = saved

    for a1 in range(n):
        used = 1 << a1 | 1 << partner[a1]
        extend(a1, partner[a1], 1, 0)
    return out, nodes


def reference_fill_conditional_pairs(m: Matching, x: np.ndarray, gen: np.random.Generator):
    """``estimators._fill_conditional_pairs`` as it scattered the draws with
    fancy indices from a fresh ``np.triu_indices``: the cached-mask fill must
    give the same array from the same draws."""
    n = m.n
    U = np.full((n, n), np.nan)
    U[np.arange(n), np.array(m.partner)] = x
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


@pytest.fixture(scope="session")
def rejection_oracle_8():
    """Instances of size 8 drawn uniformly and kept when the reference
    matching is stable: the ground-truth conditional ensemble.  Returns the
    kept utility arrays plus their stable-matching counts and single-cycle
    stable-neighbor counts for half-lengths 2 and 3."""
    from roommates.experiments import stable_single_cycle_neighbors

    n = 8
    m = Matching.consecutive(n)
    gen = np.random.default_rng(8261)
    kept = []
    total = 0
    while total < 1_200_000:
        U = gen.random((100_000, n, n))
        total += len(U)
        mask = reference_stability_masks(U, m)
        kept.append(U[mask])
    kept = np.concatenate(kept)
    counts = np.empty(len(kept), dtype=np.int64)
    xcirc = np.zeros((len(kept), 2), dtype=np.int64)
    Un = kept.copy()
    Un[:, np.arange(n), np.arange(n)] = np.nan
    for k, (U, found) in enumerate(zip(Un, stable_single_cycle_neighbors(Un, m, 3))):
        counts[k] = enumerate_stable(U, materialize=False).X
        for nu, _ in found:
            xcirc[k, nu - 2] += 1
    return {"n": n, "draws": total, "U": kept, "X": counts, "xcirc": xcirc}


@pytest.fixture(scope="session")
def exact_expected_count_10() -> float:
    """E[X] at n=10 from the exact rational integral: (n-1)!! = 945 perfect
    matchings times one matching's stability probability.  It takes seconds,
    so the tests that compare an estimate with it share one computation."""
    return 945.0 * float(exact_small_integral(Matching.consecutive(10)))


@pytest.fixture(scope="session")
def census_50():
    """Shared conditional census at n=50 (acceptance-scale run)."""
    from roommates.experiments import ExperimentConfig, run_conditional_census

    config = ExperimentConfig(
        kind="census",
        n_grid=(50,),
        samples=1600,
        master_seed=901,
        workers=2,
        nu_cap=5,
    )
    return run_conditional_census(config)[0]


def two_sided_z(mean_a, se_a, mean_b, se_b) -> float:
    return (mean_a - mean_b) / math.sqrt(se_a**2 + se_b**2 + 1e-300)


def reference_pair_log1p_sum_rows(X: np.ndarray) -> np.ndarray:
    """``pair_log1p_sum_rows`` as one pass over the whole batch: the power
    series truncated at the first order where every row's tail bound holds,
    then the exact correction of entries above 0.5.  The blocked kernel must
    equal it bit for bit."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    nrows, n = X.shape
    big = X > 0.5
    has_big = big.any(axis=1)
    Xs = np.where(big, 0.0, X)

    total = np.zeros(nrows)
    tau2 = 0.5**2
    Xs2 = Xs * Xs
    cur = Xs.copy()
    sq = np.ones_like(Xs)
    for k in range(1, 97):
        p_k = cur.sum(axis=1)
        sq = sq * Xs2
        p_2k = sq.sum(axis=1)
        total -= (p_k * p_k - p_2k) / (2.0 * k)
        tail = p_k * p_k * tau2 / (2.0 * (k + 1) * (1.0 - tau2))
        if np.all(tail < 1e-13):
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
