import math

import numpy as np
import pytest

from roommates.estimators import exact_small_integral
from roommates.instances import PreferenceProfile
from roommates.matchings import Matching
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
    for k, Uk in enumerate(kept):
        Un = Uk.copy()
        np.fill_diagonal(Un, np.nan)
        counts[k] = enumerate_stable(Un, materialize=False).X
        for nu, _ in stable_single_cycle_neighbors(Un, m, 3):
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
