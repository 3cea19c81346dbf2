import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from roommates.estimators import _conditional_x_batch, _fill_conditional_pairs
from roommates.experiments import ExperimentConfig, _census_chunk, _random_pref_score, run_scaling
from roommates.instances import (
    InvalidInstanceError,
    PreferenceProfile,
    RngStream,
    UtilityMatrix,
    preference_rows,
    preference_window,
    rank_from_utilities,
    sample_profile,
    sample_utilities,
)
from roommates.matchings import Matching, is_stable, iter_perfect_matchings
from roommates import solvers
from roommates.solvers import (
    ResourceCapError,
    count_stable_stack,
    enumerate_stable,
    irving_decide,
    irving_solve,
)

from conftest import make_partner_first_profile


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_partner_first_found(n):
    result = irving_solve(make_partner_first_profile(n))
    assert result.found
    assert result.matching == Matching.consecutive(n)
    assert result.phase1_proposals >= n


def test_classic_none_exists(no_stable_profile_4):
    result = irving_solve(no_stable_profile_4)
    assert not result.found and result.matching is None
    assert enumerate_stable(no_stable_profile_4).X == 0


def unpruned_stable_list(p: PreferenceProfile) -> tuple[Matching, ...]:
    """Every stable matching, in enumeration order, by testing each perfect
    matching: the reference for the pruned search, sharing no code with it."""
    return tuple(m for m in iter_perfect_matchings(p.n) if is_stable(p, m))


def test_partner_first_unique_stable_by_unpruned_search():
    p = make_partner_first_profile(6)
    assert unpruned_stable_list(p) == (Matching.consecutive(6),)
    census = enumerate_stable(p)
    assert census.X == 1
    assert census.stable_list == (Matching.consecutive(6),)


def test_oracle_equivalence_random_instances():
    for n in (4, 6, 8, 10, 12):
        for r in range(400):
            p = sample_profile(n, RngStream(6000 + n, r))
            solve = irving_solve(p)
            census = enumerate_stable(p, materialize=True)
            assert solve.found == (census.X >= 1)
            if solve.found:
                assert is_stable(p, solve.matching)
            for m in census.stable_list:
                assert is_stable(p, m)
            assert len(set(census.stable_list)) == census.X


def test_pruned_equals_unpruned():
    for n, reps in ((4, 60), (6, 60), (8, 60), (10, 30), (12, 10)):
        for r in range(reps):
            p = sample_profile(n, RngStream(6100 + n, r))
            expected = unpruned_stable_list(p)
            assert enumerate_stable(p, materialize=False).X == len(expected)
            assert enumerate_stable(p).stable_list == expected


def test_enumeration_cap():
    p = sample_profile(22, RngStream(1))
    with pytest.raises(ResourceCapError):
        enumerate_stable(p)
    census = enumerate_stable(p, limit=22, materialize=False)
    assert census.X == (1 if irving_solve(p).found else 0) or census.X >= 0


def test_score_matrix_and_profile_give_one_census():
    # the census reads each sample's utility array as it is; a profile and
    # its rank matrix must give the same count and list order.
    # Per n: 100 uniform instances and 100 conditioned on the reference.
    gen = np.random.default_rng(1313)
    for n in (4, 6, 8, 10, 12):
        ref = Matching.consecutive(n)
        X, _ = _conditional_x_batch(ref, 100, gen)
        fills = [_fill_conditional_pairs(ref, x, gen) for x in X]
        for U in [sample_utilities(n, gen).u for _ in range(100)] + fills:
            p = rank_from_utilities(UtilityMatrix(n, U))
            want = enumerate_stable(p)
            for score in (U, p.rank_matrix()):
                got = enumerate_stable(score)
                assert got.X == want.X
                assert got.stable_list == want.stable_list
            counted = enumerate_stable(U, materialize=False)
            assert counted.X == want.X and counted.stable_list is None


def _nan_diagonal(n: int) -> np.ndarray:
    U = np.random.default_rng(n).random((n, n))
    np.fill_diagonal(U, np.nan)
    return U


@pytest.mark.parametrize(
    "score, message",
    [
        (np.zeros((4, 5)), "square"),
        (np.zeros(4), "square"),
        (np.zeros((4, 4, 1)), "square"),
        (_nan_diagonal(5), "even integer"),
        (_nan_diagonal(2), "even integer"),
        (np.random.default_rng(0).random((6, 6)) * (1 - np.eye(6)), "last"),
    ],
    ids=["non-square", "one-dim", "three-dim", "odd-n", "two-agents", "zero-diagonal"],
)
def test_bad_score_matrix_rejected(score, message):
    with pytest.raises(InvalidInstanceError, match=message):
        enumerate_stable(score)


def test_limit_below_one_rejected():
    # it used to be compared with n as a cap and reported as exceeded
    p = make_partner_first_profile(4)
    for limit in (0, -3):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            enumerate_stable(p, limit=limit)
    with pytest.raises(ResourceCapError):
        enumerate_stable(p, limit=2)


def _uniform_stack(gen, samples, n):
    U = gen.random((samples, n, n))
    U[:, np.arange(n), np.arange(n)] = np.nan
    return U


def _conditional_stack(gen, samples, n):
    m = Matching.consecutive(n)
    X, _ = _conditional_x_batch(m, samples, gen, None)
    return np.stack([_fill_conditional_pairs(m, x, gen) for x in X])


def _enumerated(U, limit=None):
    return np.array([enumerate_stable(u, limit, materialize=False).X for u in U])


def test_count_stable_stack_equals_enumeration():
    gen = np.random.default_rng(1700)
    total = 0
    for n in (4, 6, 8, 10, 12):
        for make in (_uniform_stack, _conditional_stack):
            U = make(gen, 120, n)
            assert np.array_equal(count_stable_stack(U), _enumerated(U))
            total += len(U)
    assert total >= 1000
    for n, samples in ((16, 12), (20, 4)):
        for make in (_uniform_stack, _conditional_stack):
            U = make(gen, samples, n)
            assert np.array_equal(count_stable_stack(U), _enumerated(U, limit=20))
    U = _conditional_stack(gen, 1, 12)
    assert count_stable_stack(U).tolist() == [enumerate_stable(U[0], materialize=False).X]


def test_count_stable_stack_independent_of_blocks(monkeypatch):
    # with room for two rows per block the search runs on many small blocks
    gen = np.random.default_rng(1701)
    U = np.concatenate([_uniform_stack(gen, 40, 12), _conditional_stack(gen, 40, 12)])
    default = count_stable_stack(U)
    monkeypatch.setattr(solvers, "_SEARCH_BYTES", 2 * 64 * 12)
    assert np.array_equal(count_stable_stack(U), default)
    assert np.array_equal(default, _enumerated(U))


def test_count_stable_stack_memory_follows_its_budget(monkeypatch):
    # at n=20 a uniform draw keeps ~880 partial matchings of a sample alive
    # at one depth, so a stack that were not cut into blocks would need tens
    # of MB here; the blocks and the pending parents of each depth stay
    # within a few budgets, beside the stack's transposed copy
    budget = 1 << 18
    monkeypatch.setattr(solvers, "_SEARCH_BYTES", budget)
    U = _uniform_stack(np.random.default_rng(1702), 40, 20)
    tracemalloc.start()
    try:
        count_stable_stack(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < U.nbytes + 3 * budget


@pytest.mark.parametrize("n", [8, 12])
def test_census_chunk_builds_no_profile(monkeypatch, n):
    # the census enumerates each sample from its utility array: no
    # UtilityMatrix or PreferenceProfile rebuilds and re-validates it
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} built in the census")

    monkeypatch.setattr(PreferenceProfile, "__post_init__", refuse)
    monkeypatch.setattr(UtilityMatrix, "__post_init__", refuse)
    out = _census_chunk((5, n, 0, 16, None, 3, 12))
    assert (out["full_X"] >= 1).all()


# Existence and phase-1 proposal counts of the instances drawn below, as
# computed by the solver before phase 2 was amortised.  Existence does not
# depend on the order in which rotations are eliminated, and phase 1 is
# untouched by it, so both must stay exactly as recorded.
_PINNED_FOUND = {50: "011111011111", 100: "001010111000", 300: "010110101001"}
_PINNED_PROPOSALS = {
    50: (128, 88, 89, 87, 114, 108, 97, 141, 94, 92, 105, 92),
    100: (239, 226, 236, 191, 277, 211, 238, 222, 217, 232, 204, 214),
    300: (684, 754, 810, 671, 766, 670, 839, 715, 737, 807, 678, 761),
}
# Phase 2 per instance: the rotations eliminated and a digest of the
# returned partner lists (None where none exists), as the solver computed
# them when its rotation walk still scanned each list for its last live
# entry.  Existence alone would let phase 2 return another stable matching.
_PINNED_ROTATIONS = {
    50: (2, 4, 8, 9, 5, 2, 8, 0, 4, 9, 5, 8),
    100: (7, 10, 11, 19, 3, 12, 11, 10, 8, 13, 12, 19),
    300: (31, 33, 21, 34, 24, 30, 14, 28, 27, 23, 27, 23),
}
_PINNED_PARTNERS = {50: "c45d092deffa5079", 100: "4ac36fbbb408384a", 300: "05bf963574001994"}


@pytest.mark.parametrize("n", sorted(_PINNED_FOUND))
def test_irving_decide_pinned_and_stable(n):
    multi_rotation_found = 0
    partners = []
    pins = zip(_PINNED_FOUND[n], _PINNED_PROPOSALS[n], _PINNED_ROTATIONS[n])
    for r, (bit, pinned, pinned_rotations) in enumerate(pins):
        pref, score = _random_pref_score(RngStream(2024 + n, r).generator(), n)
        partner, proposals, rotations = irving_decide(pref, score)
        partners.append(partner)
        assert proposals == pinned
        assert rotations == pinned_rotations
        assert (partner is not None) == (bit == "1")
        if partner is not None:
            profile = PreferenceProfile(n, tuple(map(tuple, preference_rows(score).tolist())))
            assert is_stable(profile, Matching(tuple(partner)))
            multi_rotation_found += rotations >= 2
    assert multi_rotation_found >= 3
    digest = hashlib.sha256(json.dumps(partners).encode()).hexdigest()[:16]
    assert digest == _PINNED_PARTNERS[n]


@pytest.mark.parametrize("n", [50, 100, 300])
def test_irving_solve_rank_matrices_stable(n):
    for r in range(6):
        p = sample_profile(n, RngStream(808 + n, r))
        result = irving_solve(p)
        if result.found:
            assert is_stable(p, result.matching)


def test_scaling_counts_pinned():
    # count_exists as recorded before phase 2 was amortised
    pinned = {11: [201, 175], 12: [184, 163]}
    for seed, counts in pinned.items():
        config = ExperimentConfig(
            kind="scaling", n_grid=(100, 200), replicates=300, master_seed=seed
        )
        assert [row.count_exists for row in run_scaling(config)] == counts


def _window_rows(w):
    n = int(w[0]) - 1
    return [w[w[i] : w[i + 1]].tolist() for i in range(n)]


def test_window_threshold_does_not_change_result():
    # irving_decide extends a row from the scores when phase 1 runs past the
    # end of its window, so any threshold gives the full lists' result.
    # t = 0 empties every row, so each row is extended from nothing; t = 3
    # fills every row and lies above the diagonal sentinel, which no window
    # lists, so its window is the oracle; 1/n extends most rows
    phase1_failures = 0
    for n, reps in ((4, 200), (8, 200), (12, 100), (14, 100), (50, 30), (200, 8), (1000, 2)):
        for r in range(reps):
            u = RngStream(5150 + n, r).generator().random((n, n))
            np.fill_diagonal(u, 2.0)
            full_rows = preference_rows(u)
            full = irving_decide(preference_window(u, 3.0), u)
            for t in (0.0, 1 / n, 8 / n, 24 / n, 1.0, 3.0):
                w = preference_window(u, t)
                for i, row in enumerate(_window_rows(w)):
                    assert row == full_rows[i, : len(row)].tolist(), (n, r, t, i)
                    assert len(row) == (n - 1 if t >= 1 else np.count_nonzero(u[i] < t))
                assert irving_decide(w, u) == full, (n, r, t)
            phase1_failures += full[0] is None and full[2] == 0
    assert phase1_failures >= 20


def test_window_sorts_entries_one_ulp_apart_in_a_high_row():
    # a key such as row + u rounds u to the spacing at the row's size
    # (1.1e-13 near 999), so two entries one ulp apart in a high row would
    # tie and keep their index order, here the reverse of their value order
    n = 1000
    u = RngStream(9901, 0).generator().random((n, n))
    np.fill_diagonal(u, 2.0)
    low = 1e-6
    high = np.nextafter(low, 1.0)
    assert 999 + low == 999 + high
    u[999, 5], u[999, 7] = high, low
    u[5, 999] = u[7, 999] = 1e-6 / 3  # both rank 999 first, so its choice counts
    w = preference_window(u, 24 / n)
    row = _window_rows(w)[999]
    assert row[:2] == [7, 5]
    assert row == preference_rows(u)[999, : len(row)].tolist()
    assert irving_decide(w, u) == irving_decide(preference_window(u, 3.0), u)


def test_solver_pinned_at_n1000():
    # values from the solver on the full argsort, before the block and the
    # live table; until then only c06 reached n = 1000
    config = ExperimentConfig(
        kind="scaling", n_grid=(1000,), replicates=24, master_seed=7, chunk_size=8
    )
    assert [row.count_exists for row in run_scaling(config)] == [12]
    totals = [0, 0, 0]
    for r in range(12):
        partner, proposals, rotations = irving_decide(
            *_random_pref_score(RngStream(1000, r).generator(), 1000)
        )
        totals[0] += proposals
        totals[1] += rotations
        totals[2] += partner is not None
    assert totals == [30983, 917, 6]


def test_irving_decide_rejects_bad_pref_shape():
    # a block of width n holds each agent itself; it used to give (None, 4, 1)
    # on this instance, whose full lists give (None, 3, 0).  A window never
    # lists the agent itself, whatever its threshold, and the draws of a
    # scaling instance at n = 4 fill every row below the sentinel.  The
    # (n, n-1) table of preference_rows is not a window either
    u = RngStream(4, 114).generator().random((4, 4))
    np.fill_diagonal(u, 2.0)
    for t in (24 / 4, 3.0):
        assert irving_decide(preference_window(u, t), u) == (None, 3, 0)
    w = preference_window(u, 3.0)  # offsets 5, 8, 11, 14, 17
    long_row = w.copy()
    long_row[1:4] += 1  # row 0 holds 4 agents
    backwards = w.copy()
    backwards[2] = w[1] - 1  # row 1 ends before it starts
    bad_windows = [w[:4], w[1:], w[:-1], np.concatenate([w, w[-1:]]), long_row, backwards]
    for pref in (np.argsort(u, axis=1), preference_rows(u), preference_rows(u)[:, :0],
                 preference_rows(u)[:3], preference_rows(u)[0], *bad_windows):
        with pytest.raises(ValueError, match="pref"):
            irving_decide(pref, u)
