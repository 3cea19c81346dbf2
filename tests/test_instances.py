import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roommates.instances import (
    InstanceParseError,
    InvalidInstanceError,
    PreferenceProfile,
    RngStream,
    TieError,
    UtilityMatrix,
    packed_rows,
    parse_instance,
    rank_from_utilities,
    sample_profile,
    sample_utilities,
    serialize_instance,
)
from roommates.matchings import Matching, is_stable

from conftest import reference_stability_masks


def test_sample_utilities_range_and_count():
    um = sample_utilities(4, RngStream(7))
    off = ~np.eye(4, dtype=bool)
    vals = um.u[off]
    assert vals.shape == (12,)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(np.isnan(np.diag(um.u)))


def test_sample_utilities_deterministic():
    a = sample_utilities(6, RngStream(123, 4))
    b = sample_utilities(6, RngStream(123, 4))
    assert np.array_equal(a.u[~np.eye(6, dtype=bool)], b.u[~np.eye(6, dtype=bool)])
    c = sample_utilities(6, RngStream(123, 5))
    assert not np.array_equal(a.u[~np.eye(6, dtype=bool)], c.u[~np.eye(6, dtype=bool)])


@pytest.mark.parametrize("n", [3, 2, 0, -4])
def test_sample_utilities_rejects_bad_n(n):
    with pytest.raises(InvalidInstanceError):
        sample_utilities(n, RngStream(0))


def test_uniform_mean_over_pooled_replicates():
    # pooled off-diagonal entries are Unif[0,1]: mean 0.5 within 3 sigma
    reps = 9_000
    total, count = 0.0, 0
    for r in range(reps):
        um = sample_utilities(4, RngStream(2024, r))
        total += np.nansum(um.u)
        count += 12
    mean = total / count
    assert abs(mean - 0.5) <= 3.0 * 0.2887 / math.sqrt(count)


def test_rank_rows_sort_ascending_utility():
    u = np.full((4, 4), np.nan)
    u[0, 1:] = [0.9, 0.1, 0.5]
    u[1, [0, 2, 3]] = [0.2, 0.4, 0.6]
    u[2, [0, 1, 3]] = [0.3, 0.2, 0.1]
    u[3, [0, 1, 2]] = [0.5, 0.25, 0.75]
    prof = rank_from_utilities(UtilityMatrix(4, u))
    # agent 1 (0-indexed 0) ranks 3 > 4 > 2 in 1-indexed labels
    assert prof.ranks[0] == (2, 3, 1)
    rank = prof.rank_matrix()
    assert rank[0, 2] == 0 and rank[0, 2] < rank[0, 1]


def test_rank_invariant_under_monotone_row_map():
    um = sample_utilities(8, RngStream(5))
    base = rank_from_utilities(um)
    u2 = um.u.copy()
    u2[3] = u2[3] ** 3  # strictly increasing on [0,1]
    assert rank_from_utilities(UtilityMatrix(8, u2)) == base


def test_tie_rejected():
    u = np.full((4, 4), np.nan)
    u[0, 1:] = [0.5, 0.5, 0.1]
    u[1, [0, 2, 3]] = [0.2, 0.4, 0.6]
    u[2, [0, 1, 3]] = [0.3, 0.2, 0.1]
    u[3, [0, 1, 2]] = [0.5, 0.25, 0.75]
    with pytest.raises(TieError):
        UtilityMatrix(4, u)


def test_profile_coupling_between_routes():
    # sample_profile is the rank of a fresh utility array drawn from the
    # same stream, so the two routes coincide through the same uniforms
    assert sample_profile(6, RngStream(99, 1)) == rank_from_utilities(
        sample_utilities(6, RngStream(99, 1))
    )


def test_profile_orderings_uniform_n4():
    from itertools import permutations

    reps = 30_000
    counts = {i: {} for i in range(4)}
    for r in range(reps):
        p = sample_profile(4, RngStream(31415, r))
        for i in range(4):
            counts[i][p.ranks[i]] = counts[i].get(p.ranks[i], 0) + 1
    sigma = math.sqrt((1 / 6) * (5 / 6) / reps)
    for i in range(4):
        assert len(counts[i]) == 6
        for perm in permutations([a for a in range(4) if a != i]):
            freq = counts[i].get(tuple(perm), 0) / reps
            assert abs(freq - 1 / 6) <= 3.5 * sigma


def test_top_choice_uniform_marginal():
    reps = 20_000
    n = 6
    counts = np.zeros((n, n))
    for r in range(reps):
        p = sample_profile(n, RngStream(777, r))
        for i in range(n):
            counts[i, p.ranks[i][0]] += 1
    sigma = math.sqrt((1 / (n - 1)) * (1 - 1 / (n - 1)) / reps)
    freqs = counts / reps
    for i in range(n):
        for a in range(n):
            if a == i:
                continue
            assert abs(freqs[i, a] - 1 / (n - 1)) <= 3.5 * sigma


def test_stability_frequency_agrees_between_routes():
    # empirical P(reference stable) via the vectorized oracle vs the
    # profile route, two independent seeds, within 3 combined sigma
    n, reps = 6, 20_000
    m = Matching.consecutive(n)
    gen = np.random.default_rng(5150)
    U = gen.random((reps, n, n))
    p1 = reference_stability_masks(U, m).mean()
    hits = 0
    for r in range(reps):
        hits += is_stable(sample_profile(n, RngStream(888, r)), m)
    p2 = hits / reps
    se = math.sqrt(p1 * (1 - p1) / reps + p2 * (1 - p2) / reps)
    assert abs(p1 - p2) <= 3.0 * se


def test_serialize_parse_roundtrip(no_stable_profile_4):
    text = serialize_instance(no_stable_profile_4)
    assert text == "4\n1: 2 3 4\n2: 3 1 4\n3: 1 2 4\n4: 1 2 3\n"
    assert parse_instance(text) == no_stable_profile_4
    assert serialize_instance(parse_instance(text)) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([4, 6, 8, 10]))
def test_roundtrip_random_profiles(seed, n):
    p = sample_profile(n, RngStream(seed))
    assert parse_instance(serialize_instance(p)) == p


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("x\n", "line 1"),
        ("3\n1: 2 3\n2: 1 3\n3: 1 2\n", "even"),
        ("4\n1: 2 2 3\n2: 3 1 4\n3: 1 2 4\n4: 1 2 3\n", "duplicate"),
        ("4\n1: 2 3 4\n2: 3 1 4\n3: 1 2 4\n", "ranking lines"),
        ("4\n1: 2 3 4\n5: 3 1 4\n3: 1 2 4\n4: 1 2 3\n", "expected agent 2"),
        ("4\n1: 2 3 4\n2: 3 1 5\n3: 1 2 4\n4: 1 2 3\n", "permutation"),
        ("4\n1: 2 3 4\n2 3 1 4\n3: 1 2 4\n4: 1 2 3\n", "':'"),
        ("4\n1: 2 3 4\n2: 3 one 4\n3: 1 2 4\n4: 1 2 3\n", "non-integer"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_profile_validation():
    with pytest.raises(InvalidInstanceError):
        PreferenceProfile(4, ((1, 2, 3), (2, 0, 3), (0, 1, 3)))
    with pytest.raises(InvalidInstanceError):
        PreferenceProfile(4, ((1, 2, 2), (2, 0, 3), (0, 1, 3), (0, 1, 2)))
    with pytest.raises(ValueError):
        PreferenceProfile(4, ((1, 2, 3),) * 4)
    good = ((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 1, 2))
    for agent, row in [
        (0, (1.0, 2, 3)),  # a float entry used to die in numpy's indexing
        (2, (False, True, 3)),  # bools are not agents, though 0 == False
        (3, (0, 1)),  # short
        (1, (2, 0, 3, 1)),  # long
        (3, (0, 0, 2)),  # repeated agent
        (2, (0, 2, 3)),  # the agent itself
        (3, (0, 1, 4)),  # out of range
        (0, (-1, 2, 3)),  # negative
        (1, (2, 0, 2**70)),  # beyond int64
    ]:
        ranks = good[:agent] + (row,) + good[agent + 1 :]
        with pytest.raises(InvalidInstanceError, match=f"^agent {agent}: ranking"):
            PreferenceProfile(4, ranks)
    # the first bad agent is named whichever check its row fails
    with pytest.raises(InvalidInstanceError, match="^agent 1:"):
        PreferenceProfile(4, ((1, 2, 3), (2, 0, 0), (0, 1, 3), (0, 1)))


def test_profile_arrays_match_rows():
    gen = np.random.default_rng(17)
    for seed in range(300):
        n = 2 * int(gen.integers(2, 101))
        p = sample_profile(n, RngStream(seed, 3))
        pos = p.rank_matrix()
        assert pos.dtype == np.int32 and not pos.flags.writeable
        # rank_matrix inverts each row, pos[i, ranks[i][r]] == r, and holds
        # n on the diagonal
        ranks = np.array(p.ranks)
        assert (np.take_along_axis(pos, ranks, axis=1) == np.arange(n - 1)).all()
        assert (np.diag(pos) == n).all()


@pytest.mark.parametrize("n", [4, 5, 12, 63, 200])
def test_packed_rows_on_masks_that_are_not_thresholds(n):
    # phase 2 of irving_decide packs the mask admit & admit.T, which no
    # threshold gives; each row must list its masked agents in ascending
    # score, for utilities and for int32 ranks, which tie across rows
    gen = np.random.default_rng(4100 + n)
    for density in (0.1, 0.5, 0.9):
        u = gen.random((n, n))
        np.fill_diagonal(u, 2.0)
        rank = np.argsort(np.argsort(u, axis=1), axis=1).astype(np.int32)
        mask = gen.random((n, n)) < density
        mask[0] = False
        mask[n - 1] = True
        np.fill_diagonal(mask, False)
        for score in (u, rank):
            w = packed_rows(score, mask)
            assert w.dtype == np.intp
            assert w[0] == n + 1 and w[n] == w.size
            assert (np.diff(w[: n + 1]) == mask.sum(axis=1)).all()
            assert w[1] == w[0] and w[n] - w[n - 1] == n - 1  # the empty row and the full one
            for i in range(n):
                oracle = sorted(np.flatnonzero(mask[i]).tolist(), key=lambda j: score[i, j])
                assert w[w[i] : w[i + 1]].tolist() == oracle, (density, i)


def test_utility_matrix_rejects_bad_diagonal_and_nan():
    # ranking slices off the last sorted column, so the diagonal must be NaN
    # and no off-diagonal entry may be
    u = sample_utilities(6, RngStream(3)).u.copy()
    np.fill_diagonal(u, 0.0)
    with pytest.raises(InvalidInstanceError):
        UtilityMatrix(6, u)
    u = sample_utilities(6, RngStream(3)).u.copy()
    u[2, 4] = np.nan
    with pytest.raises(InvalidInstanceError):
        UtilityMatrix(6, u)
