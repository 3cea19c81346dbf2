import hashlib
import json
import math

import numpy as np
import pytest

from roommates.experiments import ExperimentConfig, _random_pref_score, run_scaling
from roommates.instances import PreferenceProfile, RngStream, preference_rows, sample_profile
from roommates.matchings import Matching, is_stable, iter_perfect_matchings, symmetric_difference
from roommates.solvers import (
    ResourceCapError,
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


def test_per_distance_histogram():
    ref = Matching.consecutive(8)
    found = None
    for r in range(200):
        p = sample_profile(8, RngStream(4242, r))
        if is_stable(p, ref):
            found = p
            break
    assert found is not None
    census = enumerate_stable(found, reference=ref)
    assert census.per_distance[(0, 0)] == 1
    assert sum(census.per_distance.values()) == census.X
    recount = {}
    for m in census.stable_list:
        dec = symmetric_difference(ref, m)
        key = (dec.mu, dec.total_length)
        recount[key] = recount.get(key, 0) + 1
    assert recount == census.per_distance
    total_single = sum(
        census.single_cycle_marginal(nu) for nu in range(2, 5)
    )
    assert total_single == sum(
        cnt for (mu, _), cnt in census.per_distance.items() if mu == 1
    )


def test_per_distance_requires_materialized():
    p = make_partner_first_profile(6)
    with pytest.raises(ValueError):
        enumerate_stable(p, materialize=False, reference=Matching.consecutive(6))
    census = enumerate_stable(p, materialize=False)
    assert census.stable_list is None
    with pytest.raises(ValueError):
        census.single_cycle_marginal(2)


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


def test_block_width_does_not_change_result():
    # irving_decide extends a row from the scores when phase 1 runs off the
    # end of its block, so any block width gives the full table's result;
    # k = 1 extends almost every row
    phase1_failures = 0
    for n, reps in ((4, 200), (8, 200), (12, 100), (14, 100), (50, 30), (200, 8), (1000, 2)):
        for r in range(reps):
            u = RngStream(5150 + n, r).generator().random((n, n))
            np.fill_diagonal(u, 2.0)
            full = irving_decide(preference_rows(u), u)
            for k in sorted({1, 2, min(n - 1, math.ceil(2 * math.sqrt(n))), n - 1}):
                assert irving_decide(preference_rows(u, k), u) == full, (n, r, k)
            phase1_failures += full[0] is None and full[2] == 0
    assert phase1_failures >= 20


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
    # on this instance, whose full table gives (None, 3, 0)
    u = RngStream(4, 114).generator().random((4, 4))
    np.fill_diagonal(u, 2.0)
    assert irving_decide(preference_rows(u), u) == (None, 3, 0)
    for pref in (np.argsort(u, axis=1), preference_rows(u)[:, :0], preference_rows(u)[:3],
                 preference_rows(u)[0]):
        with pytest.raises(ValueError, match="pref"):
            irving_decide(pref, u)
