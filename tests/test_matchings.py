import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roommates.combinatorics import single_cycle_count
from roommates.instances import RngStream, sample_profile
from roommates.matchings import (
    CycleDecomposition,
    Matching,
    blocking_mask,
    blocking_pairs,
    is_stable,
    iter_perfect_matchings,
    orient,
    single_cycle_neighbors,
    symmetric_difference,
)

from conftest import make_partner_first_profile, relabel_matching, relabel_profile


def matchings_strategy(n: int):
    return st.permutations(range(n)).map(
        lambda perm: Matching.from_pairs(
            n, [(perm[2 * k], perm[2 * k + 1]) for k in range(n // 2)]
        )
    )


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching((1, 0, 2, 3))  # fixed points
    with pytest.raises(ValueError):
        Matching((1, 2, 0, 3))  # not an involution
    with pytest.raises(ValueError):
        Matching((1, 0, 3))  # odd length


def test_matching_text_roundtrip():
    m = Matching.from_pairs(6, [(0, 3), (1, 5), (2, 4)])
    assert m.to_text() == "1-4 2-6 3-5"


@settings(max_examples=60, deadline=None)
@given(matchings_strategy(8))
def test_matching_involution_property(m):
    assert all(m[m[i]] == i and m[i] != i for i in range(8))
    assert len(m.pairs()) == 4


def test_blocking_pairs_partner_first_empty():
    p = make_partner_first_profile(6)
    assert blocking_pairs(p, Matching.consecutive(6)) == []
    assert is_stable(p, Matching.consecutive(6))


def test_blocking_pairs_classic_instance(no_stable_profile_4):
    m = Matching.from_pairs(4, [(0, 1), (2, 3)])
    assert blocking_pairs(no_stable_profile_4, m) == [(1, 2)]
    for m in iter_perfect_matchings(4):
        assert not is_stable(no_stable_profile_4, m)


def test_blocking_pairs_match_double_loop_oracle():
    for seed in range(25):
        p = sample_profile(6, RngStream(42, seed))
        rank = p.rank_matrix()
        for m in iter_perfect_matchings(6):
            expected = []
            for i in range(6):
                for j in range(i + 1, 6):
                    if m[i] == j:
                        continue
                    if rank[i, j] < rank[i, m[i]] and rank[j, i] < rank[j, m[j]]:
                        expected.append((i, j))
            got = blocking_pairs(p, m)
            assert got == expected
            assert is_stable(p, m) == (not expected)


def test_blocking_mask_checks_several_matchings_at_once():
    # one (c, n) row of partner scores and one (c, k) row of agents per
    # matching give each matching's own (k, n) mask
    gen = np.random.default_rng(5)
    matchings = list(iter_perfect_matchings(8))
    for seed in range(5):
        score = sample_profile(8, RngStream(43, seed)).rank_matrix()
        own = np.array([score[np.arange(8), list(m.partner)] for m in matchings])
        rows = gen.integers(0, 8, (len(matchings), 3))
        several = blocking_mask(score, own, rows)
        assert several.shape == (len(matchings), 3, 8)
        for mask, o, r in zip(several, own, rows):
            assert np.array_equal(mask, blocking_mask(score, o, r))
        everyone = np.tile(np.arange(8), (len(matchings), 1))
        stable = ~blocking_mask(score, own, everyone).any(axis=(1, 2))
        assert stable.tolist() == [not blocking_mask(score, o).any() for o in own]

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.permutations(range(6)), matchings_strategy(6))
def test_stability_invariant_under_relabeling(seed, sigma, m):
    p = sample_profile(6, RngStream(seed))
    assert is_stable(p, m) == is_stable(
        relabel_profile(p, list(sigma)), relabel_matching(m, list(sigma))
    )


def test_symmetric_difference_identity_and_4cycle():
    m1 = Matching.from_pairs(4, [(0, 1), (2, 3)])
    assert symmetric_difference(m1, m1).is_empty()
    m2 = Matching.from_pairs(4, [(0, 2), (1, 3)])
    dec = symmetric_difference(m1, m2)
    assert dec.cycles == ((0, 1, 3, 2),)
    assert dec.mu == 1 and dec.total_length == 4


def test_symmetric_difference_two_disjoint_4cycles():
    m = Matching.consecutive(8)
    m2 = Matching.from_pairs(8, [(0, 2), (1, 3), (4, 6), (5, 7)])
    dec = symmetric_difference(m, m2)
    assert dec.mu == 2
    assert dec.vertex_set == frozenset(range(8))
    assert sorted(len(c) // 2 for c in dec.cycles) == [2, 2]


@settings(max_examples=60, deadline=None)
@given(matchings_strategy(10), matchings_strategy(10))
def test_symmetric_difference_properties(m1, m2):
    d12 = symmetric_difference(m1, m2)
    d21 = symmetric_difference(m2, m1)
    assert d12 == d21
    for cyc in d12.cycles:
        assert len(cyc) >= 4 and len(cyc) % 2 == 0
    # edge count of the difference is twice the number of new pairs
    new_pairs = sum(1 for i in range(10) if m1[i] != m2[i]) // 2
    assert d12.total_length == 2 * new_pairs


def test_cycle_decomposition_validation():
    with pytest.raises(ValueError):
        CycleDecomposition(((0, 1),))
    with pytest.raises(ValueError):
        CycleDecomposition(((0, 1, 2, 3), (3, 4, 5, 6)))


@pytest.mark.parametrize("n,nu,expected", [(4, 2, 2), (6, 2, 6), (6, 3, 8), (8, 4, 48)])
def test_single_cycle_neighbor_counts(n, nu, expected):
    ref = Matching.consecutive(n)
    nbs = list(single_cycle_neighbors(ref, nu))
    assert len(nbs) == expected == int(single_cycle_count(n, nu))
    assert len({nb.partner for nb in nbs}) == len(nbs)
    for nb in nbs:
        dec = symmetric_difference(ref, nb)
        assert dec.mu == 1 and dec.total_length == 2 * nu


def test_neighbor_partition_completeness():
    # at n <= 8 the single-cycle neighbors plus multi-cycle matchings
    # exhaust all matchings other than the reference
    for n in (4, 6, 8):
        ref = Matching.consecutive(n)
        by_nu = {}
        multi = 0
        for m in iter_perfect_matchings(n):
            dec = symmetric_difference(ref, m)
            if dec.is_empty():
                continue
            if dec.mu == 1:
                nu = dec.total_length // 2
                by_nu[nu] = by_nu.get(nu, 0) + 1
            else:
                multi += 1
        total = sum(by_nu.values()) + multi + 1
        assert total == len(list(iter_perfect_matchings(n)))
        for nu, cnt in by_nu.items():
            assert cnt == len(list(single_cycle_neighbors(ref, nu)))
        if n <= 6:
            assert multi == 0
        else:
            assert multi > 0


def test_single_cycle_neighbors_bad_nu():
    with pytest.raises(ValueError):
        list(single_cycle_neighbors(Matching.consecutive(6), 4))
    with pytest.raises(ValueError):
        list(single_cycle_neighbors(Matching.consecutive(6), 1))


def test_orient_4cycle():
    m = Matching.consecutive(4)
    m1 = Matching.from_pairs(4, [(0, 2), (1, 3)])
    x = np.array([0.5, 0.5, 0.5, 0.5])
    y = np.array([0.2, 0.8, 0.9, 0.1])  # cycle order (0,1,3,2): below/above/below/above
    od = orient(m, m1, x, y)
    assert od.valid
    assert od.a_side == frozenset({0, 3}) and od.b_side == frozenset({1, 2})
    assert len(od.a_side) == len(od.b_side)


def test_orient_empty_difference_and_outside_query():
    m = Matching.consecutive(6)
    empty = orient(m, m, np.full(6, 0.5), np.full(6, 0.5))
    assert empty.valid and not empty.a_side and not empty.b_side


def test_orient_all_below_invalid():
    m = Matching.consecutive(4)
    m1 = Matching.from_pairs(4, [(0, 2), (1, 3)])
    x = np.full(4, 0.5)
    y = np.full(4, 0.1)
    assert not orient(m, m1, x, y).valid
    with pytest.raises(ValueError):
        orient(m, m1, x, x)  # equal old/new utility on a difference vertex


def test_orientation_count_is_two_per_cycle():
    # exactly 2 of the 2^4 sign patterns on a 4-cycle alternate, and sign
    # patterns multiply across cycles: 2^mu valid orientations in total
    m = Matching.consecutive(8)
    m1 = Matching.from_pairs(8, [(0, 2), (1, 3), (4, 6), (5, 7)])
    x = np.full(8, 0.5)
    valid = 0
    for bits in range(256):
        y = np.array([0.25 if bits >> k & 1 else 0.75 for k in range(8)])
        if orient(m, m1, x, y).valid:
            valid += 1
    assert valid == 2 ** 2
