import math
from fractions import Fraction

import numpy as np
import pytest

from roommates import _numerics
from roommates._numerics import (
    TruncatedExponential,
    matched_log1p_sum_rows,
    pair_log1p_sum_exact,
    pair_log1p_sum_rows,
    row_sums,
)
from roommates.estimators import (
    Estimate,
    PartnerUtilities,
    _conditional_x_batch,
    _fill_conditional_pairs,
    check_gpi,
    estimate_conditional_two_point,
    estimate_expected_X,
    exact_small_integral,
    sample_instance_given_stable,
    stability_product_log,
    two_point_kernel_log,
)
from roommates.instances import RngStream
from roommates.matchings import Matching, is_stable

from conftest import (
    reference_fill_conditional_pairs,
    reference_pair_log1p_sum_rows,
    reference_stability_masks,
    two_sided_z,
)


def test_partner_utilities_validation():
    m = Matching.consecutive(4)
    with pytest.raises(ValueError):
        PartnerUtilities(np.array([0.1, 0.2, 0.3]), m)
    with pytest.raises(ValueError):
        PartnerUtilities(np.array([0.1, 0.2, 0.3, 1.4]), m)


def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(1.0, -0.1, 10, 5.0)
    with pytest.raises(ValueError):
        Estimate(1.0, 0.1, 10, 11.0)


def test_pair_log_sums_batch_matches_exact():
    rng = np.random.default_rng(2)
    for n in (6, 40, 150):
        X = rng.random((12, n)) * 0.6
        X[0] = rng.random(n)  # full-range row
        X[1, :2] = [0.99, 0.97]  # near-one entries exercise the exact branch
        batch = pair_log1p_sum_rows(X)
        for r in range(12):
            exact = pair_log1p_sum_exact(X[r])
            assert abs(batch[r] - exact) <= 1e-10 * abs(exact) + 1e-12


def test_blocked_batch_kernels_are_bitwise_whole_batch(monkeypatch):
    runs = []
    series = _numerics._power_series_rows
    monkeypatch.setattr(
        _numerics, "_power_series_rows", lambda Xs, k: runs.append(len(Xs)) or series(Xs, k)
    )
    rng = np.random.default_rng(11)

    def check(X, recomputed=False):
        runs.clear()
        out = pair_log1p_sum_rows(X)
        assert np.array_equal(out, reference_pair_log1p_sum_rows(X))
        # a block runs twice only when a later one needs a higher order
        assert (sum(runs) > len(X)) == recomputed
        return out

    n = 200
    rows = _numerics._block_rows(n)

    def base(count):
        return rng.random((count, n)) * 0.05

    check(base(1))
    check(rng.random((1, 12)) * 0.5)
    X = base(3 * rows + 5)  # the last block is short
    check(X)
    X[-1, 7] = 0.5  # the largest entry at or below 0.5, in the last block
    check(X)
    # one 0.45 in the first block stops it at a lower order than a hundred
    # 0.44s in the second block need, so the first block runs again
    X = base(2 * rows)
    X[3, 10] = 0.45
    X[rows + 2, :100] = 0.44
    check(X, recomputed=True)
    X[0, :3] = [0.7, 0.9, 0.6]  # entries above 0.5 take the exact correction
    X[rows + 5, 50] = 0.95
    X[1, [4, 9]] = 1.0  # a vanishing factor: -inf
    out = check(X, recomputed=True)
    assert out[1] == float("-inf") and np.isfinite(np.delete(out, 1)).all()
    check(rng.random((3000, 12)) * 0.6)  # many rows per block at small n

    # the blocked matched-pair and log-density row sums, on batches whose
    # last block would hold a single row, summed pairwise unlike the rest
    partner = np.array(Matching.consecutive(n).partner)
    left, right = np.arange(0, n, 2).tolist(), np.arange(1, n, 2).tolist()
    prop = TruncatedExponential(math.sqrt(n))
    for count in (1, 2, 2 * rows + 1):
        X = rng.random((count, n)) * 0.4
        X[0, :2] = 1.0  # a matched factor of 0: log 0 = -inf
        with np.errstate(divide="ignore"):
            whole = np.log1p(-X[:, left] * X[:, right]).sum(axis=1)
        assert np.array_equal(matched_log1p_sum_rows(X, partner), whole)
        assert np.array_equal(row_sums(prop.log_pdf, X), prop.log_pdf(X).sum(axis=1))


@pytest.mark.parametrize("n", [12, 50, 1000])
def test_large_entry_correction_bitwise_on_census_batches(n):
    # census draws leave most rows with entries above 0.5; the correction
    # sums each (row, big entry) pair as its own row, so it must give the
    # reference's bits with 0, 1, 2 or many big entries per row, big
    # entries in the first and last columns, and a product of 1
    m = Matching.consecutive(n)
    rng = np.random.default_rng(2500 + n)
    X, _ = _conditional_x_batch(m, 24, rng)
    X[:6] = np.minimum(X[:6], 0.5)
    X[1, 0] = 0.9
    X[2, [0, n - 1]] = [0.6, 0.8]
    X[3, [1, 4, 7, n - 1]] = [0.55, 0.7, 0.95, 0.99]
    X[4, rng.choice(n, n // 2, replace=False)] = 0.5 + 0.5 * rng.random(n // 2)
    X[5, [2, n - 1]] = 1.0
    assert (X[:4] > 0.5).sum(axis=1).tolist() == [0, 1, 2, 4]
    out = pair_log1p_sum_rows(X)
    assert np.array_equal(out, reference_pair_log1p_sum_rows(X))
    assert out[5] == float("-inf") and np.isfinite(np.delete(out, 5)).all()
    for r in range(6):  # each as a 1-row batch
        row = X[r : r + 1]
        assert np.array_equal(pair_log1p_sum_rows(row), reference_pair_log1p_sum_rows(row))


def test_stability_product_log_edge_cases():
    m = Matching.consecutive(6)
    assert stability_product_log(PartnerUtilities(np.zeros(6), m)) == 0.0
    x = np.zeros(6)
    x[0] = x[2] = 1.0  # agents 0 and 2 are not partners
    assert stability_product_log(PartnerUtilities(x, m)) == float("-inf")


def test_stability_product_matches_conditional_frequency():
    # resample the free utilities with the matched utilities pinned; the
    # empirical stability frequency is the product over non-matched pairs
    n = 6
    m = Matching.consecutive(n)
    x = np.array([0.3, 0.25, 0.35, 0.2, 0.4, 0.3])
    target = math.exp(stability_product_log(PartnerUtilities(x, m)))
    gen = np.random.default_rng(7331)
    B = 1_000_000
    U = gen.random((B, n, n))
    U[:, np.arange(n), np.array(m.partner)] = x
    freq = reference_stability_masks(U, m).mean()
    se = math.sqrt(target * (1 - target) / B)
    assert abs(freq - target) <= 3.0 * se


def test_two_point_kernel_identity_is_bitwise():
    m = Matching.consecutive(6)
    gen = np.random.default_rng(3)
    for _ in range(10):
        x = PartnerUtilities(gen.random(6), m)
        y = PartnerUtilities(x.values.copy(), m)
        assert two_point_kernel_log(x, y) == stability_product_log(x)


def test_two_point_kernel_orientation_and_agreement_checks():
    m = Matching.consecutive(6)
    m1 = Matching.from_pairs(6, [(0, 2), (1, 3), (4, 5)])
    x = PartnerUtilities(np.full(6, 0.5), m)
    bad = np.full(6, 0.4)
    bad[4] = 0.6  # disagrees off the difference set
    with pytest.raises(ValueError):
        two_point_kernel_log(x, PartnerUtilities(bad, m1))
    non_alt = np.array([0.4, 0.3, 0.2, 0.1, 0.5, 0.5])  # all below x on the cycle
    assert two_point_kernel_log(x, PartnerUtilities(non_alt, m1)) is None
    with pytest.raises(ValueError):
        two_point_kernel_log(x, PartnerUtilities(np.full(6, 0.5), m1))
    with pytest.raises(ValueError):
        two_point_kernel_log(x, PartnerUtilities(np.full(8, 0.5), Matching.consecutive(8)))


def _kernel_draws(gen, B):
    """B draws of x and y at n=6 for the one 4-cycle (0, 1, 3, 2) between m
    and m1: y redraws x on the cycle.  Returns both references, the draws,
    whether each row alternates around the cycle, and the kernel as an
    inline product over the pairs outside both matchings."""
    n = 6
    m = Matching.consecutive(n)
    m1 = Matching.from_pairs(n, [(0, 2), (1, 3), (4, 5)])
    diff = [0, 1, 2, 3]
    x = gen.random((B, n))
    y = x.copy()
    y[:, diff] = gen.random((B, len(diff)))
    s0 = y[:, 0] < x[:, 0]
    s1 = y[:, 1] < x[:, 1]
    s3 = y[:, 3] < x[:, 3]
    s2 = y[:, 2] < x[:, 2]
    alternating = (s0 != s1) & (s1 != s3) & (s3 != s2) & (s2 != s0)
    kernel = np.ones(B)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i] == j or m1[i] == j:
                continue
            kernel *= (
                1.0
                - x[:, i] * x[:, j]
                - y[:, i] * y[:, j]
                + np.minimum(x[:, i], y[:, i]) * np.minimum(x[:, j], y[:, j])
            )
    return m, m1, x, y, alternating, kernel


def test_two_point_kernel_integral_matches_joint_stability():
    # two routes to P(both matchings stable) at n=6: plain Monte Carlo over
    # random instances, and plain Monte Carlo integration of the kernel
    n = 6
    m = Matching.consecutive(n)
    m1 = Matching.from_pairs(n, [(0, 2), (1, 3), (4, 5)])
    gen = np.random.default_rng(909)

    B1 = 4_000_000
    U = gen.random((B1, n, n))
    joint = reference_stability_masks(U, m) & reference_stability_masks(U, m1)
    p_direct = joint.mean()
    se_direct = math.sqrt(p_direct * (1 - p_direct) / B1)

    B2 = 4_000_000
    _, _, _, _, alternating, kernel = _kernel_draws(gen, B2)
    vals = kernel * alternating
    p_kernel = vals.mean()
    se_kernel = vals.std() / math.sqrt(B2)
    assert abs(two_sided_z(p_direct, se_direct, p_kernel, se_kernel)) <= 3.0


def test_two_point_kernel_log_matches_inline_product():
    # two_point_kernel_log on the draws the integral above averages: the log
    # of the inline product where the cycle alternates, None where not
    m, m1, x, y, alternating, kernel = _kernel_draws(np.random.default_rng(910), 3000)
    assert 0 < alternating.sum() < len(x)
    for xr, yr, alt, k in zip(x, y, alternating, kernel):
        got = two_point_kernel_log(PartnerUtilities(xr, m), PartnerUtilities(yr, m1))
        if alt:
            assert math.isclose(got, math.log(k), rel_tol=1e-12)
        else:
            assert got is None


@pytest.mark.parametrize("shape", [(1, 1000), (37, 101), (8192, 1000)])
def test_truncated_exponential_draws_in_place(shape):
    # the in-place transform equals the expression it replaced, bit for bit
    # and sign bit for sign bit
    prop = TruncatedExponential(math.sqrt(shape[1]))
    got = prop.sample(RngStream(21, 4).generator(), shape)
    u = RngStream(21, 4).generator().random(shape)
    want = -np.log1p(-u * -math.expm1(-prop.rate)) / prop.rate
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_expected_count_estimator_against_exact_oracle(exact_expected_count_10):
    exact = exact_expected_count_10
    est = estimate_expected_X(10, 50_000, RngStream(11, 0))
    assert not est.degenerate
    assert abs(est.mean - exact) <= 3.0 * est.stderr


def test_expected_count_estimator_self_consistent_across_n():
    e100 = estimate_expected_X(100, 20_000, RngStream(12, 0))
    e1000 = estimate_expected_X(1000, 20_000, RngStream(12, 1))
    assert abs(two_sided_z(e100.mean, e100.stderr, e1000.mean, e1000.stderr)) <= 3.0


def test_expected_count_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_expected_X(7, 5000, RngStream(0))
    with pytest.raises(ValueError):
        estimate_expected_X(10, 10, RngStream(0))


def test_log_weight_spread_is_small():
    # under the sqrt(n)-rate proposal the log-weights fluctuate O(1)
    for n in (100, 200):
        _, logw = _conditional_x_batch(Matching.consecutive(n), 4000, RngStream(13, n).generator())
        assert float(np.std(logw)) <= 5.0


def test_conditional_two_point_identity():
    m = Matching.consecutive(20)
    est = estimate_conditional_two_point(m, m, 2000, RngStream(1))
    assert est.mean == 1.0 and est.stderr == 0.0


def test_conditional_two_point_against_rejection_oracle():
    # P(neighbor stable | reference stable) at n=8, brute force vs estimator
    n = 8
    m = Matching.consecutive(n)
    m1 = Matching.from_pairs(n, [(0, 2), (1, 3), (4, 5), (6, 7)])
    gen = np.random.default_rng(99)
    both = base = 0
    for _ in range(4):
        U = gen.random((150_000, n, n))
        s0 = reference_stability_masks(U, m)
        s1 = reference_stability_masks(U, m1)
        base += s0.sum()
        both += (s0 & s1).sum()
    p_brute = both / base
    se_brute = math.sqrt(p_brute * (1 - p_brute) / base)
    with pytest.warns(UserWarning):
        est = estimate_conditional_two_point(m, m1, 40_000, RngStream(5, 1))
    norm = 2.0 * n ** -2.0
    assert est.ess >= 1000
    z = two_sided_z(est.mean * norm, est.stderr * norm, p_brute, se_brute)
    assert abs(z) <= 3.0


def test_disjoint_cycles_nearly_factorize():
    from roommates.experiments import reference_with_cycles

    n = 200
    m, m_one = reference_with_cycles(n, [4])
    _, m_two = reference_with_cycles(n, [4, 4])
    e1 = estimate_conditional_two_point(m, m_one, 8000, RngStream(21, 0))
    # the second cycle alone, shifted to pairs (2,3): same normalized law by
    # symmetry, estimated with fresh randomness
    e1b = estimate_conditional_two_point(m, m_one, 8000, RngStream(21, 1))
    e2 = estimate_conditional_two_point(m, m_two, 8000, RngStream(21, 2))
    ratio = e2.mean / (e1.mean * e1b.mean)
    assert 0.7 <= ratio <= 1.4


def test_sample_instance_always_stable():
    m = Matching.consecutive(8)
    gen = RngStream(40).generator()
    for _ in range(60):
        profile, weight = sample_instance_given_stable(m, 8, gen)
        assert weight > 0
        assert is_stable(profile, m)


@pytest.mark.parametrize("n", [12, 50, 200, 1000])
def test_conditional_pair_fill_equals_triu_index_fill(n):
    # the fill writes through a cached pair mask; the draws, their order and
    # the array (NaN diagonal included) are those of the triu-index scatter
    gen = np.random.default_rng(n)
    pairs = gen.permutation(n).reshape(-1, 2)
    partner = np.empty(n, dtype=int)
    partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    for m in (Matching.consecutive(n), Matching(tuple(partner.tolist()))):
        X, _ = _conditional_x_batch(m, 3, gen, None)
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        for x in X:
            U = _fill_conditional_pairs(m, x, fast)
            assert np.array_equal(U, reference_fill_conditional_pairs(m, x, slow), equal_nan=True)
            assert np.isnan(np.diag(U)).all()
        assert fast.bit_generator.state == slow.bit_generator.state


def test_conditional_pair_fill_uniform_on_allowed_region():
    # for a fixed non-matched pair, the draw is uniform on the unit square
    # minus the blocking rectangle
    n = 6
    m = Matching.consecutive(n)
    x = np.full(n, 0.5)
    gen = np.random.default_rng(17)
    a_vals, b_vals = [], []
    for _ in range(4000):
        U = _fill_conditional_pairs(m, x, gen)
        a_vals.append(U[0, 2])
        b_vals.append(U[2, 0])
    a = np.array(a_vals)
    b = np.array(b_vals)
    assert not np.any((a < 0.5) & (b < 0.5))
    # chi-square over the three allowed quadrants at the blocking corner
    masses = {
        (0, 1): 0.25,
        (1, 0): 0.25,
        (1, 1): 0.25,
    }
    norm = 0.75
    chi2 = 0.0
    for (qa, qb), area in masses.items():
        observed = np.sum(((a >= 0.5) == qa) & ((b >= 0.5) == qb))
        expected = len(a) * area / norm
        chi2 += (observed - expected) ** 2 / expected
    assert chi2 <= 13.8  # dof=2, p ~ 0.001


@pytest.mark.parametrize("n", [6, 8])
def test_conditional_x_moments_match_exact_ratios(n):
    # weighted conditional moments against exact polynomial-integral ratios
    m = Matching.consecutive(n)
    base = exact_small_integral(m)
    X, logw = _conditional_x_batch(m, 60_000, RngStream(23, n).generator())
    w = np.exp(logw - logw.max())
    wn = w / w.sum()
    for b1, b2 in [((0,), ()), ((), (0,)), ((0, 3), ())]:
        target = float(exact_small_integral(m, b1, b2) / base)
        vals = np.ones(len(X))
        for j in b1:
            vals = vals * X[:, j]
        for j in b2:
            vals = vals * X[:, j] ** 2
        mean = float((wn * vals).sum())
        se = float(np.sqrt((((vals - mean) * wn) ** 2).sum()))
        assert abs(mean - target) <= 3.0 * se


def test_exact_small_integral_values():
    assert exact_small_integral(Matching.from_pairs(2, [(0, 1)])) == 1
    v4 = exact_small_integral(Matching.consecutive(4))
    assert v4 == Fraction(233, 648)
    # Monte Carlo confirmation of the frozen rational
    gen = np.random.default_rng(3)
    X = gen.random((2_000_000, 4))
    prod = (
        (1 - X[:, 0] * X[:, 2])
        * (1 - X[:, 0] * X[:, 3])
        * (1 - X[:, 1] * X[:, 2])
        * (1 - X[:, 1] * X[:, 3])
    )
    se = prod.std() / math.sqrt(len(prod))
    assert abs(prod.mean() - float(v4)) <= 3.0 * se


def test_exact_small_integral_moment_factors():
    m4 = Matching.consecutive(4)
    base = exact_small_integral(m4)
    with_x = exact_small_integral(m4, b1=(0,))
    assert with_x < base
    with pytest.raises(ValueError):
        exact_small_integral(m4, b1=(0,), b2=(0,))
    with pytest.raises(ValueError):
        exact_small_integral(Matching.consecutive(12))


def test_gpi_pinning_example():
    # constant vector at the typical scale: the sum, max, and matched-pair
    # statistics sit exactly on target, while the square sum is 1, a unit
    # away from 2, far outside the n^(-1/3) band: the fourth event fails
    n = 10_000
    m = Matching.consecutive(n)
    x = PartnerUtilities(np.full(n, n ** -0.5), m)
    report = check_gpi(x)
    assert report.sum_ok and report.max_ok and report.pair_ok
    assert abs(report.sum_x - 100.0) < 1e-9
    assert abs(report.matched_pair_sum - 0.5) < 1e-12
    assert abs(report.square_sum - 1.0) < 1e-12
    assert not report.square_ok
    assert not report.holds


def test_gpi_zero_vector_fails_sum():
    n = 10_000
    report = check_gpi(PartnerUtilities(np.zeros(n), Matching.consecutive(n)))
    assert not report.sum_ok  # |0 - 100| = 100 > 10 log n ~ 92.1
    assert not report.holds


def test_gpi_holds_for_typical_conditional_draw():
    n = 10_000
    m = Matching.consecutive(n)
    X, _ = _conditional_x_batch(m, 8, RngStream(61).generator())
    reports = [check_gpi(PartnerUtilities(row, m)) for row in X]
    assert all(r.sum_ok and r.max_ok and r.pair_ok for r in reports)
    assert any(r.holds for r in reports)


@pytest.mark.filterwarnings("ignore:difference size")
def test_estimator_outputs_pinned_bitwise():
    # repr of (mean, stderr, ess) at fixed seeds; any change to the draws or
    # to the order of a floating-point reduction shows up in the last digits
    from roommates.experiments import gpi_weighted_frequency, reference_with_cycles

    def pin(est):
        return repr(est.mean), repr(est.stderr), repr(est.ess)

    assert pin(estimate_expected_X(100, 2000, RngStream(1), batch_size=512)) == (
        "1.6500296429958154", "0.015625725431150643", "1695.9632294689795"
    )
    assert pin(estimate_expected_X(100, 2000, RngStream(2), batch_size=512)) == (
        "1.644578388335562", "0.0156528812249743", "1693.3524037720997"
    )
    m, m1 = reference_with_cycles(40, [4])
    assert pin(estimate_conditional_two_point(m, m1, 600, RngStream(3), batch_size=256)) == (
        "1.031170019420691", "0.05715135610155469", "487.0608829194992"
    )
    assert pin(estimate_conditional_two_point(m, m1, 600, RngStream(4), batch_size=256)) == (
        "1.0652820002033963", "0.06273492870272211", "499.70819048032877"
    )
    assert pin(gpi_weighted_frequency(100, 1500, RngStream(5), batch_size=512)) == (
        "0.4771687636733192", "0.014159810125510968", "1257.5442003334504"
    )
    assert pin(gpi_weighted_frequency(100, 1500, RngStream(6), batch_size=512)) == (
        "0.4437404634604851", "0.014127357720991728", "1266.0157360483815"
    )
