import math

import numpy as np
import pytest

from roommates.exponent import (
    lambert_w_branch_minus1,
    objective,
    tstar_closed_form,
    tstar_grid_search,
)


def test_objective_examples():
    assert objective(0.0, 0.0, 0.0) == 0.0
    assert objective(0.25, 0.1, 1.0) <= 0.0
    assert abs(objective(0.2348, 0.087668, 0.9852) - 0.060766) <= 1e-4
    with pytest.raises(ValueError):
        objective(0.3, 0.1, 1.0)
    with pytest.raises(ValueError):
        objective(0.1, -0.1, 1.0)


def test_lambert_known_points():
    assert lambert_w_branch_minus1(-2.0 * math.exp(-2.0)) == pytest.approx(-2.0, abs=1e-12)
    w = lambert_w_branch_minus1(-1.0 / (2.0 * math.e))
    assert w == pytest.approx(-2.678346990016661, abs=1e-9)
    assert w <= -1.0
    with pytest.raises(ValueError):
        lambert_w_branch_minus1(-1.0)
    with pytest.raises(ValueError):
        lambert_w_branch_minus1(0.1)


def test_lambert_residuals_across_domain():
    zs = -np.exp(
        np.linspace(math.log(1e-9), math.log((1.0 / math.e) * (1.0 - 1e-9)), 1000)
    )
    for z in zs:
        w = lambert_w_branch_minus1(float(z))
        assert w <= -1.0
        assert abs(w * math.exp(w) - float(z)) <= 1e-12


def test_lambert_matches_scipy():
    from scipy.special import lambertw as scipy_lambertw

    for z in (-0.3, -1.0 / (2.0 * math.e), -1e-4, -0.36787):
        ours = lambert_w_branch_minus1(z)
        ref = float(scipy_lambertw(z, k=-1).real)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_principal_branch_rejected_by_positivity():
    # the other real solution of w e^w = -1/(2e) lies in (-1, 0); it would
    # give a negative tilt parameter, so the secondary branch is the one
    z = -1.0 / (2.0 * math.e)
    lo, hi = -1.0, -1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) > z:
            hi = mid
        else:
            lo = mid
    w0 = 0.5 * (lo + hi)
    s_principal = -w0 - 1.0 - math.log(2.0)
    assert s_principal < 0.0
    s_secondary = -lambert_w_branch_minus1(z) - 1.0 - math.log(2.0)
    assert s_secondary > 0.0


def test_closed_form_reproduces_reference_constants():
    sol = tstar_closed_form()
    assert abs(sol.s - 0.9852) <= 1e-4
    assert abs(sol.alpha - 0.2348) <= 1e-4
    assert abs(sol.gamma - 0.087668) <= 1e-5
    assert abs(sol.t_star - 0.060766) <= 1e-5
    assert sol.t_star >= 0.060766 - 1e-6
    assert sol.t_star > 1.0 / 17.0
    assert 0.0 <= sol.alpha < 0.25 and sol.gamma >= 0.0 and sol.s >= 0.0


def test_closed_form_equal_terms():
    t = tstar_closed_form().objective_terms
    assert abs(t[0] - t[1]) <= 1e-10
    assert abs(t[0] - t[2]) <= 1e-10
    assert t[3] > t[0]
    # stationarity of the underlying one-variable problem
    s = tstar_closed_form().s
    assert abs((s + math.log(2.0) + 1.0) * math.exp(-s) - 1.0) <= 1e-10


def test_grid_search_agrees_with_closed_form():
    cf = tstar_closed_form()
    coarse = tstar_grid_search(1e-3)
    assert abs(coarse.t_star - cf.t_star) <= 5e-3
    fine = tstar_grid_search(1e-4)
    assert abs(fine.s - cf.s) <= 1e-3
    assert abs(fine.alpha - cf.alpha) <= 1e-3
    assert abs(fine.gamma - cf.gamma) <= 1e-3
    for sol in (coarse, fine):
        assert sol.t_star <= cf.t_star + 1e-9
        assert sol.t_star == min(sol.objective_terms)
    for bad in (0.0, math.inf):
        with pytest.raises(ValueError, match="resolution"):
            tstar_grid_search(bad)


def test_grid_search_pinned_in_bounded_memory():
    # the search used to keep every slice of a zoom level alive: a peak of
    # ~600 MB at this resolution, ~1.3 GB at the default 1e-4
    import tracemalloc

    tracemalloc.start()
    try:
        sol = tstar_grid_search(1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repr((sol.s, sol.alpha, sol.gamma, sol.t_star)) == (
        "(0.8730000000000007, 0.23400000000000015, 0.08700000000000005, 0.060303804708715276)"
    )
    assert peak < 64 * 2**20
