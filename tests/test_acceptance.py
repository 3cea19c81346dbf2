"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines live.  Every tolerance is pinned here; the stochastic checks use fixed
seeds so a pass is reproducible.
"""

import math
import subprocess
import sys
from itertools import permutations, product

import numpy as np
import pytest

from roommates.combinatorics import (
    brute_pair_census,
    double_factorial,
    harmonic,
    overlap_pair_bound,
    single_cycle_count,
)
from roommates.estimators import (
    PartnerUtilities,
    check_gpi,
    estimate_conditional_two_point,
    estimate_expected_X,
)
from roommates.experiments import (
    ExperimentConfig,
    _census_chunk,
    gpi_weighted_frequency,
    reference_with_cycles,
    run_scaling,
)
from roommates.exponent import (
    lambert_w_branch_minus1,
    tstar_closed_form,
    tstar_grid_search,
)
from roommates.instances import RngStream, sample_profile
from roommates.matchings import Matching, is_stable, iter_perfect_matchings, symmetric_difference
from roommates.solvers import enumerate_stable, irving_solve

from conftest import two_sided_z


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_c01_decision_oracle_equivalence():
    checked = 0
    for n in (4, 6, 8, 10, 12):
        for r in range(10_000):
            p = sample_profile(n, RngStream(3000 + n, r))
            solve = irving_solve(p)
            census = enumerate_stable(p, materialize=False)
            assert solve.found == (census.X >= 1), (n, r)
            if solve.found:
                assert is_stable(p, solve.matching), (n, r)
            checked += 1
    _report(
        1,
        "decision oracle equivalence",
        checked == 50_000,
        f"{checked} instances, every decision and returned matching agreed",
    )


def test_c02_exact_counting():
    ok = True
    for n in (4, 6, 8, 10):
        ok &= int(double_factorial(n - 1)) == sum(1 for _ in iter_perfect_matchings(n))
    details = []
    for n in (4, 6, 8, 10, 12):
        ref = Matching.consecutive(n)
        census = {}
        for m in iter_perfect_matchings(n):
            dec = symmetric_difference(ref, m)
            if dec.mu == 1:
                nu = dec.total_length // 2
                census[nu] = census.get(nu, 0) + 1
        for nu in range(2, n // 2 + 1):
            if int(single_cycle_count(n, nu)) != census.get(nu, 0):
                ok = False
                details.append(f"n={n} nu={nu}")
    _report(
        2,
        "exact counting formulas",
        ok,
        "double factorial (n<=10) and single-cycle counts (n<=12) match enumeration"
        + (f"; mismatches: {details}" if details else ""),
    )


def test_c03_overlap_bound_one_sided():
    worst = 0.0
    for n in (8, 10, 12):
        slack = 1.0 + 10.0 / math.sqrt(n)
        for nu1 in range(2, n // 2 + 1):
            for nu2 in range(nu1, n // 2 + 1):
                for (t, s), cnt in brute_pair_census(n, nu1, nu2).items():
                    if t == 0:
                        continue
                    bound = math.exp(overlap_pair_bound(n, nu1, nu2, t, s))
                    worst = max(worst, cnt / (bound * slack))
    _report(
        3,
        "pair-overlap count bound",
        worst <= 1.0,
        f"worst census-bucket / slacked-bound ratio {worst:.4f} over n in {{8,10,12}}",
    )


def test_c04_expected_count_reproduction(exact_expected_count_10):
    exact10 = exact_expected_count_10
    est10 = estimate_expected_X(10, 50_000, RngStream(11, 0))
    ok10 = abs(est10.mean - exact10) <= 3.0 * est10.stderr
    est500 = estimate_expected_X(500, 100_000, RngStream(11, 1))
    target = math.exp(0.5)
    ok500 = 1.5 <= est500.mean <= 1.8 and abs(est500.mean - target) <= 3.0 * est500.stderr
    _report(
        4,
        "expected stable-matching count",
        ok10 and ok500,
        f"n=10: {est10.mean:.4f}+-{est10.stderr:.4f} vs exact {exact10:.4f}; "
        f"n=500: {est500.mean:.4f}+-{est500.stderr:.4f} vs {target:.4f}",
    )


@pytest.mark.filterwarnings("ignore:difference size")
def test_c05_conditional_two_point_ratios():
    n = 200
    m, m_one = reference_with_cycles(n, [4])
    _, m_two = reference_with_cycles(n, [4, 4])
    e1 = estimate_conditional_two_point(m, m_one, 30_000, RngStream(7, 0))
    e2 = estimate_conditional_two_point(m, m_two, 30_000, RngStream(7, 1))
    ok = (
        0.8 <= e1.mean <= 1.25
        and 0.8 <= e2.mean <= 1.25
        and e1.ess >= 1000
        and e2.ess >= 1000
    )
    _report(
        5,
        "conditional two-point ratios at n=200",
        ok,
        f"one 4-cycle: {e1.mean:.4f}+-{e1.stderr:.4f} (ess {e1.ess:.0f}); "
        f"two disjoint 4-cycles: {e2.mean:.4f}+-{e2.stderr:.4f} (ess {e2.ess:.0f})",
    )


def _exact_existence_probability_4() -> float:
    """Average the existence indicator over all 1296 profiles on 4 agents."""
    matchings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    perms = {i: list(permutations([a for a in range(4) if a != i])) for i in range(4)}
    hits = 0
    for rows in product(perms[0], perms[1], perms[2], perms[3]):
        rank = [{a: k for k, a in enumerate(row)} for row in rows]
        exists = False
        for pairs in matchings:
            partner = {}
            for a, b in pairs:
                partner[a] = b
                partner[b] = a
            stable = True
            for i in range(4):
                for j in range(i + 1, 4):
                    if partner[i] == j:
                        continue
                    if rank[i][j] < rank[i][partner[i]] and rank[j][i] < rank[j][partner[j]]:
                        stable = False
                        break
                if not stable:
                    break
            if stable:
                exists = True
                break
        hits += exists
    return hits / 1296.0


def test_c06_existence_probability_decay():
    config = ExperimentConfig(
        kind="scaling",
        n_grid=(4, 10, 100, 1000),
        replicates=10_000,
        master_seed=314159,
        workers=2,
    )
    rows = {row.n: row for row in run_scaling(config)}
    p_exact = _exact_existence_probability_4()
    se4 = math.sqrt(p_exact * (1 - p_exact) / rows[4].replicates)
    ok_exact = abs(rows[4].p_hat - p_exact) <= 3.0 * se4
    ok_decay = True
    for a, b in ((10, 100), (100, 1000)):
        gap = rows[a].p_hat - rows[b].p_hat
        ok_decay &= gap > 2.0 * math.sqrt(rows[a].stderr ** 2 + rows[b].stderr ** 2)
    _report(
        6,
        "existence probability decay",
        ok_exact and ok_decay,
        f"exact p(4)={p_exact:.5f} vs {rows[4].p_hat:.5f}; "
        f"p(10)={rows[10].p_hat:.4f} > p(100)={rows[100].p_hat:.4f} > "
        f"p(1000)={rows[1000].p_hat:.4f} with gaps > 2 combined stderr",
    )


def test_c07_conditional_census(census_50, rejection_oracle_8):
    target = harmonic(5) - 1.0
    ok_mean = (
        census_50.ess >= 1000
        and abs(census_50.mean_X_circ_le - target) <= 3.0 * census_50.stderr_X_circ_le
    )

    # conditional sampler vs the rejection ensemble at n=8
    parts = [
        _census_chunk((3456, 8, ci, 2500, None, 3, 12)) for ci in range(4)
    ]
    logw = np.concatenate([p["logw"] for p in parts])
    full_X = np.concatenate([p["full_X"] for p in parts]).astype(float)
    xcirc = np.concatenate([p["xcirc"] for p in parts]).astype(float)
    w = np.exp(logw - logw.max())
    wn = w / w.sum()

    def weighted(vals):
        mu = float((wn * vals).sum())
        return mu, float(np.sqrt((((vals - mu) * wn) ** 2).sum()))

    def unweighted(vals):
        return float(vals.mean()), float(vals.std() / math.sqrt(len(vals)))

    rej_X = rejection_oracle_8["X"].astype(float)
    rej_circ = rejection_oracle_8["xcirc"].astype(float)
    comparisons = [("mean_X", full_X, rej_X)]
    for k in (1, 2, 3):
        comparisons.append((f"P(X={k})", full_X == k, rej_X == k))
    comparisons.append(("P(X>=4)", full_X >= 4, rej_X >= 4))
    comparisons.append(("mean_Xcirc<=2", xcirc[:, 0], rej_circ[:, 0]))
    comparisons.append(("mean_Xcirc3", xcirc[:, 1], rej_circ[:, 1]))
    zs = {}
    for name, cond_vals, rej_vals in comparisons:
        mu_c, se_c = weighted(np.asarray(cond_vals, dtype=float))
        mu_r, se_r = unweighted(np.asarray(rej_vals, dtype=float))
        zs[name] = two_sided_z(mu_c, se_c, mu_r, se_r)
    ok_oracle = all(abs(z) <= 3.0 for z in zs.values())
    _report(
        7,
        "conditional census",
        ok_mean and ok_oracle,
        f"n=50 single-cycle mean {census_50.mean_X_circ_le:.4f}"
        f"+-{census_50.stderr_X_circ_le:.4f} vs {target:.4f} (ess {census_50.ess:.0f}); "
        "n=8 sampler-vs-rejection z-scores "
        + ", ".join(f"{k}={v:+.2f}" for k, v in zs.items()),
    )


def test_c08_exponent_constants():
    cf = tstar_closed_form()
    grid = tstar_grid_search(1e-4)
    zs = -np.exp(
        np.linspace(math.log(1e-9), math.log((1.0 / math.e) * (1.0 - 1e-9)), 1000)
    )
    residual = max(
        abs(lambert_w_branch_minus1(float(z)) * math.exp(lambert_w_branch_minus1(float(z))) - float(z))
        for z in zs
    )
    ok = (
        abs(cf.s - 0.9852) <= 1e-4
        and abs(cf.alpha - 0.2348) <= 1e-4
        and abs(cf.gamma - 0.087668) <= 1e-5
        and abs(cf.t_star - 0.060766) <= 1e-5
        and residual <= 1e-12
        and abs(grid.s - cf.s) <= 1e-3
        and abs(grid.alpha - cf.alpha) <= 1e-3
        and abs(grid.gamma - cf.gamma) <= 1e-3
        and cf.t_star > 1.0 / 17.0
    )
    _report(
        8,
        "exponent optimization constants",
        ok,
        f"s={cf.s:.6f} alpha={cf.alpha:.6f} gamma={cf.gamma:.7f} "
        f"t*={cf.t_star:.7f} > 1/17; Lambert residual {residual:.1e}; "
        f"grid within 1e-3 per coordinate",
    )


def test_c09_quasirandomness_event():
    n = 10_000
    m = Matching.consecutive(n)
    pin = check_gpi(PartnerUtilities(np.full(n, n ** -0.5), m))
    pin_ok = pin.sum_ok and pin.max_ok and pin.pair_ok and not pin.square_ok
    est = gpi_weighted_frequency(1000, 4000, RngStream(909))
    freq_ok = est.mean >= 0.99
    _report(
        9,
        "quasirandomness event",
        pin_ok and freq_ok,
        f"pinning example {'ok' if pin_ok else 'violated'}; weighted frequency at "
        f"n=1000 is {est.mean:.4f}+-{est.stderr:.4f} (ess {est.ess:.0f}) vs required 0.99"
        " [the square-sum statistic fluctuates with sd ~ 2*sqrt(3/n) = 0.11 at n=1000,"
        " wider than its n^(-1/3) = 0.10 acceptance band, so the event frequency"
        " cannot reach 0.99 below n ~ 10^6; see the decisions ledger]",
    )


def test_c10_csv_determinism(tmp_path):
    specs = [
        ("scaling", ["--n-grid", "4,6", "--replicates", "400"]),
        ("ex-scaling", ["--n-grid", "10", "--samples", "5000"]),
        ("census", ["--n-grid", "10", "--samples", "200", "--nu-cap", "3"]),
    ]
    ok = True
    details = []
    for kind, flags in specs:
        outputs = []
        for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
            out = tmp_path / f"{kind}-{tag}.csv"
            cmd = [
                sys.executable,
                "-m",
                "roommates",
                kind,
                *flags,
                "--seed",
                "424",
                "--workers",
                str(workers),
                "--output",
                str(out),
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1] == outputs[2]
        ok &= same
        details.append(f"{kind}={'identical' if same else 'DIFFERS'}")
    _report(
        10,
        "experiment CSV determinism",
        ok,
        "rerun and worker-count variations byte-identical: " + ", ".join(details),
    )
