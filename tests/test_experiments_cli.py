import json
import math
import subprocess
import sys

import numpy as np
import pytest

from roommates.estimators import _conditional_x_batch, _fill_conditional_pairs
from roommates.experiments import (
    ConfigError,
    ExperimentConfig,
    gpi_weighted_frequency,
    reference_with_cycles,
    run_conditional_census,
    run_ex_scaling,
    run_experiment,
    run_scaling,
    stable_single_cycle_neighbors,
)
from roommates.instances import RngStream
from roommates.matchings import Matching, is_stable, single_cycle_neighbors
from roommates.solvers import ENUM_CAP

from conftest import profile_from_utilities_fast


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope", n_grid=(10,))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="scaling", n_grid=(7,))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="scaling", n_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="scaling", n_grid=(10,), replicates=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="census", n_grid=(8,), nu_cap=5)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="scaling", n_grid=(10,), workers=0)


def test_seed_stream_key_bounds():
    # n and the chunk index fill 20 and 32 bits of the stream key; larger
    # values used to alias other streams (n = 2**20 + 4 drew n = 4's)
    ExperimentConfig(kind="scaling", n_grid=(2**20 - 2,))
    for kind in ("scaling", "census", "ex-scaling"):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind=kind, n_grid=(2**20 + 4,))
    # chunk counts at each kind's default chunk size, and at an explicit one
    ExperimentConfig(kind="scaling", n_grid=(4,), replicates=256 * (2**32 - 1))
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="scaling", n_grid=(4,), replicates=256 * 2**32)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="census", n_grid=(4,), samples=128 * 2**32, nu_cap=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ex-scaling", n_grid=(4,), samples=8192 * 2**32)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="ex-scaling", n_grid=(4,), samples=2**32, chunk_size=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="scaling", n_grid=(4,), chunk_size=-1)


def test_enum_cap_beyond_solver_cap_fails_before_work(tmp_path):
    ExperimentConfig(kind="census", n_grid=(22,), enum_cap=ENUM_CAP)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="census", n_grid=(22,), enum_cap=ENUM_CAP + 1)
    out = tmp_path / "c.csv"
    run = _cli(
        "census", "--n-grid", "22", "--enum-cap", "22", "--samples", "4",
        "--output", str(out),
    )
    assert run.returncode == 2
    assert not out.exists()


def test_config_hash_ignores_workers_and_output():
    a = ExperimentConfig(kind="scaling", n_grid=(10,), workers=1, output="a.csv")
    b = ExperimentConfig(kind="scaling", n_grid=(10,), workers=4, output="b.csv")
    c = ExperimentConfig(kind="scaling", n_grid=(10,), master_seed=1)
    assert a.config_hash() == b.config_hash() != c.config_hash()


def test_stable_neighbor_search_matches_brute_force():
    gen = np.random.default_rng(31)
    for n in (8, 10):
        m = Matching.consecutive(n)
        for _ in range(40):
            X, _ = _conditional_x_batch(m, 1, gen)
            U = _fill_conditional_pairs(m, X[0], gen)
            profile = profile_from_utilities_fast(U)
            assert is_stable(profile, m)
            found = {
                tuple(sorted(d.items()))
                for _, d in stable_single_cycle_neighbors(U, m, n // 2)
            }
            brute = set()
            for nu in range(2, n // 2 + 1):
                for nb in single_cycle_neighbors(m, nu):
                    if is_stable(profile, nb):
                        brute.add(
                            tuple(
                                sorted(
                                    (i, nb[i]) for i in range(n) if nb[i] != m[i]
                                )
                            )
                        )
            assert found == brute


def test_scaling_row_fields():
    cfg = ExperimentConfig(
        kind="scaling", n_grid=(4, 6), replicates=500, master_seed=3, workers=1
    )
    rows = run_scaling(cfg)
    for row in rows:
        assert row.p_hat == row.count_exists / row.replicates
        assert row.stderr == pytest.approx(
            math.sqrt(row.p_hat * (1 - row.p_hat) / row.replicates)
        )
        assert 0.0 <= row.p_hat <= 1.0
    assert rows[0].mertens_prediction == pytest.approx(
        math.e * math.sqrt(2 / math.pi) * 4 ** -0.25
    )


def test_ex_scaling_stderr_halves_when_samples_quadruple():
    # stderr scales like 1/sqrt(S): doubling samples shrinks it by sqrt(2)
    base = ExperimentConfig(kind="ex-scaling", n_grid=(12,), samples=20_000, master_seed=9)
    double = ExperimentConfig(kind="ex-scaling", n_grid=(12,), samples=40_000, master_seed=9)
    r1 = run_ex_scaling(base)[0]
    r2 = run_ex_scaling(double)[0]
    ratio = r1.stderr / r2.stderr
    assert math.sqrt(2.0) * 0.8 <= ratio <= math.sqrt(2.0) * 1.2


def test_census_row_invariants():
    cfg = ExperimentConfig(
        kind="census", n_grid=(10,), samples=150, master_seed=4, workers=1, nu_cap=3
    )
    row = run_conditional_census(cfg)[0]
    assert row.mean_X is not None and row.mean_X >= 1.0
    for rate in (row.d1_rate, row.d3_rate, row.gpi_rate):
        assert 0.0 <= rate <= 1.0
    assert row.ess <= row.samples
    assert row.mean_X_circ_le == pytest.approx(sum(row.mean_X_circ_by_nu.values()))


def test_census_combine_failure_decays_per_pair(census_50):
    # the chance that a disjoint stable pair fails to combine decays with n
    # (the event rate itself rises at desk scale because stable pairs get
    # more numerous faster than the per-pair failure decays)
    cfg20 = ExperimentConfig(
        kind="census", n_grid=(20,), samples=1600, master_seed=901, workers=2, nu_cap=5
    )
    row20 = run_conditional_census(cfg20)[0]
    assert row20.ess >= 1000 and census_50.ess >= 1000
    assert census_50.combine_fail_per_pair < row20.combine_fail_per_pair


def test_reference_with_cycles():
    m, m1 = reference_with_cycles(12, [4, 6])
    from roommates.matchings import symmetric_difference

    dec = symmetric_difference(m, m1)
    assert dec.mu == 2 and sorted(dec.half_lengths) == [2, 3]
    with pytest.raises(ConfigError):
        reference_with_cycles(6, [4, 4])
    with pytest.raises(ConfigError):
        reference_with_cycles(8, [3])


def test_gpi_weighted_frequency_small_n():
    est = gpi_weighted_frequency(100, 3000, RngStream(2))
    assert 0.0 <= est.mean <= 1.0
    assert est.ess > 1000


def test_csv_and_sidecar(tmp_path):
    out = tmp_path / "scaling.csv"
    cfg = ExperimentConfig(
        kind="scaling",
        n_grid=(4, 6),
        replicates=200,
        master_seed=11,
        output=str(out),
    )
    run_experiment(cfg)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# kind=scaling config_hash=")
    assert lines[1] == "n,replicates,count_exists,p_hat,stderr,mertens_prediction"
    assert len(lines) == 4
    sidecar = json.loads((tmp_path / "scaling.csv.json").read_text())
    assert sidecar["config"]["n_grid"] == [4, 6]
    assert sidecar["config_hash"] == cfg.config_hash()
    assert "numpy" in sidecar["versions"]
    assert sidecar["total_wall_time_s"] > 0


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "roommates", *args],
        capture_output=True,
        text=True,
    )


def test_cli_solve_and_census_instance(tmp_path, no_stable_profile_4):
    from roommates.instances import serialize_instance

    path = tmp_path / "inst.txt"
    path.write_text(serialize_instance(no_stable_profile_4))
    run = _cli("solve", str(path))
    assert run.returncode == 0
    assert "no stable matching" in run.stdout
    run = _cli("census-instance", str(path))
    assert run.returncode == 0
    assert "X = 0" in run.stdout


def test_cli_counts_and_tstar():
    run = _cli("counts", "--n", "8")
    assert run.returncode == 0
    assert "105" in run.stdout and "FAIL" not in run.stdout
    run = _cli("tstar")
    assert run.returncode == 0
    record = json.loads(run.stdout)
    assert abs(record["t_star"] - 0.060766) <= 1e-5


def test_cli_estimate_json_record():
    run = _cli("estimate", "ex", "--n", "10", "--samples", "2000", "--seed", "3")
    assert run.returncode == 0
    record = json.loads(run.stdout)
    assert set(record) == {"estimate", "stderr", "ess", "samples", "seed", "wall_time"}
    assert record["samples"] == 2000 and record["seed"] == 3
    run = _cli(
        "estimate", "two-point", "--n", "30", "--samples", "2000", "--seed", "3",
        "--cycle", "4",
    )
    assert run.returncode == 0
    assert json.loads(run.stdout)["estimate"] > 0


def test_cli_exit_codes(tmp_path):
    assert _cli("scaling", "--n-grid", "7", "--replicates", "5").returncode == 2
    assert _cli("scaling", "--replicates", "5").returncode == 2  # missing n_grid
    big = tmp_path / "big.txt"
    from roommates.instances import sample_profile, serialize_instance

    big.write_text(serialize_instance(sample_profile(30, RngStream(1))))
    assert _cli("census-instance", str(big)).returncode == 3
    assert (
        _cli(
            "scaling", "--n-grid", "4", "--replicates", "5",
            "--output", "/nonexistent-dir/x.csv",
        ).returncode
        == 4
    )
    missing = _cli("solve", str(tmp_path / "missing.txt"))
    assert missing.returncode == 4


def test_cli_config_file_with_flag_override(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_grid": [4], "replicates": 100, "master_seed": 5}))
    out = tmp_path / "s.csv"
    run = _cli("scaling", "--config", str(config), "--output", str(out), "--replicates", "150")
    assert run.returncode == 0
    body = out.read_text()
    assert ",150," in body.splitlines()[2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_grid": [4], "bogus": 1}))
    assert _cli("scaling", "--config", str(bad)).returncode == 2


def test_bad_proposal_rate_rejected(tmp_path):
    # a rate of 0 used to fall back silently to the default sqrt(n), and an
    # infinite one wrote a CSV of NaN estimates
    for rate in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="ex-scaling", n_grid=(10,), proposal_rate=rate)
    with pytest.raises(ValueError, match="rate"):
        gpi_weighted_frequency(10, 100, RngStream(1), proposal_rate=0.0)
    out = tmp_path / "ex.csv"
    run = _cli(
        "ex-scaling", "--n-grid", "10", "--samples", "3000", "--seed", "1",
        "--proposal-rate", "0", "--output", str(out),
    )
    assert run.returncode == 2 and "proposal_rate" in run.stderr
    assert not out.exists()
    for rate in ("0", "nan"):
        run = _cli("estimate", "ex", "--n", "10", "--samples", "2000", "--proposal-rate", rate)
        assert run.returncode == 2 and "rate" in run.stderr


def test_zero_samples_rejected_up_front():
    from roommates.estimators import estimate_conditional_two_point

    m, m1 = reference_with_cycles(40, [4])
    with pytest.raises(ValueError, match="samples"):
        estimate_conditional_two_point(m, m1, 0, RngStream(1))
    with pytest.raises(ValueError, match="samples"):
        gpi_weighted_frequency(10, 0, RngStream(1))
    run = _cli("estimate", "gpi", "--n", "10", "--samples", "0")
    assert run.returncode == 2 and "samples" in run.stderr
    run = _cli("estimate", "two-point", "--n", "40", "--cycle", "4", "--samples", "0")
    assert run.returncode == 2 and "samples" in run.stderr
