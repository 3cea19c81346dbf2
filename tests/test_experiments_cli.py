import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from roommates import cli, experiments, matchings
from roommates.cli import main
from roommates.combinatorics import double_factorial, single_cycle_count
from roommates.estimators import _conditional_x_batch, _fill_conditional_pairs
from roommates.experiments import (
    ConfigError,
    ExperimentConfig,
    _census_chunk,
    _neighbor_is_stable,
    gpi_weighted_frequency,
    reference_with_cycles,
    run_conditional_census,
    run_ex_scaling,
    run_experiment,
    run_scaling,
    stable_single_cycle_neighbors,
)
from roommates.instances import (
    InvalidInstanceError, RngStream, UtilityMatrix, rank_from_utilities
)
from roommates.matchings import Matching, blocking_mask, is_stable, single_cycle_neighbors
from roommates.solvers import ENUM_CAP, ResourceCapError

from conftest import reference_single_cycle_neighbors, reference_stability_masks


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
    # nu_cap n/2, and a cap of 3 at n=12, which exercises the pending
    # budget and the pruning of the last step below n/2
    for n, nu_cap in ((8, 4), (10, 5), (12, 3)):
        m = Matching.consecutive(n)
        for _ in range(40):
            X, _ = _conditional_x_batch(m, 1, gen)
            U = _fill_conditional_pairs(m, X[0], gen)
            profile = rank_from_utilities(UtilityMatrix(n, U))
            assert is_stable(profile, m)
            found = {
                tuple(sorted(d.items()))
                for _, d in stable_single_cycle_neighbors(U, m, nu_cap)
            }
            brute = set()
            for nu in range(2, nu_cap + 1):
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


def test_stable_neighbor_search_rejects_nu_cap_below_2():
    # a cycle has half-length >= 2; a cap of 0 used to reach numpy's
    # "negative dimensions are not allowed"
    n = 8
    m = Matching.consecutive(n)
    gen = np.random.default_rng(5)
    X, _ = _conditional_x_batch(m, 1, gen)
    U = _fill_conditional_pairs(m, X[0], gen)
    for nu_cap in (0, 1):
        with pytest.raises(ValueError, match="nu_cap must be >= 2"):
            stable_single_cycle_neighbors(U, m, nu_cap)


# (n, nu_cap): samples, and a digest of the lists that
# stable_single_cycle_neighbors returned on them, in the order found, with
# each new-partner map as its sorted items.  The brute-force comparison
# above sees sets only, and the census chunk pins see counts only.
_PINNED_NEIGHBOR_LISTS = {
    (20, 8): (32, "959da89e8b7643e0"),
    (50, 5): (32, "7ba4250983fcc578"),
    (200, 5): (16, "8aaf091491bf4a06"),
}


@pytest.mark.parametrize("n, nu_cap", list(_PINNED_NEIGHBOR_LISTS))
def test_stable_neighbor_search_order_pinned(n, nu_cap):
    samples, pinned = _PINNED_NEIGHBOR_LISTS[n, nu_cap]
    gen = np.random.default_rng(4100 + n)
    m = Matching.consecutive(n)
    X, _ = _conditional_x_batch(m, samples, gen)
    lists = []
    for k in range(samples):
        U = _fill_conditional_pairs(m, X[k], gen)
        found = stable_single_cycle_neighbors(U, m, nu_cap)
        lists.append([(nu, sorted(d.items())) for nu, d in found])
    assert sum(len(found) >= 2 for found in lists) >= 5  # the order is seen
    assert hashlib.sha256(repr(lists).encode()).hexdigest()[:16] == pinned


def test_neighbor_is_stable_matches_double_loop():
    # every vertex-disjoint pair of found neighbours, merged as the census's
    # d3 check merges them, against the double loop over all pairs of agents
    for n, nu_cap, samples in [(12, 5, 400), (20, 8, 200), (50, 5, 100)]:
        m = Matching.consecutive(n)
        Us = _conditioned_stack(n, samples, 4700 + n)
        outcomes = []
        for U, found in zip(Us, stable_single_cycle_neighbors(Us, m, nu_cap)):
            expected = []
            for k, (_, first) in enumerate(found):
                for _, second in found[k + 1 :]:
                    if first.keys().isdisjoint(second):
                        partner = list(m.partner)
                        for i, j in (first | second).items():
                            partner[i] = j
                        merged = Matching(tuple(partner))
                        expected.append(bool(reference_stability_masks(U[None], merged)[0]))
            assert _neighbor_is_stable(U, found).tolist() == expected, n
            outcomes += expected
        assert set(outcomes) == {True, False}, n


# sha256 prefixes of every array _census_chunk returns, from the search
# before its candidate lists were built in numpy
_PINNED_CENSUS_CHUNKS = {
    (12, 12, 0, 64, None, 5, 12): {
        "logw": "415e24115c2701ad", "xcirc": "9500c66f3c36f1dc", "d1": "49a262a550917552",
        "d3": "58e8f2a1f78f0a59", "disjoint_pairs": "f8bc67a14486bebb",
        "failing_pairs": "c772e13baf22fbab", "gpi": "1de5385a658570fe",
        "full_X": "49f22eb6394ed361",
    },
    (12, 20, 1, 32, None, 8, 12): {
        "logw": "e3382f5905868594", "xcirc": "cb120ee207657430", "d1": "c38003452ec1e353",
        "d3": "66687aadf862bd77", "disjoint_pairs": "278edee491f608f1",
        "failing_pairs": "5341e6b2646979a7", "gpi": "85055cb1126b54c0",
        "full_X": "3d6876a0146de857",
    },
    (12, 50, 2, 32, None, 5, 12): {
        "logw": "5b55835a0b73ead8", "xcirc": "5bb82d3fad5efa58", "d1": "eea490f1c8a8abfb",
        "d3": "6cc4f0e930b34481", "disjoint_pairs": "cbebe8292dde533d",
        "failing_pairs": "b45b6b3b26795b18", "gpi": "29f64ddc717fee09",
        "full_X": "3d6876a0146de857",
    },
}


@pytest.mark.parametrize("args", list(_PINNED_CENSUS_CHUNKS))
def test_census_chunk_outputs_pinned(args):
    out = _census_chunk(args)
    digests = {k: hashlib.sha256(v.tobytes()).hexdigest()[:16] for k, v in out.items()}
    assert digests == _PINNED_CENSUS_CHUNKS[args]


def test_census_search_node_cap(tmp_path, monkeypatch):
    # an instance at n=50 with nu_cap 5 expands about 500 nodes
    monkeypatch.setattr(experiments, "SEARCH_NODE_CAP", 50)
    m = Matching.consecutive(50)
    gen = np.random.default_rng(3)
    X, _ = _conditional_x_batch(m, 1, gen)
    U = _fill_conditional_pairs(m, X[0], gen)
    with pytest.raises(ResourceCapError, match="n=50, nu_cap=5"):
        stable_single_cycle_neighbors(U, m, 5)
    out = tmp_path / "c.csv"
    code = main(["census", "--n-grid", "50", "--samples", "4", "--output", str(out)])
    assert code == 3
    assert not out.exists()


def _conditioned_stack(n: int, samples: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    m = Matching.consecutive(n)
    X, _ = _conditional_x_batch(m, samples, gen)
    return np.stack([_fill_conditional_pairs(m, x, gen) for x in X])


def _as_items(found):
    return [(nu, list(d.items())) for nu, d in found]


# (n, nu_cap, samples): 330 instances, few of them at n=200 with nu_cap 8,
# where one instance takes the reference about a second
_REFERENCE_CASES = [
    (8, 2, 40), (8, 4, 40), (10, 3, 30), (12, 5, 40), (14, 7, 20), (16, 8, 20),
    (20, 8, 30), (30, 4, 20), (50, 5, 40), (50, 8, 10), (100, 6, 10), (200, 2, 12),
    (200, 5, 16), (200, 8, 2),
]


@pytest.mark.parametrize("n, nu_cap, samples", _REFERENCE_CASES)
def test_stable_neighbor_search_matches_reference(n, nu_cap, samples):
    # the same lists in the same order, each map with the same key order,
    # from one stack of every sample and from each sample alone; and the
    # reference without the pending set finds the same lists in no fewer
    # nodes, so the set drops no stable cycle
    m = Matching.consecutive(n)
    Us = _conditioned_stack(n, samples, 4200 + 10 * n + nu_cap)
    pruned = [reference_single_cycle_neighbors(U, m, nu_cap) for U in Us]
    expected = [_as_items(found) for found, _ in pruned]
    assert [_as_items(f) for f in stable_single_cycle_neighbors(Us, m, nu_cap)] == expected
    assert [_as_items(stable_single_cycle_neighbors(U, m, nu_cap)) for U in Us] == expected
    assert any(expected)
    unpruned = [reference_single_cycle_neighbors(U, m, nu_cap, pending_set=False) for U in Us]
    assert [_as_items(found) for found, _ in unpruned] == expected
    assert all(a[1] <= b[1] for a, b in zip(pruned, unpruned))


@pytest.mark.parametrize("n, nu_cap", [(12, 5), (20, 8), (50, 5)])
def test_census_node_cap_matches_reference_node_count(monkeypatch, n, nu_cap):
    # the nodes of the reference with the pending set, as the search prunes
    m = Matching.consecutive(n)
    Us = _conditioned_stack(n, 3, 4300 + n)
    counts = [reference_single_cycle_neighbors(U, m, nu_cap, pending_set=True)[1] for U in Us]
    for U, count in zip(Us, counts):
        monkeypatch.setattr(experiments, "SEARCH_NODE_CAP", count)
        stable_single_cycle_neighbors(U, m, nu_cap)
        monkeypatch.setattr(experiments, "SEARCH_NODE_CAP", count - 1)
        message = (
            f"census search at n={n}, nu_cap={nu_cap} expanded more than {count - 1} "
            "nodes on one instance; lower nu_cap"
        )
        with pytest.raises(ResourceCapError) as err:
            stable_single_cycle_neighbors(U, m, nu_cap)
        assert str(err.value) == message
    # the cap holds per sample: the stack together expands more
    monkeypatch.setattr(experiments, "SEARCH_NODE_CAP", max(counts))
    assert sum(counts) > max(counts)
    stable_single_cycle_neighbors(Us, m, nu_cap)


@pytest.mark.parametrize("n, nu_cap", [(12, 5), (20, 8), (50, 5)])
def test_census_chunk_independent_of_search_groups(monkeypatch, n, nu_cap):
    # one sample per group, a few candidate rows per slice and one closing
    # per stability check give the arrays of the default budget
    args = (14, n, 3, 40, None, nu_cap, 12)
    default = _census_chunk(args)
    monkeypatch.setattr(experiments, "_SEARCH_BYTES", 4096)
    assert experiments._search_group(n, nu_cap) == 1
    small = _census_chunk(args)
    assert default.keys() == small.keys()
    for key in default:
        assert np.array_equal(default[key], small[key]), key


@pytest.mark.parametrize("n, nu_cap", [(12, 5), (20, 8), (50, 5)])
def test_neighbor_search_needs_no_full_check(monkeypatch, n, nu_cap):
    # the search decides each closing with its own exact tests, and the d3
    # check of merged pairs tests the pairs across the two cycles only: the
    # full stability check, which the reference still runs, is never reached
    m = Matching.consecutive(n)
    Us = _conditioned_stack(n, 24, 4400 + n)
    expected = [_as_items(reference_single_cycle_neighbors(U, m, nu_cap)[0]) for U in Us]

    def full_check(*args):
        raise AssertionError("full stability check called")

    monkeypatch.setattr(matchings, "blocking_mask", full_check)
    monkeypatch.setattr(experiments, "blocking_mask", full_check, raising=False)
    (args,) = [args for args in _PINNED_CENSUS_CHUNKS if args[1] == n and args[5] == nu_cap]
    out = _census_chunk(args)
    digests = {k: hashlib.sha256(v.tobytes()).hexdigest()[:16] for k, v in out.items()}
    assert digests == _PINNED_CENSUS_CHUNKS[args]
    monkeypatch.setattr(experiments, "_neighbor_is_stable", full_check)
    assert [_as_items(f) for f in stable_single_cycle_neighbors(Us, m, nu_cap)] == expected
    assert any(expected)


@pytest.mark.parametrize("n, nu_cap, size", [(16, 5, 25368), (20, 4, 11130)])
def test_stable_neighbor_search_matches_brute_force_past_12(n, nu_cap, size):
    # every single-cycle neighbour, stable or not, as one stack of partner
    # arrays, checked for a blocking pair over all n rows, 2048 at a time
    m = Matching.consecutive(n)
    partners = np.array([
        nb.partner for nu in range(2, nu_cap + 1) for nb in single_cycle_neighbors(m, nu)
    ])
    assert partners.shape == (size, n)
    Us = _conditioned_stack(n, 8, 4600 + n)
    total = 0
    for U, found in zip(Us, stable_single_cycle_neighbors(Us, m, nu_cap)):
        stable = []
        for lo in range(0, size, 2048):
            p = partners[lo : lo + 2048]
            own = U[np.arange(n), p]
            rows = np.broadcast_to(np.arange(n), p.shape)
            stable.append(~blocking_mask(U, own, rows).any(axis=(1, 2)))
        brute = sorted(
            tuple((i, p[i]) for i in range(n) if p[i] != m[i])
            for p in partners[np.concatenate(stable)].tolist()
        )
        assert sorted(tuple(sorted(d.items())) for _, d in found) == brute
        total += len(brute)
    assert total >= 4


def test_neighbor_search_fits_node_cap_at_n1000():
    # the pending set keeps n=1000 at nu_cap 8 under SEARCH_NODE_CAP, which
    # the search without it passed on this instance
    n, nu_cap = 1000, 8
    m = Matching.consecutive(n)
    (U,) = _conditioned_stack(n, 1, 4800)
    found = stable_single_cycle_neighbors(U, m, nu_cap)
    assert found
    for _, new in found:
        partner = np.array(m.partner)
        partner[list(new)] = list(new.values())
        assert not blocking_mask(U, U[np.arange(n), partner]).any()


def test_neighbor_search_rejects_unstable_reference():
    # the search's closing rule holds only for a stable m: on an unstable one
    # it used to return a wrong list without a word
    n = 8
    m = Matching.consecutive(n)
    Us = _conditioned_stack(n, 2, 4500)
    # agents 0 and 2 come to prefer each other to their partners 1 and 3
    Us[1, 0, 2], Us[1, 2, 0] = Us[1, 0, 1] / 2, Us[1, 2, 3] / 2
    message = "m is not stable in sample 1: agents 0 and 2 block it"
    with pytest.raises(InvalidInstanceError, match=message):
        stable_single_cycle_neighbors(Us, m, 4)
    with pytest.raises(InvalidInstanceError, match="sample 0: agents 0 and 2"):
        stable_single_cycle_neighbors(Us[1], m, 4)
    stable_single_cycle_neighbors(Us[0], m, 4)


def test_neighbor_search_rejects_other_agent_count():
    Us = _conditioned_stack(12, 2, 4500)
    message = r"U of shape \(12, 12\) for a matching of 10 agents"
    with pytest.raises(InvalidInstanceError, match=message):
        stable_single_cycle_neighbors(Us[0], Matching.consecutive(10), 4)
    with pytest.raises(InvalidInstanceError, match=r"shape \(2, 12, 12\) for a matching of 14"):
        stable_single_cycle_neighbors(Us, Matching.consecutive(14), 4)


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
    assert dec.mu == 2 and sorted(len(c) // 2 for c in dec.cycles) == [2, 3]
    with pytest.raises(ConfigError):
        reference_with_cycles(6, [4, 4])
    with pytest.raises(ConfigError):
        reference_with_cycles(8, [3])


def test_two_point_checks_agent_count_first(capsys):
    # an odd n used to fail inside Matching.from_pairs: "pairs do not cover
    # all agents"
    message = "agent count must be an even integer >= 4, got 7"
    with pytest.raises(InvalidInstanceError, match=message):
        reference_with_cycles(7, [4])
    assert main(["estimate", "two-point", "--n", "7", "--samples", "10", "--cycle", "4"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cycles", [["--cycles", "4,4"], ["--cycle", "8"]])
def test_two_point_cycles_covering_every_agent(capsys, cycles):
    # no agent lies outside the cycles: the empty index array of the
    # outside agents used to be float and raised IndexError (exit 1)
    argv = ["estimate", "two-point", "--n", "8", "--samples", "10", *cycles]
    with pytest.warns(UserWarning, match="exceeds n"):
        assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert math.isfinite(record["estimate"]) and record["estimate"] > 0


def test_cycle_is_a_spelling_of_cycles(capsys):
    # --cycle used to be dropped silently whenever --cycles was given
    def estimate(*flags):
        argv = ["estimate", "two-point", "--n", "40", "--samples", "200", "--seed", "3"]
        assert main(argv + list(flags)) == 0
        return json.loads(capsys.readouterr().out)["estimate"]

    joined = estimate("--cycles", "4,6")
    assert estimate("--cycle", "4", "--cycles", "6") == joined
    assert estimate("--cycle", "4", "--cycle", "6") == joined
    assert estimate("--cycles", "6") != joined


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["estimate", "two-point", "--n", "12", "--samples", "10", "--cycles", "4,x"], "--cycles"),
        (["scaling", "--n-grid", "4,x"], "--n-grid"),
    ],
)
def test_bad_integer_list_names_its_flag(capsys, argv, flag):
    # --cycles used to print int()'s "invalid literal for int() with base 10"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "invalid literal" not in err


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


def test_census_instance_limit_below_one_is_a_config_error(tmp_path, capsys, no_stable_profile_4):
    # it used to exit 3 as a cap "exceeded": "exceeds the cap of -3"
    from roommates.instances import serialize_instance

    path = tmp_path / "inst.txt"
    path.write_text(serialize_instance(no_stable_profile_4))
    for limit in ("0", "-3"):
        assert main(["census-instance", str(path), "--limit", limit]) == 2
        assert "--limit" in capsys.readouterr().err
    assert main(["census-instance", str(path), "--limit", "2"]) == 3  # a real cap


def test_cli_counts_and_tstar():
    run = _cli("counts", "--n", "8")
    assert run.returncode == 0
    assert "105" in run.stdout and "FAIL" not in run.stdout
    run = _cli("tstar")
    assert run.returncode == 0
    record = json.loads(run.stdout)
    assert abs(record["t_star"] - 0.060766) <= 1e-5


@pytest.mark.parametrize("n", [2, 5])
def test_cli_counts_checks_agent_count_first(capsys, n):
    # --n 2 used to print an empty table with exit 0, and --n 5 a header and
    # then the double factorial's complaint about 4
    assert main(["counts", "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"agent count must be an even integer >= 4, got {n}" in err


def test_cli_counts_past_exact_limit(capsys):
    # past the exact limit a count is its log: exp() of it used to overflow
    # into a traceback at n = 10002
    assert main(["counts", "--n", "10002"]) == 0
    lines = capsys.readouterr().out.splitlines()
    log_df = double_factorial(10001).log_value
    assert lines[0] == f"n = 10002: perfect matchings (n-1)!! = exp({log_df!r})"
    assert len(lines) == 2 + 5000
    assert lines[2].split() == ["2", f"exp({single_cycle_count(10002, 2).log_value!r})"]


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["estimate", "ex", "--n", "10", "--samples", "500"], "--samples"),
        (["tstar", "--grid", "0"], "--grid"),
        (["tstar", "--grid", "1e-7"], "--grid"),
    ],
)
def test_bad_estimate_and_grid_values_name_their_flag(capsys, monkeypatch, argv, flag):
    # these used to reach exit 2 only as ValueErrors of the library, which
    # named no flag; a grid below the floor used to start a search that ran
    # for hours, so the search must not be reached at all
    def no_search(*args, **kwargs):
        raise AssertionError("the grid search ran")

    monkeypatch.setattr(cli, "tstar_grid_search", no_search)
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("target, extra", [("ex", []), ("two-point", ["--cycle", "4"]), ("gpi", [])])
def test_negative_estimate_seed_is_a_config_error(capsys, target, extra):
    # a negative seed used to end in numpy's SeedSequence ValueError (exit 1)
    argv = ["estimate", target, "--n", "10", "--samples", "1000", "--seed", "-1", *extra]
    assert main(argv) == 2
    assert "--seed" in capsys.readouterr().err


def test_library_value_error_is_not_a_config_error(monkeypatch):
    # a ValueError from inside the library is a fault, not a bad input; it
    # used to exit 2 like a config error
    def fault(*args, **kwargs):
        raise ValueError("fault inside the library")

    monkeypatch.setattr(cli, "estimate_expected_X", fault)
    with pytest.raises(ValueError, match="fault inside the library"):
        main(["estimate", "ex", "--n", "10", "--samples", "1000"])


def _dead_worker(args):
    os._exit(1)


def test_dead_worker_exits_3(tmp_path, monkeypatch, capsys):
    # a killed pool worker used to escape main as BrokenProcessPool; the
    # forked workers inherit the patched chunk function
    monkeypatch.setattr(experiments, "_scaling_chunk", _dead_worker)
    out = tmp_path / "s.csv"
    argv = ["scaling", "--n-grid", "4", "--replicates", "4", "--chunk-size", "2",
            "--workers", "2", "--output", str(out)]
    assert main(argv) == 3
    assert "worker process died" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def pool_sizes(monkeypatch):
    # a stand-in for the process pool: it records each pool's worker count
    # and maps in this process, so no process starts
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    return started


def test_pool_starts_at_most_one_process_per_chunk(tmp_path, pool_sizes):
    # the pool used to fork all --workers processes however few chunks the
    # grid had
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    config = ExperimentConfig(kind="scaling", n_grid=(10,), replicates=20, chunk_size=10)
    run_experiment(replace(config, output=str(serial)))
    run_experiment(replace(config, workers=64, output=str(pooled)))
    assert pool_sizes == [2]
    assert pooled.read_bytes() == serial.read_bytes()


def test_pool_and_memory_check_clamp_workers_to_usable_cpus(tmp_path, monkeypatch, pool_sizes):
    # a fork-start pool forks all its workers at its first task, so
    # --workers 100000 over as many chunks used to fork 100000 processes,
    # and the memory check sized that many workers only at the largest n
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    config = ExperimentConfig(kind="scaling", n_grid=(4,), replicates=20, chunk_size=1)
    run_experiment(replace(config, output=str(serial)))
    run_experiment(replace(config, workers=100_000, output=str(pooled)))
    assert pool_sizes == [3]
    assert pooled.read_bytes() == serial.read_bytes()
    huge = replace(config, n_grid=(4, 1_000_000), replicates=100_000, workers=100_000)
    with pytest.raises(ResourceCapError, match=r"^3 worker\(s\) at n=1000000 need"):
        run_experiment(replace(huge, output=str(tmp_path / "huge.csv")))
    assert pool_sizes == [3]


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


@pytest.mark.parametrize("text", ["5", "null", "[4, 6]", '"n_grid"'])
def test_config_file_not_an_object_is_a_config_error(tmp_path, capsys, text):
    # a number or null used to crash with a TypeError, and a list or string
    # was read as a set of unknown keys
    config = tmp_path / "c.json"
    config.write_text(text)
    out = tmp_path / "s.csv"
    assert main(["scaling", "--config", str(config), "--n-grid", "4", "--output", str(out)]) == 2
    assert f"config file {config}: expected a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_missing_output_directory_fails_before_work(tmp_path, monkeypatch, capsys):
    # a CSV in a directory that does not exist used to fail only after the
    # whole run, when it was written
    def no_chunks(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(experiments, "_run_chunks", no_chunks)
    out = tmp_path / "nodir" / "s.csv"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_grid": [4], "replicates": 5, "output": str(out)}))
    for argv in (["--n-grid", "4", "--replicates", "5", "--output", str(out)],
                 ["--config", str(config)]):
        assert main(["scaling", *argv]) == 4
        assert "nodir" in capsys.readouterr().err
    assert not out.parent.exists()


# Each experiment command's summary line for one CSV row, by its columns.
_SUMMARY_LINES = {
    "scaling": "n={n:>4}  p_hat={p_hat:.4f} +- {stderr:.4f}  (prediction {mertens_prediction:.4f})",
    "ex-scaling": "n={n:>4}  E[count]={estimate:.4f} +- {stderr:.4f}  ess={ess:.0f}",
    "census": "n={n:>4}  ess={ess:.0f}  xcirc_le={xcirc_le:.4f}  d1={d1_rate:.4f}"
              "  d3={d3_rate:.4f}  gpi={gpi_rate:.4f}",
}


@pytest.mark.parametrize("argv", [
    ["scaling", "--n-grid", "4,10", "--replicates", "40", "--seed", "3"],
    ["ex-scaling", "--n-grid", "10,20", "--samples", "1000", "--seed", "3"],
    ["census", "--n-grid", "8,10", "--samples", "20", "--nu-cap", "3", "--enum-cap", "8"],
])
def test_experiment_commands_print_one_summary_per_n(tmp_path, capsys, argv):
    # the removed scripts printed these lines; the CSV holds the same values
    out = tmp_path / "e.csv"
    assert main([*argv, "--output", str(out)]) == 0
    header, *rows = out.read_text().splitlines()[1:]
    expected = []
    for line in rows:
        cells = dict(zip(header.split(","), line.split(",")))
        values = {k: float(v) for k, v in cells.items() if v and k != "n"}
        expected.append(_SUMMARY_LINES[argv[0]].format(n=int(cells["n"]), **values))
    assert capsys.readouterr().out.splitlines() == expected


# configs/ by file: its kind and the config_hash of the ExperimentConfig that
# the removed scripts/run_landscape.py and scripts/run_census.py built at
# their defaults, whose CSV bytes these files reproduce
_CONFIG_FILES = {
    "landscape-scaling.json": ("scaling", "78b89e935a1529bf", "results/scaling.csv"),
    "landscape-ex-scaling.json": ("ex-scaling", "0baa75e48be579ad", "results/ex_scaling.csv"),
    "census.json": ("census", "88d13f7979d4b05b", "results/census.csv"),
}


def test_config_files_load_through_the_cli():
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert sorted(p.name for p in configs.iterdir()) == sorted(_CONFIG_FILES)
    for name, (kind, config_hash, output) in _CONFIG_FILES.items():
        args = cli.build_parser().parse_args([kind, "--config", str(configs / name)])
        config = cli._experiment_config(kind, args)
        assert (config.workers, config.output, config.config_hash()) == (2, output, config_hash)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_grid", [4.0]),
        ("n_grid", 4),
        ("replicates", 5.5),
        ("replicates", True),
        ("chunk_size", 2.0),
        ("master_seed", 1.5),
        ("master_seed", -1),
        ("workers", 2.0),
        ("nu_cap", "3"),
        ("proposal_rate", True),
        ("proposal_rate", "2"),
    ],
)
def test_config_bad_values_fail_before_work(tmp_path, capsys, field, value):
    # these used to die mid-run with a TypeError, run one replicate for
    # True, or fail in numpy's SeedSequence for a negative seed
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n_grid": [4], "replicates": 5, field: value}))
    out = tmp_path / "s.csv"
    assert main(["scaling", "--config", str(config), "--output", str(out)]) == 2
    assert not out.exists()
    assert field in capsys.readouterr().err


def test_config_rejects_numpy_ints_seed_flag_and_non_str_output(tmp_path, capsys):
    # numpy integers used to run every chunk and then fail in config_hash
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig(kind="scaling", n_grid=(np.int64(50),))
    with pytest.raises(ConfigError, match="replicates"):
        ExperimentConfig(kind="scaling", n_grid=(4,), replicates=np.int64(5))
    # an int output used to run all the work and then open that descriptor
    with pytest.raises(ConfigError, match="output"):
        ExperimentConfig(kind="scaling", n_grid=(4,), output=7)
    out = tmp_path / "s.csv"
    argv = ["scaling", "--n-grid", "4", "--replicates", "5", "--seed", "-1"]
    assert main(argv + ["--output", str(out)]) == 2
    assert not out.exists()
    assert "master_seed" in capsys.readouterr().err


def test_csv_headers_of_ex_scaling_and_census(tmp_path):
    out = tmp_path / "ex.csv"
    run_experiment(
        ExperimentConfig(kind="ex-scaling", n_grid=(10,), samples=200, master_seed=1,
                         output=str(out))
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "# kind=ex-scaling config_hash=5b888023aab13f6d schema=1"
    assert lines[1] == "n,samples,estimate,stderr,ess,degenerate"
    assert lines[2].startswith("10,200,") and lines[2].endswith(",0")
    out = tmp_path / "census.csv"
    run_experiment(
        ExperimentConfig(kind="census", n_grid=(8, 10), samples=20, nu_cap=4, enum_cap=8,
                         master_seed=2, output=str(out))
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "# kind=census config_hash=faa9808b4e485a84 schema=1"
    assert lines[1] == (
        "n,samples,ess,mean_X,stderr_X,xcirc_le,xcirc_le_stderr,xcirc_2,xcirc_3,xcirc_4,"
        "d1_rate,d3_rate,combine_fail_per_pair,gpi_rate"
    )
    cells = [line.split(",") for line in lines[2:]]
    assert [len(c) for c in cells] == [14, 14]
    assert cells[0][:2] == ["8", "20"] and "" not in cells[0]
    # n=10 is above enum_cap, so the full stable-matching count is not taken
    assert cells[1][:2] == ["10", "20"] and cells[1][3:5] == ["", ""]
    assert "" not in cells[1][:3] + cells[1][5:]


_REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "config, own_layers",
    [
        ({"kind": "scaling", "n_grid": [4, 10], "replicates": 20, "chunk_size": 8},
         ["solvers.irving_decide"]),
        ({"kind": "ex-scaling", "n_grid": [10], "samples": 300, "chunk_size": 100},
         ["numerics.stability_log_rows"]),
        ({"kind": "census", "n_grid": [8, 12], "samples": 10, "nu_cap": 3, "chunk_size": 5},
         ["experiments.stable_single_cycle_neighbors", "estimators.fill_conditional_pairs"]),
    ],
)
def test_bench_trace_reaches_every_layer(tmp_path, config, own_layers):
    # the trace rebinds module attributes by name, so a chunk worker or run
    # function held in a table built at import would go unseen; it runs in
    # a subprocess to keep the rebinding out of this session
    request = {"config": dict(config, output=str(tmp_path / "t.csv")), "trace": True}
    path = os.pathsep.join(filter(None, [str(_REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, str(_REPO / "bench" / "experiment.py"), json.dumps(request)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout.splitlines()[-1])
    layers = record["layers"]
    assert record["missing"] == []
    assert layers["experiments.chunk.calls"] > 0
    assert layers["experiments.run.self_s"] > 0
    for layer in own_layers:
        assert layers[f"{layer}.calls"] > 0


def test_repeated_n_rejected_before_work(tmp_path):
    # a repeated n used to write two identical rows drawn from one seed
    # stream, and the sidecar kept only one of their timings
    with pytest.raises(ConfigError, match="n_grid"):
        ExperimentConfig(kind="scaling", n_grid=(4, 4))
    out = tmp_path / "s.csv"
    run = _cli("scaling", "--n-grid", "4,4", "--replicates", "5", "--output", str(out))
    assert run.returncode == 2 and "n_grid" in run.stderr
    assert not out.exists()


def test_scaling_beyond_physical_memory_fails_before_work(tmp_path):
    # about 10 n^2 bytes per instance: terabytes at n = 10^6 on any host.
    # The config itself stays valid; the run checks the host before n = 4.
    ExperimentConfig(kind="scaling", n_grid=(4, 1_000_000), workers=2)
    out = tmp_path / "s.csv"
    run = _cli(
        "scaling", "--n-grid", "4,1000000", "--replicates", "5", "--workers", "2",
        "--output", str(out),
    )
    assert run.returncode == 3 and "physical memory" in run.stderr
    assert not out.exists()


def test_census_beyond_physical_memory_fails_before_work(tmp_path):
    # about 30 n^2 bytes per sample: petabytes at n = 10^6.  The check runs
    # before n = 12 does; without it the fill's n x n array failed mid-run.
    out = tmp_path / "c.csv"
    run = _cli(
        "census", "--n-grid", "12,1000000", "--samples", "4", "--chunk-size", "2",
        "--workers", "2", "--output", str(out),
    )
    assert run.returncode == 3 and "physical memory" in run.stderr
    assert not out.exists()


def test_ex_scaling_with_one_sample_fails_before_work(tmp_path):
    # one draw has no standard error: the run used to warn twice ("Degrees
    # of freedom <= 0") and write stderr = nan with exit 0
    out = tmp_path / "ex.csv"
    run = _cli("ex-scaling", "--n-grid", "4", "--samples", "1", "--output", str(out))
    assert run.returncode == 2 and "samples" in run.stderr
    assert not out.exists()


def test_ex_scaling_beyond_physical_memory_fails_before_work(tmp_path):
    # 10 bytes per batch entry: 2 workers x 10^5 rows x 10^6 agents is
    # about 2 TB on any host; the check runs before n = 4 does
    out = tmp_path / "ex.csv"
    run = _cli(
        "ex-scaling", "--n-grid", "4,1000000", "--samples", "1000000", "--chunk-size",
        "100000", "--workers", "2", "--output", str(out),
    )
    assert run.returncode == 3 and "physical memory" in run.stderr
    assert not out.exists()
