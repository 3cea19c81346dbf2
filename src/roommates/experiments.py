"""Seeded, parallel experiment harness with CSV output.

Every experiment is a pure function of its config: replicates are cut into
fixed chunks, each chunk draws from a stream derived by hashing
(master_seed, experiment, n, chunk index), and partial results merge in
chunk order.  Worker count changes wall time only, never an output byte.
Wall-clock timings live in the JSON sidecar, not the CSV, for that reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ._numerics import batch_sizes, ess_from_log_weights, self_normalized_mean
from .estimators import (
    Estimate,
    _conditional_x_batch,
    _fill_conditional_pairs,
    expected_count_log_weights,
    gpi_rows,
)
from .instances import (
    RngStream, UtilityMatrix, check_agent_count, preference_rows, rank_from_utilities
)
from .matchings import Matching
from .solvers import ENUM_CAP, enumerate_stable, irving_decide

MERTENS_COEFF = math.e * math.sqrt(2.0 / math.pi)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on.

    ``workers`` parallelizes chunk execution only; ``chunk_size`` of 0
    picks a per-experiment default.  ``enum_cap`` bounds the agent count up
    to which the census materializes the full stable-matching count; it
    cannot exceed the enumeration cap of ``enumerate_stable``.
    """

    kind: str
    n_grid: tuple[int, ...]
    replicates: int = 1000
    samples: int = 20000
    master_seed: int = 0
    workers: int = 1
    output: str = "experiment.csv"
    proposal_rate: float | None = None
    nu_cap: int = 5
    chunk_size: int = 0
    enum_cap: int = 12

    def __post_init__(self):
        if self.kind not in ("scaling", "census", "ex-scaling"):
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        for n in self.n_grid:
            if n % 2 != 0 or n < 4:
                raise ConfigError(f"n values must be even integers >= 4, got {n}")
            if n >= _N_LIMIT:
                raise ConfigError(f"n values must be < 2**20 (seed-stream key), got {n}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.proposal_rate is not None and not 0 < self.proposal_rate < math.inf:
            raise ConfigError(f"proposal_rate must be positive and finite: {self.proposal_rate}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.chunk_size < 0:
            raise ConfigError("chunk_size must be >= 0")
        work = self.replicates if self.kind == "scaling" else self.samples
        chunks = -(-work // self.chunk_len())
        if chunks >= _CHUNK_LIMIT:
            raise ConfigError(f"{chunks} chunks per n exceed the seed-stream key (< 2**32)")
        if self.nu_cap < 2:
            raise ConfigError("nu_cap must be >= 2")
        if self.enum_cap > ENUM_CAP:
            raise ConfigError(
                f"enum_cap {self.enum_cap} exceeds the enumeration cap of {ENUM_CAP}"
            )
        for n in self.n_grid:
            if self.kind == "census" and self.nu_cap > n // 2:
                raise ConfigError(f"nu_cap {self.nu_cap} exceeds n/2 for n={n}")

    def chunk_len(self) -> int:
        """Work items per chunk: ``chunk_size`` or the kind's default."""
        return self.chunk_size or _DEFAULT_CHUNK[self.kind]

    def config_hash(self) -> str:
        """Hash of the data-determining fields only: worker count and output
        path affect neither a single emitted byte nor the hash."""
        payload = asdict(self)
        payload.pop("workers")
        payload.pop("output")
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass(frozen=True)
class ScalingRow:
    n: int
    replicates: int
    count_exists: int
    p_hat: float
    stderr: float
    mertens_prediction: float
    wall_time: float


@dataclass(frozen=True)
class ConditionalCensusRow:
    n: int
    samples: int
    ess: float
    mean_X: float | None
    stderr_X: float | None
    mean_X_circ_le: float
    stderr_X_circ_le: float
    mean_X_circ_by_nu: dict[int, float]
    d1_rate: float
    d3_rate: float
    combine_fail_per_pair: float
    gpi_rate: float
    wall_time: float


_KIND_IDS = {"scaling": 1, "census": 2, "ex-scaling": 3}
_DEFAULT_CHUNK = {"scaling": 256, "census": 128, "ex-scaling": 8192}
# Field widths of the stream key below; ExperimentConfig keeps n and the
# chunk index inside them, so distinct chunks never share a stream.
_N_LIMIT = 1 << 20
_CHUNK_LIMIT = 1 << 32


def _chunk_stream(master_seed: int, kind: str, n: int, chunk: int) -> RngStream:
    sid = (_KIND_IDS[kind] << 52) | (n << 32) | chunk
    return RngStream(master_seed, sid)


def _random_pref_score(gen: np.random.Generator, n: int):
    """Uniform utilities with a sentinel diagonal; the argsort rows (self
    excluded) are the preference lists and the raw utilities serve as the
    comparison scores, so no rank matrix is ever built."""
    u = gen.random((n, n))
    np.fill_diagonal(u, 2.0)
    return preference_rows(u), u


def _scaling_chunk(args) -> int:
    master_seed, n, chunk_id, count = args
    gen = _chunk_stream(master_seed, "scaling", n, chunk_id).generator()
    exists = 0
    for _ in range(count):
        pref, score = _random_pref_score(gen, n)
        partner, _, _ = irving_decide(pref, score)
        # free this instance before the next is drawn: one live instance
        # per worker keeps its peak memory at a single n x n pair
        del pref, score
        if partner is not None:
            exists += 1
    return exists


def _ex_chunk(args) -> np.ndarray:
    master_seed, n, chunk_id, count, rate = args
    gen = _chunk_stream(master_seed, "ex-scaling", n, chunk_id).generator()
    return expected_count_log_weights(n, count, gen, rate)


def _run_chunks(worker, arglist, workers: int):
    if workers <= 1 or len(arglist) <= 1:
        return [worker(a) for a in arglist]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, arglist))


def run_scaling(config: ExperimentConfig) -> list[ScalingRow]:
    """Existence frequency of a stable matching across the n grid."""
    if config.kind != "scaling":
        raise ConfigError("config kind must be 'scaling'")
    chunk_size = config.chunk_len()
    rows = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        sizes = batch_sizes(config.replicates, chunk_size)
        args = [
            (config.master_seed, n, ci, cnt) for ci, cnt in enumerate(sizes)
        ]
        counts = _run_chunks(_scaling_chunk, args, config.workers)
        exists = int(sum(counts))
        p = exists / config.replicates
        stderr = math.sqrt(p * (1.0 - p) / config.replicates)
        rows.append(
            ScalingRow(
                n=n,
                replicates=config.replicates,
                count_exists=exists,
                p_hat=p,
                stderr=stderr,
                mertens_prediction=MERTENS_COEFF * n ** -0.25,
                wall_time=time.perf_counter() - t0,
            )
        )
    return rows


@dataclass(frozen=True)
class ExpectedCountRow:
    n: int
    samples: int
    estimate: float
    stderr: float
    ess: float
    degenerate: bool
    wall_time: float


def run_ex_scaling(config: ExperimentConfig) -> list[ExpectedCountRow]:
    """Importance-sampling estimate of the expected stable-matching count
    across the n grid."""
    if config.kind != "ex-scaling":
        raise ConfigError("config kind must be 'ex-scaling'")
    chunk_size = config.chunk_len()
    rows = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        sizes = batch_sizes(config.samples, chunk_size)
        args = [
            (config.master_seed, n, ci, cnt, config.proposal_rate)
            for ci, cnt in enumerate(sizes)
        ]
        est = Estimate.importance(np.concatenate(_run_chunks(_ex_chunk, args, config.workers)))
        rows.append(
            ExpectedCountRow(
                n=n,
                samples=config.samples,
                estimate=est.mean,
                stderr=est.stderr,
                ess=est.ess,
                degenerate=est.degenerate,
                wall_time=time.perf_counter() - t0,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Conditional census: stable single-cycle neighbors of a conditioned matching.


def _neighbor_is_stable(U: np.ndarray, x: np.ndarray, new_partner: dict[int, int]) -> bool:
    """Full stability check of the matching that differs from the reference
    on ``new_partner``, valid when the reference itself is stable: a pair
    with both members outside the difference can never newly block."""
    y = x.copy()
    for v, p in new_partner.items():
        y[v] = U[v, p]
    for v in new_partner:
        with np.errstate(invalid="ignore"):
            mask = (U[v, :] < y[v]) & (U[:, v] < y)
        if mask.any():
            return False
    return True


def stable_single_cycle_neighbors(
    U: np.ndarray, m: Matching, nu_cap: int
) -> list[tuple[int, dict[int, int]]]:
    """All stable matchings differing from ``m`` by one cycle of half-length
    at most ``nu_cap``, for an instance (utility array ``U``) in which ``m``
    is stable.  Returns (half-length, new-partner map) pairs.

    Searches oriented cycles directly: along a realizable cycle the
    improving and worsening vertices alternate, and every improving vertex
    must rank its new partner above its old one, which at typical scale
    leaves about sqrt(n) candidates per step instead of n.
    """
    n = m.n
    partner = list(m.partner)
    x = U[np.arange(n), np.array(partner)]
    with np.errstate(invalid="ignore"):
        admire = U < x[:, None]
    admirer_lists = [np.nonzero(admire[:, b])[0].tolist() for b in range(n)]
    # for each b: admirers sorted by b's utility for them, to count/identify
    # agents that would block b's candidate new match
    covet = []
    for b in range(n):
        pairs = sorted((float(U[b, j]), j) for j in admirer_lists[b])
        covet.append(pairs)
    Ul = U.tolist()
    xl = x.tolist()
    out: list[tuple[int, dict[int, int]]] = []
    used = [False] * n
    ys: dict[int, float] = {}

    def in_path_blocked(v: int, yv: float) -> bool:
        for j, yj in ys.items():
            if j != v and Ul[v][j] < yv and Ul[j][v] < yj:
                return True
        return False

    def extend(a1: int, last_b: int, depth: int, new_partner: dict[int, int]) -> None:
        # try to close the cycle back to a1
        if depth >= 2:
            y_close = Ul[last_b][a1]
            if y_close > xl[last_b] and Ul[a1][last_b] < xl[a1]:
                cand = dict(new_partner)
                cand[last_b] = a1
                cand[a1] = last_b
                if _neighbor_is_stable(U, x, cand):
                    out.append((depth, cand))
        if depth >= nu_cap:
            return
        budget = nu_cap - depth - 1
        for a2 in admirer_lists[last_b]:
            if a2 <= a1 or used[a2]:
                continue
            yb = Ul[last_b][a2]
            if yb <= xl[last_b]:
                continue
            ya = Ul[a2][last_b]
            # exact blocking against committed vertices
            if in_path_blocked(last_b, yb) or in_path_blocked(a2, ya):
                continue
            # agents outside the path that would block b's new match can
            # only be absorbed as future improving vertices
            pending = 0
            dead = False
            for val, j in covet[last_b]:
                if val >= yb:
                    break
                if j == a2 or j == a1 or j in ys:
                    continue  # committed vertices handled exactly above
                if used[j]:
                    continue
                pending += 1
                if pending > budget:
                    dead = True
                    break
            if dead:
                continue
            b2 = partner[a2]
            used[a2] = used[b2] = True
            ys[last_b] = yb
            ys[a2] = ya
            new_partner[last_b] = a2
            new_partner[a2] = last_b
            extend(a1, b2, depth + 1, new_partner)
            del new_partner[last_b], new_partner[a2]
            del ys[last_b], ys[a2]
            used[a2] = used[b2] = False

    for a1 in range(n):
        b1 = partner[a1]
        used[a1] = used[b1] = True
        extend(a1, b1, 1, {})
        used[a1] = used[b1] = False
    return out


def _census_chunk(args) -> dict[str, np.ndarray]:
    master_seed, n, chunk_id, count, rate, nu_cap, enum_cap = args
    gen = _chunk_stream(master_seed, "census", n, chunk_id).generator()
    m = Matching.consecutive(n)
    X, logw = _conditional_x_batch(m, count, gen, rate)
    gpi = gpi_rows(X, m)[1].all(axis=0)
    xcirc = np.zeros((count, nu_cap - 1), dtype=np.int32)
    d1 = np.zeros(count, dtype=bool)
    d3 = np.zeros(count, dtype=bool)
    disjoint_pairs = np.zeros(count, dtype=np.int64)
    failing_pairs = np.zeros(count, dtype=np.int64)
    full_X = np.full(count, -1, dtype=np.int64)
    for k in range(count):
        U = _fill_conditional_pairs(m, X[k], gen)
        found = stable_single_cycle_neighbors(U, m, nu_cap)
        for nu, _ in found:
            xcirc[k, nu - 2] += 1
        if len(found) >= 2:
            vsets = [frozenset(np_map) for _, np_map in found]
            for a in range(len(found)):
                for b in range(a + 1, len(found)):
                    if vsets[a] & vsets[b]:
                        d1[k] = True
                    else:
                        disjoint_pairs[k] += 1
                        merged = dict(found[a][1])
                        merged.update(found[b][1])
                        if not _neighbor_is_stable(U, X[k], merged):
                            d3[k] = True
                            failing_pairs[k] += 1
        if n <= enum_cap:
            profile = rank_from_utilities(UtilityMatrix(n, U))
            full_X[k] = enumerate_stable(profile, materialize=False).X
    return {
        "logw": logw,
        "xcirc": xcirc,
        "d1": d1,
        "d3": d3,
        "disjoint_pairs": disjoint_pairs,
        "failing_pairs": failing_pairs,
        "gpi": gpi,
        "full_X": full_X,
    }


def run_conditional_census(config: ExperimentConfig) -> list[ConditionalCensusRow]:
    """Weighted census of stable single-cycle neighbors under instances
    conditioned on the reference matching being stable."""
    if config.kind != "census":
        raise ConfigError("config kind must be 'census'")
    chunk_size = config.chunk_len()
    rows = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        sizes = batch_sizes(config.samples, chunk_size)
        args = [
            (
                config.master_seed,
                n,
                ci,
                cnt,
                config.proposal_rate,
                config.nu_cap,
                config.enum_cap,
            )
            for ci, cnt in enumerate(sizes)
        ]
        parts = _run_chunks(_census_chunk, args, config.workers)
        c = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
        logw = c["logw"]

        def wmean(values: np.ndarray) -> float:
            return self_normalized_mean(logw, values)[0]

        circ_le, circ_se = self_normalized_mean(logw, c["xcirc"].sum(axis=1))
        mean_X, stderr_X = (
            self_normalized_mean(logw, c["full_X"]) if n <= config.enum_cap else (None, None)
        )
        pairs = wmean(c["disjoint_pairs"])
        rows.append(
            ConditionalCensusRow(
                n=n,
                samples=config.samples,
                ess=ess_from_log_weights(logw),
                mean_X=mean_X,
                stderr_X=stderr_X,
                mean_X_circ_le=circ_le,
                stderr_X_circ_le=circ_se,
                mean_X_circ_by_nu={
                    nu: wmean(c["xcirc"][:, nu - 2]) for nu in range(2, config.nu_cap + 1)
                },
                d1_rate=wmean(c["d1"]),
                d3_rate=wmean(c["d3"]),
                combine_fail_per_pair=(
                    wmean(c["failing_pairs"]) / pairs if pairs > 0 else float("nan")
                ),
                gpi_rate=wmean(c["gpi"]),
                wall_time=time.perf_counter() - t0,
            )
        )
    return rows


def reference_with_cycles(n: int, lengths: list[int]) -> tuple[Matching, Matching]:
    """The reference matching together with the matching that differs from
    it by disjoint cycles of the given even lengths, laid out on leading
    blocks of consecutive pairs."""
    if any(ln < 4 or ln % 2 != 0 for ln in lengths):
        raise ConfigError(f"cycle lengths must be even and >= 4, got {lengths}")
    if sum(lengths) > n:
        raise ConfigError(f"cycle lengths {lengths} do not fit on {n} agents")
    m = Matching.consecutive(n)
    partner = list(m.partner)
    base = 0
    for ln in lengths:
        nu = ln // 2
        for i in range(nu - 1):
            a, b = base + 2 * i + 1, base + 2 * i + 2
            partner[a], partner[b] = b, a
        a, b = base + 2 * nu - 1, base
        partner[a], partner[b] = b, a
        base += ln
    return m, Matching(tuple(partner))


def gpi_weighted_frequency(
    n: int,
    samples: int,
    rng: RngStream,
    *,
    proposal_rate: float | None = None,
    batch_size: int = 4096,
) -> Estimate:
    """Weighted frequency of the quasirandomness event over partner-utility
    vectors conditioned on the reference matching being stable."""
    check_agent_count(n)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    m = Matching.consecutive(n)
    gen = rng.generator()
    logw, flags = [], []
    for b in batch_sizes(samples, batch_size):
        X, lw = _conditional_x_batch(m, b, gen, proposal_rate)
        logw.append(lw)
        flags.append(gpi_rows(X, m)[1].all(axis=0))
    logw = np.concatenate(logw)
    mean, stderr = self_normalized_mean(logw, np.concatenate(flags))
    return Estimate.weighted(mean, stderr, logw)


# ---------------------------------------------------------------------------
# Output writers.


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _scaling_table(rows: list[ScalingRow]):
    cols = ["n", "replicates", "count_exists", "p_hat", "stderr", "mertens_prediction"]
    data = [
        [r.n, r.replicates, r.count_exists, r.p_hat, r.stderr, r.mertens_prediction]
        for r in rows
    ]
    return cols, data


def _ex_table(rows: list[ExpectedCountRow]):
    cols = ["n", "samples", "estimate", "stderr", "ess", "degenerate"]
    data = [[r.n, r.samples, r.estimate, r.stderr, r.ess, r.degenerate] for r in rows]
    return cols, data


def _census_table(rows: list[ConditionalCensusRow], nu_cap: int):
    cols = ["n", "samples", "ess", "mean_X", "stderr_X", "xcirc_le", "xcirc_le_stderr"]
    cols += [f"xcirc_{nu}" for nu in range(2, nu_cap + 1)]
    cols += ["d1_rate", "d3_rate", "combine_fail_per_pair", "gpi_rate"]
    data = []
    for r in rows:
        row = [r.n, r.samples, r.ess, r.mean_X, r.stderr_X, r.mean_X_circ_le, r.stderr_X_circ_le]
        row += [r.mean_X_circ_by_nu[nu] for nu in range(2, nu_cap + 1)]
        row += [r.d1_rate, r.d3_rate, r.combine_fail_per_pair, r.gpi_rate]
        data.append(row)
    return cols, data


def write_experiment(config: ExperimentConfig, rows, csv_path: str) -> None:
    """Write the data CSV (deterministic) and its JSON sidecar (config echo,
    seed, versions, wall time)."""
    if config.kind == "scaling":
        cols, data = _scaling_table(rows)
    elif config.kind == "ex-scaling":
        cols, data = _ex_table(rows)
    else:
        cols, data = _census_table(rows, config.nu_cap)
    lines = [f"# kind={config.kind} config_hash={config.config_hash()} schema=1"]
    lines.append(",".join(cols))
    for row in data:
        lines.append(",".join(_fmt(v) for v in row))
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    import roommates

    sidecar = {
        "config": asdict(config),
        "config_hash": config.config_hash(),
        "master_seed": config.master_seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "stable_roommates": roommates.__version__,
        },
        "wall_time_s": {str(r.n): r.wall_time for r in rows},
        "total_wall_time_s": sum(r.wall_time for r in rows),
    }
    with open(csv_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(config: ExperimentConfig) -> list:
    """Dispatch on config.kind, write outputs, return the rows."""
    if config.kind == "scaling":
        rows = run_scaling(config)
    elif config.kind == "ex-scaling":
        rows = run_ex_scaling(config)
    else:
        rows = run_conditional_census(config)
    write_experiment(config, rows, config.output)
    return rows
