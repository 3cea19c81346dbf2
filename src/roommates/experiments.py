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
import os
import platform
import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from operator import itemgetter
from typing import NamedTuple

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
    InvalidInstanceError, RngStream, UtilityMatrix, check_agent_count, preference_rows,
    rank_from_utilities,
)
from .matchings import Matching, blocking_mask
from .solvers import ENUM_CAP, ResourceCapError, enumerate_stable, irving_decide

MERTENS_COEFF = math.e * math.sqrt(2.0 / math.pi)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class Kind(NamedTuple):
    stream_id: int  # top bits of its chunks' seed-stream keys
    chunk: int  # default work items per chunk
    run: str  # its run function's name, resolved at call time so a rebinding is seen


KINDS = {
    "scaling": Kind(1, 256, "run_scaling"),
    "census": Kind(2, 128, "run_conditional_census"),
    "ex-scaling": Kind(3, 8192, "run_ex_scaling"),
}
# Field widths of the stream key in _chunk_stream; ExperimentConfig keeps n
# and the chunk index inside them, so distinct chunks never share a stream.
_N_LIMIT = 1 << 20
_CHUNK_LIMIT = 1 << 32
# Annotations whose config values must have exactly that type (no bool for int).
_EXACT_TYPES = {"int": int, "str": str}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run depends on.

    ``workers`` parallelizes chunk execution only; ``chunk_size`` of 0
    picks a per-experiment default.  ``enum_cap`` bounds the agent count up
    to which the census materializes the full stable-matching count; it
    cannot exceed the enumeration cap of ``enumerate_stable``.  Every field
    must have its annotated type exactly (a bool or numpy integer is not an
    int; ``proposal_rate`` may be any int or float), so that a bad value
    fails here rather than mid-run or in ``config_hash``.
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
        for f in fields(self):  # f.type is a string: annotations are postponed
            value = getattr(self, f.name)
            if f.type in _EXACT_TYPES and type(value) is not _EXACT_TYPES[f.type]:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if type(self.n_grid) is not tuple or not self.n_grid:
            raise ConfigError(f"n_grid must be a nonempty tuple, got {self.n_grid!r}")
        for n in self.n_grid:
            if type(n) is not int:
                raise ConfigError(f"n_grid values must be ints, got {n!r}")
            try:
                check_agent_count(n)
            except InvalidInstanceError as exc:
                raise ConfigError(f"n_grid: {exc}") from None
            if n >= _N_LIMIT:
                raise ConfigError(f"n values must be < 2**20 (seed-stream key), got {n}")
            if self.kind == "census" and self.nu_cap > n // 2:
                raise ConfigError(f"nu_cap {self.nu_cap} exceeds n/2 for n={n}")
        if len(set(self.n_grid)) != len(self.n_grid):
            # a repeat would redraw the same seed stream as a second row
            raise ConfigError(f"n_grid values must be distinct, got {self.n_grid!r}")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        rate = self.proposal_rate
        if rate is not None and (
            isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0 < rate < math.inf
        ):
            raise ConfigError(f"proposal_rate must be positive and finite: {rate!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.chunk_size < 0:
            raise ConfigError("chunk_size must be >= 0")
        if self.chunks() >= _CHUNK_LIMIT:
            raise ConfigError(f"{self.chunks()} chunks per n exceed the seed-stream key (< 2**32)")
        if self.nu_cap < 2:
            raise ConfigError("nu_cap must be >= 2")
        if self.enum_cap > ENUM_CAP:
            raise ConfigError(
                f"enum_cap {self.enum_cap} exceeds the enumeration cap of {ENUM_CAP}"
            )

    def work(self) -> int:
        """Work items per n: replicates for scaling, samples otherwise."""
        return self.replicates if self.kind == "scaling" else self.samples

    def chunk_len(self) -> int:
        """Work items per chunk: ``chunk_size`` or the kind's default."""
        return self.chunk_size or KINDS[self.kind].chunk

    def chunks(self) -> int:
        """Chunks per n."""
        return -(-self.work() // self.chunk_len())

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


def _chunk_stream(master_seed: int, kind: str, n: int, chunk: int) -> RngStream:
    sid = (KINDS[kind].stream_id << 52) | (n << 32) | chunk
    return RngStream(master_seed, sid)


def _block_width(n: int) -> int:
    """Columns of a scaling instance's preference block.  Phase 1 of
    irving_decide runs off its end in about one row per instance at n=100
    and half a row at n=1000 (8 and 11 rows at half this width); such a
    row is extended from the utilities."""
    return min(n - 1, 2 * math.isqrt(n) + 1)


def _random_pref_score(gen: np.random.Generator, n: int):
    """Uniform utilities with a sentinel diagonal, and the first
    min(n-1, 2 isqrt(n) + 1) agents of each row in preference order (self
    excluded): the block ``irving_decide`` starts phase 1 from.  The raw
    utilities serve as the comparison scores, so neither a rank matrix nor
    a full n x n argsort is ever built."""
    u = gen.random((n, n))
    np.fill_diagonal(u, 2.0)
    return preference_rows(u, _block_width(n)), u


# Peak bytes per entry of an ex-scaling batch (rows x n): the draws' one
# float64 array, transformed in place, and two bool masks of the series.
# Peak RSS of expected_count_log_weights at n = 1000 grew by 10.0 bytes per
# entry from 4096 to 8192 rows and from 8192 to 16384 rows.
_EX_BYTES_PER_ENTRY = 10


def _check_memory(config: ExperimentConfig, worker_bytes) -> None:
    """Raise ResourceCapError, before any work, when the run's workers,
    each holding ``worker_bytes(n)`` at the largest n, do not fit in the
    host's physical memory."""
    n = max(config.n_grid)
    workers = min(config.workers, config.chunks())
    need = workers * worker_bytes(n)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ResourceCapError(
            f"{workers} worker(s) at n={n} need {need / 2**30:.1f} GiB, "
            f"more than the host's {have / 2**30:.1f} GiB of physical memory"
        )


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


def _run_grid(config: ExperimentConfig, kind: str, chunk, extra: tuple, row) -> list:
    """The loop every experiment shares.  For each n of the grid, the work
    is cut into chunks, ``chunk`` runs on each chunk's argument tuple
    ``(master_seed, n, chunk index, count, *extra)``, and ``row(n, parts)``
    reduces the results, in chunk order, to the row's constructor with every
    field bound but ``wall_time``, which is read after that reduction."""
    if config.kind != kind:
        raise ConfigError(f"config kind must be {kind!r}")
    rows = []
    for n in config.n_grid:
        t0 = time.perf_counter()
        sizes = batch_sizes(config.work(), config.chunk_len())
        args = [(config.master_seed, n, ci, cnt, *extra) for ci, cnt in enumerate(sizes)]
        make_row = row(n, _run_chunks(chunk, args, config.workers))
        rows.append(make_row(wall_time=time.perf_counter() - t0))
    return rows


def run_scaling(config: ExperimentConfig) -> list[ScalingRow]:
    """Existence frequency of a stable matching across the n grid."""

    def row(n, counts):
        exists = int(sum(counts))
        p = exists / config.replicates
        return partial(
            ScalingRow,
            n=n,
            replicates=config.replicates,
            count_exists=exists,
            p_hat=p,
            stderr=math.sqrt(p * (1.0 - p) / config.replicates),
            mertens_prediction=MERTENS_COEFF * n ** -0.25,
        )

    # an instance peaks at its float64 utilities, the two n x n bool masks
    # that irving_decide builds its live table from, and the preference block
    _check_memory(config, lambda n: 10 * n * n + 8 * n * _block_width(n))
    return _run_grid(config, "scaling", _scaling_chunk, (), row)


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

    def row(n, parts):
        est = Estimate.importance(np.concatenate(parts))
        return partial(
            ExpectedCountRow,
            n=n,
            samples=config.samples,
            estimate=est.mean,
            stderr=est.stderr,
            ess=est.ess,
            degenerate=est.degenerate,
        )

    rows = min(config.chunk_len(), config.samples)
    _check_memory(config, lambda n: _EX_BYTES_PER_ENTRY * rows * n)
    return _run_grid(config, "ex-scaling", _ex_chunk, (config.proposal_rate,), row)


# ---------------------------------------------------------------------------
# Conditional census: stable single-cycle neighbors of a conditioned matching.


def _neighbor_is_stable(U: np.ndarray, x: np.ndarray, new_partner: dict[int, int]) -> bool:
    """Full stability check of the matching that differs from the reference
    on ``new_partner``, valid when the reference itself is stable: a pair
    with both members outside the difference can never newly block."""
    idx = np.fromiter(new_partner, dtype=np.intp, count=len(new_partner))
    y = x.copy()
    y[idx] = U[idx, np.fromiter(new_partner.values(), dtype=np.intp, count=idx.size)]
    return not blocking_mask(U, y, idx).any()


# Search nodes (paths extended) that stable_single_cycle_neighbors may
# expand on one instance before it raises ResourceCapError.  An instance
# takes about 40 nodes at n=12 and 500 at n=50 with nu_cap 5, 2.5k at n=200
# with nu_cap 5 and 120k (about 2 s) with nu_cap 8.
SEARCH_NODE_CAP = 1_000_000


def stable_single_cycle_neighbors(
    U: np.ndarray, m: Matching, nu_cap: int
) -> list[tuple[int, dict[int, int]]]:
    """All stable matchings differing from ``m`` by one cycle of half-length
    at most ``nu_cap``, for an instance (utility array ``U``) in which ``m``
    is stable.  Returns (half-length, new-partner map) pairs.

    Searches oriented cycles directly: along a realizable cycle the
    improving and worsening vertices alternate, and every improving vertex
    must rank its new partner above its old one, which at typical scale
    leaves about sqrt(n) candidates per step instead of n.  Raises
    ResourceCapError when the search expands more than SEARCH_NODE_CAP
    nodes.
    """
    n = m.n
    partner = list(m.partner)
    p_arr = np.array(partner)
    x = U[np.arange(n), p_arr]
    # (b, j) for every j that prefers b to its partner (an admirer of b),
    # each b's admirers in ascending index
    with np.errstate(invalid="ignore"):
        bs, js = np.nonzero((U < x[:, None]).T)
    ub = U[bs, js]
    off = np.searchsorted(bs, np.arange(n + 1))
    # covet[b]: b's admirers as (U[b, j], j) in b's order, to count and
    # identify agents that would block b's candidate new match
    order = np.lexsort((ub, bs))  # sorts within each b's block only
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - off[bs]
    off = off.tolist()
    cv = list(zip(ub[order].tolist(), js[order].tolist()))
    covet = [cv[off[b] : off[b + 1]] for b in range(n)]
    # cands[b]: admirers a2 that b would take only as a worse partner, in
    # ascending index, as (a2, U[b, a2], U[a2, b], partner of a2, rank of a2
    # in covet[b])
    keep = ub > x[bs]
    bs, js = bs[keep], js[keep]
    coff = np.searchsorted(bs, np.arange(n + 1)).tolist()
    cl = list(zip(js.tolist(), ub[keep].tolist(), U[js, bs].tolist(), p_arr[js].tolist(),
                  rank[keep].tolist()))
    cands = [cl[coff[b] : coff[b + 1]] for b in range(n)]
    Ul = U.tolist()
    xl = x.tolist()
    out: list[tuple[int, dict[int, int]]] = []
    used = [False] * n
    # committed vertices and their new utilities, step i's (b, a2) at 2i, 2i + 1
    path: list[tuple[int, float]] = []
    nodes = 0

    def extend(a1: int, b: int, depth: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_NODE_CAP:
            raise ResourceCapError(
                f"census search at n={n}, nu_cap={nu_cap} expanded more than "
                f"{SEARCH_NODE_CAP} nodes on one instance; lower nu_cap"
            )
        Ub = Ul[b]
        Ua1 = Ul[a1]
        if depth >= 2:
            # try to close the cycle back to a1, first looking for an exact
            # witness against it: a path vertex blocking b or a1 at their
            # closing utilities, or an unused admirer that b prefers
            y_close = Ub[a1]
            ya1 = Ua1[b]
            if y_close > xl[b] and ya1 < xl[a1]:
                witness = False
                for j, yj in path:
                    if (Ub[j] < y_close and Ul[j][b] < yj) or (Ua1[j] < ya1 and Ul[j][a1] < yj):
                        witness = True
                        break
                if not witness:
                    for val, j in covet[b]:
                        if val >= y_close:
                            break
                        if not used[j]:
                            witness = True
                            break
                if not witness:
                    cand = {v: path[i ^ 1][0] for i, (v, _) in enumerate(path)}
                    cand[b] = a1
                    cand[a1] = b
                    if _neighbor_is_stable(U, x, cand):
                        out.append((depth, cand))
        if depth >= nu_cap:
            return
        budget = nu_cap - depth - 1
        xa1 = xl[a1]
        for a2, yb, ya, b2, r in cands[b][bisect_right(cands[b], a1, key=itemgetter(0)) :]:
            if used[a2]:
                continue
            if budget == 0 and not (Ul[b2][a1] > xl[b2] and Ua1[b2] < xa1):
                continue  # the next step must close the cycle, and b2 cannot
            # agents outside the path that would block b's new match can
            # only be absorbed as future improving vertices.  Committed ones
            # are used, a2 itself sorts at yb, and at most r agents sort
            # below it.
            if r > budget:
                pending = 0
                for val, j in covet[b]:
                    if val >= yb:
                        break
                    if not used[j]:
                        pending += 1
                        if pending > budget:
                            break
                if pending > budget:
                    continue
            # exact blocking against committed vertices
            blocked = False
            if path:
                Ua2 = Ul[a2]
                for j, yj in path:
                    if (Ub[j] < yb and Ul[j][b] < yj) or (Ua2[j] < ya and Ul[j][a2] < yj):
                        blocked = True
                        break
            if blocked:
                continue
            used[a2] = used[b2] = True
            path.append((b, yb))
            path.append((a2, ya))
            extend(a1, b2, depth + 1)
            del path[-2:]
            used[a2] = used[b2] = False

    for a1 in range(n):
        b1 = partner[a1]
        used[a1] = used[b1] = True
        extend(a1, b1, 1)
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
        for a, (_, first) in enumerate(found):
            for _, second in found[a + 1 :]:
                if not first.keys().isdisjoint(second):
                    d1[k] = True
                else:
                    disjoint_pairs[k] += 1
                    if not _neighbor_is_stable(U, X[k], first | second):
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

    def row(n, parts):
        c = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
        logw = c["logw"]

        def wmean(values: np.ndarray) -> float:
            return self_normalized_mean(logw, values)[0]

        circ_le, circ_se = self_normalized_mean(logw, c["xcirc"].sum(axis=1))
        mean_X, stderr_X = (
            self_normalized_mean(logw, c["full_X"]) if n <= config.enum_cap else (None, None)
        )
        pairs = wmean(c["disjoint_pairs"])
        return partial(
            ConditionalCensusRow,
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
        )

    extra = (config.proposal_rate, config.nu_cap, config.enum_cap)
    return _run_grid(config, "census", _census_chunk, extra, row)


def reference_with_cycles(n: int, lengths: list[int]) -> tuple[Matching, Matching]:
    """The reference matching together with the matching that differs from
    it by disjoint cycles of the given even lengths, laid out on leading
    blocks of consecutive pairs."""
    check_agent_count(n)
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


# CSV column names of the row fields whose names differ from them.
_COLUMNS = {"mean_X_circ_le": "xcirc_le", "stderr_X_circ_le": "xcirc_le_stderr"}


def _csv_cells(row) -> dict:
    """A row's CSV cells by column, in field order: ``wall_time`` goes to the
    sidecar only, and the per-nu dict spreads into ``xcirc_<nu>`` columns."""
    cells = {}
    for f in fields(row):
        value = getattr(row, f.name)
        if isinstance(value, dict):
            cells.update((f"xcirc_{nu}", v) for nu, v in value.items())
        elif f.name != "wall_time":
            cells[_COLUMNS.get(f.name, f.name)] = value
    return cells


def write_experiment(config: ExperimentConfig, rows, csv_path: str) -> None:
    """Write the data CSV (deterministic) and its JSON sidecar (config echo,
    seed, versions, wall time)."""
    table = [_csv_cells(r) for r in rows]
    header = f"# kind={config.kind} config_hash={config.config_hash()} schema=1"
    lines = [header, ",".join(table[0])]
    lines += [",".join(_fmt(v) for v in cells.values()) for cells in table]
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
    rows = globals()[KINDS[config.kind].run](config)
    write_experiment(config, rows, config.output)
    return rows
