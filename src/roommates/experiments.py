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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import accumulate, combinations
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
    InvalidInstanceError,
    RngStream,
    check_agent_count,
    preference_window,
    row_order,
)
from .matchings import Matching
from .solvers import _SEARCH_BYTES, ENUM_CAP, ResourceCapError, count_stable_stack, irving_decide

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
    cannot exceed ``ENUM_CAP``.  Every field must have its annotated type
    exactly (a bool or numpy integer is not an int; ``proposal_rate`` may be
    any int or float), so that a bad value fails here rather than mid-run or
    in ``config_hash``.
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
        if self.kind != "scaling" and self.samples < 2:
            # the importance and self-normalised estimates need two draws
            # for a standard error
            raise ConfigError(f"{self.kind} samples must be >= 2 for a standard error")
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


# Agents per row, on average, of a scaling instance's preference window.
# Phase 1 of irving_decide runs past the window, and lists the row again
# from the utilities, on about 48 rows per instance at n=1000 (127 at 16
# agents, 17 at 32; 40 instances) and on 0.9 rows at n=100.  The window's
# build grows with its width and the extensions shrink: scaling runs at
# n=1000 on two workers took the same time at 16, 20, 24 and 32 within the
# host's noise.
_WINDOW_AGENTS = 24


def _random_pref_score(gen: np.random.Generator, n: int):
    """Uniform utilities with a sentinel diagonal, and the window of each
    row's agents with utility below min(_WINDOW_AGENTS / n, 1) in
    preference order, packed as ``preference_window`` gives it: the prefix
    of each row that ``irving_decide`` starts phase 1 from.  The raw
    utilities serve as the comparison scores, so neither a rank matrix nor
    a full n x n argsort is ever built."""
    u = gen.random((n, n))
    np.fill_diagonal(u, 2.0)
    return preference_window(u, min(_WINDOW_AGENTS / n, 1.0)), u


# Peak bytes per entry of an ex-scaling batch (rows x n): the draws' one
# float64 array, transformed in place, and two bool masks of the series.
# Peak RSS of expected_count_log_weights at n = 1000 grew by 10.0 bytes per
# entry from 4096 to 8192 rows and from 8192 to 16384 rows.
_EX_BYTES_PER_ENTRY = 10
# Peak bytes per n^2 of one census sample: its utilities, the fill's pair
# indices and the neighbour search's tables.  Peak RSS of one sample was
# 30.4, 29.9, 29.9 and 30.0 bytes per n^2 at n = 1000, 2000, 3000 and 4000
# with nu_cap 5 (35.4, 30.4, 29.9 and 30.0 with nu_cap 8), and grew by 30.0
# per n^2 from 3000 to 4000 with either.  The census check adds the
# search's prefix table and its stack of path blocks, at most one of
# _SEARCH_BYTES per depth, which make the excess at n = 1000, and the X
# batch at ex-scaling's _EX_BYTES_PER_ENTRY, not measured on the census, as
# if all peaks coincided: an upper bound.
_CENSUS_BYTES_PER_N2 = 30


def _pool_size(config: ExperimentConfig) -> int:
    """Worker processes a run starts: ``workers``, but at most one per chunk
    and one per CPU this process may run on.  A fork-start pool forks every
    worker at its first task, so an unclamped count is that many processes."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(config.workers, config.chunks(), cpus)


def _check_memory(config: ExperimentConfig, worker_bytes) -> None:
    """Raise ResourceCapError, before any work, when the run's workers,
    each holding ``worker_bytes(n)`` at the largest n, do not fit in the
    host's physical memory."""
    n = max(config.n_grid)
    workers = _pool_size(config)
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
    if workers <= 1:
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
        make_row = row(n, _run_chunks(chunk, args, _pool_size(config)))
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
    # that irving_decide builds its live table from, and the window: its
    # offsets and about _WINDOW_AGENTS agents per row.  The traced peak of
    # one instance was 10.57, 10.37 and 10.27 bytes per n^2 at n = 1000, 2000
    # and 3000, of which the window is 0.20, 0.10 and 0.07 and phase 2's
    # live table most of the rest.
    _check_memory(config, lambda n: 10 * n * n + 8 * n * (min(n - 1, _WINDOW_AGENTS) + 1))
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


# Search nodes (paths extended) that stable_single_cycle_neighbors may
# expand on one instance before it raises ResourceCapError.  An instance
# takes about 28 nodes at n=12 and 210 at n=50 with nu_cap 5, 0.9k at n=200
# with nu_cap 5 and 3.7k with nu_cap 8, and 19k (about 0.11 s) at n=1000
# with nu_cap 8.
SEARCH_NODE_CAP = 1_000_000
# The census search's group holds about _SEARCH_BYTES_PER_N2 per n^2 and
# sample besides its prefix table, and one slice of candidate rows, within
# _SEARCH_BYTES.  The traced peak of the search on one sample at n = 2000,
# its 8 bytes per n^2 of utilities added, was 19.8 bytes per n^2 with
# nu_cap 5 and 21.2 with nu_cap 8, prefix tables of 1.0 and 1.8 included.
_SEARCH_BYTES_PER_N2 = 24


def _prefix_table_bytes(n: int, nu_cap: int) -> int:
    """Bytes of one sample's table of admirer prefixes in the census
    search: at most 2 nu_cap - 2 sets of ceil(n / 64) words per agent."""
    return (2 * nu_cap - 2) * 8 * -(-n // 64) * n


def _search_group(n: int, nu_cap: int) -> int:
    """Samples per call of the census search."""
    return max(1, _SEARCH_BYTES // (_SEARCH_BYTES_PER_N2 * n * n + _prefix_table_bytes(n, nu_cap)))


def stable_single_cycle_neighbors(U: np.ndarray, m: Matching, nu_cap: int) -> list:
    """All stable matchings differing from ``m`` by one cycle of half-length
    at most ``nu_cap``, for an instance (utility array ``U``) in which ``m``
    is stable.  Returns (half-length, new-partner map) pairs, or for a stack
    ``U`` of shape (samples, n, n) one such list per sample.

    Searches oriented cycles directly: along a realizable cycle the
    improving and worsening vertices alternate, and every improving vertex
    must rank its new partner above its old one, which at typical scale
    leaves about sqrt(n) candidates per step instead of n.  A cycle starts
    at its smallest improving vertex a1 and its partner b; each step picks
    an admirer a2 >= a1 of the current b that b ranks below its partner,
    and a2 = a1 closes the cycle.  All paths of all samples advance one
    step at a time as rows of flat arrays, in slices of at most
    _SEARCH_BYTES, and the cycles come out in depth-first order: by a1,
    then by the a2 of each step, a cycle before its extensions.  Raises
    ResourceCapError when the search expands more than SEARCH_NODE_CAP
    nodes on one sample, and InvalidInstanceError when ``m`` is not stable
    or ``U`` does not have its agent count.
    Each path carries its pending set as bits: the admirers that its b's
    prefer to their new partners, less a1 and the path's vertices.  Each
    would block unless a later step takes it as an improving vertex, so a
    step is dropped when the set holds more agents than the steps left can
    take, holds the b about to worsen, or holds an agent below a1, which no
    later step can take (every a2 is >= a1).  The step's own tests decide each
    closing exactly: as ``m`` is stable, only a worsening vertex can block
    with an agent off the cycle, and does so exactly when it prefers one of
    its admirers there to its new partner, so a closing needs an empty
    pending set and no blocking pair on the cycle.  A 2-D call pays the
    fixed numpy cost of every depth, so callers with many instances pass a
    stack.
    """
    if nu_cap < 2:
        raise ValueError(f"nu_cap must be >= 2, got {nu_cap}")
    Ug = U if U.ndim == 3 else U[None]
    g, n = len(Ug), m.n
    if Ug.shape[1:] != (n, n):
        raise InvalidInstanceError(f"U of shape {U.shape} for a matching of {n} agents")
    partner = np.array(m.partner)
    x = Ug[:, np.arange(n), partner].ravel()  # x[s n + i]: i's partner utility
    Uf = Ug.ravel()  # Uf[(s n + i) n + j] = U[s, i, j]
    UT = Ug.transpose(0, 2, 1).ravel()  # UT[(s n + i) n + j] = U[s, j, i]
    # (b, j) for every j that prefers b to its partner (an admirer of b), as
    # e = (s n + b) n + j in ascending order, and j's rank in b's order of
    # its admirers
    with np.errstate(invalid="ignore"):
        e = np.flatnonzero(UT.reshape(g, n, n) < x.reshape(g, 1, n))
    key, ub = e // n, Uf[e]
    xb = x[key]
    blocking = e[ub < xb]  # admirers that b prefers to its partner as well
    if blocking.size:
        sb, j = divmod(int(blocking[0]), n)
        raise InvalidInstanceError(
            f"m is not stable in sample {sb // n}: agents {sb % n} and {j} block it"
        )
    order = row_order(key, ub, g * n)
    rank = np.empty(e.size, np.intp)
    rank[order] = np.arange(e.size) - np.searchsorted(key, key)
    # candidates: admirers a2 that b would take only as a worse partner, and
    # with at most 2 nu_cap - 3 admirers below them, which a path can absorb
    keep = (ub > xb) & (rank <= 2 * nu_cap - 3)
    cand, cand_r = e[keep], rank[keep]
    cand_a2 = cand % n
    coff = np.searchsorted(cand, np.arange(g * n + 1) * n)
    # sets of agents as W words of bits: BIT[:, v] holds v alone, LOW[:, v]
    # the agents below v, and PM[(s n + b) K + r] b's first r admirers in b's
    # order, for every rank r a candidate can have
    W, K = -(-n // 64), min(2 * nu_cap - 2, int(rank.max(initial=0)) + 1)
    ids = np.arange(n)
    BIT = np.zeros((W, n), np.uint64)
    BIT[ids >> 6, ids] = np.uint64(1) << (ids & 63).astype(np.uint64)
    LOW = np.zeros((W, n), np.uint64)
    np.bitwise_or.accumulate(BIT[:, :-1], axis=1, out=LOW[:, 1:])
    head = rank < K - 1
    PM = np.zeros((g * n, K, W), np.uint64)
    PM[key[head], rank[head] + 1] = BIT[:, e[head] % n].T
    for r in range(2, K):
        PM[:, r] |= PM[:, r - 1]
    PM = PM.reshape(-1, W)
    nodes = np.zeros(g, dtype=np.int64)
    closings = []
    # a block of paths: sample, a1, current b, the committed vertices and
    # their new utilities, step i's (b, a2) in rows 2i and 2i + 1, and as
    # bits a1 with the committed vertices and the pending admirers
    s0 = np.repeat(np.arange(g), n)
    a10 = np.tile(np.arange(n), g)
    empty = np.empty((0, g * n), np.intp), np.empty((0, g * n))
    stack = [(s0, a10, partner[a10], *empty, BIT[:, a10], np.zeros((W, g * n), np.uint64), 0, None)]
    while stack:
        s, a1, b, P, Y, used, pending, lo, start_cum = stack.pop()
        depth = len(P) // 2 + 1
        kb = s * n + b
        rb = kb * n
        if lo == 0:
            nodes += np.bincount(s, minlength=g)
            if (nodes > SEARCH_NODE_CAP).any():
                raise ResourceCapError(
                    f"census search at n={n}, nu_cap={nu_cap} expanded more than "
                    f"{SEARCH_NODE_CAP} nodes on one instance; lower nu_cap"
                )
            # b's candidates from a1 on, which closes the cycle: only a1 at nu_cap
            start = np.searchsorted(cand, rb + a1)
            end = np.searchsorted(cand, rb + a1, side="right") if depth == nu_cap else coff[kb + 1]
            start_cum = start, np.cumsum(end - start)
        start, cum = start_cum
        # slices of nodes with at most rows_max candidate rows each, until
        # their extended paths fill a block: a row holds 16 bytes per
        # committed vertex and per word of its two bit sets, and about 128
        # in its other arrays
        rows_max = _SEARCH_BYTES // (16 * (len(P) + W + 8))
        left = nu_cap - depth - 1
        kids, kid_rows = [], 0
        while lo < len(s) and kid_rows < rows_max:
            base = cum[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cum, base + rows_max, side="right")))
            c = np.diff(cum[lo:hi], prepend=base)
            par = np.repeat(np.arange(lo, hi), c)
            idx = np.arange(par.size) + np.repeat(start[lo:hi] + base - cum[lo:hi] + c, c)
            a2, r = cand_a2[idx], cand_r[idx]
            lo = hi
            rbp = rb[par]
            # the r admirers that b prefers to a2 would block b's new match
            # unless on the cycle, and only a1, the path and ``left`` future
            # improving vertices can be
            keep = r <= left + len(P) + 1
            b2 = partner[a2]
            if left == 0:  # the next step must close the cycle, and b2 must allow it
                sn, a1p = s[par] * n, a1[par]
                keep &= (a2 == a1p) | (
                    (Uf[(sn + b2) * n + a1p] > x[sn + b2]) & (Uf[(sn + a1p) * n + b2] < x[sn + a1p])
                )
            par, a2, b2, rbp, r = par[keep], a2[keep], b2[keep], rbp[keep], r[keep]
            # the pending set: the admirers that the path's b's prefer to
            # their new partners, off a1 and the path.  A closing (a2 = a1,
            # every row at nu_cap) must leave it empty, any other step at
            # most ``left``, without b2, which is about to worsen, or an
            # agent below a1, which no later a2 can be, and with a2 not on
            # the path already
            a1p = a1[par]
            close, was, bit = a2 == a1p, used[:, par], BIT[:, a2]
            held = was | bit
            pend = (pending[:, par] | PM[kb[par] * K + r].T) & ~held
            keep = np.bitwise_count(pend).sum(axis=0) <= np.where(close, 0, left)
            keep &= close | ~((pend & (BIT[:, b2] | LOW[:, a1p])) | (was & bit)).any(axis=0)
            par, a2, rbp, close, held, pend = (v[..., keep] for v in (par, a2, rbp, close, held, pend))
            # exact blocking of b and a2 at their new utilities with the path
            Pp, Yp = P[:, par], Y[:, par]
            yb, ya = Uf[rbp + a2], UT[rbp + a2]
            ra = (s[par] * n + a2) * n
            blocked = np.zeros(par.size, dtype=bool)
            for j, yj in zip(Pp, Yp):
                blocked |= (Uf[rbp + j] < yb) & (UT[rbp + j] < yj)
                blocked |= (Uf[ra + j] < ya) & (UT[ra + j] < yj)
            ok = np.flatnonzero(close & ~blocked)
            if ok.size:
                keys = np.full((nu_cap + 1, ok.size), -1)
                keys[0], keys[1], keys[2 : depth + 1] = s[par[ok]], a2[ok], Pp[1::2, ok]
                closings.append(keys)
            keep = ~(blocked | close)
            par, a2 = par[keep], a2[keep]
            kids.append((
                s[par], a1[par], partner[a2],
                np.vstack([Pp[:, keep], b[par], a2]), np.vstack([Yp[:, keep], yb[keep], ya[keep]]),
                held[:, keep] | BIT[:, b[par]], pend[:, keep],
            ))
            kid_rows += par.size
        if lo < len(s):
            stack.append((s, a1, b, P, Y, used, pending, lo, start_cum))
        if kid_rows:
            stack.append((*(np.concatenate(k, axis=-1) for k in zip(*kids)), 0, None))
    found = _stable_closings(g, m.partner, closings)
    return found if U.ndim == 3 else found[0]


def _neighbor_is_stable(U: np.ndarray, found: list) -> np.ndarray:
    """Stability of the merge of each vertex-disjoint pair of the stable
    single-cycle neighbours ``found`` of one instance ``U``, in their order.
    A merge is stable iff no vertex of one cycle and vertex of the other
    prefer each other to their new partners: any other pair has the same
    partners in one of the two neighbours, which are stable."""
    maps = [new for _, new in found]
    pairs = [(a, b) for a, b in combinations(range(len(maps)), 2) if maps[a].keys().isdisjoint(maps[b])]
    if not pairs:
        return np.zeros(0, dtype=bool)
    V, W = np.array([vw for new in maps for vw in new.items()]).T
    off = [0, *accumulate(map(len, maps[:-1]))]  # each cycle's first row
    with np.errstate(invalid="ignore"):
        prefers = U[V[:, None], V] < U[V, W][:, None]  # v prefers w to its new partner
    blocked = np.logical_or.reduceat(np.logical_or.reduceat(prefers & prefers.T, off, 0), off, 1)
    a, b = np.array(pairs).T
    return ~blocked[a, b]


def _stable_closings(g, partner, closings):
    """The closings' sort keys in depth-first order, as one list per sample
    of (half-length, new-partner map) pairs: the a2s and a1 are the cycle's
    improving vertices, each taking the old partner of the one before it."""
    out = [[] for _ in range(g)]
    if closings:
        keys = np.concatenate(closings, axis=1)
        for s, a1, *a2 in keys[:, np.lexsort(keys[::-1])].T.tolist():
            new, improving = {}, [a for a in a2 if a >= 0] + [a1]
            for prev, a in zip([a1, *improving], improving):
                new[partner[prev]], new[a] = a, partner[prev]
            out[s].append((len(improving), new))
    return out


def _census_chunk(args) -> dict[str, np.ndarray]:
    """Per sample of one census chunk: log-weight, stable neighbours per
    half-length, their vertex-disjoint pairs and those whose merge is not
    stable (d1, d3), the GPI event and X at n <= enum_cap (-1 above)."""
    master_seed, n, chunk_id, count, rate, nu_cap, enum_cap = args
    gen = _chunk_stream(master_seed, "census", n, chunk_id).generator()
    m = Matching.consecutive(n)
    X, logw = _conditional_x_batch(m, count, gen, rate)
    gpi = gpi_rows(X, m)[1].all(axis=0)
    xcirc = np.zeros((count, nu_cap - 1), dtype=np.int32)
    disjoint_pairs = np.zeros(count, dtype=np.int64)
    failing_pairs = np.zeros(count, dtype=np.int64)
    full_X = np.full(count, -1, dtype=np.int64)
    # the search runs on groups of samples, drawn in sample order: only the
    # fills draw, so the generator's order is that of one sample at a time
    group = _search_group(n, nu_cap)
    for lo in range(0, count, group):
        Ug = np.stack([_fill_conditional_pairs(m, x, gen) for x in X[lo : lo + group]])
        if n <= enum_cap:
            full_X[lo : lo + group] = count_stable_stack(Ug)
        for k, U, found in zip(range(lo, count), Ug, stable_single_cycle_neighbors(Ug, m, nu_cap)):
            for nu, _ in found:
                xcirc[k, nu - 2] += 1
            if len(found) > 1:
                ok = _neighbor_is_stable(U, found)
                disjoint_pairs[k], failing_pairs[k] = ok.size, ok.size - ok.sum()
    cycles = xcirc.sum(axis=1)
    return {
        "logw": logw,
        "xcirc": xcirc,
        "d1": disjoint_pairs < cycles * (cycles - 1) // 2,  # some pair overlaps
        "d3": failing_pairs > 0,
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

    rows = min(config.chunk_len(), config.samples)
    _check_memory(config, lambda n: (
        _CENSUS_BYTES_PER_N2 * n * n + _prefix_table_bytes(n, config.nu_cap)
        + config.nu_cap * _SEARCH_BYTES + _EX_BYTES_PER_ENTRY * rows * n
    ))
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
    """Dispatch on config.kind, write outputs, return the rows.  A missing
    output directory raises before any work."""
    if not os.path.isdir(os.path.dirname(config.output) or "."):
        raise FileNotFoundError(f"output directory of {config.output!r} does not exist")
    rows = globals()[KINDS[config.kind].run](config)
    write_experiment(config, rows, config.output)
    return rows
