"""Benchmark of the three seeded experiments: ``scaling``, ``ex-scaling`` and
``census``.

Run from the repository root:

    python3 bench/run.py --workload scaling-n1000 --seed 0 --seconds 30 --trace 0

Every experiment goes through the public ``roommates.run_experiment`` in a
fresh interpreter (``bench/experiment.py``) that imports the package from
``src/``.  The seed reaches the program only as ``master_seed``.

``--trace 0`` runs one experiment at a time with ``workers=2`` (a closed
loop) until ``--seconds`` are used, and reports the end-to-end metrics
named in ``BENCHMARK.json``:

- ``throughput_per_s``: replicates or samples, over the whole n grid,
  completed per second of ``run_experiment``, at the reference speed of the
  cores: each experiment's rate is scaled by the time a fixed reference
  kernel took on both cores around it over ``REFERENCE_S`` (see
  ``reference_s``); median over the experiments.  The unscaled rate and the
  kernel time are in each experiment's record;
- ``setup_s``: launch of a fresh interpreter until ``import roommates``
  completes; median over every launch of the run;
- ``peak_rss_mb``: largest resident set of an experiment process and of its
  pool workers, over the run;
- ``success_rate``: share of experiments that exited cleanly and wrote the
  expected CSV.  ``1 - success_rate`` is the error rate, also given by
  ``failed / attempted``.

``--trace 1`` runs a fixed sequence at ``workers=1``: untraced, traced,
traced, then untraced at ``workers=2``, and reports the per-layer metrics of
``bench/layers.py`` plus ``experiments.parallel_speedup`` (the ``workers=2``
throughput over the untraced ``workers=1`` one) and ``trace.overhead``
(traced over untraced ``workers=1`` wall time, minus 1).  Layer times are
medians of the two traced experiments; their counters must agree exactly.

Output check: every CSV must hash to the pinned sha256 when the seed has a
pin; for any other seed all CSVs of the run must be byte-identical, across
worker counts and with or without the trace.

Standard output: one line of provenance and per-experiment records, then the
result line ``{"correct", "attempted", "failed", "metrics"}``.  A readable
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# Sizes are set so that one workers=2 experiment lasts about 1.5 to 4 s on a
# 2-core machine, with eight or more chunks so that every worker gets
# several: a run of 30 s then holds about ten experiments for its median.
WORKLOADS = {
    # Irving's solver on long instances (~85% of the time), generation the rest.
    "scaling-n1000": {"kind": "scaling", "n_grid": [1000], "replicates": 64, "chunk_size": 8},
    # The same layers on short instances; many short chunks.
    "scaling-n100": {"kind": "scaling", "n_grid": [100], "replicates": 4096, "chunk_size": 256},
    # stability_log_rows on 8192 x 1000 float64 batches; the memory-heavy path.
    "ex-scaling-n1000": {"kind": "ex-scaling", "n_grid": [1000], "samples": 65536, "chunk_size": 8192},
    # Neighbour search, conditional fill and, at n=12, enumeration.
    "census-n12-50": {"kind": "census", "n_grid": [12, 50], "samples": 2048, "chunk_size": 128},
}

WORKERS = 2
SETUP_LAUNCHES = 10
MIN_EXPERIMENTS = 3
RUN_LIMIT_S = 170.0  # hard cap on one benchmark run, experiments included
# Each workload is scaled by the reference kernel of the kind of work that
# dominates it: the solver and the neighbour search run in the interpreter,
# ex-scaling streams float64 batches through numpy.  The solver at n=1000
# reads 8 MB arrays, beyond the per-core caches, so its kernel does too.
# Scaled by an interpreter-bound kernel, ex-scaling spread more than
# unscaled; scaled by the 2 MB interpreter kernel, scaling-n1000 spread three
# times as much as by the 8 MB one.
REFERENCE_KERNEL = {
    "scaling-n1000": "interpreter-8mb",
    "scaling-n100": "interpreter-2mb",
    "ex-scaling-n1000": "streaming",
    "census-n12-50": "interpreter-2mb",
}
# Each kernel's time on the first baseline's machine in its fastest
# minutes; see reference_s().
REFERENCE_S = {"interpreter-2mb": 0.125, "interpreter-8mb": 0.135, "streaming": 0.09}


def _interpreter_task(size: int, seed: int) -> float:
    # Python loops reading a size x size array one element at a time, down
    # rows of an argsort and across columns, as the solver and the neighbour
    # search do; 250k reads whatever the size
    a = np.random.default_rng(seed).random((size, size))
    rows = 250_000 // size
    order = np.argsort(a[:rows], axis=1)
    total = 0.0
    for x in range(rows):
        row = order[x]
        for pos in range(size):
            total += a[row[pos], x]
    return total


def _streaming_task(seed: int) -> float:
    # 32 MB arrays: together on both cores, twice the L3 of that machine
    a = np.random.default_rng(seed).random((512, 8192))
    total = a.copy()
    power = a.copy()
    for _ in range(4):
        power *= a
        total += power
    return float(total.sum())


KERNEL_TASKS = {
    "interpreter-2mb": functools.partial(_interpreter_task, 500),
    "interpreter-8mb": functools.partial(_interpreter_task, 1000),
    "streaming": _streaming_task,
}


def reference_s(pool: ProcessPoolExecutor, kind: str) -> float:
    """Wall time of a reference kernel on both cores.

    The host's cores change speed by up to half over seconds to minutes,
    with the load of other machines, and CPU time grows with wall time, so
    the slowdown cannot be told from the program's own work by timing alone.
    A kernel is fixed work unrelated to the program, of the kind that
    dominates the workload.  It runs right before and after each experiment
    on the same number of workers, and the experiment's throughput is scaled
    by how much slower than ``REFERENCE_S`` it ran around it."""
    t0 = time.perf_counter()
    list(pool.map(KERNEL_TASKS[kind], range(8)))
    return time.perf_counter() - t0


def launch(root: Path, request: dict, env: dict, deadline: float) -> dict | None:
    """Run ``bench/experiment.py`` once; its record with ``setup_s`` added,
    or None when it failed or ran past ``deadline``."""
    cmd = [sys.executable, str(root / "bench" / "experiment.py"), json.dumps(request)]
    t_launch = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_launch))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
        proc.communicate()
        print(f"experiment timed out: {request}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"experiment exited with {proc.returncode}: {request}", file=sys.stderr)
        return None
    try:
        record = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"experiment printed no record: {request}", file=sys.stderr)
        return None
    record["setup_s"] = record.pop("imported_at") - t_launch
    return record


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.records: list[dict | None] = []
        # sha256 of the workload's CSV by master seed, from the code at the
        # commit that added this benchmark
        pinned = json.loads((root / "bench" / "pinned.json").read_text())
        self.pinned = pinned[workload].get(str(seed))

    def run(self, workers: int | None = None, trace: bool = False) -> dict | None:
        """One experiment, or with ``workers=None`` an import-only launch."""
        request = {}
        if workers is not None:
            output = self.work / f"run{len(self.records)}.csv"
            config = dict(WORKLOADS[self.workload], master_seed=self.seed,
                          workers=workers, output=str(output))
            request = {"config": config, "trace": trace}
        record = launch(self.root, request, self.env, self.started + RUN_LIMIT_S)
        if workers is not None:
            self.records.append(record)
        return record

    def failed(self) -> int:
        """Experiments that failed or whose CSV differs from the pin, or
        without a pin from the first CSV of the run."""
        ok = [r["sha256"] for r in self.records if r is not None]
        expected = self.pinned or (ok[0] if ok else None)
        return sum(r is None or r["sha256"] != expected for r in self.records)

    def end_to_end(self, seconds: float) -> dict:
        self.run()  # warm-up: bytecode cache and page cache
        setup = [r["setup_s"] for r in (self.run() for _ in range(SETUP_LAUNCHES)) if r]
        kind = REFERENCE_KERNEL[self.workload]
        with ProcessPoolExecutor(WORKERS) as pool:
            reference_s(pool, kind)  # starts the pool's workers
            before = reference_s(pool, kind)
            window_end = time.monotonic() + seconds
            while True:
                t0 = time.monotonic()
                record = self.run(WORKERS)
                after = reference_s(pool, kind)
                now = time.monotonic()
                last = now - t0
                if record is not None:
                    setup.append(record["setup_s"])
                    raw = record["units"] / record["wall_s"]
                    record["throughput_raw_per_s"] = raw
                    record["reference_s"] = (before + after) / 2
                    record["throughput_per_s"] = raw * record["reference_s"] / REFERENCE_S[kind]
                before = after
                if now + last > self.started + RUN_LIMIT_S:
                    break
                if len(self.records) >= MIN_EXPERIMENTS and now + last > window_end:
                    break
        ok = [r for r in self.records if r is not None]
        attempted = len(self.records)
        return {
            "throughput_per_s": statistics.median(r["throughput_per_s"] for r in ok) if ok else 0.0,
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": max((r["peak_rss_mb"] for r in ok), default=0.0),
            "success_rate": (attempted - self.failed()) / attempted,
        }

    def traced(self) -> tuple[dict, int, list[str]]:
        """Per-layer metrics, the count of extra failures (traced runs whose
        deterministic counters disagree) and the layers whose functions no
        longer exist."""
        plain = self.run(1)
        traced = [self.run(1, trace=True), self.run(1, trace=True)]
        parallel = self.run(WORKERS)
        if plain is None or parallel is None or None in traced:
            return {}, 0, []
        layers = [t["layers"] for t in traced]
        metrics = {}
        mismatches = 0
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if name.endswith("_s"):
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                mismatches += values[0] != values[1]
        if mismatches:
            print(f"traced runs disagree on {mismatches} counters", file=sys.stderr)
        metrics["experiments.parallel_speedup"] = plain["wall_s"] / parallel["wall_s"]
        metrics["trace.overhead"] = (
            statistics.mean(t["wall_s"] for t in traced) / plain["wall_s"] - 1.0
        )
        return metrics, int(mismatches > 0), traced[0]["missing"]


def provenance(root: Path, records: list) -> dict:
    config = next((dict(r["config"]) for r in records if r), {})
    config.pop("output", None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_rev": _git_rev(root),
        "experiment_config": config,
        "bytes_computed": "computed from array shapes and dtypes, not measured",
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def _git_rev(root: Path) -> str | None:
    # the ceiling keeps git from searching above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "roommates" / "__init__.py").is_file():
        print("no src/roommates here: run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    bench = Bench(root, args.workload, args.seed, work)
    try:
        if args.trace:
            values, extra_failed, missing = bench.traced()
        else:
            values, extra_failed, missing = bench.end_to_end(args.seconds), 0, []
    finally:
        shutil.rmtree(work)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = len(bench.records)
    failed = min(attempted, bench.failed() + extra_failed)
    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values.get(name), "unit": unit}
        if name.rsplit(".", 1)[0] in missing:
            metrics[name]["missing"] = True
        shown = "missing" if "missing" in metrics[name] else values.get(name)
        print(f"{args.workload} {name}: {shown} {unit}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(root, bench.records), "runs": bench.records}))
    print(json.dumps({
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
