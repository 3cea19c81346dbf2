"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/BENCH_seed.json
    python3 bench/baseline.py --workloads scaling-n1000 --seeds 1-5
    python3 bench/baseline.py --seeds 0    # every workload once

For every workload and seed it runs ``bench/run.py --trace 0`` and reports,
per end-to-end metric, the values, their median and quartiles, and the
spread: the distance between the quartiles of
``statistics.quantiles(values, n=4)`` as a share of the median.  With
``--trace-seed`` it adds one traced run per workload.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    # quantiles needs two points; a single seed has no spread
    q1, med, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            info, result = run(workload, seed, args.seconds, 0)
            results.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "correct" if result["correct"] else "INCORRECT", file=sys.stderr)
        entry = {
            "provenance": info["provenance"],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = dict(s, unit=metric["unit"], bound=metric["bound"])
            print(f"{workload} {name}: median {s['median']:.6g} {metric['unit']}, "
                  f"spread {s['spread']} (bound {metric['bound']})", file=sys.stderr)
        if args.trace_seed is not None:
            _, traced = run(workload, args.trace_seed, args.seconds, 1)
            entry["trace"] = {"seed": args.trace_seed, "correct": traced["correct"],
                              "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
