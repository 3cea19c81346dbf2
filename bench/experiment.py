"""Run one experiment in a fresh interpreter and print one JSON record.

    python3 bench/experiment.py '{"config": {...}, "trace": false}'
    python3 bench/experiment.py '{}'        # import only, for set-up time

``config`` holds ``roommates.ExperimentConfig`` fields.  The record's
``imported_at`` is ``time.monotonic()`` right after ``import roommates``;
the launcher subtracts its own launch timestamp to get set-up time (both
read the same system-wide monotonic clock on Linux).  With ``trace`` the run
goes through the layer wrappers of ``layers.py``.
"""

import time

import roommates

IMPORTED_AT = time.monotonic()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children
    (the pool workers), in MB; ``ru_maxrss`` is in KiB on Linux."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def main() -> None:
    request = json.loads(sys.argv[1])
    record = {"imported_at": IMPORTED_AT}
    if "config" in request:
        fields = dict(request["config"], n_grid=tuple(request["config"]["n_grid"]))
        config = roommates.ExperimentConfig(**fields)
        tracer = None
        if request.get("trace"):
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        roommates.run_experiment(config)
        wall = time.perf_counter() - t0
        with open(config.output, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        per_n = config.replicates if config.kind == "scaling" else config.samples
        record.update(
            config=dataclasses.asdict(config),
            wall_s=wall,
            units=per_n * len(config.n_grid),
            sha256=digest,
            peak_rss_mb=peak_rss_mb(),
        )
        if tracer is not None:
            record.update(layers=tracer.report(), missing=tracer.missing)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
