"""One iteration of a benchmark workload, in a fresh process.

``run.py`` starts this script once per measured iteration so every
iteration pays its own imports and starts with cold in-process caches,
as a command-line run of the program does.  It prints one JSON line.

Modes:

* ``run``   — set up, run the workload untraced, check its outputs;
* ``trace`` — the same with the per-layer tracer installed;
* ``setup`` — set up only (extra ``setup_s`` samples);
* ``fill``  — set up and fill the workload's persistent profile cache
  (``figures-warm`` only; untimed).

``setup_s`` is ``import repro.api`` (with the rest of the evaluation
layer the workloads use) plus workload construction.  ``wall_s`` and
``cpu_s`` cover ``run()`` only, with a :class:`SpeedProbe` sampling the
machine's speed alongside; checks run after the clock stops.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path


def _probe_unit(table: dict) -> None:
    for i in range(3000):
        table[i & 63] = table.get((i * 7) & 63, 0) + i


class SpeedProbe:
    """Samples how fast this process's CPU runs Python while the
    workload runs.

    Other tenants of a shared machine slow it down by 10-40 % for
    seconds to minutes at a time, and the workload's wall time follows.
    A thread runs a fixed, allocation-free loop (``_probe_unit``, about
    0.6 ms) every 50 ms, about 1 % of the run; the median of its times
    is the machine's speed over that same interval, which ``run.py``
    uses to rescale ``wall_s`` and ``cpu_s`` to a fixed reference speed.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        table: dict = {}
        while not self._stop.wait(self.PERIOD_S):
            start = time.perf_counter()
            _probe_unit(table)
            self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def unit_s(self) -> float:
        """Median probe-loop time; the loop runs once up front if the
        run was too short for a sample."""
        if not self.samples:
            start = time.perf_counter()
            _probe_unit({})
            self.samples.append(time.perf_counter() - start)
        return statistics.median(self.samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("run", "trace", "setup", "fill"),
                        default="run")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro.api  # noqa: F401  (timed: the import users pay)
    from bench_workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    doc = {"setup_s": time.perf_counter() - start}

    if args.mode == "fill":
        workload.fill()
    if args.mode in ("setup", "fill"):
        print(json.dumps(doc))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    with SpeedProbe() as probe:
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        outputs = workload.run()
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
    doc["probe_unit_s"] = probe.unit_s()
    if tracer is not None:
        doc["layers"] = tracer.metrics(wall_s)
        doc["missing"] = tracer.missing
        doc["hook_s"] = tracer.hook_s
        doc["unestimated_profile_calls"] = tracer.unestimated_profile_calls

    checks = workload.checks(outputs)
    doc.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(checks),
        "failures": [[label, detail] for label, ok, detail in checks
                     if not ok],
        "fidelity": workload.fidelity(outputs),
    })
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
