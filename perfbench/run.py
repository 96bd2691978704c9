"""End-to-end benchmark of the reproduction: one workload per invocation.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 40 --trace 0

Runs the workload serially (``jobs=1``), closed loop, one iteration at a
time, each iteration in a fresh process (``iteration.py``), for about
``--seconds`` seconds, and prints a human-readable report followed, as
the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the
iterations): ``wall_norm_s`` and ``cpu_norm_s`` (``wall_s`` and
``cpu_s`` rescaled by the in-process speed probe to a fixed reference
speed, so that other tenants' load cancels out), ``setup_s`` and
``peak_rss_mb``; raw ``wall_s`` and ``cpu_s`` are printed beside them.
``--trace 1`` runs one untraced and two traced iterations and reports
the per-layer split (see ``tracer.py``); the two traced iterations'
work counters must agree exactly.  ``attempted``/``failed`` count
output checks; any failure makes ``correct`` false.

Everything the benchmark writes goes under ``.perfbench/`` at the root
of the checkout.  See ``NOTES.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-cold", "design-sweep", "figures-warm")
#: Extra set-up-only processes per run, on top of each iteration's own.
SETUP_SAMPLES = 5
#: Hard limit for the whole invocation.
DEADLINE_S = 175.0
#: The persistent profile cache ``figures-warm`` reads (filled untimed).
WARM_CACHE = STATE / "warm-cache"
#: The speed probe's loop time at the reference speed: ``wall_norm_s``
#: is ``wall_s`` x ``PROBE_REF_S`` / the probe's time during the run,
#: the wall time the run would have taken at the reference speed (about
#: the median speed of the 2-core machine the benchmark was written on).
PROBE_REF_S = 0.0006

sys.path.insert(0, str(HERE))
from tracer import LAYER_METRICS, WORK_COUNTERS  # noqa: E402


class BenchError(RuntimeError):
    """An iteration process failed; the run reports no result."""


class Runner:
    """Starts iteration processes, each with its own work directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        # Pin the program's behaviour switches to their defaults.
        for name in ("REPRO_INTERP", "REPRO_VERIFY_PASSES"):
            self.env.pop(name, None)
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.count = 0

    def iteration(self, mode: str) -> dict:
        self.count += 1
        if self.workload == "figures-warm":
            workdir, temporary = WARM_CACHE, None
        else:
            name = "work-%d-%d" % (os.getpid(), self.count)
            workdir = temporary = STATE / name
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(self.env, REPRO_CACHE_DIR=str(workdir))
        command = [
            sys.executable, str(HERE / "iteration.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--workdir", str(workdir), "--mode", mode,
        ]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("%s iteration exceeded the %.0f s limit"
                             % (mode, DEADLINE_S)) from None
        finally:
            if temporary is not None:
                shutil.rmtree(temporary, ignore_errors=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError("%s iteration exited with %d"
                             % (mode, done.returncode))
        return json.loads(lines[-1])


def _spread(values) -> str:
    values = sorted(values)
    if len(values) == 1:
        return "1 run"
    return "median of %d, min %.4g, max %.4g" % (
        len(values), values[0], values[-1]
    )


def measure(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics: iterations back to back for ``seconds``,
    another only when one more of the last one's length still fits.
    The gated metrics are the JSON's; raw ``wall_s``, ``cpu_s`` and the
    probe's time are printed beside them."""
    setups = [runner.iteration("setup")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    docs = []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        docs.append(runner.iteration("run"))
        last = time.monotonic() - began
        if time.monotonic() - started + last > seconds:
            break
    setups += [doc["setup_s"] for doc in docs]

    def normalized(key):
        return [doc[key] * PROBE_REF_S / doc["probe_unit_s"] for doc in docs]

    gated = {
        "wall_norm_s": ("s", normalized("wall_s")),
        "cpu_norm_s": ("s", normalized("cpu_s")),
        "setup_s": ("s", setups),
        "peak_rss_mb": ("MB", [doc["peak_rss_mb"] for doc in docs]),
    }
    shown = dict(gated, **{
        "wall_s": ("s", [doc["wall_s"] for doc in docs]),
        "cpu_s": ("s", [doc["cpu_s"] for doc in docs]),
        "probe_unit_ms": ("ms", [1e3 * doc["probe_unit_s"] for doc in docs]),
    })
    metrics = {
        name: {"value": median(values), "unit": unit}
        for name, (unit, values) in gated.items()
    }
    lines = [
        "  %-16s %12.4f %-3s (%s)" % (name, median(values), unit,
                                     _spread(values))
        for name, (unit, values) in shown.items()
    ]
    return metrics, docs, lines


def measure_traced(runner: Runner) -> tuple:
    """Per-layer metrics from two traced iterations, plus one untraced
    iteration for the tracing overhead."""
    untraced = runner.iteration("run")
    traced = [runner.iteration("trace") for _ in range(2)]
    docs = [untraced] + traced
    layers = [doc["layers"] for doc in traced]
    drift = [
        ["nondeterministic work counter %s" % name,
         "%r != %r" % (layers[0][name], layers[1][name])]
        for name in WORK_COUNTERS if layers[0][name] != layers[1][name]
    ]
    overhead = (median([doc["wall_s"] - doc["hook_s"] for doc in traced])
                - untraced["wall_s"])
    metrics, lines = {}, []
    for name, unit, _, moves in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = overhead
        elif layers[0][name] is None:
            value = None
        elif unit == "s":
            value = median([layer[name] for layer in layers])
        else:
            value = layers[0][name]
        metrics[name] = {"value": 0.0 if value is None else value,
                         "unit": unit}
        shown = "missing" if value is None else "%.6g" % value
        lines.append("  %-24s %14s %-5s  -> %s" % (name, shown, unit, moves))
    top_s, top = max((metrics[name]["value"], name)
                     for name, unit, spans, _ in LAYER_METRICS
                     if unit == "s" and len(spans) == 1)
    lines.append("  largest layer: %s (%.4g s of %.4g s traced wall_s)"
                 % (top, top_s, median([doc["wall_s"] for doc in traced])))
    estimated = traced[0]["unestimated_profile_calls"]
    if estimated:
        lines.append("  interp.self_s leaves out %d profile call(s) that "
                     "recorded nothing replayable" % estimated)
    docs[0]["failures"] += drift
    docs[0]["attempted"] += len(WORK_COUNTERS)
    return metrics, docs, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print("perfbench: no program source at %s; run from the root of "
              "a full checkout" % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.workload == "figures-warm":
            runner.iteration("fill")
        if args.trace:
            metrics, docs, lines = measure_traced(runner)
        else:
            metrics, docs, lines = measure(runner, args.seconds)
    except BenchError as exc:
        print("perfbench: %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1

    attempted = sum(doc["attempted"] for doc in docs)
    failures = [failure for doc in docs for failure in doc["failures"]]
    print("perfbench %s seed=%d trace=%d: %d iteration(s)"
          % (args.workload, args.seed, args.trace, len(docs)))
    for line in lines:
        print(line)
    print("  %-16s %12.4f     (%d of %d checks failed)"
          % ("failed_fraction", len(failures) / attempted, len(failures),
             attempted))
    for label, detail in failures:
        print("  FAILED %s: %s" % (label, detail))
    print("  fidelity (not gated): %s" % docs[-1]["fidelity"])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
