"""The benchmark's three workloads: what each runs and how it is checked.

Each workload class is built from a seed and a private work directory
(construction is part of ``setup_s``), then ``run()`` does the timed
work and returns its outputs, ``checks(outputs)`` compares them with
the goldens taken from the seed tree, and ``fidelity(outputs)`` gives
the paper-fidelity line printed beside every report.

The seed only draws sweep values (LLC sizes for ``design-sweep``,
extra DVFS latencies for ``figures-warm``); the defaults (24 KiB; 0 and
500 ns) are always included and the program only ever sees the drawn
values.  ``paper-cold`` uses the fixed paper inputs and ignores it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, replace
from pathlib import Path

from repro.api import ExperimentSpec, MachineConfig, run_experiment, tune
from repro.engine.products import run_to_payload
from repro.evaluation.ablation import ABLATE_CONFIGS, ablate_workload
from repro.evaluation.experiments import (
    MANIFEST_CONFIGS,
    figure3_rows,
    figure4_series,
    headline_numbers,
    schedule,
    table1_rows,
)
from repro.evaluation.machines import compare_machines
from repro.machines import MachineModel
from repro.power.frequency import FrequencyPolicy
from repro.runtime.scheduler import DAEScheduler
from repro.workloads import workload_by_name

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: LLC capacities (KiB) the ``design-sweep`` seed draws from, split at
#: the 24 KiB default so every draw lands on both sides of it.  With
#: 16 ways of 64-byte lines a size of N KiB has N sets, so most of
#: these are non-power-of-two set counts.
LLC_BELOW_KB = (8, 12, 16, 20)
LLC_ABOVE_KB = (32, 40, 48, 64)
DEFAULT_LLC_KB = 24

#: Extra DVFS transition latencies (ns) the ``figures-warm`` seed draws.
LATENCY_CHOICES_NS = tuple(range(100, 5001, 100))
DEFAULT_LATENCIES_NS = (0.0, 500.0)


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)


def payload_digest(run) -> str:
    """SHA-256 of one workload run's serialized (cache payload) form."""
    canonical = json.dumps(
        run_to_payload(run), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def plain(value):
    """``value`` after a JSON round trip, as the goldens store it."""
    return json.loads(json.dumps(value))


def llc_sizes(seed: int) -> list:
    """Two sizes below the default and two above, plus the default
    itself; sorted.  A fixed count per side keeps the work per seed
    close to constant."""
    rng = random.Random(seed)
    drawn = rng.sample(LLC_BELOW_KB, 2) + rng.sample(LLC_ABOVE_KB, 2)
    return sorted(drawn + [DEFAULT_LLC_KB])


def dvfs_latencies(seed: int) -> list:
    """0 and 500 ns plus three seeded extras; sorted."""
    rng = random.Random(seed)
    extras = rng.sample(
        [v for v in LATENCY_CHOICES_NS if v not in DEFAULT_LATENCIES_NS], 3
    )
    return sorted(set(DEFAULT_LATENCIES_NS) | {float(v) for v in extras})


def _check(checks: list, label: str, ok: bool, detail: str = "") -> None:
    checks.append((label, bool(ok), "" if ok else detail))


def _headline_checks(checks: list, tag: str, got: dict, want: dict,
                     fields) -> None:
    for name, want_name in fields:
        _check(checks, "%s %s" % (tag, name), got[name] == want[want_name],
               "%r != golden %r" % (got[name], want[want_name]))


def fidelity_line(headline: dict, table1=None) -> str:
    """Headline EDP gains and time penalty, and Table 1, against the
    paper values the repository holds.  Printed, never gated."""
    parts = [
        "EDP gain @500ns auto %.1f%% (paper 25%%) manual %.1f%% (paper 23%%)"
        % (100 * headline["auto_edp_gain_500ns"],
           100 * headline["manual_edp_gain_500ns"]),
        "@0ns auto %.1f%% (paper 29%%) manual %.1f%% (paper 25%%)"
        % (100 * headline["auto_edp_gain_0ns"],
           100 * headline["manual_edp_gain_0ns"]),
        "time penalty @500ns %.1f%% (paper ~4%%) @0ns %.1f%% "
        "(paper slightly faster)"
        % (100 * headline["auto_time_penalty_500ns"],
           100 * headline["auto_time_penalty_0ns"]),
    ]
    if table1:
        parts.append("Table 1 measured/paper loops, TA%: " + ", ".join(
            "%s %d/%d vs %d/%d, %.1f vs %.1f"
            % (row.name, row.affine_loops, row.total_loops,
               row.paper_affine, row.paper_total,
               row.ta_percent, row.paper_ta_percent)
            for row in table1
        ))
    return "; ".join(parts)


class PaperCold:
    """All seven kernels x three schemes into an empty profile cache,
    then Table 1, Figure 3 and the headline numbers."""

    name = "paper-cold"

    def __init__(self, seed: int, workdir: Path):
        self.goldens = load_goldens()
        self.spec = ExperimentSpec(
            jobs=1, cache=True, cache_dir=str(workdir / "profile-cache"),
        )

    def run(self) -> dict:
        runs = run_experiment(self.spec)
        return {
            "runs": runs,
            "table1": table1_rows(runs),
            "figure3": figure3_rows(runs),
            "headline": asdict(headline_numbers(runs)),
        }

    def checks(self, outputs: dict) -> list:
        checks: list = []
        digests = self.goldens["profile_digests"]
        for name, want in digests.items():
            run = outputs["runs"].get(name)
            got = payload_digest(run) if run is not None else None
            _check(checks, "profile digest %s" % name, got == want,
                   "%s != golden %s" % (got, want))
        golden = self.goldens["headline"]
        _headline_checks(checks, "headline", outputs["headline"], golden,
                         [(name, name) for name in golden])
        return checks

    def fidelity(self, outputs: dict) -> str:
        return fidelity_line(outputs["headline"], outputs["table1"])


class DesignSweep:
    """LLC ablation of fft and cigar, cigar and cg on every registered
    machine, and the DVFS tuner for cg on a homogeneous and a
    big.LITTLE machine: record each trace once, replay it many times."""

    name = "design-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.goldens = load_goldens()
        self.llc_kb = llc_sizes(seed)
        self.ablated = [workload_by_name("fft"), workload_by_name("cigar")]
        self.machine_workloads = [workload_by_name("cigar"),
                                  workload_by_name("cg")]
        self.machines = list(MachineModel.registered_names())
        self.tune_workload = workload_by_name("cg")
        self.tune_machines = ("sandybridge", "biglittle")

    def run(self) -> dict:
        return {
            "ablation": [
                ablate_workload(workload, "llc_kb", self.llc_kb)
                for workload in self.ablated
            ],
            "machines": compare_machines(self.machine_workloads,
                                         self.machines),
            "tuning": [
                tune(self.tune_workload, machine=machine, cache=False,
                     install=False)
                for machine in self.tune_machines
            ],
        }

    def checks(self, outputs: dict) -> list:
        checks: list = []
        for report in outputs["ablation"]:
            rows = {row["value"]: row for row in report["rows"]}
            base = rows[DEFAULT_LLC_KB]["configs"]
            name = report["workload"]
            for label, _, _ in ABLATE_CONFIGS:
                got = plain(base[label]["summary"])
                want = self.goldens["ablation_base"][name][label]
                _check(checks, "llc 24 KiB == base run: %s %s" % (name, label),
                       got == want, "%r != %r" % (got, want))
        report = outputs["machines"]["workloads"]
        for name, columns in self.goldens["plain_config"].items():
            column = report[name]["machines"]["sandybridge"]["schedules"]
            for label, want in columns.items():
                got = plain(column[label]["summary"])
                _check(checks,
                       "sandybridge == plain config: %s %s" % (name, label),
                       got == want, "%r != %r" % (got, want))
        for result in outputs["tuning"]:
            _check(checks, "tune %s on %s feasible"
                   % (result.workload, result.machine),
                   result.best.feasible, "no feasible candidate")
        return checks

    def fidelity(self, outputs: dict) -> str:
        return fidelity_line(self.goldens["headline"]) + (
            " (seed-tree goldens; this workload computes no headline)"
        )


class FiguresWarm:
    """Table 1, Figures 3 and 4 and the headline at several DVFS
    latencies from a warm profile cache, plus the big.LITTLE run-ledger
    schedules with timelines: re-evaluation without re-simulation."""

    name = "figures-warm"

    def __init__(self, seed: int, workdir: Path):
        self.goldens = load_goldens()
        self.latencies = dvfs_latencies(seed)
        self.specs = {
            machine: ExperimentSpec(
                jobs=1, cache=True, cache_dir=str(workdir), machine=machine,
            )
            for machine in ("sandybridge", "biglittle")
        }
        self.biglittle = MachineModel.from_name("biglittle")

    def fill(self) -> None:
        """Profile whatever the warm cache lacks (untimed)."""
        for spec in self.specs.values():
            run_experiment(spec)

    def run(self) -> dict:
        results = {
            machine: run_experiment(spec)
            for machine, spec in self.specs.items()
        }
        runs = results["sandybridge"]
        figures = {}
        for latency in self.latencies:
            config = replace(MachineConfig(), dvfs_transition_ns=latency)
            figures[latency] = {
                "table1": table1_rows(runs, config),
                "figure3": figure3_rows(runs, config),
                "figure4": {
                    name: figure4_series(run, config)
                    for name, run in runs.items()
                },
                "headline": asdict(headline_numbers(runs, config)),
            }
        machine = self.biglittle
        schedules = []
        for name, run in results["biglittle"].items():
            for label, stream, scheme, policy in MANIFEST_CONFIGS:
                result = DAEScheduler(machine=machine).run(
                    run.profiles[stream.value].tasks, scheme,
                    FrequencyPolicy.from_name(policy, machine.config),
                    record_timeline=True,
                )
                schedules.append((name, label, result))
        return {"results": results, "figures": figures,
                "schedules": schedules}

    def checks(self, outputs: dict) -> list:
        checks: list = []
        for machine, result in outputs["results"].items():
            for name, run in result.items():
                _check(checks, "warm load %s/%s" % (machine, name),
                       run.from_cache, "profiled instead of loaded")
        golden = self.goldens["headline"]
        _headline_checks(
            checks, "headline@500ns", outputs["figures"][500.0]["headline"],
            golden, [(name, name) for name in golden],
        )
        zero = [(name, name) for name in golden if name.endswith("_0ns")]
        zero += [(name.replace("_0ns", "_500ns"), name)
                 for name, _ in list(zero)]
        _headline_checks(checks, "headline@0ns",
                         outputs["figures"][0.0]["headline"], golden, zero)
        for name, label, result in outputs["schedules"]:
            for check in ("validate", "validate_energy"):
                try:
                    if check == "validate":
                        result.timeline.validate(result.time_ns)
                    else:
                        result.timeline.validate_energy(result.energy_nj)
                except AssertionError as exc:
                    _check(checks, "biglittle %s %s %s" % (name, label, check),
                           False, str(exc))
                else:
                    _check(checks, "biglittle %s %s %s" % (name, label, check),
                           True)
        return checks

    def fidelity(self, outputs: dict) -> str:
        figures = outputs["figures"][500.0]
        return fidelity_line(figures["headline"], figures["table1"])


WORKLOADS = {cls.name: cls for cls in (PaperCold, DesignSweep, FiguresWarm)}


# -- goldens -------------------------------------------------------------------


def compute_goldens() -> dict:
    """The reference outputs every check compares against, computed on
    the tree whose numbers they pin (run this module to rewrite them)."""
    runs = run_experiment(ExperimentSpec(jobs=1, cache=False))
    config = MachineConfig()
    ablation_base = {}
    for name in ("fft", "cigar"):
        run = runs[name]
        ablation_base[name] = {
            label: schedule(
                run, scheme, FrequencyPolicy.from_name(policy, config), config,
            ).summary()
            for label, scheme, policy in ABLATE_CONFIGS
        }
    plain_config = {}
    for name in ("cigar", "cg"):
        columns = {}
        for label, stream, scheme, policy in MANIFEST_CONFIGS:
            columns[label] = DAEScheduler(config).run(
                runs[name].profiles[stream.value].tasks, scheme,
                FrequencyPolicy.from_name(policy, config),
                record_timeline=True,
            ).summary()
        plain_config[name] = columns
    return plain({
        "profile_digests": {
            name: payload_digest(run) for name, run in runs.items()
        },
        "headline": asdict(headline_numbers(runs)),
        "ablation_base": ablation_base,
        "plain_config": plain_config,
    })


if __name__ == "__main__":
    # Regenerate goldens.json -- only for a change meant to move a
    # simulated number, and say so in that change:
    #     PYTHONPATH=src python3 perfbench/bench_workloads.py
    with open(GOLDENS_PATH, "w") as handle:
        json.dump(compute_goldens(), handle, indent=1, sort_keys=True)
        handle.write("\n")
