"""Cross-machine comparison: one recording, every machine.

``python -m repro.evaluation machines <app...> --machines a,b,c``
records each workload's three-scheme profile matrix exactly once, then
re-simulates it under every requested
:class:`~repro.machines.model.MachineModel` by trace replay
(:func:`~repro.runtime.profiler.replay_stream`, one call per machine
and scheme) and schedules the run-ledger configurations on each.  On a
fully-replayable workload not a single instruction is re-interpreted
per machine (the report carries the
:class:`~repro.interp.trace.TraceStore` counters that prove it).

Every scheduled result records a timeline and passes both timeline
validation and the exact energy roll-up check, so migration charges on
heterogeneous machines are audited on every run of the verb.

``machines_manifest`` projects one machine's column into a run-ledger
manifest document, which is how CI's ``machines-smoke`` job holds the
``sandybridge`` and ``biglittle`` columns to committed baselines with
the ordinary ``runs compare`` 5% gate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..engine.products import ALL_SCHEMES, WorkloadRun, profile_workload
from ..interp.trace import TraceStore
from ..machines import MachineModel
from ..obs.ledger import RunManifest, _utc_now
from ..power.frequency import FrequencyPolicy
from ..runtime.profiler import replay_stream
from ..runtime.scheduler import DAEScheduler
from ..sim.config import MachineConfig
from ..workloads import Workload
from .experiments import MANIFEST_CONFIGS, relative_metrics


def compare_machines(workloads: Sequence[Workload],
                     machine_names: Optional[Sequence[str]] = None,
                     *, scale: int = 1) -> dict:
    """Profile ``workloads`` once each; schedule on every machine.

    Returns a JSON-able report (render with
    :func:`render_machines_report`).  A homogeneous machine whose
    config is the recording's own reuses the recorded profiles.  A
    workload that records a non-replayable phase falls back to
    re-profiling for the other homogeneous machines and marks
    heterogeneous columns as skipped (their per-phase cache placement
    exists only on the replay path).
    """
    names = [n.lower() for n in (machine_names
                                 or MachineModel.registered_names())]
    machines = [(name, MachineModel.from_name(name)) for name in names]
    base = MachineConfig()
    report = {
        "kind": "machines",
        "scale": scale,
        "machines": names,
        "workloads": {},
    }
    for workload in workloads:
        store = TraceStore()
        run = profile_workload(
            workload, scale, base, schemes=ALL_SCHEMES,
            interp="replay", trace_store=store,
        )
        replayed = store.fully_replayable()
        recorded_phases = store.recorded_phases
        doc = {
            "task_count": run.task_count,
            "replayed": replayed,
            "recorded_phases": recorded_phases,
            "recorded_events": store.recorded_events,
            "machines": {},
        }
        for name, machine in machines:
            if not machine.heterogeneous and machine.config == base:
                profiles = run.profiles
                source = "replay" if replayed else "reprofile"
            elif replayed:
                profiles = {
                    scheme: replay_stream(
                        store.schemes[scheme], scheme, machine
                    )
                    for scheme in run.profiles
                }
                source = "replay"
            elif machine.heterogeneous:
                doc["machines"][name] = {
                    "skipped": (
                        "workload recorded a non-replayable phase; "
                        "heterogeneous machines require trace replay"
                    ),
                }
                continue
            else:
                mrun = profile_workload(
                    workload, scale, machine.config, schemes=ALL_SCHEMES,
                )
                profiles = mrun.profiles
                source = "reprofile"
            machine_run = WorkloadRun(
                workload=workload, compiled=run.compiled,
                profiles=profiles, task_count=run.task_count,
            )
            doc["machines"][name] = {
                "source": source,
                "schedules": _schedule_machine(machine_run, machine),
            }
        # The replay sweeps above must never have touched the recorder:
        # a drifted counter means a machine was silently re-interpreted.
        assert store.recorded_phases == recorded_phases, (
            "machine comparison re-interpreted %r"
            % workload.name
        )
        report["workloads"][workload.name] = doc
    return report


def _schedule_machine(run: WorkloadRun, machine: MachineModel) -> dict:
    """The run-ledger schedule configurations on one machine, each with
    a validated timeline and exact energy roll-up."""
    schedules = {}
    baseline = None
    for label, stream, run_scheme, policy_name in MANIFEST_CONFIGS:
        policy = FrequencyPolicy.from_name(policy_name, machine.config)
        result = DAEScheduler(machine=machine).run(
            run.profiles[stream.value].tasks, run_scheme, policy,
            record_timeline=True,
        )
        result.timeline.validate(result.time_ns)
        result.timeline.validate_energy(result.energy_nj)
        if baseline is None:
            baseline = result
        schedules[label] = {
            "summary": result.summary(),
            "relative": relative_metrics(result, baseline),
        }
    return schedules


def machines_manifest(report: dict, machine_name: str) -> dict:
    """One machine's column as a run-ledger manifest document.

    The document is shaped exactly like
    :func:`~repro.evaluation.experiments.build_run_manifest` output, so
    ``python -m repro.evaluation runs compare`` diffs it against any
    recorded baseline with the standard threshold gate.
    """
    machine_name = machine_name.lower()
    manifest = RunManifest(
        run_id="machines-%s" % machine_name,
        kind="machines",
        created=_utc_now().isoformat(timespec="seconds"),
        spec={
            "machine": machine_name,
            "machines": report["machines"],
            "scale": report["scale"],
        },
        workloads={},
    )
    for name, doc in report["workloads"].items():
        column = doc["machines"].get(machine_name)
        if column is None or "schedules" not in column:
            continue
        manifest.workloads[name] = {
            "task_count": doc["task_count"],
            "from_cache": False,
            "schedules": {
                label: {
                    "summary": entry["summary"],
                    "relative_metrics": entry["relative"],
                }
                for label, entry in column["schedules"].items()
            },
        }
    return manifest.to_dict()


def render_machines_report(report: dict) -> str:
    """Markdown: per workload, one row per machine x schedule config."""
    lines = [
        "# Machine comparison (scale %d)" % report["scale"],
        "",
        "Machines: %s" % ", ".join(report["machines"]),
        "",
    ]
    for name, doc in report["workloads"].items():
        if doc["replayed"]:
            provenance = (
                "recorded once (%d phases, %d events); every machine "
                "simulated by trace replay, zero re-interpretation"
                % (doc["recorded_phases"], doc["recorded_events"])
            )
        else:
            provenance = (
                "a recorded phase was non-replayable; homogeneous "
                "machines re-profiled, heterogeneous columns skipped"
            )
        lines += [
            "## %s — %d tasks" % (name, doc["task_count"]),
            "",
            provenance + ".",
            "",
            "| machine | schedule | time (ms) | energy (mJ) | EDP (uJ*s) "
            "| EDP vs CAE | placement | migrations |",
            "|---|---|---:|---:|---:|---:|---|---:|",
        ]
        for machine_name in report["machines"]:
            column = doc["machines"].get(machine_name)
            if column is None:
                continue
            if "skipped" in column:
                lines.append(
                    "| %s | — | — | — | — | — | %s | — |"
                    % (machine_name, column["skipped"])
                )
                continue
            for label, entry in column["schedules"].items():
                summary = entry["summary"]
                placement = summary.get("placement")
                placement_text = (
                    "%s->%s" % (placement["access"], placement["execute"])
                    if placement else "—"
                )
                lines.append(
                    "| %s | %s | %.3f | %.3f | %.3f | %.3f | %s | %s |"
                    % (
                        machine_name, label,
                        summary["time_s"] * 1e3,
                        summary["energy_j"] * 1e3,
                        summary["edp_js"] * 1e6,
                        entry["relative"]["edp"],
                        placement_text,
                        summary.get("migrations", "—"),
                    )
                )
        lines.append("")
    lines.append(
        "'EDP vs CAE' is relative to the same machine's coupled run at "
        "fmax (lower is better)."
    )
    return "\n".join(lines)


__all__ = [
    "compare_machines",
    "machines_manifest",
    "render_machines_report",
]
