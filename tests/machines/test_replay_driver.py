"""Pins for the one trace-replay driver, ``replay_stream``, on machines.

The reference below feeds :meth:`CoreCaches.access` one event at a time
through the in-kernel-switcher slots — one private hierarchy per placed
core type over a shared LLC, a cold start of the destination's privates
whenever a ``flush``-ing migration moves a slot to its other cluster,
and the collapse to the execute type when the placed types are
behaviourally identical.  The driver's two-stage, memoised replay must
reproduce it byte-for-byte, ``mru_shortcircuits`` included.
"""

import dataclasses
import json

import pytest

from repro.engine import products
from repro.engine.products import ALL_SCHEMES, phase_to_dict, profile_workload
from repro.interp.trace import KIND_NAMES, TraceStore
from repro.machines import (
    MachineModel,
    biglittle_machine,
    migrate,
)
from repro.runtime import profiler
from repro.runtime.profiler import StreamProfile, replay_stream
from repro.runtime.task import TaskProfile, TaskRef
from repro.sim import AccessCounts, MachineConfig, PhaseProfile
from repro.sim.cache import Cache, CoreCaches
from repro.tuning import tuner, tune_workload
from repro.workloads import workload_by_name

from ..engine.tinywork import TinyWorkload

SCHEMES = tuple(scheme.value for scheme in ALL_SCHEMES)
PLACEMENTS = (("little", "big"), ("big", "big"), ("little", "little"))


def reference_stream(records, scheme, machine, placement=None):
    """Per-event replay of ``records`` on ``machine`` — the oracle."""
    access_type, execute_type = machine.placement(scheme, placement)
    llc = Cache(execute_type.config.llc)
    if access_type.config == execute_type.config:
        width = execute_type.config.cores
        slots = [{execute_type.name: CoreCaches(execute_type.config, llc)}
                 for _ in range(width)]
        access_type = execute_type
        flush = False
    else:
        width = machine.slots(scheme, placement)
        slots = [
            {core_type.name: CoreCaches(core_type.config, llc)
             for core_type in (access_type, execute_type)}
            for _ in range(width)
        ]
        flush = (machine.transition.kind == "migrate"
                 and machine.transition.flush)
    resident = [None] * width
    result = StreamProfile(scheme=scheme)
    for index, task_trace in enumerate(records):
        slot = index % width
        profiles = []
        for phase_trace, core_type in ((task_trace.access, access_type),
                                       (task_trace.execute, execute_type)):
            if phase_trace is None:
                profiles.append(None)
                continue
            core = slots[slot][core_type.name]
            if flush and resident[slot] not in (None, core_type.name):
                core.flush_private()
            resident[slot] = core_type.name
            counts = AccessCounts()
            data = phase_trace.data
            for i in range(0, len(data), 3):
                core.access(data[i + 1], KIND_NAMES[data[i]], counts)
            profiles.append(PhaseProfile(
                instructions=phase_trace.instructions,
                slots=phase_trace.slots,
                counts=counts,
            ))
        result.tasks.append(TaskProfile(
            instance=TaskRef(name=task_trace.name),
            access=profiles[0], execute=profiles[1],
        ))
    result.mru_shortcircuits = sum(
        core.mru_hits for caches in slots for core in caches.values()
    )
    return result


def _dump(stream):
    return json.dumps([
        [task.instance.name, phase_to_dict(task.execute),
         None if task.access is None else phase_to_dict(task.access)]
        for task in stream.tasks
    ], sort_keys=True), stream.mru_shortcircuits


def _with_flush(machine, flush):
    return dataclasses.replace(
        machine, transition=migrate(machine.transition.latency_ns, flush),
    ).validate()


def _with_llc_kb(machine, kb):
    core_types = tuple(
        dataclasses.replace(core_type, config=dataclasses.replace(
            core_type.config,
            llc=dataclasses.replace(core_type.config.llc,
                                    size_bytes=kb * 1024),
        ))
        for core_type in machine.core_types
    )
    return dataclasses.replace(machine, core_types=core_types).validate()


@pytest.fixture(scope="module", params=["cigar", "tiny"])
def store(request):
    workload = (TinyWorkload() if request.param == "tiny"
                else workload_by_name(request.param))
    store = TraceStore()
    profile_workload(
        workload, 1, MachineConfig(), schemes=ALL_SCHEMES,
        interp="replay", trace_store=store,
    )
    assert store.fully_replayable()
    return store


CASES = [
    ("biglittle", None),
    ("biglittle", ("big", "big")),
    ("biglittle", ("little", "little")),
    ("biglittle-noflush", None),
    ("ideal", None),
    ("sandybridge", None),
]


def _machine(name):
    if name == "biglittle-noflush":
        return _with_flush(biglittle_machine(), False)
    return MachineModel.from_name(name)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name, placement", CASES,
                         ids=["%s-%s" % (n, "->".join(p) if p else "declared")
                              for n, p in CASES])
def test_driver_matches_per_event_reference(store, scheme, name,
                                            placement):
    machine = _machine(name)
    records = store.schemes[scheme]
    assert (_dump(replay_stream(records, scheme, machine, placement))
            == _dump(reference_stream(records, scheme, machine, placement)))


# -- the stage-1 memo key ------------------------------------------------------


def test_memo_keeps_placements_and_flush_apart(store):
    records = store.schemes["dae"]
    machines = (biglittle_machine(),
                _with_flush(biglittle_machine(), False))
    memo = {}
    for _ in range(2):  # the second pass reads every entry back
        for machine in machines:
            for placement in PLACEMENTS:
                memoized = replay_stream(records, "dae", machine, placement,
                                         memo=memo)
                assert _dump(memoized) == _dump(
                    replay_stream(records, "dae", machine, placement))
    # little->big with and without flush, big->big, little->little: the
    # collapsed placements ignore the flush rule.
    assert len(memo) == 4


def test_llc_sweep_on_biglittle_reuses_stage_one(store, monkeypatch):
    records = store.schemes["dae"]
    memo = {}
    replay_stream(records, "dae", biglittle_machine(), memo=memo)

    calls = []
    original = profiler.filter_private

    def counting(core, data):
        calls.append(1)
        return original(core, data)

    monkeypatch.setattr(profiler, "filter_private", counting)
    larger = _with_llc_kb(biglittle_machine(), 48)
    memoized = replay_stream(records, "dae", larger, memo=memo)
    assert not calls
    monkeypatch.undo()
    assert _dump(memoized) == _dump(replay_stream(records, "dae", larger))
    assert _dump(memoized) == _dump(reference_stream(records, "dae", larger))


# -- the tuner replays each placement once -------------------------------------


def test_biglittle_tune_replays_each_placement_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return replay_stream(*args, **kwargs)

    monkeypatch.setattr(tuner, "replay_stream", counting)
    monkeypatch.setattr(products, "replay_stream", counting)
    result = tune_workload(
        TinyWorkload(), machine="biglittle", cache=False, install=False,
    )
    placements = {c.label.split(" ", 1)[0] for c in result.candidates}
    assert len(placements) == 3
    assert len(calls) == len(placements)
