"""Task-stream profiling: interpreter + cache hierarchy → phase profiles.

Each phase is interpreted into a flat event list, which is then
replayed through the core's caches (:func:`repro.sim.replay.replay_phase`).
:func:`replay_stream` is the one trace-replay driver: it re-simulates a
recorded stream on any machine, homogeneous or heterogeneous, without
interpreting anything.

This is the stand-in for the paper's profiling runs on real hardware
("we run all the applications at all available frequencies and profile
the execution time of the access phases, execute phases, and the runtime
overhead", Section 3.1).  Because the timing model separates
frequency-scaled cycles from DRAM time, one simulation per execution
scheme yields the whole time-vs-frequency curve.

Execution schemes:

* ``cae``   — each task runs only its execute version (coupled);
* ``dae``   — access version first, execute immediately after, on the
  same core, sharing the cache (so the execute phase runs warm);
* ``manual`` — like ``dae`` but with the hand-written access version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Union

from ..interp.decode import decode_stats
from ..interp.fast import FastInterpreter, resolve_interp
from ..interp.interpreter import Interpreter
from ..interp.memory import SimMemory
from ..interp.trace import (
    KIND_NAMES,
    PhaseTrace,
    TaskTrace,
    TraceStore,
    pack_events,
)
from ..machines.model import MachineModel, homogeneous_machine
from ..obs.events import get_collector
from ..sim.cache import AccessCounts, Cache, CoreCaches, MachineCaches
from ..sim.config import MachineConfig
from ..sim.replay import filter_private, replay_phase, replay_shared
from ..sim.timing import PhaseProfile
from .task import Scheme, TaskInstance, TaskProfile, TaskRef


_KIND_CODE = {name: code for code, name in enumerate(KIND_NAMES)}
_IS_STORE = _KIND_CODE["store"].__eq__


class ProfileError(Exception):
    """Raised when a task cannot be profiled under the chosen scheme."""


@dataclass
class StreamProfile:
    """Profiles of a whole task stream under one scheme."""

    scheme: str
    tasks: list[TaskProfile] = field(default_factory=list)
    #: Accesses served by the per-core MRU same-line filter (fast-path
    #: diagnostics only; identical under both interpreters and not part
    #: of the engine's persisted payload).
    mru_shortcircuits: int = 0

    def aggregate_execute(self) -> PhaseProfile:
        total = PhaseProfile()
        for task in self.tasks:
            total = total.merged(task.execute)
        return total

    def aggregate_access(self) -> PhaseProfile:
        total = PhaseProfile()
        for task in self.tasks:
            if task.access is not None:
                total = total.merged(task.access)
        return total


class TaskStreamProfiler:
    """Simulates a task stream through one core's cache hierarchy.

    Tasks are interleaved across cores round-robin, mirroring the
    scheduler's initial distribution, so each core's cache sees the
    stream it will actually run.
    """

    def __init__(self, memory: SimMemory, config: Optional[MachineConfig] = None,
                 interp: Optional[str] = None):
        self.memory = memory
        self.config = config or MachineConfig()
        #: Which interpreter runs the phases: ``"replay"`` (the fast
        #: core, plus cross-scheme trace reuse when the caller supplies
        #: a :class:`TraceStore`), ``"fast"`` (generated code, every
        #: phase interpreted) or ``"reference"`` (the executable
        #: specification).  Each records a phase's events into a flat
        #: list that is then replayed through the cache model.  All
        #: produce byte-identical profiles; ``None`` defers to
        #: ``$REPRO_INTERP``.
        self.interp = resolve_interp(interp)

    def profile(self, tasks: list[TaskInstance],
                scheme: Union[Scheme, str],
                strict: bool = False,
                trace_store: Optional[TraceStore] = None) -> StreamProfile:
        """Profile ``tasks`` under ``scheme`` (a :class:`Scheme`; plain
        strings remain accepted as a deprecation shim).

        Under DAE/MANUAL a task whose access version is missing
        silently profiles as coupled (the runtime's fallback) and emits
        an obs warning event; with ``strict=True`` it raises
        :class:`ProfileError` instead, naming the task and scheme.

        ``trace_store`` enables record/replay across a multi-scheme
        matrix: every interpreted phase is recorded into the store as a
        packed event trace, and execute phases whose stream is already
        recorded by an earlier scheme are *replayed* through the cache
        model instead of re-interpreted.  Replay is guarded by the
        access-phase-writes-nothing invariant — the first access-phase
        store (in either the recording or the consuming scheme)
        disables reuse from that task onward, falling back to full
        interpretation — and replayed phases apply the recorded memory
        delta so later interpreted phases see the exact memory an
        interpreted run would have produced.  The store is ignored under
        ``interp="reference"``.
        """
        try:
            scheme = Scheme.coerce(scheme, context="TaskStreamProfiler.profile")
        except ValueError as exc:
            raise ProfileError(str(exc)) from None
        scheme = scheme.value  # plain str below: persisted in StreamProfile
        collector = get_collector()
        caches = MachineCaches(self.config)
        result = StreamProfile(scheme=scheme)
        warned: set[str] = set()
        store = trace_store if self.interp != "reference" else None
        records: Optional[list[TaskTrace]] = None
        donor: Optional[list[TaskTrace]] = None
        #: Cleared on the first access-phase store: from that task on,
        #: memory evolution may diverge from the scheme-invariant
        #: baseline, so execute phases interpret instead of replaying.
        replay_ok = True
        if store is not None:
            records, donor = store.begin_scheme(scheme)
        for index, instance in enumerate(tasks):
            core = caches.cores[index % self.config.cores]
            access_profile = None
            access_trace = None
            if scheme in ("dae", "manual"):
                access_fn = (
                    instance.kind.access if scheme == "dae"
                    else instance.kind.manual_access
                )
                if access_fn is None:
                    if strict:
                        raise ProfileError(
                            "task %r has no %s version under scheme %r; "
                            "it would silently profile as coupled"
                            % (instance.name,
                               "access" if scheme == "dae"
                               else "manual access",
                               scheme)
                        )
                    if collector.enabled and instance.name not in warned:
                        warned.add(instance.name)
                        collector.instant(
                            "profiler.missing_access", cat="warning.profiler",
                            args={"task": instance.name, "scheme": scheme},
                        )
                else:
                    access_profile, access_trace = self._run_phase(
                        access_fn, instance.args, core,
                        phase="access", task=instance.name,
                        record=store is not None, shareable=replay_ok,
                    )
                    if access_trace is not None:
                        store.note_recorded(access_trace)
                        if access_trace.stores:
                            replay_ok = False
            if store is not None:
                # Cross-scheme reuse only under interp="replay"; a
                # store supplied under "fast" is record-only (every
                # phase still interprets).
                donor_trace = (
                    donor[index].execute
                    if (self.interp == "replay" and replay_ok
                        and donor is not None and index < len(donor))
                    else None
                )
                if (donor_trace is not None and donor_trace.valid
                        and donor_trace.shareable):
                    execute_profile = self._replay_phase(
                        donor_trace, core,
                        phase="execute", task=instance.name,
                    )
                    store.note_replayed(donor_trace)
                    execute_trace = donor_trace
                else:
                    execute_profile, execute_trace = self._run_phase(
                        instance.kind.execute, instance.args, core,
                        phase="execute", task=instance.name,
                        record=True, shareable=replay_ok,
                    )
                    store.note_recorded(execute_trace)
                records.append(TaskTrace(
                    name=instance.name,
                    access=access_trace, execute=execute_trace,
                ))
            else:
                execute_profile, _ = self._run_phase(
                    instance.kind.execute, instance.args, core,
                    phase="execute", task=instance.name,
                )
            result.tasks.append(
                TaskProfile(
                    instance=instance,
                    execute=execute_profile,
                    access=access_profile,
                )
            )
        result.mru_shortcircuits = sum(
            core.mru_hits for core in caches.cores
        )
        if collector.enabled:
            collector.counter(
                "profiler.tasks", len(result.tasks), cat="runtime.profiler",
                args={"scheme": scheme},
            )
        return result

    def _run_phase(self, func, args, core, phase: str = "",
                   task: str = "", record: bool = False,
                   shareable: bool = True):
        """Interpret one phase, then replay its events through ``core``.

        The interpreter records the phase's memory events into one flat
        ``[kind_code, address, size, ...]`` list; :func:`replay_phase`
        then runs that list through the cache hierarchy in one pass.
        The event stream never depends on cache state, so this is
        exactly the profile an event-by-event simulation would give.

        Returns ``(PhaseProfile, PhaseTrace)``, the trace ``None``
        unless ``record``.  A recorded trace packs the flat list into
        one ``array('q')``; its store addresses double as the purity
        guard (``stores``) and the source of the post-phase memory
        ``delta``.
        """
        counts = AccessCounts()
        collector = get_collector()
        flat: list = []
        fast = self.interp != "reference"
        if fast:
            decode_before = decode_stats() if collector.enabled else None
            trace = FastInterpreter(self.memory, events=flat).run(func, args)
        else:
            def observe(event, _extend=flat.extend):
                _extend((_KIND_CODE[event.kind], event.address, event.size))

            trace = Interpreter(self.memory, observer=observe).run(func, args)
        mru_before = core.mru_hits
        replay_phase(core, flat, counts)
        if collector.enabled:
            if fast:
                decode_after = decode_stats()
                collector.counter(
                    "interp.decode.cache_hit",
                    decode_after["hits"] - decode_before["hits"],
                    cat="runtime.interp",
                    args={
                        "task": task, "phase": phase,
                        "misses": (decode_after["misses"]
                                   - decode_before["misses"]),
                    },
                )
            collector.counter(
                "sim.l1.mru_shortcircuit",
                core.mru_hits - mru_before,
                cat="runtime.interp",
                args={"task": task, "phase": phase},
            )
            # Post-hoc snapshots: the interpreter and caches run
            # uninstrumented, then their counters are recorded once per
            # phase.
            collector.counter(
                "phase.instructions", trace.instructions,
                cat="runtime.phase",
                args={
                    "task": task, "phase": phase,
                    "trace": trace.snapshot(),
                    "cache": counts.snapshot(),
                },
            )
        profile = PhaseProfile.from_run(trace, counts)
        if not record:
            return profile, None
        kinds = flat[0::3]
        store_addrs = (
            list(compress(flat[1::3], map(_IS_STORE, kinds)))
            if _KIND_CODE["store"] in kinds else []
        )
        cells = self.memory._cells
        # Final value of every stored cell; the ``in cells`` filter
        # skips stores of undef, which emit an event but never write.
        delta = {a: cells[a] for a in store_addrs if a in cells}
        # An alloca bumps the memory allocator — replay would skip that
        # and desynchronize every later address, so the phase records
        # as non-replayable (it still interprets correctly everywhere).
        data = None if trace.by_opcode.get("alloca") else pack_events(flat)
        phase_trace = PhaseTrace(
            data=data,
            instructions=trace.instructions,
            slots=profile.slots,
            by_opcode=dict(trace.by_opcode),
            mem_events=trace.mem_events,
            dropped_prefetches=trace.dropped_prefetches,
            stores=len(store_addrs),
            delta=delta,
            shareable=shareable,
        )
        return profile, phase_trace

    def _replay_phase(self, phase_trace: PhaseTrace, core,
                      phase: str = "", task: str = "") -> PhaseProfile:
        """Replay a recorded phase through ``core`` — no interpretation.

        Applies the trace's memory delta afterwards, so a later
        *interpreted* phase (an access phase reading index arrays this
        phase wrote) sees exactly the memory a full interpretation
        would have left.
        """
        counts = AccessCounts()
        collector = get_collector()
        mru_before = core.mru_hits
        events = replay_phase(core, phase_trace.data, counts)
        if phase_trace.delta:
            self.memory._cells.update(phase_trace.delta)
        if collector.enabled:
            collector.counter(
                "profiler.replayed_events", events,
                cat="runtime.profiler",
                args={
                    "task": task, "phase": phase,
                    "mru_shortcircuits": core.mru_hits - mru_before,
                },
            )
            collector.counter(
                "phase.instructions", phase_trace.instructions,
                cat="runtime.phase",
                args={
                    "task": task, "phase": phase,
                    "trace": phase_trace.snapshot(),
                    "cache": counts.snapshot(),
                },
            )
        return PhaseProfile(
            instructions=phase_trace.instructions,
            slots=phase_trace.slots,
            counts=counts,
        )


def replay_stream(records: list[TaskTrace], scheme: str,
                  machine: Union[MachineModel, MachineConfig, None] = None,
                  placement: Optional[tuple[str, str]] = None, *,
                  memo: Optional[dict] = None) -> StreamProfile:
    """Re-simulate one recorded scheme on ``machine`` — replay only.

    The one trace-replay driver.  The event streams are
    machine-invariant (the interpreter never sees the cache model), so
    pushing every phase through *fresh* caches yields exactly the
    :class:`StreamProfile` a full profiling run on ``machine`` would,
    with zero interpretation.

    ``machine`` is a :class:`~repro.machines.model.MachineModel` or a
    :class:`MachineConfig` (default ``MachineConfig()``), the
    one-cluster machine; ``placement`` overrides the declared (access,
    execute) core types, as the tuner's placement search does.  Each
    slot holds one :class:`~repro.sim.cache.CoreCaches` per placed type
    over one LLC built from the execute type's, and a ``flush``-ing
    migration cold-starts the privates a phase lands on when the slot
    crosses clusters.  When the placed configs are equal the slot uses
    the execute type only, with ``execute_type.config.cores`` slots —
    the scheduler's collapse rule.

    The replay runs in the two stages of :mod:`repro.sim.replay`:
    :func:`~repro.sim.replay.filter_private` over the whole stream in
    task order (flushes applied and flagged per phase), then
    :func:`~repro.sim.replay.replay_shared` in task order, clearing the
    stream-miss window — stage-2 state — on each flagged phase.
    ``memo`` is an optional caller-owned dict of stage-1 results for
    ``records``, keyed by the slot count, the flush flag and each
    placed type's name and L1/L2 ``size_bytes``, ``ways`` and
    ``line_bytes``: on a hit only stage 2 runs, against a fresh LLC and
    fresh stream windows, so an LLC-side sweep filters L1/L2 once per
    recording.  One memo serves one ``records`` list; handing it
    another raises :class:`ValueError`.

    Raises :class:`ProfileError` if any recorded phase is non-replayable
    (``PhaseTrace.data is None``); callers should fall back to full
    re-interpretation (``TraceStore.fully_replayable`` pre-checks this).
    """
    if not isinstance(machine, MachineModel):
        machine = homogeneous_machine("config", machine or MachineConfig())
    access_type, execute_type = machine.placement(scheme, placement)
    if access_type.config == execute_type.config:
        placed = (execute_type,)
        width = execute_type.config.cores
        flush = False
    else:
        placed = (access_type, execute_type)
        width = machine.slots(scheme, placement)
        flush = (machine.transition.kind == "migrate"
                 and machine.transition.flush)
    llc = Cache(execute_type.config.llc)
    slots = []
    for _ in range(width):
        cores = [CoreCaches(core_type.config, llc) for core_type in placed]
        slots.append((cores[0], cores[-1]))
    # Everything stage 1 depends on: the task-to-slot map, the flush
    # rule and each placed type's L1/L2.
    key = (width, flush) + tuple(
        (core_type.name,
         core_type.config.l1.size_bytes, core_type.config.l1.ways,
         core_type.config.l1.line_bytes,
         core_type.config.l2.size_bytes, core_type.config.l2.ways,
         core_type.config.l2.line_bytes)
        for core_type in placed
    )
    entry = memo.get(key) if memo is not None else None
    if entry is None:
        entry = (records, _filter_stream(records, scheme, slots, flush))
        if memo is not None:
            memo[key] = entry
    elif entry[0] is not records:
        raise ValueError(
            "replay_stream memo was filled from a different recording"
        )
    filtered = entry[1]
    result = StreamProfile(scheme=scheme)
    for index, (task_trace, phases) in enumerate(zip(records, filtered)):
        profiles = []
        for phase_trace, core, phase in zip(
                (task_trace.access, task_trace.execute),
                slots[index % width], phases):
            if phase is None:
                profiles.append(None)
                continue
            private, migrated = phase
            if migrated:
                core._recent_misses.clear()
            counts = AccessCounts()
            replay_shared(core, private, counts)
            profiles.append(PhaseProfile(
                instructions=phase_trace.instructions,
                slots=phase_trace.slots,
                counts=counts,
            ))
        access_profile, execute_profile = profiles
        result.tasks.append(TaskProfile(
            instance=TaskRef(name=task_trace.name),
            execute=execute_profile,
            access=access_profile,
        ))
    result.mru_shortcircuits = sum(
        phase[0].mru_hits for phases in filtered
        for phase in phases if phase is not None
    )
    return result


def _filter_stream(records: list[TaskTrace], scheme: str, slots: list,
                   flush: bool) -> list:
    """Stage 1 of :func:`replay_stream`: per task, the
    ``(access, execute)`` pair of ``(PrivateFiltered, migrated)``
    (``None`` for an absent phase), where ``migrated`` says the phase
    flushed its core's privates on entering the slot's other cluster."""
    resident: list = [None] * len(slots)
    filtered = []
    for index, task_trace in enumerate(records):
        slot = index % len(slots)
        phases = []
        for phase_trace, core in zip(
                (task_trace.access, task_trace.execute), slots[slot]):
            if phase_trace is None:
                phases.append(None)
                continue
            if phase_trace.data is None:
                raise ProfileError(
                    "task %r under scheme %r recorded a non-replayable "
                    "phase; re-profile this configuration instead"
                    % (task_trace.name, scheme)
                )
            migrated = flush and resident[slot] not in (None, core)
            if migrated:
                core.flush_private()
            resident[slot] = core
            phases.append((filter_private(core, phase_trace.data), migrated))
        filtered.append(tuple(phases))
    return filtered
