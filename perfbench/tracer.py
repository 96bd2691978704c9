"""Per-layer wall-clock split, measured from the benchmark's side.

Every layer is timed at the public entry points the workloads call into,
listed once in :data:`ENTRY_POINTS`.  Nothing inside the program is
edited: :meth:`Tracer.install` replaces each entry point with a timing
wrapper at *every* binding the program reaches it through — the defining
module's attribute and any ``from x import f`` copy in another module
(``replay_stream`` is imported by name into both
``evaluation/ablation.py`` and ``evaluation/machines.py``, ``tune``
into the benchmark's own workloads), or the class attribute for a
method.  An entry point that no longer exists is
reported ``missing`` and the run goes on, so a refactor that moves one
does not break the benchmark.

Each span records its *self* time: its duration minus the time spent
in nested spans (``machine_stream`` falling back to ``replay_stream``,
``DAEScheduler.run`` calling ``optimal_edp_point``).  Layer times
therefore add up, and ``evaluation.self_s`` is the rest of the run.
Work counters are read from arguments and return values, once per call
and never per simulated event.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict


# -- counter hooks: (tracer, bound arguments, result, prepared state) -------


def _phases(records):
    for task_trace in records:
        for phase_trace in (task_trace.access, task_trace.execute):
            if phase_trace is not None:
                yield phase_trace


def _prepare_profile(args):
    """Identify the phases already in the trace store, so the ones the
    call adds (the phases it interpreted) can be told apart from the
    donor phases it replayed."""
    store = args.get("trace_store")
    if store is None:
        return None
    return store, {
        id(phase) for records in store.schemes.values()
        for phase in _phases(records)
    }


def _count_profile(tracer, args, result, state, self_s):
    if state is None:
        # No recording: every phase was interpreted, nothing replayable.
        tracer.counts["interp.instructions"] += sum(
            task.execute.instructions
            + (task.access.instructions if task.access is not None else 0)
            for task in result.tasks
        )
        return
    store, before = state
    records = store.schemes.get(result.scheme, [])
    for phase in _phases(records):
        if id(phase) not in before:
            tracer.counts["interp.instructions"] += phase.instructions
            tracer.counts["interp.events_recorded"] += phase.events
    # interp.self_s estimate: the call's time minus a replay of the
    # same recording through the same cache geometry.
    replay = tracer.originals.get("sim")
    if replay is None or not all(p.valid for p in _phases(records)):
        tracer.unestimated_profile_calls += 1
        return
    start = time.perf_counter()
    replay(records, result.scheme, args["self"].config)
    tracer.interp_self_s += self_s - (time.perf_counter() - start)


def _count_replay(tracer, args, result, state, self_s):
    tracer.counts["sim.events_replayed"] += sum(
        phase.events for phase in _phases(args["records"])
    )
    tracer.counts["sim.mru_shortcircuits"] += result.mru_shortcircuits


def _count_instantiate(tracer, args, result, state, self_s):
    tracer.counts["workloads.tasks"] += len(result[1])


def _count_schedule(tracer, args, result, state, self_s):
    tracer.counts["scheduler.tasks"] += len(args["profiles"])


def _count_load(tracer, args, result, state, self_s):
    if result is None:
        tracer.counts["engine.misses"] += 1
        return
    tracer.counts["engine.hits"] += 1
    path = args["self"].path_for(args["workload_name"], args["key"])
    tracer.counts["engine.bytes_read"] += path.stat().st_size


def _count_store(tracer, args, result, state, self_s):
    if result is not None:
        tracer.counts["engine.bytes_written"] += result.stat().st_size


def _count_tune(tracer, args, result, state, self_s):
    tracer.counts["tuning.schedule_evals"] += result.stats.schedule_evals


#: (span, module, attribute, counter hook, argument preparer).  The
#: attribute is ``"Class.method"`` for a method.
ENTRY_POINTS = (
    ("frontend", "repro.frontend", "compile_source", None, None),
    ("transform", "repro.transform", "optimize_module", None, None),
    ("access_phase", "repro.transform.access_phase",
     "generate_access_phase", None, None),
    ("workloads", "repro.workloads.base", "Workload.instantiate",
     _count_instantiate, None),
    ("profiler", "repro.runtime.profiler", "TaskStreamProfiler.profile",
     _count_profile, _prepare_profile),
    ("sim", "repro.runtime.profiler", "replay_stream", _count_replay, None),
    # machine_profiles is a loop over machine_stream, which the tuner
    # and the engine also call directly; timing the inner function
    # covers all three callers.
    ("machines", "repro.machines.replay", "machine_stream", None, None),
    ("scheduler", "repro.runtime.scheduler", "DAEScheduler.run",
     _count_schedule, None),
    ("power", "repro.power.frequency", "optimal_edp_point", None, None),
    ("engine.load", "repro.engine.cache", "ProfileCache.load",
     _count_load, None),
    ("engine.store", "repro.engine.cache", "ProfileCache.store",
     _count_store, None),
    ("tuning", "repro.tuning.tuner", "tune_workload", _count_tune, None),
)

#: The reported per-layer metrics: (name, unit, spans it needs, the
#: end-to-end metric and workload it should move; elsewhere: no
#: change).  Time metrics are span self times; the rest are exact work
#: counters.
LAYER_METRICS = (
    ("frontend.time_s", "s", ("frontend",), "wall_s on paper-cold"),
    ("transform.time_s", "s", ("transform",), "wall_s on paper-cold"),
    ("access_phase.time_s", "s", ("access_phase",), "wall_s on paper-cold"),
    ("access_phase.tasks", "count", ("access_phase",),
     "wall_s on paper-cold"),
    ("workloads.instantiate_s", "s", ("workloads",), "wall_s on paper-cold"),
    ("workloads.tasks", "count", ("workloads",), "wall_s on paper-cold"),
    ("profiler.time_s", "s", ("profiler",),
     "wall_s/cpu_s on paper-cold, then design-sweep"),
    ("profiler.calls", "count", ("profiler",),
     "wall_s/cpu_s on paper-cold, then design-sweep"),
    ("interp.instructions", "count", ("profiler",),
     "wall_s/cpu_s on paper-cold, then design-sweep"),
    ("interp.events_recorded", "count", ("profiler",),
     "wall_s/cpu_s on paper-cold, then design-sweep"),
    ("interp.self_s", "s", ("profiler", "sim"),
     "wall_s/cpu_s on paper-cold, then design-sweep (estimate)"),
    ("sim.replay_s", "s", ("sim",), "wall_s on design-sweep"),
    ("sim.events_replayed", "count", ("sim",), "wall_s on design-sweep"),
    ("sim.mru_ratio", "ratio", ("sim",), "wall_s on design-sweep"),
    ("machines.replay_s", "s", ("machines",), "wall_s on design-sweep"),
    ("scheduler.time_s", "s", ("scheduler",), "wall_s on figures-warm"),
    ("scheduler.runs", "count", ("scheduler",), "wall_s on figures-warm"),
    ("scheduler.tasks", "count", ("scheduler",), "wall_s on figures-warm"),
    ("power.select_s", "s", ("power",), "wall_s on figures-warm"),
    ("power.selects", "count", ("power",), "wall_s on figures-warm"),
    ("engine.load_s", "s", ("engine.load",), "wall_s on figures-warm"),
    ("engine.store_s", "s", ("engine.store",), "wall_s on paper-cold"),
    ("engine.hits", "count", ("engine.load",), "wall_s on figures-warm"),
    ("engine.misses", "count", ("engine.load",), "wall_s on paper-cold"),
    ("engine.bytes_read", "B", ("engine.load",), "wall_s on figures-warm"),
    ("engine.bytes_written", "B", ("engine.store",), "wall_s on paper-cold"),
    ("tuning.time_s", "s", ("tuning",), "wall_s on design-sweep"),
    ("tuning.schedule_evals", "count", ("tuning",), "wall_s on design-sweep"),
    ("evaluation.self_s", "s", (), "run time outside every span"),
    ("trace.overhead_s", "s", (), "traced minus untraced wall_s"),
)

#: Metrics that must repeat exactly for the same code and seed.
WORK_COUNTERS = tuple(
    name for name, unit, _, _ in LAYER_METRICS if unit != "s"
)


def _bindings(original):
    """Every (module, name) in a loaded module bound to ``original``:
    the defining module, re-exports, ``from x import f`` copies in other
    ``repro`` modules and in the benchmark's own."""
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                yield module, name


class Tracer:
    """Installs the span wrappers and accumulates their measurements."""

    def __init__(self):
        self.self_s = defaultdict(float)   # span -> summed self time
        self.calls = defaultdict(int)      # span -> call count
        self.counts = defaultdict(int)     # counter name -> value
        self.originals = {}                # span -> unwrapped callable
        self.missing = []                  # spans whose entry point is gone
        #: Time the hooks themselves took (the interp estimate replays);
        #: charged to no layer and to no enclosing span.
        self.hook_s = 0.0
        #: interp.self_s: profile time minus replaying its recording.
        self.interp_self_s = 0.0
        self.unestimated_profile_calls = 0
        self._stack = []

    def install(self) -> None:
        for span, module_name, attribute, hook, prepare in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *outer, name = attribute.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = (owner.__dict__[name] if outer
                            else getattr(owner, name))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original, hook, prepare)
            self.originals[span] = original
            if outer:
                setattr(owner, name, wrapper)
            else:
                for module, bound_name in list(_bindings(original)):
                    setattr(module, bound_name, wrapper)

    def _wrap(self, span, original, hook, prepare):
        signature = inspect.signature(original) if hook else None
        stack = self._stack

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            bound = state = None
            nested = [0.0]
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                state = prepare(bound) if prepare is not None else None
                self.hook_s += time.perf_counter() - entered
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_time = elapsed - nested[0]
                self.self_s[span] += self_time
                self.calls[span] += 1
            if hook is not None:
                started = time.perf_counter()
                hook(self, bound, result, state, self_time)
                self.hook_s += time.perf_counter() - started
            if stack:
                # The parent's self time excludes this call and its hook.
                stack[-1][0] += time.perf_counter() - entered
            return result

        return wrapper

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric (``None`` when its entry point is
        missing) for a traced run of ``wall_s`` seconds, except
        ``trace.overhead_s``, which needs the untraced run."""
        t, c, n = self.self_s, self.counts, self.calls
        values = {
            "frontend.time_s": t["frontend"],
            "transform.time_s": t["transform"],
            "access_phase.time_s": t["access_phase"],
            "access_phase.tasks": n["access_phase"],
            "workloads.instantiate_s": t["workloads"],
            "workloads.tasks": c["workloads.tasks"],
            "profiler.time_s": t["profiler"],
            "profiler.calls": n["profiler"],
            "interp.instructions": c["interp.instructions"],
            "interp.events_recorded": c["interp.events_recorded"],
            "interp.self_s": self.interp_self_s,
            "sim.replay_s": t["sim"],
            "sim.events_replayed": c["sim.events_replayed"],
            "sim.mru_ratio": (
                c["sim.mru_shortcircuits"] / c["sim.events_replayed"]
                if c["sim.events_replayed"] else 0.0
            ),
            "machines.replay_s": t["machines"],
            "scheduler.time_s": t["scheduler"],
            "scheduler.runs": n["scheduler"],
            "scheduler.tasks": c["scheduler.tasks"],
            "power.select_s": t["power"],
            "power.selects": n["power"],
            "engine.load_s": t["engine.load"],
            "engine.store_s": t["engine.store"],
            "engine.hits": c["engine.hits"],
            "engine.misses": c["engine.misses"],
            "engine.bytes_read": c["engine.bytes_read"],
            "engine.bytes_written": c["engine.bytes_written"],
            "tuning.time_s": t["tuning"],
            "tuning.schedule_evals": c["tuning.schedule_evals"],
            "evaluation.self_s": wall_s - self.hook_s - sum(t.values()),
        }
        for name, _, spans, _ in LAYER_METRICS:
            if any(span in self.missing for span in spans):
                values[name] = None
        return values
