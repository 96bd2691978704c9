"""``tune_workload``: the end-to-end auto-tuning driver.

One call profiles a workload through the evaluation engine (process
pool + persistent profile cache, PR 2), evaluates candidate operating
points at *schedule level* — full :meth:`DAEScheduler.run`, work
stealing and DVFS-transition energy included — under a pluggable
:class:`~repro.tuning.objectives.Objective`, and installs the winner as
the ``"tuned"`` frequency policy.

Each selected strategy searches each *placement* — an (access type,
execute type) pair of the machine's core types, one on a one-type
machine — with each phase on its placed type's operating points.

Candidate evaluations are themselves engineered like the engine's jobs:

* **memoized** — each distinct (access, execute) pair is scheduled once
  per placement and process;
* **persistently cached** — keyed on the candidate point pair plus the
  same material that keys the profile cache (and, when there are
  several placements, the machine and the placed type names), so a
  warm rerun re-schedules nothing;
* **fanned out** — with ``jobs > 1`` cache-missing candidates are
  scheduled in a ``ProcessPoolExecutor``, collected in submission order
  (byte-identical to the serial path), degrading to serial on any pool
  failure.

Why schedule-level: the paper's per-phase exhaustive EDP search
(Section 6.1, :class:`OptimalEDPPolicy`) optimizes each phase in
isolation, but a schedule's EDP also pays transition latency/energy,
queueing, stealing and idle tails — so the phase-local optimum is not
the schedule optimum (see ``DESIGN.md`` §10).  The tuner reports both,
and the regression suite holds the tuned pair to *never lose* to the
phase-local baseline.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

from ..engine import ExperimentSpec, ProfileCache, run_experiment
from ..engine.cache import (
    _config_material,
    cache_key,
    key_material,
    machine_material,
)
from ..engine.products import (
    phase_from_dict,
    phase_to_dict,
    profile_workload,
)
from ..interp.trace import TraceStore
from ..machines.model import MachineModel, homogeneous_machine
from ..obs.events import get_collector
from ..power.frequency import FrequencyPolicy
from ..runtime.profiler import StreamProfile, replay_stream
from ..runtime.scheduler import DAEScheduler, ScheduleResult
from ..runtime.task import Scheme, TaskProfile, TaskRef
from ..sim.config import MachineConfig
from ..sim.timing import PhaseProfile
from ..transform.access_phase import AccessPhaseOptions
from ..workloads import Workload
from .objectives import Objective, resolve_objective
from .pareto import ParetoPoint, pareto_front
from .policy import TunedPolicy, install_tuned_policy
from .search import (
    CandidatePair,
    coordinate_descent,
    golden_section,
    grid_search_point,
    nearest_point,
    interpolate_point,
    sorted_points,
)

#: Candidate-cache payload layout; part of every candidate cache key.
CANDIDATE_FORMAT = 1

#: Strategy names accepted by :func:`tune_workload` (``all`` runs every
#: one and keeps the overall winner).
STRATEGIES = ("phase-local", "exhaustive", "golden", "descent")

#: Named reference policies pinned into every tuning report/front, as
#: (label, access, execute) selectors over the machine config.
_REFERENCE_PAIRS = (
    ("policy:minmax", lambda c: c.fmin, lambda c: c.fmax),
    ("policy:fmin", lambda c: c.fmin, lambda c: c.fmin),
    ("policy:fmax", lambda c: c.fmax, lambda c: c.fmax),
)


def pair_label(pair: CandidatePair) -> str:
    """Stable display/JSON label for a candidate pair."""
    return "A%.1f/E%.1f" % pair.key


@dataclass
class TuningCandidate:
    """One evaluated candidate: a point pair (or the phase-local
    baseline) with its scheduled cost and objective value."""

    label: str
    pair: Optional[CandidatePair]
    time_ns: float
    energy_nj: float
    value: float
    feasible: bool
    transitions: int = 0
    steals: int = 0
    from_cache: bool = False

    @property
    def time_s(self) -> float:
        return self.time_ns * 1e-9

    @property
    def energy_j(self) -> float:
        return self.energy_nj * 1e-9

    @property
    def edp_js(self) -> float:
        return self.time_s * self.energy_j

    def as_dict(self) -> dict:
        doc = {
            "label": self.label,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "edp_js": self.edp_js,
            "value": self.value if self.feasible else None,
            "feasible": self.feasible,
            "transitions": self.transitions,
            "steals": self.steals,
        }
        if self.pair is not None:
            doc["access_ghz"], doc["execute_ghz"] = self.pair.key
        return doc


@dataclass
class StrategySummary:
    """One strategy's result for reports and benchmarks."""

    name: str
    evaluations: int
    best_label: str
    best_value: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "evaluations": self.evaluations,
            "best": self.best_label,
            "value": self.best_value if self.best_value != float("inf")
            else None,
            "detail": self.detail,
        }


@dataclass
class TuningStats:
    """Execution counters for one :func:`tune_workload` call.

    ``schedule_evals`` counts actual scheduler runs (cache hits and
    memo hits are free); a fully-warm rerun therefore shows
    ``schedule_evals == 0`` and ``cache_hits == requests``.
    """

    requests: int = 0          # distinct candidate pairs requested
    schedule_evals: int = 0    # scheduler.run calls actually executed
    cache_hits: int = 0
    cache_misses: int = 0
    pool_evals: int = 0
    serial_evals: int = 0
    phase_evals: int = 0       # phase-local power-model evaluations
    engine: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "schedule_evals": self.schedule_evals,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pool_evals": self.pool_evals,
            "serial_evals": self.serial_evals,
            "phase_evals": self.phase_evals,
            "engine": dict(self.engine),
        }


@dataclass
class TuningResult:
    """Everything one tuning run produced."""

    workload: str
    scheme: str
    objective: str
    strategy: str
    scale: int
    best: TuningCandidate
    phase_local: TuningCandidate
    strategies: List[StrategySummary]
    candidates: List[TuningCandidate]
    references: dict[str, TuningCandidate]
    front: List[ParetoPoint]
    policy: Optional[TunedPolicy]
    installed: bool
    stats: TuningStats
    #: Machine-model annotations: ``machine`` is ``None`` for
    #: plain-config tuning and ``placement`` (the winner's resolved type
    #: names) for one-placement tuning, so those reports stay unchanged.
    machine: Optional[str] = None
    placement: Optional[dict] = None

    def improvement_over_phase_local(self) -> Optional[float]:
        """Fractional objective improvement of the tuned pair over the
        paper's phase-local baseline (``None`` when undefined)."""
        if not (self.best.feasible and self.phase_local.feasible):
            return None
        if self.phase_local.value == 0.0:
            return None
        return 1.0 - self.best.value / self.phase_local.value

    def manifest_entry(self) -> dict:
        """This tuning run as one run-ledger workload entry.

        The tuned pair, the phase-local baseline, and the pinned
        reference policies each become a schedule configuration with a
        ``summary`` in the shape ``compare_runs`` expects, so ledger
        diffs cover tuning outcomes exactly like engine runs.
        """
        def entry(policy_label: str, candidate: TuningCandidate) -> dict:
            return {
                "summary": {
                    "scheme": self.scheme,
                    "policy": policy_label,
                    "time_s": candidate.time_s,
                    "energy_j": candidate.energy_j,
                    "edp_js": candidate.edp_js,
                },
            }

        schedules = {
            "tuned": entry(self.best.label, self.best),
            "phase-local": entry("phase-local", self.phase_local),
        }
        for label, candidate in sorted(self.references.items()):
            schedules[label] = entry(label, candidate)
        tuning = {
            "objective": self.objective,
            "strategy": self.strategy,
            "best": self.best.label,
            "installed": self.installed,
            "improvement_over_phase_local":
                self.improvement_over_phase_local(),
        }
        if self.machine is not None:
            tuning["machine"] = self.machine
            tuning["placement"] = self.placement
        return {
            "schedules": schedules,
            "tuning": tuning,
        }

    def as_dict(self) -> dict:
        """Deterministic JSON document (no wall-clock, no cache state —
        repeat runs of the same tuning problem byte-match)."""
        doc = {
            "workload": self.workload,
            "scheme": self.scheme,
            "objective": self.objective,
            "strategy": self.strategy,
            "scale": self.scale,
            "installed": self.installed,
            "best": self.best.as_dict(),
            "phase_local": self.phase_local.as_dict(),
            "improvement_over_phase_local":
                self.improvement_over_phase_local(),
            "strategies": [s.as_dict() for s in self.strategies],
            "references": {
                label: candidate.as_dict()
                for label, candidate in sorted(self.references.items())
            },
            "pareto_front": [
                {"time_s": p.time_s, "energy_j": p.energy_j,
                 "label": p.label}
                for p in self.front
            ],
            "candidates": [c.as_dict() for c in self.candidates],
        }
        if self.machine is not None:
            doc["machine"] = self.machine
            doc["placement"] = self.placement
        return doc


class _PhaseLocalPolicy(FrequencyPolicy):
    """Per-phase grid argmin of an arbitrary objective — the paper's
    Section 6.1 search generalized from EDP to any objective."""

    name = "phase-local"

    def __init__(self, objective: Objective, stats: TuningStats):
        self.objective = objective
        self.stats = stats

    def _argmin(self, profile, config):
        outcome = grid_search_point(
            lambda point: self.objective.phase_value(profile, point, config),
            config.operating_points,
        )
        self.stats.phase_evals += outcome.evaluations
        return outcome.best_point

    def access_point(self, profile, config):
        return self._argmin(profile, config)

    def execute_point(self, profile, config):
        return self._argmin(profile, config)


def _result_payload(result: ScheduleResult) -> dict:
    return {
        "format": CANDIDATE_FORMAT,
        "time_ns": result.time_ns,
        "energy_nj": result.energy_nj,
        "transitions": result.transitions,
        "steals": result.steals,
    }


def _candidate_worker(args: tuple) -> list:
    """Top-level (picklable) pool worker: schedule a chunk of candidate
    pairs over the slim task payload on one (machine, placement);
    return one payload per pair."""
    tasks_doc, scheme_value, machine, placement, pairs = args
    tasks = [
        TaskProfile(
            instance=TaskRef(name=doc["name"]),
            execute=phase_from_dict(doc["execute"]),
            access=(phase_from_dict(doc["access"])
                    if doc["access"] is not None else None),
        )
        for doc in tasks_doc
    ]
    scheduler = DAEScheduler(machine=machine, placement=placement)
    out = []
    for pair in pairs:
        result = scheduler.run(
            tasks, Scheme(scheme_value), TunedPolicy.from_pair(pair),
            record_timeline=False,
        )
        out.append(_result_payload(result))
    return out


class _CandidateEvaluator:
    """Schedules candidate pairs on one (machine, placement) with
    memoization, persistent caching, and optional process-pool fan-out.
    Candidate labels start with ``label_prefix``, which names the
    placement when a tune searches several."""

    def __init__(self, stream: StreamProfile, run_scheme: Scheme,
                 machine: MachineModel, placement: tuple[str, str],
                 objective: Objective, workload_name: str,
                 stats: TuningStats,
                 cache: Optional[ProfileCache] = None,
                 material_base: Optional[dict] = None,
                 jobs: int = 1, label_prefix: str = ""):
        self.stream = stream
        self.tasks = stream.tasks
        self.run_scheme = run_scheme
        self.machine = machine
        self.placement = placement
        #: The placed types' configs: the access and execute tables.
        self.access_config, self.execute_config = (
            core_type.config
            for core_type in machine.placement(run_scheme.value, placement)
        )
        self.objective = objective
        self.workload_name = workload_name
        self.stats = stats
        self.cache = cache if material_base is not None else None
        self.material_base = material_base
        self.jobs = jobs
        self.label_prefix = label_prefix
        self.collector = get_collector()
        self._memo: dict = {}
        self._tasks_doc: Optional[list] = None
        self.scheduler = DAEScheduler(machine=machine, placement=placement)

    # -- public API ------------------------------------------------------------

    def value(self, pair: CandidatePair) -> float:
        return self.evaluate(pair).value

    def evaluate(self, pair: CandidatePair) -> TuningCandidate:
        self.prefetch([pair])
        return self._memo[pair.key]

    def prefetch(self, pairs: List[CandidatePair]) -> None:
        """Ensure every pair is memoized; cache misses are computed in
        the pool when ``jobs > 1`` allows, serially otherwise, and the
        results are identical either way (asserted by test)."""
        missing: List[CandidatePair] = []
        seen: set = set()
        for pair in pairs:
            if pair.key in self._memo or pair.key in seen:
                continue
            seen.add(pair.key)
            self.stats.requests += 1
            payload = self._cache_load(pair)
            if payload is not None:
                self.stats.cache_hits += 1
                self.collector.instant(
                    "tuning.cache.hit", cat="tuning.cache",
                    args={"workload": self.workload_name,
                          "pair": self.label_prefix + pair_label(pair)},
                )
                self._memo[pair.key] = self._candidate(
                    pair, payload, from_cache=True
                )
                continue
            if self.cache is not None:
                self.stats.cache_misses += 1
                self.collector.instant(
                    "tuning.cache.miss", cat="tuning.cache",
                    args={"workload": self.workload_name,
                          "pair": self.label_prefix + pair_label(pair)},
                )
            missing.append(pair)
        if not missing:
            return
        payloads = self._compute(missing)
        for pair, payload in zip(missing, payloads):
            self._cache_store(pair, payload)
            self._memo[pair.key] = self._candidate(pair, payload)
            self.collector.instant(
                "tuning.candidate", cat="tuning",
                args={"workload": self.workload_name,
                      "pair": self.label_prefix + pair_label(pair),
                      "value": self._memo[pair.key].value},
            )

    def candidates(self) -> List[TuningCandidate]:
        """Every distinct evaluated candidate, sorted by pair key."""
        return [self._memo[key] for key in sorted(self._memo)]

    def grid(self) -> List[CandidatePair]:
        """The placed tables' full cross product, in ascending order."""
        return [
            CandidatePair(access, execute)
            for access in sorted_points(self.access_config.operating_points)
            for execute in sorted_points(
                self.execute_config.operating_points)
        ]

    def phases(self) -> tuple[tuple[PhaseProfile, MachineConfig], ...]:
        """(whole-run profile, placed config) of the access and execute
        phases, which the continuous strategies optimize over; on a CAE
        stream the inert access coordinate follows the execute one."""
        access = self.stream.aggregate_access()
        execute = self.stream.aggregate_execute()
        if access.instructions == 0 and access.slots == 0:
            access = execute
        return ((access, self.access_config),
                (execute, self.execute_config))

    # -- computation -----------------------------------------------------------

    def _compute(self, pairs: List[CandidatePair]) -> List[dict]:
        self.stats.schedule_evals += len(pairs)
        if self.jobs > 1 and len(pairs) > 1:
            payloads = self._compute_pool(pairs)
            if payloads is not None:
                return payloads
        self.stats.serial_evals += len(pairs)
        return [self._compute_serial(pair) for pair in pairs]

    def _compute_serial(self, pair: CandidatePair) -> dict:
        result = self.scheduler.run(
            self.tasks, self.run_scheme, TunedPolicy.from_pair(pair),
            record_timeline=False,
        )
        return _result_payload(result)

    def _compute_pool(self, pairs: List[CandidatePair]) -> Optional[list]:
        """Fan ``pairs`` over a process pool in submission-order chunks;
        ``None`` means "pool unavailable, go serial"."""
        workers = min(self.jobs, len(pairs))
        chunks: List[List[CandidatePair]] = [[] for _ in range(workers)]
        for index, pair in enumerate(pairs):
            chunks[index % workers].append(pair)
        chunks = [chunk for chunk in chunks if chunk]
        try:
            with ProcessPoolExecutor(max_workers=len(chunks)) as executor:
                futures = [
                    executor.submit(_candidate_worker, (
                        self._tasks_payload(), self.run_scheme.value,
                        self.machine, self.placement, chunk,
                    ))
                    for chunk in chunks
                ]
                results = [future.result() for future in futures]
        except Exception as exc:
            self.collector.instant(
                "tuning.pool.unavailable", cat="tuning.pool",
                args={"error": "%s: %s" % (type(exc).__name__, exc)},
            )
            return None
        by_key: dict = {}
        for chunk, payloads in zip(chunks, results):
            for pair, payload in zip(chunk, payloads):
                by_key[pair.key] = payload
        self.stats.pool_evals += len(pairs)
        return [by_key[pair.key] for pair in pairs]

    def _tasks_payload(self) -> list:
        if self._tasks_doc is None:
            self._tasks_doc = [
                {
                    "name": task.instance.name,
                    "execute": phase_to_dict(task.execute),
                    "access": (phase_to_dict(task.access)
                               if task.access is not None else None),
                }
                for task in self.tasks
            ]
        return self._tasks_doc

    def _candidate(self, pair: CandidatePair, payload: dict,
                   from_cache: bool = False) -> TuningCandidate:
        time_s = payload["time_ns"] * 1e-9
        energy_j = payload["energy_nj"] * 1e-9
        value = self.objective.evaluate(time_s, energy_j)
        return TuningCandidate(
            label=self.label_prefix + pair_label(pair),
            pair=pair,
            time_ns=payload["time_ns"],
            energy_nj=payload["energy_nj"],
            value=value,
            feasible=value != float("inf"),
            transitions=payload.get("transitions", 0),
            steals=payload.get("steals", 0),
            from_cache=from_cache,
        )

    # -- persistent cache ------------------------------------------------------

    def _pair_material(self, pair: CandidatePair) -> dict:
        material = dict(self.material_base)
        material["pair"] = [
            pair.access.freq_ghz, pair.access.voltage,
            pair.execute.freq_ghz, pair.execute.voltage,
        ]
        return material

    def _cache_load(self, pair: CandidatePair) -> Optional[dict]:
        if self.cache is None:
            return None
        material = self._pair_material(pair)
        payload = self.cache.load(
            "tune-%s" % self.workload_name, cache_key(material), material
        )
        if payload is not None and payload.get("format") != CANDIDATE_FORMAT:
            return None
        return payload

    def _cache_store(self, pair: CandidatePair, payload: dict) -> None:
        if self.cache is None:
            return
        material = self._pair_material(pair)
        self.cache.store(
            "tune-%s" % self.workload_name, cache_key(material), material,
            payload,
        )


def _candidate_material(profile_material: Optional[dict],
                        workload_name: str, stream: Scheme,
                        run_scheme: Scheme, config: MachineConfig,
                        scale: int, machine: Optional[MachineModel] = None,
                        placement: tuple = ()) -> Optional[dict]:
    """Everything a candidate's schedule is a function of except the
    point pair itself; ``None`` when the profiles are uncacheable.
    Only a tune of several placements passes ``machine``, so
    one-placement keys match caches filled before placements were."""
    if profile_material is None:
        return None
    material = {
        "kind": "tuning-candidate",
        "format": CANDIDATE_FORMAT,
        "profile_key": cache_key(profile_material),
        "workload": workload_name,
        "stream": stream.value,
        "run_scheme": run_scheme.value,
        "scale": int(scale),
        "config": _config_material(config),
        "scheduler": {
            "task_overhead_ns": DAEScheduler.task_overhead_ns,
            "steal_overhead_ns": DAEScheduler.steal_overhead_ns,
            "sleep_power_w": DAEScheduler.sleep_power_w,
        },
    }
    if machine is not None:
        material["machine"] = machine_material(machine)
        material["placement"] = list(placement)
    return material


def _distinct_placements(machine: MachineModel,
                         run_scheme: Scheme) -> List[tuple[str, str]]:
    """The declared placement, (execute, execute) and (access, access),
    resolved by ``machine.placement`` to type names and kept where their
    placed configs first occur (equal configs are indistinguishable to
    every model, so a one-type machine has one placement)."""
    placements: dict = {}
    for placed in ((machine.access_type, machine.execute_type),
                   (machine.execute_type,) * 2,
                   (machine.access_type,) * 2):
        access, execute = machine.placement(run_scheme.value, placed)
        placements.setdefault((access.config, execute.config),
                              (access.name, execute.name))
    return list(placements.values())


def tune_workload(workload: Union[Workload, str, type], *,
                  objective: Union[Objective, str] = "edp",
                  strategy: str = "all",
                  scheme: Union[Scheme, str] = Scheme.DAE,
                  config: Optional[MachineConfig] = None,
                  scale: int = 1,
                  jobs: int = 1,
                  cache: bool = True,
                  cache_dir: Optional[str] = None,
                  options: Optional[AccessPhaseOptions] = None,
                  interp: Optional[str] = None,
                  install: bool = True,
                  machine=None) -> TuningResult:
    """Auto-tune ``workload``'s operating points under ``objective``.

    ``strategy`` is one of :data:`STRATEGIES` or ``"all"``.  Candidate
    schedules are memoized, persistently cached (``cache``,
    ``cache_dir``) and fanned through a process pool (``jobs``
    workers).  The winning pair is installed as the ``"tuned"``
    frequency policy unless ``install=False`` (or no candidate is
    feasible).  ``interp`` picks the profiling interpreter (``None``:
    ``$REPRO_INTERP``, then ``"replay"``); it cannot change any profile,
    only the wall-clock cost of the prefetch-stream profiling runs.

    ``machine`` names a registered
    :class:`~repro.machines.model.MachineModel` (or passes one
    directly) and excludes ``config``; ``config`` is tuned as the
    one-type machine.  The tune searches the machine's distinct
    placements (:func:`_distinct_placements`): one on a one-type
    machine; the declared pair, (execute, execute) and (access, access)
    on a heterogeneous one, fewer under a coupled scheme.  Every
    selected strategy runs on every placement, each phase on its placed
    type's table, and the winner is the lowest ``(value, placement
    rank, pair)``.  The ``phase-local`` baseline and the reference
    policies are scheduled on the declared placement.
    """
    if machine is not None and config is not None:
        raise ValueError("pass either config= or machine=, not both")
    if strategy != "all" and strategy not in STRATEGIES:
        raise ValueError(
            "unknown strategy %r; expected 'all' or one of %s"
            % (strategy, ", ".join(STRATEGIES))
        )
    machine_name = None
    if machine is None:
        machine = homogeneous_machine("config", config or MachineConfig())
    else:
        if isinstance(machine, str):
            machine = MachineModel.from_name(machine)
        machine_name = machine.name
    config = machine.config
    objective = resolve_objective(objective)
    scheme = Scheme.coerce(scheme, context="tune_workload")
    if strategy == "all":
        selected = STRATEGIES
    elif strategy == "phase-local":
        selected = ("phase-local",)
    else:  # always include the baseline for the comparison column
        selected = ("phase-local", strategy)

    # Profile stream vs execution mode, as in evaluation.schedule().
    stream = Scheme.CAE if scheme is Scheme.CAE else scheme
    run_scheme = Scheme.CAE if scheme is Scheme.CAE else Scheme.DAE

    placements = _distinct_placements(machine, run_scheme)
    several = len(placements) > 1

    collector = get_collector()
    stats = TuningStats()
    span_args = {
        "objective": objective.spec, "strategy": strategy,
        "scheme": scheme.value, "scale": scale, "jobs": jobs,
    }
    if machine_name is not None:
        span_args["machine"] = machine_name
    with collector.span("tuning.run", cat="tuning", args=span_args) as span:
        spec = ExperimentSpec(
            workloads=(workload,), schemes=(stream,), scale=scale,
            config=config, options=options, jobs=jobs, cache=cache,
            cache_dir=cache_dir, interp=interp,
        )
        resolved = spec.resolve_workloads()[0]
        span.args["workload"] = resolved.name
        streams = _profile_placements(
            spec, resolved, stream, machine, placements, stats,
        )
        profile_material = key_material(
            resolved, spec.scale, config, spec.options, spec.schemes,
            machine=machine if several else None,
        ) if cache else None
        evaluators = []
        for placed in placements:
            material_base = _candidate_material(
                profile_material, resolved.name, stream, run_scheme,
                config, scale, machine=machine if several else None,
                placement=placed,
            )
            evaluators.append(_CandidateEvaluator(
                stream=streams[placed], run_scheme=run_scheme,
                machine=machine, placement=placed, objective=objective,
                workload_name=resolved.name, stats=stats,
                cache=ProfileCache(cache_dir), material_base=material_base,
                jobs=jobs,
                label_prefix="%s->%s " % placed if several else "",
            ))

        phase_local = _phase_local_candidate(evaluators[0])
        seeds = [_phase_local_seed(e) for e in evaluators]
        summaries = [
            _traced(lambda name=name: _run_strategy(
                name, evaluators, seeds, phase_local, config,
            ))
            for name in selected
        ]
        references = _reference_candidates(evaluators[0])

        # Placements with pairs to rank: a phase-local-only tune
        # evaluates pairs (the references) on the declared one alone.
        searched = evaluators if selected != ("phase-local",) else (
            evaluators[:1])
        if several:
            detail = ("exhaustive over the placed types' tables"
                      if "exhaustive" in selected
                      else "best pair evaluated on the placed types' tables")
            summaries += [
                _traced(lambda e=e: _summary(
                    "placement:%s->%s" % e.placement, len(e.candidates()),
                    _select_best(e.candidates()), detail,
                ))
                for e in searched
            ]

        # Winner: lowest (value, placement rank, pair key); each
        # placement's best already breaks its own ties on the pair key.
        bests = [_select_best(e.candidates()) for e in searched]
        rank = min(range(len(bests)), key=lambda i: (bests[i].value, i))
        best = bests[rank]
        placement = dict(zip(("access", "execute"), placements[rank])) if (
            several) else None
        pair_candidates = [c for e in evaluators for c in e.candidates()]
        front = pareto_front(
            [ParetoPoint(c.time_s, c.energy_j, c.label)
             for c in pair_candidates]
            + [ParetoPoint(phase_local.time_s, phase_local.energy_j,
                           phase_local.label)]
        )

        policy = TunedPolicy.from_pair(best.pair)
        installed = False
        if install and best.feasible:
            install_tuned_policy(policy)
            installed = True

        collector.counter("tuning.evaluations", stats.schedule_evals,
                          cat="tuning.stats")
        collector.counter("tuning.cache_hits", stats.cache_hits,
                          cat="tuning.stats")
        collector.counter("tuning.cache_misses", stats.cache_misses,
                          cat="tuning.stats")
        span.args.update(stats.as_dict())

    return TuningResult(
        workload=resolved.name, scheme=scheme.value, objective=objective.spec,
        strategy=strategy, scale=scale, best=best, phase_local=phase_local,
        strategies=summaries, candidates=pair_candidates,
        references=references, front=front, policy=policy,
        installed=installed, stats=stats, machine=machine_name,
        placement=placement,
    )


def _profile_placements(spec: ExperimentSpec, resolved: Workload,
                        stream: Scheme, machine: MachineModel,
                        placements: list, stats: TuningStats) -> dict:
    """The profiled task stream per placement.

    One placement reads the persistent profile cache through the
    evaluation engine.  Several placements record the workload once
    (profiling on the machine replays the declared placement) and
    re-simulate the recording for every other placement, because a
    phase's cache profile depends on which type's private caches it
    replays through — and the profile cache does not hold recordings.
    """
    if len(placements) == 1:
        engine_result = run_experiment(spec)
        stats.engine = engine_result.stats.as_dict()
        return {
            placements[0]:
                engine_result[resolved.name].profiles[stream.value],
        }
    store = TraceStore()
    streams = {
        placements[0]: profile_workload(
            resolved, spec.scale, options=spec.options, schemes=(stream,),
            interp=spec.interp, trace_store=store, machine=machine,
        ).profiles[stream.value],
    }
    records = store.schemes[stream.value]
    for placed in placements[1:]:
        streams[placed] = replay_stream(records, stream.value, machine, placed)
    return streams


# -- tuning internals ----------------------------------------------------------


def _phase_local_candidate(
        evaluator: _CandidateEvaluator) -> TuningCandidate:
    """Schedule the paper's baseline: per-task, per-phase grid argmin,
    on the evaluator's (machine, placement)."""
    result = evaluator.scheduler.run(
        evaluator.tasks, evaluator.run_scheme,
        _PhaseLocalPolicy(evaluator.objective, evaluator.stats),
        record_timeline=False,
    )
    value = evaluator.objective.value(result)
    return TuningCandidate(
        label="phase-local", pair=None,
        time_ns=result.time_ns, energy_nj=result.energy_nj,
        value=value, feasible=value != float("inf"),
        transitions=result.transitions, steals=result.steals,
    )


def _phase_local_seed(evaluator: _CandidateEvaluator) -> CandidatePair:
    """Descent seed: the phase-local argmin over the *aggregate* access
    and execute profiles, each on its placed table (one pair
    summarizing the baseline)."""
    outcomes = [
        grid_search_point(
            lambda point, profile=profile, config=config: (
                evaluator.objective.phase_value(profile, point, config)
            ),
            config.operating_points,
        )
        for profile, config in evaluator.phases()
    ]
    evaluator.stats.phase_evals += sum(o.evaluations for o in outcomes)
    return CandidatePair(
        access=outcomes[0].best_point, execute=outcomes[1].best_point
    )


def _run_strategy(name: str, evaluators: List[_CandidateEvaluator],
                  seeds: List[CandidatePair], phase_local: TuningCandidate,
                  config: MachineConfig) -> StrategySummary:
    """Run strategy ``name`` on every placement: the row holds the best
    placement's result and the evaluations summed over placements."""
    if name == "phase-local":
        return StrategySummary(
            name=name,
            evaluations=len(config.operating_points),
            best_label=phase_local.label,
            best_value=phase_local.value,
            detail="per-phase grid (Section 6.1 baseline)",
        )
    runs = [_run_on_placement(name, evaluator, seed)
            for evaluator, seed in zip(evaluators, seeds)]
    best = min(runs, key=lambda run: run.best_value)
    return replace(best, evaluations=sum(run.evaluations for run in runs))


def _run_on_placement(name: str, evaluator: _CandidateEvaluator,
                      seed: CandidatePair) -> StrategySummary:
    if name == "exhaustive":
        grid = evaluator.grid()
        evaluator.prefetch(grid)
        return _summary(name, len(grid), _select_best(evaluator.candidates()))
    if name == "golden":
        return _run_golden(evaluator)
    if name == "descent":
        outcome = coordinate_descent(
            evaluator.value, evaluator.access_config.operating_points, seed,
            prefetch=evaluator.prefetch,
            execute_points=evaluator.execute_config.operating_points,
        )
        return _summary(name, outcome.evaluations,
                        evaluator.evaluate(outcome.best_pair))
    raise ValueError("unknown strategy %r" % name)


def _run_golden(evaluator: _CandidateEvaluator) -> StrategySummary:
    """Golden-section on the continuous V/f line per aggregate phase,
    snapped to discrete points and evaluated at schedule level."""
    phases = evaluator.phases()
    outcomes = [
        golden_section(
            lambda f, profile=profile, config=config: (
                evaluator.objective.phase_value(
                    profile, interpolate_point(f, config), config)
            ),
            config.fmin.freq_ghz, config.fmax.freq_ghz,
        )
        for profile, config in phases
    ]
    evaluator.stats.phase_evals += sum(o.evaluations for o in outcomes)
    access, execute = (
        nearest_point(outcome.best_freq_ghz, config.operating_points)
        for outcome, (_, config) in zip(outcomes, phases)
    )
    candidate = evaluator.evaluate(CandidatePair(access, execute))
    return _summary(
        "golden", sum(o.evaluations for o in outcomes) + 1, candidate,
        detail="continuous argmin A=%.3f/E=%.3f GHz, snapped"
        % (outcomes[0].best_freq_ghz, outcomes[1].best_freq_ghz),
    )


def _traced(search) -> StrategySummary:
    """Run one search (or summary) inside its ``tuning.search`` span."""
    with get_collector().span("tuning.search", cat="tuning") as span:
        summary = search()
        span.args.update(strategy=summary.name, **summary.as_dict())
    return summary


def _summary(name: str, evaluations: int, best: TuningCandidate,
             detail: str = "") -> StrategySummary:
    return StrategySummary(
        name=name, evaluations=evaluations, best_label=best.label,
        best_value=best.value, detail=detail,
    )


def _reference_candidates(evaluator: _CandidateEvaluator) -> dict:
    """The named baseline policies as labelled pair candidates, on the
    evaluator's (machine, placement)."""
    references = {}
    for label, access_of, execute_of in _REFERENCE_PAIRS:
        pair = CandidatePair(access=access_of(evaluator.access_config),
                             execute=execute_of(evaluator.execute_config))
        references[label] = evaluator.evaluate(pair)
    return references


def _select_best(candidates: List[TuningCandidate]) -> TuningCandidate:
    """Deterministic winner: lowest value, then lowest (access,
    execute) frequency pair."""
    assert candidates, "no candidates evaluated"
    return min(candidates, key=lambda c: (c.value, c.pair.key))
