"""Pins for the two-stage cache replay (``repro.sim.replay``).

Stage 1 (:func:`filter_private`) runs the MRU filter, L1 and L2 of one
core; stage 2 (:func:`replay_shared`) runs the L2-miss substream through
the shared LLC and the stream-miss window.  The split is exact only if
the LLC never influences L1/L2 — these tests check that on randomized
streams against per-event ``CoreCaches.access``, including running
stage 1 over a whole multi-core stream before any of stage 2, which is
what ``replay_stream``'s memo does.  The stream tests then check that
the memo changes no profile: a memoized LLC sweep equals an un-memoized
replay and a full re-profile under every variant.
"""

import json
import random
from array import array

import pytest

from repro.engine.products import (
    ALL_SCHEMES,
    WorkloadRun,
    profile_workload,
    run_to_payload,
)
from repro.evaluation.ablation import SWEEP_PARAMS
from repro.interp.trace import TraceStore
from repro.runtime import profiler
from repro.runtime.profiler import replay_stream
from repro.sim.cache import AccessCounts, MachineCaches
from repro.sim.config import CacheConfig, MachineConfig
from repro.sim.replay import filter_private, replay_phase, replay_shared
from repro.workloads import workload_by_name

KIND_NAMES = ("load", "store", "prefetch")

#: 48-byte lines: ``line_shift == -1``, so every stage divides.
ODD_LINE_CONFIG = MachineConfig(
    cores=2,
    l1=CacheConfig(1536, 4, line_bytes=48, latency_cycles=4),
    l2=CacheConfig(12288, 8, line_bytes=48, latency_cycles=12),
    llc=CacheConfig(18432, 16, line_bytes=48, latency_cycles=30),
)

CONFIGS = {
    "default": MachineConfig(),
    "two-core": MachineConfig(cores=2),
    "small-llc": MachineConfig(
        cores=2, llc=CacheConfig(4 * 1024, 16, latency_cycles=30),
    ),
    "odd-line": ODD_LINE_CONFIG,
}


def _random_phase(rng: random.Random, count: int, wide: bool = False):
    """Flat (kind, address, size) triples: same-line runs, next-line
    streams, reuse, negative addresses, far strides and all three kinds
    (prefetches included).  ``wide`` adds lines past 64 bits, which
    only unpacked interpreter output can carry."""
    flat = []
    address = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.35:
            address += 8
        elif roll < 0.55:
            address += 64
        elif roll < 0.75:
            address = rng.randrange(0, 1 << 15)
        elif roll < 0.9:
            address = rng.randrange(-(1 << 12), 0)
        elif wide and roll < 0.95:
            address = rng.randrange(1 << 72, 1 << 74)
        else:
            address = rng.randrange(0, 1 << 40)
        flat += (rng.randrange(3), address, 8)
    return flat


def _state(machine: MachineCaches) -> list:
    """Every set of every cache in recency order, plus each core's MRU
    line, MRU-hit count and stream-miss window."""
    return [
        [list(s) for s in machine.llc.sets],
        [
            (
                [list(s) for s in core.l1.sets],
                [list(s) for s in core.l2.sets],
                core._mru_line,
                core.mru_hits,
                list(core._recent_misses),
            )
            for core in machine.cores
        ],
    ]


def _per_event(machine: MachineCaches, phases):
    """Reference: every event through ``CoreCaches.access``, phase ``i``
    on core ``i % cores``.  Returns each phase's counts and L2-miss
    ``(kind, line)`` pairs."""
    results = []
    for index, flat in enumerate(phases):
        core = machine.cores[index % len(machine.cores)]
        counts = AccessCounts()
        misses = []
        for kind, address, _size in zip(*[iter(flat)] * 3):
            level = core.access(address, KIND_NAMES[kind], counts)
            if level not in ("l1", "l2"):
                misses += (kind, address // core.line_bytes)
        results.append((counts.snapshot(), misses))
    return results


def _phases(seed: int, wide: bool = False):
    rng = random.Random(seed)
    return [_random_phase(rng, rng.randrange(1, 1500), wide)
            for _ in range(6)]


class TestAgainstPerEventAccess:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [1, 17, 2026])
    def test_composed_stages_match_per_event_access(self, name, seed):
        config = CONFIGS[name]
        phases = _phases(seed)
        direct = MachineCaches(config)
        expected = _per_event(direct, phases)
        staged = MachineCaches(config)
        for index, flat in enumerate(phases):
            core = staged.cores[index % config.cores]
            filtered = filter_private(core, array("q", flat))
            assert filtered.misses.typecode == "q"
            assert list(filtered.misses) == expected[index][1]
            counts = AccessCounts()
            replay_shared(core, filtered, counts)
            assert counts.snapshot() == expected[index][0]
        assert _state(staged) == _state(direct)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_stage_one_over_whole_stream_first(self, name):
        """All of stage 1 before any of stage 2 — the memoized order —
        still gives every phase's per-event counts."""
        config = CONFIGS[name]
        phases = _phases(5)
        direct = MachineCaches(config)
        expected = _per_event(direct, phases)
        staged = MachineCaches(config)
        filtered = [
            filter_private(staged.cores[i % config.cores], array("q", flat))
            for i, flat in enumerate(phases)
        ]
        fresh = MachineCaches(config)
        for index, private in enumerate(filtered):
            counts = AccessCounts()
            replay_shared(fresh.cores[index % config.cores], private, counts)
            assert counts.snapshot() == expected[index][0]
        assert sum(p.mru_hits for p in filtered) == sum(
            core.mru_hits for core in direct.cores
        )
        # Stage 2 alone leaves the fresh machine's LLC and stream
        # windows exactly where per-event access left them.
        assert _state(fresh)[0] == _state(direct)[0]
        assert [list(c._recent_misses) for c in fresh.cores] == [
            list(c._recent_misses) for c in direct.cores
        ]

    def test_tallies_split_by_kind(self):
        phases = _phases(99)
        config = CONFIGS["default"]
        direct = MachineCaches(config)
        expected = _per_event(direct, phases[:1])[0][0]
        staged = MachineCaches(config)
        filtered = filter_private(staged.cores[0], phases[0])
        for kind, bucket in enumerate(("loads", "stores", "prefetches")):
            assert filtered.l1[kind] == expected[bucket]["l1"]
            assert filtered.l2[kind] == expected[bucket]["l2"]
        assert filtered.mru_hits == staged.cores[0].mru_hits

    def test_wide_addresses_keep_a_plain_list(self):
        """Lines past 64 bits cannot pack; stage 1 keeps the list and
        the composed replay still matches per-event access."""
        phases = _phases(3, wide=True)
        config = CONFIGS["two-core"]
        direct = MachineCaches(config)
        expected = _per_event(direct, phases)
        staged = MachineCaches(config)
        for index, flat in enumerate(phases):
            counts = AccessCounts()
            assert replay_phase(
                staged.cores[index % 2], flat, counts
            ) == len(flat) // 3
            assert counts.snapshot() == expected[index][0]
        assert _state(staged) == _state(direct)
        assert isinstance(
            filter_private(MachineCaches(config).cores[0], phases[0]).misses,
            list,
        )

    def test_empty_phase(self):
        core = MachineCaches(MachineConfig()).cores[0]
        filtered = filter_private(core, array("q"))
        assert filtered.l1 == filtered.l2 == (0, 0, 0)
        assert filtered.mru_hits == 0 and len(filtered.misses) == 0
        counts = AccessCounts()
        replay_shared(core, filtered, counts)
        assert counts.snapshot() == AccessCounts().snapshot()


# -- replay_stream's stage-1 memo ----------------------------------------------


@pytest.fixture(scope="module", params=["cigar", "fft"])
def recorded(request):
    workload = workload_by_name(request.param)
    store = TraceStore()
    run = profile_workload(
        workload, 1, MachineConfig(), schemes=ALL_SCHEMES,
        interp="replay", trace_store=store,
    )
    assert store.fully_replayable()
    return workload, run, store


def _payload(workload, run, profiles) -> str:
    return json.dumps(run_to_payload(WorkloadRun(
        workload=workload, compiled=run.compiled,
        profiles=profiles, task_count=run.task_count,
    )), sort_keys=True)


@pytest.mark.parametrize("param, value, reuses", [
    ("llc_kb", 8, True),
    ("llc_kb", 12, True),
    ("llc_kb", 40, True),
    ("llc_lat", 45, True),
    ("mem_ns", 120.0, True),
    ("l2_kb", 32, False),
])
def test_memoized_replay_stream_equals_full_paths(recorded, monkeypatch,
                                                  param, value, reuses):
    workload, run, store = recorded
    base = MachineConfig()
    variant = SWEEP_PARAMS[param][1](base, value)
    memos = {scheme: {} for scheme in run.profiles}
    for scheme in run.profiles:
        replay_stream(store.schemes[scheme], scheme, base,
                      memo=memos[scheme])

    calls = []
    original = profiler.filter_private

    def counting(core, data):
        calls.append(1)
        return original(core, data)

    monkeypatch.setattr(profiler, "filter_private", counting)
    memoized = {
        scheme: replay_stream(store.schemes[scheme], scheme, variant,
                              memo=memos[scheme])
        for scheme in run.profiles
    }
    assert (not calls) == reuses
    assert all(len(memo) == (1 if reuses else 2) for memo in memos.values())
    monkeypatch.undo()

    plain = {
        scheme: replay_stream(store.schemes[scheme], scheme, variant)
        for scheme in run.profiles
    }
    fresh = profile_workload(
        workload, 1, variant, schemes=ALL_SCHEMES, interp="fast",
    )
    expected = _payload(workload, run, fresh.profiles)
    assert _payload(workload, run, memoized) == expected
    assert _payload(workload, run, plain) == expected
    for scheme in run.profiles:
        assert (memoized[scheme].mru_shortcircuits
                == plain[scheme].mru_shortcircuits
                == fresh.profiles[scheme].mru_shortcircuits)


def test_memo_refuses_another_recording(recorded):
    _, _, store = recorded
    cae, dae = (store.schemes[s] for s in ("cae", "dae"))
    memo = {}
    replay_stream(cae, "cae", MachineConfig(), memo=memo)
    with pytest.raises(ValueError, match="different recording"):
        replay_stream(dae, "dae", MachineConfig(), memo=memo)
