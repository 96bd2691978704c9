"""Replay recorded event traces through the cache hierarchy, in two stages.

A flat ``(kind, address, size)`` event list — a phase the interpreter
just recorded, or a packed trace (:mod:`repro.interp.trace`) recorded
earlier — reaches the cache model only through this module: while
profiling via :func:`replay_phase`, and when a whole recording is
re-simulated on a machine via the one trace-replay driver,
:func:`~repro.runtime.profiler.replay_stream`.  Both are split at the
private/shared boundary:

* :func:`filter_private` (stage 1) runs the MRU same-line filter, the
  L1 and the L2 of one core, and returns a :class:`PrivateFiltered`:
  the per-kind L1/L2 tallies, the MRU-hit count and the L2 misses as a
  packed ``array('q')`` of ``(kind, line)`` pairs.
* :func:`replay_shared` (stage 2) runs that miss substream through the
  shared LLC and the core's stream-miss window, and adds every level's
  tally to an :class:`~repro.sim.cache.AccessCounts`.

:func:`replay_phase` is the two stages in sequence.  The split is exact
because the LLC is not inclusive and neither it nor the stream detector
ever touches L1/L2 state: the L1/L2 outcome of every event, and so the
miss substream, depends only on the private geometry and the core's
earlier events — never on the LLC.  A caller replaying one recording
under several LLC configurations can therefore run stage 1 once and
stage 2 per configuration
(:func:`~repro.runtime.profiler.replay_stream`'s ``memo``).  A
migration flush (:meth:`~repro.sim.cache.CoreCaches.flush_private`)
clears state on both sides of the split — L1/L2 and the MRU line in
stage 1, the stream-miss window in stage 2 — so a driver that applies
it in stage 1 must clear the window again at the same phase in
stage 2.

Both stages bind every piece of hot state to a local — set lists,
geometry, the MRU line, the stream-miss window — and iterate the flat
sequence several words at a time via ``zip`` of one shared iterator.
Stage 1 tallies nothing on its dominant paths (MRU and L1 hits): the
per-kind L1 tallies are the per-kind event totals (counted over
``data[0::3]`` at C speed) minus the L2 hits and misses.

Bit-exactness contract: the sequence of set-dict operations (probes,
``move_to_end``, evictions, fills) per cache, the MRU filter decisions,
the stream/random miss classification and every per-level count are
identical to feeding each event through
:meth:`~repro.sim.cache.CoreCaches.access` one at a time.
``tests/sim/test_cache_geometry.py`` and
``tests/sim/test_two_stage_replay.py`` pin this on randomized streams,
and the profile-level differential suites pin the end-to-end
consequence (byte-identical serialized profiles).
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from .cache import AccessCounts, CoreCaches


class PrivateFiltered(NamedTuple):
    """Stage 1's result for one event sequence on one core.

    ``l1``/``l2`` are per-kind tallies indexed by kind code (load,
    store, prefetch), MRU hits included in ``l1``; ``misses`` holds the
    L2 misses as flat ``(kind, line)`` pairs in event order — an
    ``array('q')``, or the plain list when a line does not fit a signed
    64-bit word (unpacked interpreter output can carry such addresses).
    """

    l1: tuple
    l2: tuple
    mru_hits: int
    misses: object


def filter_private(core: CoreCaches, data) -> PrivateFiltered:
    """Stage 1: run ``data`` through ``core``'s MRU filter, L1 and L2.

    ``data`` is a flat sequence of (kind, address, size) triples.
    Mutates the core's private state (L1/L2 sets, MRU line,
    ``mru_hits``) exactly as per-event ``core.access`` would; the LLC
    and the stream-miss window are left to :func:`replay_shared`.
    """
    line_bytes = core.line_bytes
    shift = core._line_shift
    l1_sets = core._l1_sets
    l1_nsets = core._l1_nsets
    l1_ways = core._l1_ways
    l2_sets = core._l2_sets
    l2_nsets = core._l2_nsets
    l2_ways = core._l2_ways
    mru_line = core._mru_line
    l1_probe_hits = 0
    l2 = [0, 0, 0]
    misses: list = []

    it = iter(data)
    for kind, address, _size in zip(it, it, it):
        line = address >> shift if shift >= 0 else address // line_bytes
        if line == mru_line:
            continue
        mru_line = line
        set1 = l1_sets[line % l1_nsets]
        if line in set1:
            set1.move_to_end(line)
            l1_probe_hits += 1
            continue
        set2 = l2_sets[line % l2_nsets]
        if line in set2:
            set2.move_to_end(line)
            l2[kind] += 1
        else:
            misses += (kind, line)
            if len(set2) >= l2_ways:
                set2.popitem(last=False)
            set2[line] = None
        if len(set1) >= l1_ways:
            set1.popitem(last=False)
        set1[line] = None

    kinds = data[0::3]
    miss_kinds = misses[0::2]
    l1 = tuple(
        kinds.count(kind) - l2[kind] - miss_kinds.count(kind)
        for kind in (0, 1, 2)
    )
    mru_hits = len(kinds) - l1_probe_hits - sum(l2) - len(miss_kinds)
    core._mru_line = mru_line
    core.mru_hits += mru_hits
    try:
        misses = array("q", misses)
    except OverflowError:
        pass
    return PrivateFiltered(l1, tuple(l2), mru_hits, misses)


def replay_shared(core: CoreCaches, filtered: PrivateFiltered,
                  counts: AccessCounts) -> None:
    """Stage 2: run ``filtered.misses`` through the shared LLC.

    Probes and fills ``core.llc`` and classifies each LLC miss against
    ``core``'s stream-miss window, then adds the stage-1 L1/L2 tallies
    and this stage's LLC/DRAM tallies to ``counts``.
    """
    llc_sets = core._llc_sets
    llc_nsets = core._llc_nsets
    llc_ways = core._llc_ways
    recent = core._recent_misses
    window = core.STREAM_WINDOW
    llc = [0, 0, 0]
    mem = [0, 0, 0]
    mem_stream = [0, 0, 0]

    it = iter(filtered.misses)
    for kind, line in zip(it, it):
        set3 = llc_sets[line % llc_nsets]
        if line in set3:
            set3.move_to_end(line)
            llc[kind] += 1
            continue
        if (line - 1) in recent or (line + 1) in recent:
            mem_stream[kind] += 1
        else:
            mem[kind] += 1
        recent.append(line)
        if len(recent) > window:
            del recent[0]
        if len(set3) >= llc_ways:
            set3.popitem(last=False)
        set3[line] = None

    for kind, tally in enumerate((counts.loads, counts.stores,
                                  counts.prefetches)):
        tally["l1"] += filtered.l1[kind]
        tally["l2"] += filtered.l2[kind]
        tally["llc"] += llc[kind]
        tally["mem"] += mem[kind]
        tally["mem_stream"] += mem_stream[kind]


def replay_phase(core: CoreCaches, data, counts: AccessCounts) -> int:
    """Replay an event list on ``core``, tallying into ``counts``.

    ``data`` is a flat sequence of (kind, address, size) triples: the
    interpreter's event list, or the ``array('q')`` of a
    :class:`~repro.interp.trace.PhaseTrace`.  Returns the number of
    events replayed.  All cache state (including the shared LLC) is
    mutated exactly as feeding each event to ``core.access`` would.
    """
    replay_shared(core, filter_private(core, data), counts)
    return len(data) // 3


__all__ = [
    "PrivateFiltered", "filter_private", "replay_phase", "replay_shared",
]
