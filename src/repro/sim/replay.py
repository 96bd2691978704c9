"""Replay recorded event traces through the cache hierarchy.

:func:`replay_phase` pushes a flat ``(kind, address, size)`` event
list — a phase the interpreter just recorded, or a packed trace
(:mod:`repro.interp.trace`) recorded earlier — through one core's
caches.  It is the only way events reach the cache model while
profiling.  It is a hand-inlined transcription of
:meth:`~repro.sim.cache.CoreCaches.access` with every piece of hot
state bound to a local — set lists, geometry, the MRU filter, the
stream-miss window and the per-kind count dicts — and the packed array
iterated three words at a time via ``zip`` of one shared iterator, so
the per-event cost is a handful of dict operations and integer
compares.

Bit-exactness contract: the sequence of set-dict operations (probes,
``move_to_end``, evictions, fills), the MRU filter decisions, the
stream/random miss classification and every per-level count are
identical to feeding each event through ``core.access`` one at a time.
``tests/sim/test_cache_geometry.py`` pins this on randomized streams,
and the profile-level differential suite pins the end-to-end
consequence (byte-identical serialized profiles).
"""

from __future__ import annotations

from .cache import AccessCounts, CoreCaches


def replay_phase(core: CoreCaches, data, counts: AccessCounts) -> int:
    """Replay an event list on ``core``, tallying into ``counts``.

    ``data`` is a flat sequence of (kind, address, size) triples: the
    interpreter's event list, or the ``array('q')`` of a
    :class:`~repro.interp.trace.PhaseTrace`.  Returns
    the number of events replayed.  All cache state (including the
    shared LLC) is mutated exactly as feeding each event to
    ``core.access`` would.
    """
    line_bytes = core.line_bytes
    shift = core._line_shift
    l1_sets = core._l1_sets
    l1_nsets = core._l1_nsets
    l1_ways = core._l1_ways
    l2_sets = core._l2_sets
    l2_nsets = core._l2_nsets
    l2_ways = core._l2_ways
    llc_sets = core._llc_sets
    llc_nsets = core._llc_nsets
    llc_ways = core._llc_ways
    recent = core._recent_misses
    window = core.STREAM_WINDOW
    mru_line = core._mru_line
    mru_hits = 0
    loads = counts.loads
    stores = counts.stores
    prefetches = counts.prefetches

    it = iter(data)
    for kind, address, _size in zip(it, it, it):
        line = address >> shift if shift >= 0 else address // line_bytes
        if line == mru_line:
            mru_hits += 1
            level = "l1"
        else:
            mru_line = line
            set1 = l1_sets[line % l1_nsets]
            if line in set1:
                set1.move_to_end(line)
                level = "l1"
            else:
                set2 = l2_sets[line % l2_nsets]
                if line in set2:
                    set2.move_to_end(line)
                    level = "l2"
                else:
                    set3 = llc_sets[line % llc_nsets]
                    if line in set3:
                        set3.move_to_end(line)
                        level = "llc"
                    else:
                        level = "mem_stream" if (
                            (line - 1) in recent or (line + 1) in recent
                        ) else "mem"
                        recent.append(line)
                        if len(recent) > window:
                            del recent[0]
                        if len(set3) >= llc_ways:
                            set3.popitem(last=False)
                        set3[line] = None
                    if len(set2) >= l2_ways:
                        set2.popitem(last=False)
                    set2[line] = None
                if len(set1) >= l1_ways:
                    set1.popitem(last=False)
                set1[line] = None
        if kind == 0:
            loads[level] += 1
        elif kind == 1:
            stores[level] += 1
        else:
            prefetches[level] += 1

    core._mru_line = mru_line
    core.mru_hits += mru_hits
    return len(data) // 3


__all__ = ["replay_phase"]
