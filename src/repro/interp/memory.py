"""Flat simulated memory for the IR interpreter.

A bump allocator hands out byte addresses; values are stored per
(aligned) address.  Addresses are plain integers, so pointer arithmetic
in the IR (GEPs) works on real numbers the cache model can index.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional

from ..ir import Type


class MemoryError_(Exception):
    """Raised on out-of-bounds or unallocated access."""


class Allocation:
    """One named region of simulated memory."""

    __slots__ = ("name", "base", "size")

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:
        return "<Allocation %s [0x%x, 0x%x)>" % (self.name, self.base, self.end)


class SimMemory:
    """Sparse word-granular memory with allocation tracking."""

    def __init__(self, base: int = 0x10000, check_bounds: bool = True):
        self._next = base
        self._cells: dict[int, float | int] = {}
        self.allocations: list[Allocation] = []
        self.check_bounds = check_bounds
        self._last_region: Optional[Allocation] = None
        #: Back-to-back allocations merged into ``(lo, hi)`` spans,
        #: sorted, for :meth:`span_of`; rebuilt when allocations grow.
        self._spans: list[tuple[int, int]] = []
        self._span_starts: list[int] = []
        self._spans_for = 0

    # -- allocation ---------------------------------------------------------------

    def alloc(self, size_bytes: int, name: str = "region",
              align: int = 64) -> int:
        """Allocate ``size_bytes`` and return the base address."""
        base = (self._next + align - 1) // align * align
        self._next = base + size_bytes
        self.allocations.append(Allocation(name, base, size_bytes))
        return base

    def alloc_array(self, elem_size: int, count: int,
                    name: str = "array", init: Optional[Iterable] = None) -> int:
        base = self.alloc(elem_size * count, name)
        if init is not None:
            for i, value in enumerate(init):
                if i >= count:
                    break
                self._cells[base + i * elem_size] = value
        return base

    def region_of(self, address: int) -> Optional[Allocation]:
        # Accesses cluster heavily within one allocation, so checking
        # the last matched region first makes the bounds check O(1) on
        # the hot path.  Allocations never overlap (bump allocator), so
        # the memoized answer is the same one the scan would find.
        last = self._last_region
        if last is not None and last.base <= address < last.end:
            return last
        for alloc in self.allocations:
            if alloc.base <= address < alloc.end:
                self._last_region = alloc
                return alloc
        return None

    def span_of(self, address: int) -> Optional[tuple[int, int]]:
        """The ``[lo, hi)`` run of back-to-back allocations holding
        ``address``, or ``None`` when no allocation holds it.

        Every address in the span is allocated, so a bounds check may
        memoize the whole span; an alignment gap between allocations
        ends one span and is in none.
        """
        if self._spans_for != len(self.allocations):
            spans: list[list[int]] = []
            for alloc in sorted(self.allocations, key=lambda a: a.base):
                if alloc.size <= 0:
                    continue
                if spans and alloc.base <= spans[-1][1]:
                    spans[-1][1] = max(spans[-1][1], alloc.end)
                else:
                    spans.append([alloc.base, alloc.end])
            self._spans = [(lo, hi) for lo, hi in spans]
            self._span_starts = [lo for lo, _ in spans]
            self._spans_for = len(self.allocations)
        index = bisect_right(self._span_starts, address) - 1
        if index >= 0:
            span = self._spans[index]
            if address < span[1]:
                return span
        return None

    # -- access --------------------------------------------------------------------

    def load(self, address: int, ty: Type):
        if self.check_bounds and self.region_of(address) is None:
            raise MemoryError_("load from unallocated address 0x%x" % address)
        value = self._cells.get(address)
        if value is None:
            return 0.0 if ty.is_float() else 0
        if ty.is_float():
            return float(value)
        return int(value)

    def store(self, address: int, ty: Type, value) -> None:
        if self.check_bounds and self.region_of(address) is None:
            raise MemoryError_("store to unallocated address 0x%x" % address)
        self._cells[address] = float(value) if ty.is_float() else int(value)

    def read_array(self, base: int, elem_size: int, count: int, ty: Type):
        return [self.load(base + i * elem_size, ty) for i in range(count)]

    def __repr__(self) -> str:
        return "<SimMemory %d allocations, %d cells>" % (
            len(self.allocations), len(self._cells),
        )
