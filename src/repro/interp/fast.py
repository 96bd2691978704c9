"""Fast IR interpreter: runs generated Python code for each IR function.

Drop-in replacement for :class:`~repro.interp.interpreter.Interpreter`.
Each function is decoded once (:mod:`~repro.interp.decode`) and turned
into a Python function once (:mod:`~repro.interp.compiled`); a run
calls that function.  Behaviour is bit-identical — same traces, same
memory side effects, same event stream in the same order, same error
messages — which ``tests/interp/test_fast_equivalence.py`` pins on
every bundled workload; only the constant factor changes:

* there is no dispatch loop: register slots are Python locals, and
  each operation is inline Python with only the coercions and UNDEF
  checks its operands need;
* dynamic counters (``instructions``, ``by_opcode``) are charged once
  per basic block, and ``by_opcode`` is folded from per-block hit
  counters when a function returns;
* memory events are *recorded*: the generated code appends
  ``(kind_code, address, size)`` to one flat list (kind codes as in
  :data:`~repro.interp.trace.KIND_NAMES`) — no callback and no
  :class:`MemoryEvent` per event — and loads/stores touch
  :class:`SimMemory`'s cell dict directly.  The profiler replays that
  list through the cache model afterwards
  (:func:`repro.sim.replay.replay_phase`).

The reference interpreter stays available (``--interp=reference``, or
``TaskStreamProfiler(..., interp="reference")``) as the executable
specification the fast core is tested against.

One deliberate deviation: the step limit is enforced at basic-block
granularity, so a runaway run may raise :class:`InterpError` a few
instructions earlier than the reference would.  Both abort with the
same error; successful runs are unaffected.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from ..ir import Function, GlobalVariable
from .compiled import NO_RET, compiled_function
from .decode import decode_function
from .interpreter import ExecutionTrace, InterpError, MemoryEvent
from .memory import MemoryError_, SimMemory
from .trace import KIND_NAMES

_UNBOUNDED = (float("-inf"), float("inf"))

#: Accepted interpreter implementation names.  ``"replay"`` is the
#: fast interpreter plus cross-scheme trace reuse: when a profiling
#: matrix spans several schemes, each execute phase is interpreted once
#: and *replayed* through the cache model for the other schemes (see
#: :mod:`repro.interp.trace`); outside a multi-scheme matrix it behaves
#: exactly like ``"fast"``.
INTERP_CHOICES = ("replay", "fast", "reference")


def resolve_interp(choice: Optional[str] = None) -> str:
    """Normalize an interpreter choice.

    ``None`` falls back to ``$REPRO_INTERP``, then to ``"replay"``
    (byte-identical to ``"fast"`` and to the reference — the profiler
    falls back to full interpretation wherever the replay invariant
    does not hold — so the fastest mode is the default everywhere).
    """
    choice = choice or os.environ.get("REPRO_INTERP") or "replay"
    if choice not in INTERP_CHOICES:
        raise ValueError(
            "unknown interpreter %r; expected one of %s"
            % (choice, ", ".join(repr(c) for c in INTERP_CHOICES))
        )
    return choice


class FastInterpreter:
    """Executes IR functions through their generated Python code.

    Constructor-compatible with the reference
    :class:`~repro.interp.interpreter.Interpreter`.  ``events`` is the
    flat list every run appends its ``(kind_code, address, size)``
    triples to; without one, each run records into a scratch list.
    ``sink`` (called as ``sink(kind, address, size)``) and the legacy
    ``observer`` (called with a :class:`MemoryEvent`) are adapters fed
    from the recorded list after each run, in program order.
    """

    def __init__(self, memory: SimMemory,
                 observer: Optional[Callable[[MemoryEvent], None]] = None,
                 max_steps: int = 200_000_000,
                 branch_observer: Optional[Callable] = None,
                 sink: Optional[Callable[[str, int, int], None]] = None,
                 events: Optional[list] = None):
        self.memory = memory
        self.max_steps = max_steps
        self.branch_observer = branch_observer
        self.globals: dict[str, int] = {}
        if sink is None and observer is not None:
            def sink(kind, address, size, _observer=observer):
                _observer(MemoryEvent(kind, address, size))
        self.sink = sink
        self.events = events

    def bind_global(self, gv: GlobalVariable, address: int) -> None:
        self.globals[gv.name] = address

    def run(self, func: Function, args: list,
            trace: Optional[ExecutionTrace] = None) -> ExecutionTrace:
        trace = trace if trace is not None else ExecutionTrace()
        if len(args) != len(func.args):
            raise InterpError(
                "%s expects %d args, got %d"
                % (func.name, len(func.args), len(args))
            )
        generated = compiled_function(decode_function(func))
        memory = self.memory
        events = self.events if self.events is not None else []
        start = len(events)
        ctx = (memory._cells, events, self._region_lookup(), memory.alloc,
               self.globals, trace, self.max_steps, self.branch_observer)
        try:
            result = generated(ctx, trace.instructions, 0, *args)
        finally:
            trace.mem_events += (len(events) - start) // 3
            if self.sink is not None:
                self._deliver(events, start)
        if result is not NO_RET:
            trace.return_value = result
        return trace

    def _region_lookup(self):
        """``region(address, message)`` for the generated bounds check:
        the allocated ``[lo, hi)`` span holding ``address``, or
        :class:`MemoryError_` with ``message % address``."""
        memory = self.memory
        if not memory.check_bounds:
            return lambda address, message: _UNBOUNDED
        span_of = memory.span_of

        def region(address, message):
            span = span_of(address)
            if span is None:
                raise MemoryError_(message % address)
            return span

        return region

    def _deliver(self, events: list, start: int) -> None:
        sink = self.sink
        it = iter(events[start:])
        for code, address, size in zip(it, it, it):
            sink(KIND_NAMES[code], address, size)
