"""Code generation: decoded IR functions to Python functions.

The fast interpreter does not dispatch over the decoded records at run
time.  Each :class:`~repro.interp.decode.DecodedFunction` is turned
into Python source once, run through ``compile()``/``exec`` and cached
on the decoded function (``decoded.compiled``), so
:func:`~repro.interp.decode.invalidate_decode` drops it with the
decode.  The generated code keeps every observable of the reference
interpreter — return value, memory side effects, the memory-event
stream and its order, dynamic counters, error messages:

* every register slot is a Python local (``r<slot>``); constants are
  bound once per call;
* blocks become a ``while``/``if b == k`` state machine in block
  order; a forward jump falls through to its target's test instead of
  restarting the chain;
* phi edges become tuple assignments (a parallel move);
* binops, compares and GEPs are inlined with the ``int()``/``float()``
  coercions and UNDEF checks of :mod:`~repro.interp.decode`; ``sdiv``,
  ``srem`` and ``fdiv`` call the shared functions, and casts the
  ``CAST_FNS`` entries (so ``fptosi`` saturates as before);
* loads and stores append ``(kind_code, address, size)`` to the flat
  event list, then ``cells.get`` or store after a bounds check that
  memoizes the allocated span it last matched
  (:meth:`~repro.interp.memory.SimMemory.span_of`) for the rest of the
  call;
* each block adds its instruction count to ``n`` and checks the
  per-invocation step limit; ``by_opcode`` is folded from per-block
  hit counters when the function returns;
* calls go straight to the callee's generated function.

Two variants are generated per function.  The *typed* one assumes
every integer or pointer argument and every global is a Python
``int`` and every float argument a ``float``.  Under that assumption a
static pass proves most values can never be UNDEF and knows which are
already ``int``/``float``, so their checks and coercions are left out.
Its entry guard falls back to the *generic* variant, which assumes
nothing and is generated on the first call that needs it.

Generated code objects are named ``<repro-ir:FUNC>`` and their source
is registered with :mod:`linecache`, so a traceback through generated
code shows the generated line.  Functions of the same name share one
listing, the one generated last.
"""

from __future__ import annotations

import linecache
import re

from ..ir import Function
from .decode import (
    _CACHE_ATTR,
    BINOP_FNS,
    CMP_FNS,
    OP_ALLOCA,
    OP_BINOP,
    OP_CALL,
    OP_CAST,
    OP_CMP,
    OP_CONDBR,
    OP_GEP,
    OP_JUMP,
    OP_LOAD,
    OP_PREFETCH,
    OP_RET,
    OP_SELECT,
    OP_STORE,
    DecodedFunction,
    decode_function,
)
from .interpreter import UNDEF, InterpError, fptosi

#: Returned by a generated function whose ``ret`` has no value, so the
#: caller can tell "returned void" from "returned None".
NO_RET = object()

STEP_LIMIT_MESSAGE = "interpreter step limit exceeded"
LOAD_BOUNDS_MESSAGE = "load from unallocated address 0x%x"
STORE_BOUNDS_MESSAGE = "store to unallocated address 0x%x"

_FN_NAME = {fn: name for name, fn in BINOP_FNS.items()}
#: Binops inlined as one Python operator on coerced operands.
_INT_BINOPS = {
    "add": "+", "sub": "-", "mul": "*",
    "and": "&", "or": "|", "xor": "^", "shl": "<<", "ashr": ">>",
}
_FLOAT_BINOPS = {"fadd": "+", "fsub": "-", "fmul": "*"}
_CMP_SYMBOL = {
    CMP_FNS["eq"]: "==", CMP_FNS["ne"]: "!=", CMP_FNS["slt"]: "<",
    CMP_FNS["sle"]: "<=", CMP_FNS["sgt"]: ">", CMP_FNS["sge"]: ">=",
}
#: Python kind of what a semantic function returns; any function not
#: listed (a substituted one, say) is called as is, kind unknown.
_RESULT_KIND = {
    BINOP_FNS["sdiv"]: "i", BINOP_FNS["srem"]: "i", BINOP_FNS["fdiv"]: "f",
    int: "i", float: "f", fptosi: "i",
}
_RESULT_KIND.update((BINOP_FNS[name], "i") for name in _INT_BINOPS)
_RESULT_KIND.update((BINOP_FNS[name], "f") for name in _FLOAT_BINOPS)
_RESULT_KIND.update((fn, "i") for fn in _CMP_SYMBOL)


def compiled_function(decoded: DecodedFunction):
    """The generated function for ``decoded`` (built once, cached)."""
    fn = decoded.compiled
    if fn is None:
        fn = decoded.compiled = _build(decoded)
    return fn


def _callee(func: Function):
    """Resolve a call target without touching the decode statistics
    (a cold callee decodes, and counts, once)."""
    decoded = func.__dict__.get(_CACHE_ATTR)
    if decoded is None:
        decoded = decode_function(func)
    return compiled_function(decoded)


# -- static facts ----------------------------------------------------------------


def _meet(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    return "?"


def _analyze(decoded: DecodedFunction, typed: bool):
    """Per slot: its Python kind (``"i"``/``"f"``/``"?"``) and whether
    it may hold UNDEF, by an optimistic fixpoint over the phi edges."""
    kind: dict = {}
    undef: dict = {}
    for slot, value in enumerate(decoded.template):
        if value is UNDEF:
            kind[slot], undef[slot] = "?", True
        elif value is not None:
            kind[slot] = ("i" if type(value) is int
                          else "f" if type(value) is float else "?")
            undef[slot] = False
    for slot, arg_kind in zip(decoded.arg_slots, decoded.arg_kinds):
        guarded = typed and arg_kind != "?"
        kind[slot] = arg_kind if guarded else "?"
        undef[slot] = not guarded
    for _, slot in decoded.global_slots:
        kind[slot] = "i" if typed else "?"
        undef[slot] = not typed

    fixed = set(kind)
    edges = []
    results = []
    for block in decoded.blocks:
        for op in block.ops:
            code = op[0]
            if code == OP_JUMP:
                edges.append(op[1])
            elif code == OP_CONDBR:
                edges.extend((op[2], op[3]))
            elif code in (OP_BINOP, OP_GEP, OP_LOAD, OP_CMP, OP_CAST,
                          OP_SELECT, OP_ALLOCA) or (
                              code == OP_CALL and op[1] >= 0):
                results.append(op)
    edges = [edge for edge in edges if edge[0] >= 0 and edge[1]]

    def u(slot):
        return undef.get(slot, False)

    def set_fact(slot, new_kind, new_undef) -> bool:
        if slot in fixed:
            return False
        merged = _meet(kind.get(slot), new_kind)
        merged_undef = undef.get(slot, False) or new_undef
        if merged == kind.get(slot) and merged_undef == undef.get(slot):
            return False
        kind[slot], undef[slot] = merged, merged_undef
        return True

    changed = True
    while changed:
        changed = False
        for op in results:
            code = op[0]
            if code in (OP_BINOP, OP_CMP):
                fact = (_RESULT_KIND.get(op[4], "?"), u(op[2]) or u(op[3]))
            elif code == OP_GEP:
                fact = ("i", u(op[2]) or u(op[3]))
            elif code == OP_LOAD:
                fact = ("f" if op[4] else "i", u(op[2]))
            elif code == OP_CAST:
                fact = (_RESULT_KIND.get(op[3], "?"), u(op[2]))
            elif code == OP_SELECT:
                fact = (_meet(kind.get(op[3]), kind.get(op[4])),
                        u(op[2]) or u(op[3]) or u(op[4]))
            elif code == OP_ALLOCA:
                fact = ("i", False)
            else:  # OP_CALL: the callee may return anything
                fact = ("?", True)
            changed |= set_fact(op[1], *fact)
        for _, srcs, dests in edges:
            for src, dest in zip(srcs, dests):
                changed |= set_fact(dest, kind.get(src), u(src))
    # A slot no reachable definition writes holds its initial None.
    for slot in range(len(decoded.template)):
        if kind.get(slot) is None:
            kind[slot] = "?"
            undef.setdefault(slot, False)
    return kind, undef


# -- source generation -----------------------------------------------------------


class _Emitter:
    """Generates one variant (typed or generic) of one function."""

    def __init__(self, decoded: DecodedFunction, typed: bool, names: dict):
        self.decoded = decoded
        self.typed = typed
        self.names = names          # shared exec namespace
        self.kind, self.undef = _analyze(decoded, typed)
        self.lines: list = []

    # operand helpers ---------------------------------------------------------

    def as_int(self, slot) -> str:
        return "r%d" % slot if self.kind[slot] == "i" else "int(r%d)" % slot

    def as_float(self, slot) -> str:
        return "r%d" % slot if self.kind[slot] == "f" else "float(r%d)" % slot

    def undef_test(self, *slots) -> str:
        """``"rA is UNDEF or ..."`` over the slots that may be UNDEF."""
        tests = []
        for slot in slots:
            test = "r%d is UNDEF" % slot
            if self.undef[slot] and test not in tests:
                tests.append(test)
        return " or ".join(tests)

    def const(self, value, prefix: str) -> str:
        """Bind ``value`` into the exec namespace; return its name."""
        for name, bound in self.names.items():
            if bound is value and name.startswith(prefix):
                return name
        name = "%s%d" % (prefix, len(self.names))
        self.names[name] = value
        return name

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # the function --------------------------------------------------------------

    def function(self, fn_name: str, generic_name: str) -> list:
        decoded = self.decoded
        params = ["ctx", "n", "base"] + [
            "r%d" % slot for slot in decoded.arg_slots
        ]
        self.emit(0, "def %s(%s):" % (fn_name, ", ".join(params)))
        if not decoded.blocks:
            self.emit(1, "raise ValueError(%r)"
                      % ("function %s has no blocks" % decoded.name))
            return self.lines
        guards = []
        if self.typed:
            for slot, arg_kind in zip(decoded.arg_slots, decoded.arg_kinds):
                if arg_kind != "?":
                    guards.append("type(r%d) is not %s" % (
                        slot, "int" if arg_kind == "i" else "float"))
            if guards:
                self.emit(1, "if %s:" % " or ".join(guards))
                self.emit(2, "return %s(%s)" % (generic_name,
                                                ", ".join(params)))
        self.emit(1, "cells, events, region, alloc, bound, trace, "
                     "max_steps, bobs = ctx")
        self.emit(1, "lim = base + max_steps")
        constants = [
            (slot, value) for slot, value in enumerate(decoded.template)
            if value is not None
        ]
        if constants:
            self.emit(1, "%s, = %s" % (
                ", ".join("r%d" % slot for slot, _ in constants),
                self.const(tuple(value for _, value in constants), "K"),
            ))
        if decoded.global_slots:
            self.emit(1, "try:")
            for name, slot in decoded.global_slots:
                self.emit(2, "r%d = bound[%r]" % (slot, name))
            self.emit(1, "except KeyError as exc:")
            self.emit(2, "raise InterpError("
                         "'unbound global @%s' % exc.args[0]) from None")
            if self.typed:
                self.emit(1, "if %s:" % " or ".join(
                    "type(r%d) is not int" % slot
                    for _, slot in decoded.global_slots))
                self.emit(2, "return %s(%s)" % (generic_name,
                                                ", ".join(params)))
        fixed = set(decoded.arg_slots) | {
            slot for _, slot in decoded.global_slots
        } | {slot for slot, _ in constants}
        others = [slot for slot in range(len(decoded.template))
                  if slot not in fixed]
        if others:
            self.emit(1, "%s = None" % " = ".join(
                "r%d" % slot for slot in others))
        counted = [index for index, block in enumerate(decoded.blocks)
                   if block.count]
        if counted:
            self.emit(1, "%s = 0" % " = ".join("h%d" % i for i in counted))
        self.emit(1, "lo = hi = dp = 0")
        self.emit(1, "rv = NO_RET")
        self.emit(1, "b = 0")
        self.emit(1, "while True:")
        for index in range(len(decoded.blocks)):
            self.emit(2, "if b == %d:" % index)
            self.block(index, 3)
        self.epilogue()
        return self.lines

    def epilogue(self) -> None:
        self.emit(1, "trace.instructions = n")
        self.emit(1, "if dp:")
        self.emit(2, "trace.dropped_prefetches += dp")
        per_opcode: dict = {}
        for index, block in enumerate(self.decoded.blocks):
            if block.count:
                for name, delta in block.pairs:
                    per_opcode.setdefault(name, []).append(
                        "h%d" % index if delta == 1
                        else "%d * h%d" % (delta, index))
        if per_opcode:
            self.emit(1, "bo = trace.by_opcode")
            for name, terms in per_opcode.items():
                self.emit(1, "c = %s" % " + ".join(terms))
                self.emit(1, "if c:")
                self.emit(2, "bo[%r] = bo.get(%r, 0) + c" % (name, name))
        self.emit(1, "return rv")

    def block(self, index: int, indent: int) -> None:
        block = self.decoded.blocks[index]
        self.emit(indent, "# %s" % block.name)
        if block.count:
            self.emit(indent, "n += %d" % block.count)
            self.emit(indent, "h%d += 1" % index)
            self.emit(indent, "if n > lim:")
            self.emit(indent + 1, "raise InterpError(%r)" % STEP_LIMIT_MESSAGE)
        for op in block.ops:
            self.op(op, index, indent)

    def edge(self, edge: tuple, index: int, indent: int) -> None:
        target = edge[0]
        if target < 0:
            self.emit(indent, "raise InterpError(%r)" % edge[1])
            return
        moves = [(dest, src) for src, dest in zip(edge[1], edge[2])
                 if src != dest]
        if moves:
            self.emit(indent, "%s = %s" % (
                ", ".join("r%d" % dest for dest, _ in moves),
                ", ".join("r%d" % src for _, src in moves),
            ))
        self.emit(indent, "b = %d" % target)
        if target <= index:
            # A forward jump falls through to its target's test.
            self.emit(indent, "continue")

    def op(self, op: tuple, index: int, indent: int) -> None:
        code = op[0]
        emit = self.emit
        if code == OP_BINOP:
            dest, lhs, rhs, fn = op[1:]
            name = _FN_NAME.get(fn)
            if name in _INT_BINOPS:
                expr = "%s %s %s" % (self.as_int(lhs), _INT_BINOPS[name],
                                     self.as_int(rhs))
            elif name in _FLOAT_BINOPS:
                expr = "%s %s %s" % (self.as_float(lhs),
                                     _FLOAT_BINOPS[name], self.as_float(rhs))
            else:
                expr = "%s(r%d, r%d)" % (self.const(fn, "OP_"), lhs, rhs)
            self.assign(indent, dest, expr, lhs, rhs)
        elif code == OP_GEP:
            dest, base, index, size = op[1:]
            scaled = self.as_int(index) + ("" if size == 1 else " * %d" % size)
            self.assign(indent, dest, "%s + %s" % (self.as_int(base), scaled),
                        base, index)
        elif code == OP_CMP:
            dest, lhs, rhs, fn = op[1:]
            if fn in _CMP_SYMBOL:
                expr = "1 if r%d %s r%d else 0" % (lhs, _CMP_SYMBOL[fn], rhs)
            else:
                expr = "%s(r%d, r%d)" % (self.const(fn, "OP_"), lhs, rhs)
            self.assign(indent, dest, expr, lhs, rhs)
        elif code == OP_LOAD:
            dest, ptr, size, is_float = op[1:]
            test = self.undef_test(ptr)
            if test:
                emit(indent, "if %s:" % test)
                emit(indent + 1, "r%d = UNDEF" % dest)
                emit(indent, "else:")
                indent += 1
            address = self.address(ptr, indent)
            emit(indent, "events += (0, %s, %d)" % (address, size))
            self.bounds_check(address, "LOADMSG", indent)
            emit(indent, "v = cells.get(%s)" % address)
            emit(indent, "r%d = %s if v is None else %s(v)"
                 % (dest, "0.0" if is_float else "0",
                    "float" if is_float else "int"))
        elif code == OP_STORE:
            value, ptr, size, is_float = op[1:]
            test = self.undef_test(ptr)
            if test:
                emit(indent, "if r%d is not UNDEF:" % ptr)
                indent += 1
            address = self.address(ptr, indent)
            emit(indent, "events += (1, %s, %d)" % (address, size))
            if self.undef[value]:
                emit(indent, "if r%d is not UNDEF:" % value)
                indent += 1
            self.bounds_check(address, "STOREMSG", indent)
            emit(indent, "cells[%s] = %s" % (
                address,
                self.as_float(value) if is_float else self.as_int(value)))
        elif code == OP_PREFETCH:
            ptr, size = op[1:]
            if self.undef[ptr]:
                emit(indent, "if r%d is UNDEF:" % ptr)
                emit(indent + 1, "dp += 1")
                emit(indent, "else:")
                indent += 1
            emit(indent, "events += (2, %s, %d)" % (self.as_int(ptr), size))
        elif code == OP_CAST:
            dest, value, fn = op[1:]
            if fn is int:
                expr = self.as_int(value)
            elif fn is float:
                expr = self.as_float(value)
            else:
                expr = "%s(r%d)" % (self.const(fn, "CAST_"), value)
            self.assign(indent, dest, expr, value)
        elif code == OP_SELECT:
            dest, cond, if_true, if_false = op[1:]
            self.assign(indent, dest, "r%d if r%d else r%d"
                        % (if_true, cond, if_false), cond)
        elif code == OP_CALL:
            dest, callee, arg_slots = op[1:]
            if len(arg_slots) != len(callee.args):
                emit(indent, "raise InterpError(%r)" % (
                    "%s expects %d args, got %d"
                    % (callee.name, len(callee.args), len(arg_slots))))
                return
            call = "resolve(%s)(%s)" % (
                self.const(callee, "F"),
                ", ".join(["ctx", "n", "n"]
                          + ["r%d" % slot for slot in arg_slots]),
            )
            if dest < 0:
                emit(indent, call)
            else:
                emit(indent, "r%d = %s" % (dest, call))
            emit(indent, "n = trace.instructions")
            if dest >= 0:
                emit(indent, "if r%d is NO_RET:" % dest)
                emit(indent + 1, "r%d = None" % dest)
        elif code == OP_ALLOCA:
            dest, size, name = op[1:]
            emit(indent, "r%d = alloc(%d, %r)" % (dest, size, name))
        elif code == OP_JUMP:
            self.edge(op[1], index, indent)
        elif code == OP_CONDBR:
            cond, if_true, if_false, inst = op[1:]
            if self.undef[cond]:
                emit(indent, "if r%d is UNDEF:" % cond)
                emit(indent + 1, "raise InterpError(%r)"
                     % ("branch on undef in %s" % self.decoded.name))
            observed = self.const(inst, "I")
            for arm, edge, taken in (("if r%d:" % cond, if_true, True),
                                     ("else:", if_false, False)):
                emit(indent, arm)
                emit(indent + 1, "if bobs is not None:")
                emit(indent + 2, "bobs(%s, %s)" % (observed, taken))
                self.edge(edge, index, indent + 1)
        elif code == OP_RET:
            slot = op[1]
            emit(indent, "rv = %s" % ("NO_RET" if slot < 0 else "r%d" % slot))
            emit(indent, "break")
        else:  # OP_RAISE
            emit(indent, "raise InterpError(%r)" % op[1])

    def assign(self, indent: int, dest: int, expr: str, *operands) -> None:
        test = self.undef_test(*operands)
        if test:
            expr = "UNDEF if %s else %s" % (test, expr)
        self.emit(indent, "r%d = %s" % (dest, expr))

    def address(self, ptr: int, indent: int) -> str:
        if self.kind[ptr] == "i":
            return "r%d" % ptr
        self.emit(indent, "a = int(r%d)" % ptr)
        return "a"

    def bounds_check(self, address: str, message: str, indent: int) -> None:
        self.emit(indent, "if not lo <= %s < hi:" % address)
        self.emit(indent + 1, "lo, hi = region(%s, %s)" % (address, message))


def _build(decoded: DecodedFunction):
    """Generate and compile the typed variant now, the generic one on
    the first call that breaks the typed variant's entry guard."""
    names = {
        "UNDEF": UNDEF, "InterpError": InterpError, "NO_RET": NO_RET,
        "LOADMSG": LOAD_BOUNDS_MESSAGE, "STOREMSG": STORE_BOUNDS_MESSAGE,
        "resolve": _callee,
    }
    filename = "<repro-ir:%s>" % decoded.name
    typed = "ir_" + re.sub(r"\W", "_", decoded.name)
    generic = typed + "__generic"
    lines = ["# generated from IR function @%s" % decoded.name]
    lines += _Emitter(decoded, True, names).function(typed, generic)
    _define(names, filename, lines, 0)

    def generic_on_first_use(*args):
        first = len(lines)
        lines.extend(_Emitter(decoded, False, names).function(generic, ""))
        _define(names, filename, lines, first)
        return names[generic](*args)

    names[generic] = generic_on_first_use
    return names[typed]


def _define(names: dict, filename: str, lines: list, first: int) -> None:
    """Compile ``lines[first:]`` into ``names``, numbered as lines of
    ``filename``, and show :mod:`linecache` all of ``lines``."""
    body = "\n" * first + "\n".join(lines[first:]) + "\n"
    exec(compile(body, filename, "exec"), names)
    source = [line + "\n" for line in lines]
    linecache.cache[filename] = (
        sum(map(len, source)), None, source, filename,
    )


__all__ = ["NO_RET", "compiled_function"]
