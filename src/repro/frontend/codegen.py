"""Closure codegen: lower parsed kernel bodies to slot-framed closures.

The reference backend (:mod:`repro.frontend.interpreter`) walks the AST
for every executed statement: each ``_eval`` is a generator frame, every
name goes through a dict-chain ``_Scope`` lookup, and control flow is
exception-driven. That cost is paid per simulated cycle, and after the
engine-side overhauls it dominates frontend workloads.

This module compiles each kernel body **once** into a tree of nested
Python closures:

* Names are resolved at compile time to integer **slots** in a flat
  frame list — no dict-chain lookup at run time. ``#define`` values are
  folded as constants (unless the kernel mutates them, which AOCL-style
  object macros cannot anyway but the reference scope semantics allow).
* Pure arithmetic, logic, comparisons, private-array accesses and
  non-blocking channel operations compile to direct (non-generator)
  callables; constant subtrees fold at compile time.
* Only ops that must reach the scheduler stay yield points: global and
  local memory accesses, blocking channel reads/writes, barriers, HDL
  calls, and autorun cycle boundaries. The op stream — including the
  static ``site`` labels that identify LSUs — is **identical** to the
  reference interpreter's, so timing, stats, and traces are too.
* Control flow threads small integer codes (break/continue/return) out
  of statement closures instead of raising exceptions.

Equivalence with the reference interpreter is pinned by
``tests/test_prop_frontend_codegen.py`` (values, timestamps, engine and
LSU statistics on randomized kernels) and by running the frontend corner
suite under both backends.

Known (intentional) divergence: *conditionally executed* declarations
(a declaration as a braceless ``if``/loop branch, or inside a switch
case) read on a later loop iteration where the declaring statement did
*not* re-execute. The reference backend's fresh-dict scopes raise
``undefined identifier`` there; the codegen backend's frame slot may
still hold the previous iteration's value. The first-ever read before
any execution of the declaration raises identically in both backends
(``_UNDEF`` hazard check). Code relying on this is UB-adjacent C; use
``frontend="reference"`` if you need the dict-scope semantics.

One compiled body is reusable across fabrics: per-fabric values (buffer
names, channel endpoints, HDL modules, ``__local`` scratchpads) flow in
through the frame at :meth:`CompiledBody.make` time, which is what lets
:mod:`repro.frontend.compiler` cache whole program images.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.channels.channel import Channel
from repro.channels.registry import ChannelArray
from repro.frontend import ast_nodes as ast
from repro.frontend.interpreter import (
    CHANNEL_BUILTINS,
    CONSTANTS,
    _Break,
    _Continue,
)
from repro.frontend.lexer import error_at
from repro.memory.local_memory import LocalMemory
from repro.pipeline import ops

# Control codes threaded out of statement closures. ``None`` means the
# statement completed normally.
_BRK, _CNT, _RET = 1, 2, 3

#: Placeholder for a frame slot whose declaration has not executed yet on
#: this path (only ever observable through hazard-checked slots).
_UNDEF = object()

#: Marks a :class:`_CExpr` with no compile-time-known value.
_NOCONST = object()

# Static value kinds per slot; only the four container kinds drive
# specialization, so mislabeling a scalar as K_INT is harmless.
K_UNKNOWN, K_INT, K_BUFFER, K_LOCAL, K_PRIVATE, K_CHANNEL, K_CHANARR = range(7)

#: The specialized subscript bases (sound only for pristine slots).
_CONTAINER_KINDS = (K_BUFFER, K_LOCAL, K_PRIVATE, K_CHANARR)


class _CExpr:
    """A compiled expression: ``fn(frame, ctx) -> value``.

    ``gen`` marks generator closures (the expression contains at least
    one yield point; drive with ``yield from``). ``const`` carries the
    folded value for compile-time constants (``_NOCONST`` otherwise).
    """

    __slots__ = ("fn", "gen", "const")

    def __init__(self, fn: Callable, gen: bool = False,
                 const: Any = _NOCONST) -> None:
        self.fn = fn
        self.gen = gen
        self.const = const


def _const(value: Any) -> _CExpr:
    return _CExpr(lambda f, c, _v=value: _v, False, value)


def _raise_expr(message: str, node: ast.Node) -> _CExpr:
    """An expression that fails at *run* time (preserving lazy errors)."""
    def fn(f, c):
        raise error_at(message, node)
    return _CExpr(fn)


#: (gen, fn) — a compiled statement; fn returns a control code or None.
_CStmt = Tuple[bool, Callable]

_NOOP: _CStmt = (False, lambda f, c: None)


class _SlotScope:
    """Compile-time lexical scope mapping names to frame slots."""

    __slots__ = ("parent", "slots")

    def __init__(self, parent: Optional["_SlotScope"] = None) -> None:
        self.parent = parent
        self.slots: Dict[str, int] = {}

    def resolve(self, name: str) -> Optional[int]:
        scope: Optional[_SlotScope] = self
        while scope is not None:
            slot = scope.slots.get(name)
            if slot is not None:
                return slot
            scope = scope.parent
        return None


class CompiledBody:
    """One kernel body lowered to closures, reusable across fabrics."""

    __slots__ = ("kernel_name", "n_slots", "binding_slots", "hdl_slots",
                 "entry")

    def __init__(self, kernel_name: str, n_slots: int,
                 binding_slots: List[Tuple[str, int]],
                 hdl_slots: List[Tuple[str, int]],
                 entry: Callable) -> None:
        self.kernel_name = kernel_name
        self.n_slots = n_slots
        self.binding_slots = binding_slots
        self.hdl_slots = hdl_slots
        self.entry = entry

    def make(self, ctx, bindings: Dict[str, Any],
             hdl_modules: Dict[str, Any]):
        """Instantiate the body generator for one iteration/compute unit."""
        frame = [_UNDEF] * self.n_slots
        for name, slot in self.binding_slots:
            frame[slot] = bindings[name]
        for name, slot in self.hdl_slots:
            frame[slot] = hdl_modules[name]
        return self.entry(frame, ctx)


def _compound_fn(op: str) -> Callable:
    """The update applied by ``target <op>= value`` — semantics (including
    the bare ``ZeroDivisionError`` of ``/=``) match
    ``Interpreter._apply_compound`` exactly."""
    if op == "+=":
        return lambda cur, val: cur + val
    if op == "-=":
        return lambda cur, val: cur - val
    if op == "*=":
        return lambda cur, val: cur * val
    if op == "/=":
        return lambda cur, val: int(cur / val)
    # "%=" — parser admits no other compound ops
    return lambda cur, val: cur - int(cur / val) * val


def _binop_fn(op: str, node: ast.Node) -> Callable:
    """Value-level binary op matching ``Interpreter._eval_binary``."""
    if op == "+":
        return lambda l, r: l + r
    if op == "-":
        return lambda l, r: l - r
    if op == "*":
        return lambda l, r: l * r
    if op == "/":
        def div(l, r):
            if r == 0:
                raise error_at("division by zero in kernel", node)
            return int(l / r)           # C truncation semantics
        return div
    if op == "%":
        def mod(l, r):
            if r == 0:
                raise error_at("modulo by zero in kernel", node)
            return l - int(l / r) * r
        return mod
    if op == "<":
        return lambda l, r: 1 if l < r else 0
    if op == ">":
        return lambda l, r: 1 if l > r else 0
    if op == "<=":
        return lambda l, r: 1 if l <= r else 0
    if op == ">=":
        return lambda l, r: 1 if l >= r else 0
    if op == "==":
        return lambda l, r: 1 if l == r else 0
    if op == "!=":
        return lambda l, r: 1 if l != r else 0
    if op == "&":
        return lambda l, r: l & r
    if op == "|":
        return lambda l, r: l | r
    if op == "^":
        return lambda l, r: l ^ r
    if op == "<<":
        return lambda l, r: l << r
    if op == ">>":
        return lambda l, r: l >> r
    return None


def _collect_mutations(root: ast.Node) -> set:
    """Identifiers whose bound *value* may be replaced after declaration.

    Covers assignment targets, ``++``/``--`` targets, non-blocking-read
    valid flags, and any name declared more than once (shadowing or
    same-scope redeclaration). Slots for these names are never kind-
    specialized; everything else is "pristine" and its declared kind is
    stable for the kernel's whole lifetime.
    """
    mutated: set = set()
    declared: set = set()
    for node in ast.walk(root):
        if isinstance(node, ast.Assign) and isinstance(node.target, ast.Name):
            mutated.add(node.target.ident)
        elif isinstance(node, ast.IncDec):
            mutated.add(node.target.ident)
        elif (isinstance(node, ast.Call)
                and node.func.startswith("read_channel_nb")
                and len(node.args) > 1):
            flag = node.args[1]
            if isinstance(flag, ast.AddressOf) and isinstance(
                    flag.target, ast.Name):
                mutated.add(flag.target.ident)
        elif isinstance(node, ast.Declaration):
            for name, _ in node.names:
                if name in declared:
                    mutated.add(name)
                declared.add(name)
    return mutated


class _BodyCompiler:
    """Compiles one kernel definition into a :class:`CompiledBody`."""

    def __init__(self, definition: ast.KernelDef, site_table: Dict[int, str],
                 defines: Dict[str, int], channel_kinds: Dict[str, int],
                 hdl_names, autorun: bool) -> None:
        self._definition = definition
        self._sites = site_table
        self._autorun = autorun
        self._hdl_names = frozenset(hdl_names)
        self._loop_depth = 0
        self._n_slots = 0
        self._kinds: List[int] = []
        self._hazard: set = set()
        self._hdl_slots: Dict[str, int] = {}
        self._mutated = _collect_mutations(definition.body)
        # Root bindings mirror _CompiledMixin._bindings: params, then
        # defines, then channels — later names override earlier slots.
        self._root = _SlotScope()
        self._root_consts: Dict[str, Any] = {}
        for parameter in definition.parameters:
            if parameter.type_name == "void":
                continue
            kind = K_BUFFER if parameter.is_global_pointer else K_INT
            self._declare(self._root, parameter.name, kind)
        for name, value in defines.items():
            if name not in channel_kinds and name not in self._mutated:
                # Immutable define: fold as a compile-time constant.
                self._root_consts[name] = value
                self._root.slots.pop(name, None)
                continue
            self._declare(self._root, name, K_INT)
        for name, kind in channel_kinds.items():
            self._declare(self._root, name, kind)

    # -- slot bookkeeping --------------------------------------------------

    def _declare(self, scope: _SlotScope, name: str, kind: int,
                 hazard: bool = False) -> int:
        slot = scope.slots.get(name)
        if slot is None:
            slot = self._n_slots
            self._n_slots += 1
            scope.slots[name] = slot
            self._kinds.append(kind)
            if hazard:
                self._hazard.add(slot)
        else:
            # Same-scope redeclaration reuses the slot (the reference
            # _Scope.declare overwrites the dict entry).
            self._kinds[slot] = kind
        return slot

    def _site(self, node: ast.Node) -> str:
        return self._sites[node.node_id]

    def _pristine_kind(self, node: ast.Node,
                       scope: _SlotScope) -> Tuple[Optional[int], int]:
        """(slot, kind) when ``node`` is a Name whose slot is safe to
        kind-specialize; (None, K_UNKNOWN) otherwise."""
        if isinstance(node, ast.Name) and node.ident not in self._mutated:
            slot = scope.resolve(node.ident)
            if slot is not None and slot not in self._hazard:
                return slot, self._kinds[slot]
        return None, K_UNKNOWN

    def _static_kind(self, node: ast.Node, scope: _SlotScope) -> int:
        """Static kind of an initializer value, for alias declarations
        like ``int b = data;``. Must be *sound* for container kinds."""
        if isinstance(node, ast.Cast):
            return self._static_kind(node.operand, scope)
        if isinstance(node, ast.Name):
            if node.ident in self._mutated:
                # The slot's declared kind may no longer describe its
                # value — never propagate container kinds from it.
                return K_UNKNOWN
            slot = scope.resolve(node.ident)
            if slot is not None:
                return self._kinds[slot]
            return K_INT if (node.ident in self._root_consts
                             or node.ident in CONSTANTS) else K_UNKNOWN
        if isinstance(node, (ast.Subscript, ast.Call, ast.AddressOf)):
            # Could be a channel handle / HDL result — never specialize.
            return K_UNKNOWN
        return K_INT    # literals, arithmetic, comparisons, assignments

    # -- entry -------------------------------------------------------------

    def compile(self) -> CompiledBody:
        body_gen, body_fn = self._stmt(self._definition.body, self._root,
                                       hazard=False)

        def entry(frame, c):
            if body_gen:
                ctl = yield from body_fn(frame, c)
            else:
                ctl = body_fn(frame, c)
            # Mirror the reference backend: break/continue escaping every
            # loop propagate out of the body generator as exceptions;
            # return just ends the iteration.
            if ctl == _BRK:
                raise _Break()
            if ctl == _CNT:
                raise _Continue()

        return CompiledBody(
            kernel_name=self._definition.name,
            n_slots=self._n_slots,
            binding_slots=sorted(self._root.slots.items()),
            hdl_slots=sorted(self._hdl_slots.items()),
            entry=entry)

    # -- names -------------------------------------------------------------

    def _read_name(self, ident: str, node: ast.Node,
                   scope: _SlotScope) -> _CExpr:
        slot = scope.resolve(ident)
        if slot is None:
            if ident in self._root_consts:
                return _const(self._root_consts[ident])
            if ident in CONSTANTS:
                return _const(CONSTANTS[ident])
            return _raise_expr(f"undefined identifier {ident!r}", node)
        if slot in self._hazard:
            def fn(f, c, _s=slot):
                value = f[_s]
                if value is _UNDEF:
                    raise error_at(f"undefined identifier {ident!r}", node)
                return value
            return _CExpr(fn)
        return _CExpr(lambda f, c, _s=slot: f[_s])

    def _store_name(self, ident: str, node: ast.Node,
                    scope: _SlotScope) -> Optional[Callable]:
        """``fn(frame, value)`` writing the slot, or None if undeclared
        (caller must raise after evaluating the rvalue, like the
        reference backend's ``_Scope.assign``)."""
        slot = scope.resolve(ident)
        if slot is None:
            return None
        if slot in self._hazard:
            def fn(f, value, _s=slot):
                if f[_s] is _UNDEF:
                    raise error_at(
                        f"assignment to undeclared identifier {ident!r}",
                        node)
                f[_s] = value
            return fn

        def fn(f, value, _s=slot):
            f[_s] = value
        return fn

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.Node, scope: _SlotScope) -> _CExpr:
        if isinstance(node, ast.IntLiteral):
            return _const(node.value)
        if isinstance(node, ast.Name):
            return self._read_name(node.ident, node, scope)
        if isinstance(node, ast.Cast):
            return self._expr(node.operand, scope)
        if isinstance(node, ast.Unary):
            return self._unary(node, scope)
        if isinstance(node, ast.Binary):
            return self._binary(node, scope)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, scope)
        if isinstance(node, ast.AddressOf):
            return self._address_of(node, scope)
        if isinstance(node, ast.Assign):
            return self._assign(node, scope)
        if isinstance(node, ast.IncDec):
            return self._incdec(node, scope)
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        return _raise_expr(f"cannot evaluate {type(node).__name__}", node)

    def _unary(self, node: ast.Unary, scope: _SlotScope) -> _CExpr:
        operand = self._expr(node.operand, scope)
        op = node.op
        if op == "-":
            value_fn = lambda v: -v                      # noqa: E731
        elif op == "!":
            value_fn = lambda v: 0 if v else 1           # noqa: E731
        else:
            value_fn = lambda v: ~v                      # noqa: E731
        if operand.const is not _NOCONST:
            return _const(value_fn(operand.const))
        ofn, og = operand.fn, operand.gen
        if not og:
            return _CExpr(lambda f, c: value_fn(ofn(f, c)))

        def fn(f, c):
            value = yield from ofn(f, c)
            return value_fn(value)
        return _CExpr(fn, gen=True)

    def _binary(self, node: ast.Binary, scope: _SlotScope) -> _CExpr:
        left = self._expr(node.left, scope)
        op = node.op
        if op in ("&&", "||"):
            return self._short_circuit(node, left, scope)
        right = self._expr(node.right, scope)
        op_fn = _binop_fn(op, node)
        if op_fn is None:
            return _raise_expr(f"unknown operator {op!r}", node)
        if left.const is not _NOCONST and right.const is not _NOCONST:
            lc, rc = left.const, right.const
            try:
                return _const(op_fn(lc, rc))
            except Exception:
                # e.g. constant division by zero: fail when *executed*.
                return _CExpr(lambda f, c: op_fn(lc, rc))
        lf, lg = left.fn, left.gen
        rf, rg = right.fn, right.gen
        if not (lg or rg):
            return _CExpr(lambda f, c: op_fn(lf(f, c), rf(f, c)))

        def fn(f, c):
            l = (yield from lf(f, c)) if lg else lf(f, c)
            r = (yield from rf(f, c)) if rg else rf(f, c)
            return op_fn(l, r)
        return _CExpr(fn, gen=True)

    def _short_circuit(self, node: ast.Binary, left: _CExpr,
                       scope: _SlotScope) -> _CExpr:
        is_and = node.op == "&&"
        if left.const is not _NOCONST:
            if is_and and not left.const:
                return _const(0)        # right side never evaluated
            if not is_and and left.const:
                return _const(1)
            right = self._expr(node.right, scope)
            if right.const is not _NOCONST:
                return _const(1 if right.const else 0)
            rf, rg = right.fn, right.gen
            if not rg:
                return _CExpr(lambda f, c: 1 if rf(f, c) else 0)

            def fn(f, c):
                value = yield from rf(f, c)
                return 1 if value else 0
            return _CExpr(fn, gen=True)
        right = self._expr(node.right, scope)
        lf, lg = left.fn, left.gen
        rf, rg = right.fn, right.gen
        if not (lg or rg):
            if is_and:
                return _CExpr(
                    lambda f, c: (1 if rf(f, c) else 0) if lf(f, c) else 0)
            return _CExpr(
                lambda f, c: 1 if lf(f, c) else (1 if rf(f, c) else 0))

        def fn(f, c):
            l = (yield from lf(f, c)) if lg else lf(f, c)
            if is_and and not l:
                return 0
            if not is_and and l:
                return 1
            r = (yield from rf(f, c)) if rg else rf(f, c)
            return 1 if r else 0
        return _CExpr(fn, gen=True)

    def _subscript(self, node: ast.Subscript, scope: _SlotScope) -> _CExpr:
        index = self._expr(node.index, scope)
        ifn, ig = index.fn, index.gen
        slot, kind = self._pristine_kind(node.base, scope)
        if kind == K_PRIVATE:
            if not ig:
                def fn(f, c, _s=slot):
                    array = f[_s]
                    i = ifn(f, c)
                    if not 0 <= i < len(array):
                        raise error_at(
                            f"private array index {i} out of range "
                            f"[0, {len(array)})", node)
                    return array[i]
                return _CExpr(fn)

            def fn(f, c, _s=slot):
                array = f[_s]
                i = yield from ifn(f, c)
                if not 0 <= i < len(array):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(array)})", node)
                return array[i]
            return _CExpr(fn, gen=True)
        if kind == K_CHANARR:
            if not ig:
                return _CExpr(lambda f, c, _s=slot: f[_s][ifn(f, c)])

            def fn(f, c, _s=slot):
                i = yield from ifn(f, c)
                return f[_s][i]
            return _CExpr(fn, gen=True)
        if kind == K_BUFFER:
            site = self._site(node)

            def fn(f, c, _s=slot, _site=site):
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                value = yield ops.Load(f[_s], i, site=_site)
                return value
            return _CExpr(fn, gen=True)
        if kind == K_LOCAL:
            site = self._site(node)

            def fn(f, c, _s=slot, _site=site):
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                value = yield ops.LoadLocal(f[_s], i, site=_site)
                return value
            return _CExpr(fn, gen=True)
        # Generic: replicate the reference backend's runtime dispatch.
        base = self._expr(node.base, scope)
        bf, bg = base.fn, base.gen
        site = self._site(node)

        def fn(f, c, _site=site):
            b = (yield from bf(f, c)) if bg else bf(f, c)
            i = (yield from ifn(f, c)) if ig else ifn(f, c)
            if isinstance(b, ChannelArray):
                return b[i]
            if isinstance(b, list):
                if not 0 <= i < len(b):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(b)})", node)
                return b[i]
            if isinstance(b, LocalMemory):
                value = yield ops.LoadLocal(b, i, site=_site)
                return value
            if isinstance(b, str):
                value = yield ops.Load(b, i, site=_site)
                return value
            raise error_at(
                f"cannot index a {type(b).__name__} (expected a __global "
                "buffer, __local/private array, or channel array)", node)
        return _CExpr(fn, gen=True)

    def _address_of(self, node: ast.AddressOf, scope: _SlotScope) -> _CExpr:
        target = node.target
        message = ("& is only supported on __global buffer elements (and "
                   "as the valid-flag argument of non-blocking channel "
                   "reads)")
        if not isinstance(target, ast.Subscript):
            return _raise_expr(message, node)
        base = self._expr(target.base, scope)
        index = self._expr(target.index, scope)
        bf, bg = base.fn, base.gen
        ifn, ig = index.fn, index.gen
        if not (bg or ig):
            def fn(f, c):
                b = bf(f, c)
                i = ifn(f, c)
                if isinstance(b, str):
                    store = c._instance.memory.buffer(b)
                    return store.address_of(i)
                raise error_at(message, node)
            return _CExpr(fn)

        def fn(f, c):
            b = (yield from bf(f, c)) if bg else bf(f, c)
            i = (yield from ifn(f, c)) if ig else ifn(f, c)
            if isinstance(b, str):
                store = c._instance.memory.buffer(b)
                return store.address_of(i)
            raise error_at(message, node)
        return _CExpr(fn, gen=True)

    def _incdec(self, node: ast.IncDec, scope: _SlotScope) -> _CExpr:
        ident = node.target.ident
        delta = 1 if node.op == "++" else -1
        slot = scope.resolve(ident)
        if slot is None:
            # Matches the reference lookup failure (CONSTANTS are not
            # assignable either — assign raises after lookup succeeds).
            if ident in self._root_consts or ident in CONSTANTS:
                return _raise_expr(
                    f"assignment to undeclared identifier {ident!r}", node)
            return _raise_expr(f"undefined identifier {ident!r}", node)
        if slot in self._hazard:
            def fn(f, c, _s=slot, _d=delta):
                current = f[_s]
                if current is _UNDEF:
                    raise error_at(f"undefined identifier {ident!r}", node)
                f[_s] = current + _d
                return current
            return _CExpr(fn)

        def fn(f, c, _s=slot, _d=delta):
            current = f[_s]
            f[_s] = current + _d
            return current
        return _CExpr(fn)

    def _assign(self, node: ast.Assign, scope: _SlotScope) -> _CExpr:
        value = self._expr(node.value, scope)
        vf, vg = value.fn, value.gen
        target = node.target
        if isinstance(target, ast.Name):
            return self._assign_name(node, target, value, scope)
        # Subscript target: private/__local array or global buffer.
        index = self._expr(target.index, scope)
        ifn, ig = index.fn, index.gen
        compound = None if node.op == "=" else _compound_fn(node.op)
        slot, kind = self._pristine_kind(target.base, scope)
        if kind == K_PRIVATE:
            if not (vg or ig):
                def fn(f, c, _s=slot):
                    v = vf(f, c)
                    array = f[_s]
                    i = ifn(f, c)
                    if not 0 <= i < len(array):
                        raise error_at(
                            f"private array index {i} out of range "
                            f"[0, {len(array)})", node)
                    if compound is not None:
                        v = compound(array[i], v)
                    array[i] = v
                    return v
                return _CExpr(fn)

            def fn(f, c, _s=slot):
                v = (yield from vf(f, c)) if vg else vf(f, c)
                array = f[_s]
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                if not 0 <= i < len(array):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(array)})", node)
                if compound is not None:
                    v = compound(array[i], v)
                array[i] = v
                return v
            return _CExpr(fn, gen=True)
        if kind == K_BUFFER:
            # Compound loads use the *target subscript*'s site, stores the
            # Assign node's site — same LSU identities as the reference.
            load_site = self._site(target)
            store_site = self._site(node)

            def fn(f, c, _s=slot, _ls=load_site, _ss=store_site):
                v = (yield from vf(f, c)) if vg else vf(f, c)
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                buffer = f[_s]
                if compound is not None:
                    current = yield ops.Load(buffer, i, site=_ls)
                    v = compound(current, v)
                yield ops.Store(buffer, i, v, site=_ss)
                return v
            return _CExpr(fn, gen=True)
        if kind == K_LOCAL:
            load_site = self._site(target)
            store_site = self._site(node)

            def fn(f, c, _s=slot, _ls=load_site, _ss=store_site):
                v = (yield from vf(f, c)) if vg else vf(f, c)
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                memory = f[_s]
                if compound is not None:
                    current = yield ops.LoadLocal(memory, i, site=_ls)
                    v = compound(current, v)
                yield ops.StoreLocal(memory, i, v, site=_ss)
                return v
            return _CExpr(fn, gen=True)
        # Generic subscript store (also covers channel-array bases, which
        # fail exactly like the reference backend).
        base = self._expr(target.base, scope)
        bf, bg = base.fn, base.gen
        load_site = self._site(target)
        store_site = self._site(node)

        def fn(f, c, _ls=load_site, _ss=store_site):
            v = (yield from vf(f, c)) if vg else vf(f, c)
            b = (yield from bf(f, c)) if bg else bf(f, c)
            i = (yield from ifn(f, c)) if ig else ifn(f, c)
            if isinstance(b, list):
                if not 0 <= i < len(b):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(b)})", node)
                if compound is not None:
                    v = compound(b[i], v)
                b[i] = v
                return v
            if isinstance(b, LocalMemory):
                if compound is not None:
                    current = yield ops.LoadLocal(b, i, site=_ls)
                    v = compound(current, v)
                yield ops.StoreLocal(b, i, v, site=_ss)
                return v
            if not isinstance(b, str):
                raise error_at(
                    "can only store into __global buffers or "
                    "__local/private arrays", node)
            if compound is not None:
                current = yield ops.Load(b, i, site=_ls)
                v = compound(current, v)
            yield ops.Store(b, i, v, site=_ss)
            return v
        return _CExpr(fn, gen=True)

    def _assign_name(self, node: ast.Assign, target: ast.Name,
                     value: _CExpr, scope: _SlotScope) -> _CExpr:
        vf, vg = value.fn, value.gen
        store = self._store_name(target.ident, target, scope)
        if store is None:
            ident = target.ident
            # Undeclared target. The reference backend evaluates the
            # rvalue, then (for compound ops) *looks up* the current
            # value — which raises "undefined identifier" unless the name
            # is a builtin constant — and only then fails the assignment.
            compound = None if node.op == "=" else _compound_fn(node.op)
            current_fn = None
            if compound is not None:
                current_fn = self._read_name(target.ident, target, scope).fn

            def finish(f, c, v):
                if compound is not None:
                    compound(current_fn(f, c), v)
                raise error_at(
                    f"assignment to undeclared identifier {ident!r}", target)
            if not vg:
                return _CExpr(lambda f, c: finish(f, c, vf(f, c)))

            def fn(f, c):
                v = yield from vf(f, c)
                return finish(f, c, v)
            return _CExpr(fn, gen=True)
        if node.op == "=":
            if not vg:
                def fn(f, c):
                    v = vf(f, c)
                    store(f, v)
                    return v
                return _CExpr(fn)

            def fn(f, c):
                v = yield from vf(f, c)
                store(f, v)
                return v
            return _CExpr(fn, gen=True)
        compound = _compound_fn(node.op)
        current = self._read_name(target.ident, target, scope)
        cf = current.fn
        if not vg:
            def fn(f, c):
                v = vf(f, c)          # rvalue first (it may mutate target)
                v = compound(cf(f, c), v)
                store(f, v)
                return v
            return _CExpr(fn)

        def fn(f, c):
            v = yield from vf(f, c)
            v = compound(cf(f, c), v)
            store(f, v)
            return v
        return _CExpr(fn, gen=True)

    # -- calls -------------------------------------------------------------

    def _call(self, node: ast.Call, scope: _SlotScope) -> _CExpr:
        name = node.func
        if name in ("get_global_id", "get_global_size", "get_local_id"):
            if name == "get_global_id":
                return _CExpr(lambda f, c: c.global_id)
            return _const(0)
        if name == "get_compute_id":
            return _CExpr(lambda f, c: c.compute_id)
        if name == "mem_fence":
            return _const(0)            # zero-time, no op emitted
        if name == "barrier":
            site = self._site(node)

            def fn(f, c, _site=site):
                yield ops.Barrier(_site)
                return 0
            return _CExpr(fn, gen=True)
        if name in CHANNEL_BUILTINS:
            return self._channel_builtin(node, scope)
        if name in self._hdl_names:
            slot = self._hdl_slots.get(name)
            if slot is None:
                slot = self._n_slots
                self._n_slots += 1
                self._kinds.append(K_UNKNOWN)
                self._hdl_slots[name] = slot
            arg_exprs = [self._expr(arg, scope) for arg in node.args]
            site = self._site(node)

            def fn(f, c, _s=slot, _site=site):
                args = []
                for afn, ag in [(a.fn, a.gen) for a in arg_exprs]:
                    args.append((yield from afn(f, c)) if ag
                                else afn(f, c))
                value = yield ops.Call(f[_s], tuple(args), site=_site)
                return value
            return _CExpr(fn, gen=True)
        return _raise_expr(f"unknown function {name!r}", node)

    def _channel_builtin(self, node: ast.Call, scope: _SlotScope) -> _CExpr:
        name = node.func
        if len(node.args) < 1:
            # The reference backend fails with IndexError when the body
            # executes; reproduce the laziness (degenerate source).
            def fn(f, c):
                raise IndexError("list index out of range")
            return _CExpr(fn)
        channel = self._expr(node.args[0], scope)
        chf, chg = channel.fn, channel.gen

        def get_channel(f, c):
            ch = chf(f, c)
            if not isinstance(ch, Channel):
                raise error_at(
                    f"{name} expects a channel, got {type(ch).__name__}",
                    node)
            return ch

        if name.startswith("read_channel_nb"):
            flag_store = None
            flag_fail = None
            if len(node.args) > 1:
                flag = node.args[1]
                if isinstance(flag, ast.AddressOf) and isinstance(
                        flag.target, ast.Name):
                    flag_store = self._store_name(flag.target.ident,
                                                  flag.target, scope)
                    if flag_store is None:
                        ident = flag.target.ident
                        flag_node = flag.target

                        def flag_fail(f, c):
                            raise error_at(
                                "assignment to undeclared identifier "
                                f"{ident!r}", flag_node)
                else:
                    def flag_fail(f, c):
                        raise error_at(
                            f"{name}: second argument must be &flag", node)

            if not chg:
                def fn(f, c):
                    ch = get_channel(f, c)
                    value, valid = c.read_channel_nb(ch)
                    if flag_store is not None:
                        flag_store(f, 1 if valid else 0)
                    elif flag_fail is not None:
                        flag_fail(f, c)
                    return value if valid else 0
                return _CExpr(fn)

            def fn(f, c):
                ch = yield from chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                value, valid = c.read_channel_nb(ch)
                if flag_store is not None:
                    flag_store(f, 1 if valid else 0)
                elif flag_fail is not None:
                    flag_fail(f, c)
                return value if valid else 0
            return _CExpr(fn, gen=True)

        if name.startswith("write_channel_nb"):
            if len(node.args) < 2:
                def fn(f, c):
                    get_channel(f, c)
                    raise IndexError("list index out of range")
                return _CExpr(fn)
            value = self._expr(node.args[1], scope)
            vf, vg = value.fn, value.gen
            if not (chg or vg):
                def fn(f, c):
                    ch = get_channel(f, c)
                    ok = c.write_channel_nb(ch, vf(f, c))
                    return 1 if ok else 0
                return _CExpr(fn)

            def fn(f, c):
                ch = (yield from chf(f, c)) if chg else chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                v = (yield from vf(f, c)) if vg else vf(f, c)
                ok = c.write_channel_nb(ch, v)
                return 1 if ok else 0
            return _CExpr(fn, gen=True)

        site = self._site(node)
        if name.startswith("read_channel"):
            def fn(f, c, _site=site):
                ch = (yield from chf(f, c)) if chg else chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                value = yield c.read_channel(ch, site=_site)
                return value
            return _CExpr(fn, gen=True)

        # blocking write
        if len(node.args) < 2:
            def fn(f, c):
                ch = (yield from chf(f, c)) if chg else chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                raise IndexError("list index out of range")
            return _CExpr(fn, gen=True)
        value = self._expr(node.args[1], scope)
        vf, vg = value.fn, value.gen

        def fn(f, c, _site=site):
            ch = (yield from chf(f, c)) if chg else chf(f, c)
            if not isinstance(ch, Channel):
                raise error_at(
                    f"{name} expects a channel, got {type(ch).__name__}",
                    node)
            v = (yield from vf(f, c)) if vg else vf(f, c)
            yield c.write_channel(ch, v, site=_site)
            return v
        return _CExpr(fn, gen=True)

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.Node, scope: _SlotScope,
              hazard: bool) -> _CStmt:
        if isinstance(node, ast.Block):
            return self._block(node, scope)
        if isinstance(node, ast.Declaration):
            return self._declaration(node, scope, hazard)
        if isinstance(node, ast.ExprStatement):
            expr = self._expr(node.expr, scope)
            efn, eg = expr.fn, expr.gen
            if not eg:
                def fn(f, c):
                    efn(f, c)
                return False, fn

            def fn(f, c):
                yield from efn(f, c)   # discard value; no control code
            return True, fn
        if isinstance(node, ast.If):
            return self._if(node, scope)
        if isinstance(node, ast.For):
            return self._for(node, scope)
        if isinstance(node, ast.While):
            return self._while(node, scope)
        if isinstance(node, ast.Switch):
            return self._switch(node, scope)
        if isinstance(node, ast.Return):
            if node.value is None:
                return False, lambda f, c: _RET
            value = self._expr(node.value, scope)
            vfn, vg = value.fn, value.gen
            if not vg:
                def fn(f, c):
                    vfn(f, c)     # evaluated for side effects, then dropped
                    return _RET
                return False, fn

            def fn(f, c):
                yield from vfn(f, c)
                return _RET
            return True, fn
        if isinstance(node, ast.Break):
            return False, lambda f, c: _BRK
        if isinstance(node, ast.Continue):
            return False, lambda f, c: _CNT

        def fn(f, c):
            raise error_at(f"cannot execute {type(node).__name__}", node)
        return False, fn

    def _block(self, node: ast.Block, scope: _SlotScope) -> _CStmt:
        inner = _SlotScope(scope)
        stmts = [self._stmt(statement, inner, hazard=False)
                 for statement in node.statements]
        if not stmts:
            return _NOOP
        if len(stmts) == 1:
            return stmts[0]
        if not any(gen for gen, _ in stmts):
            fns = tuple(fn for _, fn in stmts)

            def fn(f, c):
                for sfn in fns:
                    ctl = sfn(f, c)
                    if ctl is not None:
                        return ctl
            return False, fn
        pairs = tuple(stmts)

        def fn(f, c):
            for sg, sfn in pairs:
                ctl = (yield from sfn(f, c)) if sg else sfn(f, c)
                if ctl is not None:
                    return ctl
        return True, fn

    def _declaration(self, node: ast.Declaration, scope: _SlotScope,
                     hazard: bool) -> _CStmt:
        parts: List[_CStmt] = []
        for name, initializer in node.names:
            if node.is_local and name in node.array_sizes:
                slot = self._declare(scope, name, K_LOCAL, hazard)

                def fn(f, c, _s=slot, _n=name):
                    f[_s] = c.local(_n)
                parts.append((False, fn))
                continue
            if name in node.array_sizes:
                size = node.array_sizes[name]
                # Size resolution happens *before* the (re)declaration,
                # exactly like the reference scope.lookup.
                if isinstance(size, str):
                    size_expr = self._read_name(size, node, scope)
                else:
                    size_expr = _const(size)
                slot = self._declare(scope, name, K_PRIVATE, hazard)
                sfn = size_expr.fn

                def fn(f, c, _s=slot, _n=name):
                    size_value = sfn(f, c)
                    if not isinstance(size_value, int) or size_value < 1:
                        raise error_at(
                            f"array {_n!r}: invalid size {size_value!r}",
                            node)
                    f[_s] = [0] * size_value
                parts.append((False, fn))
                continue
            if initializer is None:
                slot = self._declare(scope, name, K_INT, hazard)

                def fn(f, c, _s=slot):
                    f[_s] = 0
                parts.append((False, fn))
                continue
            kind = self._static_kind(initializer, scope)
            init = self._expr(initializer, scope)
            slot = self._declare(scope, name,
                                 kind if kind != K_UNKNOWN else K_UNKNOWN,
                                 hazard)
            vfn, vg = init.fn, init.gen
            if not vg:
                def fn(f, c, _s=slot):
                    f[_s] = vfn(f, c)
                parts.append((False, fn))
            else:
                def fn(f, c, _s=slot):
                    f[_s] = yield from vfn(f, c)
                parts.append((True, fn))
        if not parts:
            return _NOOP
        if len(parts) == 1:
            return parts[0]
        if not any(gen for gen, _ in parts):
            fns = tuple(fn for _, fn in parts)

            def fn(f, c):
                for pfn in fns:
                    pfn(f, c)
            return False, fn
        pairs = tuple(parts)

        def fn(f, c):
            for pg, pfn in pairs:
                if pg:
                    yield from pfn(f, c)
                else:
                    pfn(f, c)
        return True, fn

    def _if(self, node: ast.If, scope: _SlotScope) -> _CStmt:
        condition = self._expr(node.condition, scope)
        then_gen, then_fn = self._stmt(node.then_branch, scope, hazard=True)
        else_stmt: Optional[_CStmt] = None
        if node.else_branch is not None:
            else_stmt = self._stmt(node.else_branch, scope, hazard=True)
        if condition.const is not _NOCONST:
            # Both branches were compiled (their declarations claim slots
            # either way); only the taken one is emitted.
            if condition.const:
                return then_gen, then_fn
            return else_stmt if else_stmt is not None else _NOOP
        cfn, cg = condition.fn, condition.gen
        if not cg and not then_gen and (else_stmt is None or not else_stmt[0]):
            if else_stmt is None:
                def fn(f, c):
                    if cfn(f, c):
                        return then_fn(f, c)
                return False, fn
            else_fn = else_stmt[1]

            def fn(f, c):
                if cfn(f, c):
                    return then_fn(f, c)
                return else_fn(f, c)
            return False, fn

        if else_stmt is None:
            def fn(f, c):
                taken = (yield from cfn(f, c)) if cg else cfn(f, c)
                if taken:
                    return (yield from then_fn(f, c)) if then_gen \
                        else then_fn(f, c)
            return True, fn
        else_gen, else_fn = else_stmt

        def fn(f, c):
            taken = (yield from cfn(f, c)) if cg else cfn(f, c)
            if taken:
                return (yield from then_fn(f, c)) if then_gen \
                    else then_fn(f, c)
            return (yield from else_fn(f, c)) if else_gen else else_fn(f, c)
        return True, fn

    def _while(self, node: ast.While, scope: _SlotScope) -> _CStmt:
        self._loop_depth += 1
        boundary = self._autorun and self._loop_depth == 1
        condition = self._expr(node.condition, scope)
        body_gen, body_fn = self._stmt(node.body, scope, hazard=True)
        self._loop_depth -= 1
        cfn, cg = condition.fn, condition.gen
        if not (cg or body_gen or boundary):
            def fn(f, c):
                while True:
                    if not cfn(f, c):
                        return None
                    ctl = body_fn(f, c)
                    if ctl is not None:
                        if ctl == _BRK:
                            return None
                        if ctl == _RET:
                            return _RET
                        # _CNT: next iteration
            return False, fn

        def fn(f, c):
            while True:
                taken = (yield from cfn(f, c)) if cg else cfn(f, c)
                if not taken:
                    return None
                ctl = (yield from body_fn(f, c)) if body_gen \
                    else body_fn(f, c)
                if ctl is not None:
                    if ctl == _BRK:
                        return None       # break skips the cycle boundary
                    if ctl == _RET:
                        return _RET
                if boundary:
                    yield c.cycle()
        return True, fn

    def _for(self, node: ast.For, scope: _SlotScope) -> _CStmt:
        loop_scope = _SlotScope(scope)
        init_stmt: Optional[_CStmt] = None
        if node.init is not None:
            init_stmt = self._stmt(node.init, loop_scope, hazard=False)
        self._loop_depth += 1
        boundary = self._autorun and self._loop_depth == 1
        condition = None
        if node.condition is not None:
            condition = self._expr(node.condition, loop_scope)
        body_gen, body_fn = self._stmt(node.body, loop_scope, hazard=True)
        step = None
        if node.step is not None:
            step = self._expr(node.step, loop_scope)
        self._loop_depth -= 1

        init_gen, init_fn = init_stmt if init_stmt is not None else (False,
                                                                     None)
        cfn, cg = (condition.fn, condition.gen) if condition is not None \
            else (None, False)
        sfn, sg = (step.fn, step.gen) if step is not None else (None, False)
        all_pure = not (init_gen or cg or body_gen or sg or boundary)
        if all_pure:
            def fn(f, c):
                if init_fn is not None:
                    init_fn(f, c)
                while True:
                    if cfn is not None and not cfn(f, c):
                        return None
                    ctl = body_fn(f, c)
                    if ctl is not None:
                        if ctl == _BRK:
                            return None
                        if ctl == _RET:
                            return _RET
                    if sfn is not None:
                        sfn(f, c)
            return False, fn

        def fn(f, c):
            if init_fn is not None:
                if init_gen:
                    yield from init_fn(f, c)
                else:
                    init_fn(f, c)
            while True:
                if cfn is not None:
                    taken = (yield from cfn(f, c)) if cg else cfn(f, c)
                    if not taken:
                        return None
                ctl = (yield from body_fn(f, c)) if body_gen \
                    else body_fn(f, c)
                if ctl is not None:
                    if ctl == _BRK:
                        return None       # break skips boundary and step
                    if ctl == _RET:
                        return _RET
                if boundary:
                    yield c.cycle()
                if sfn is not None:
                    if sg:
                        yield from sfn(f, c)
                    else:
                        sfn(f, c)
        return True, fn

    def _switch(self, node: ast.Switch, scope: _SlotScope) -> _CStmt:
        subject = self._expr(node.subject, scope)
        switch_scope = _SlotScope(scope)
        cases: List[Tuple[Optional[_CExpr], Tuple[_CStmt, ...]]] = []
        for case in node.cases:
            label = None if case.label is None \
                else self._expr(case.label, scope)
            stmts = tuple(self._stmt(statement, switch_scope, hazard=True)
                          for statement in case.statements)
            cases.append((label, stmts))
        cases_t = tuple(cases)
        sfn, sg = subject.fn, subject.gen
        any_gen = (sg
                   or any(l is not None and l.gen for l, _ in cases_t)
                   or any(g for _, stmts in cases_t for g, _ in stmts))
        if not any_gen:
            def fn(f, c):
                value = sfn(f, c)
                start = default = None
                for idx, (label, _) in enumerate(cases_t):
                    if label is None:
                        default = idx
                        continue
                    # Every label is evaluated, even after a match.
                    lv = label.fn(f, c)
                    if lv == value and start is None:
                        start = idx
                if start is None:
                    start = default
                if start is None:
                    return None
                for _, stmts in cases_t[start:]:
                    for _, stmt_fn in stmts:
                        ctl = stmt_fn(f, c)
                        if ctl is not None:
                            if ctl == _BRK:
                                return None
                            return ctl    # _RET / _CNT propagate outward
                return None
            return False, fn

        def fn(f, c):
            value = (yield from sfn(f, c)) if sg else sfn(f, c)
            start = default = None
            for idx, (label, _) in enumerate(cases_t):
                if label is None:
                    default = idx
                    continue
                lv = (yield from label.fn(f, c)) if label.gen \
                    else label.fn(f, c)
                if lv == value and start is None:
                    start = idx
            if start is None:
                start = default
            if start is None:
                return None
            for _, stmts in cases_t[start:]:
                for stmt_gen, stmt_fn in stmts:
                    ctl = (yield from stmt_fn(f, c)) if stmt_gen \
                        else stmt_fn(f, c)
                    if ctl is not None:
                        if ctl == _BRK:
                            return None
                        return ctl
            return None
        return True, fn


def compile_kernel_body(definition: ast.KernelDef, *,
                        site_table: Dict[int, str],
                        defines: Dict[str, int],
                        channel_kinds: Dict[str, int],
                        hdl_names,
                        autorun: bool) -> CompiledBody:
    """Lower one kernel definition to a :class:`CompiledBody`.

    ``site_table`` must be the table from ``compiler.build_site_table``
    for this definition (shared with the reference backend, so both emit
    identical LSU site labels). ``channel_kinds`` maps program channel
    names to ``K_CHANNEL``/``K_CHANARR``.
    """
    compiler = _BodyCompiler(definition, site_table, defines, channel_kinds,
                             hdl_names, autorun)
    return compiler.compile()


# ---------------------------------------------------------------------------
# Batch plans: the op-stream segmenter behind ``executor="batch"``.
#
# A :class:`BatchPlan` is the same kernel body lowered one level further:
# instead of one generator closure that *yields* memory ops, the body
# becomes a flat program of plan nodes in which every global-memory
# access is a first-class node (:class:`BLoad`/:class:`BStore`) and all
# code between accesses is collapsed into straight-line pure segments
# (:class:`BPure`). The batch engine (:mod:`repro.pipeline.batch`) runs
# each segment once per work-item *row* over plain frame lists — no
# generator frames, no scheduler round-trips — and replays the recorded
# access stream analytically through the normal LSU path.
#
# Plans are deliberately partial: anything whose timing or shared state
# cannot be replayed analytically (channels, barriers, __local memory,
# HDL calls, autorun cycle boundaries, statically unresolved subscripts)
# makes the kernel unplannable and ``compile_batch_plan`` returns a
# fallback reason instead. The closure backend remains the execution
# oracle; a plan only ever *reorders bookkeeping*, never semantics.
# ---------------------------------------------------------------------------


class _PlanBail(Exception):
    """Raised during plan compilation when the body cannot be batched."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _BNode:
    """Base class for plan nodes; ``kind`` drives executor dispatch."""

    __slots__ = ()
    kind = -1


class BPure(_BNode):
    """Straight-line pure segment: ``fn(frame, ctx) -> control code``."""

    __slots__ = ("fn",)
    kind = 0

    def __init__(self, fn: Callable) -> None:
        self.fn = fn


class BLoad(_BNode):
    """One global-memory load site: ``frame[dst] = buffer[index_fn(...)]``."""

    __slots__ = ("base_slot", "index_fn", "dst_slot", "site")
    kind = 1

    def __init__(self, base_slot: int, index_fn: Callable, dst_slot: int,
                 site: str) -> None:
        self.base_slot = base_slot
        self.index_fn = index_fn
        self.dst_slot = dst_slot
        self.site = site


class BStore(_BNode):
    """One global-memory store site: ``buffer[index_fn(...)] = value_fn(...)``."""

    __slots__ = ("base_slot", "index_fn", "value_fn", "site")
    kind = 2

    def __init__(self, base_slot: int, index_fn: Callable, value_fn: Callable,
                 site: str) -> None:
        self.base_slot = base_slot
        self.index_fn = index_fn
        self.value_fn = value_fn
        self.site = site


class BIf(_BNode):
    """Conditional region; both arms are plan-node tuples."""

    __slots__ = ("cond_fn", "then_nodes", "else_nodes")
    kind = 3

    def __init__(self, cond_fn: Callable, then_nodes: tuple,
                 else_nodes: tuple) -> None:
        self.cond_fn = cond_fn
        self.then_nodes = then_nodes
        self.else_nodes = else_nodes


class BLoop(_BNode):
    """Loop region. ``continue`` jumps to ``nodes[continue_index:]`` (the
    for-step section) before re-entering from the top; the condition
    section at the head ends with a :class:`BTest`."""

    __slots__ = ("nodes", "continue_index")
    kind = 4

    def __init__(self, nodes: tuple, continue_index: int) -> None:
        self.nodes = nodes
        self.continue_index = continue_index


class BTest(_BNode):
    """Loop-condition probe: a falsy value exits the enclosing loop."""

    __slots__ = ("cond_fn",)
    kind = 5

    def __init__(self, cond_fn: Callable) -> None:
        self.cond_fn = cond_fn


class BatchPlan:
    """A kernel body lowered to a flat plan-node program.

    ``binding_slots`` mirrors :attr:`CompiledBody.binding_slots`; frames
    are independent of the closure backend's (slot numbering differs)
    but are built from the same binding dict.
    """

    __slots__ = ("kernel_name", "n_slots", "binding_slots", "nodes",
                 "op_count")

    def __init__(self, kernel_name: str, n_slots: int,
                 binding_slots: List[Tuple[str, int]], nodes: tuple) -> None:
        self.kernel_name = kernel_name
        self.n_slots = n_slots
        self.binding_slots = binding_slots
        self.nodes = nodes
        self.op_count = _count_ops(nodes)

    def make_frame(self, bindings: Dict[str, Any]) -> list:
        """Fresh frame row for one work-item."""
        frame = [_UNDEF] * self.n_slots
        for name, slot in self.binding_slots:
            frame[slot] = bindings[name]
        return frame


def _count_ops(nodes) -> int:
    count = 0
    for node in nodes:
        if node.kind in (1, 2):
            count += 1
        elif node.kind == 3:
            count += _count_ops(node.then_nodes)
            count += _count_ops(node.else_nodes)
        elif node.kind == 4:
            count += _count_ops(node.nodes)
    return count


def _merge_pure(nodes) -> tuple:
    """Collapse adjacent :class:`BPure` nodes into one segment closure.

    Control codes short-circuit exactly like :meth:`_BodyCompiler._block`
    sequencing, so merging preserves break/continue/return semantics.
    """
    out: list = []
    run: list = []

    def flush() -> None:
        if not run:
            return
        if len(run) == 1:
            out.append(run[0])
        else:
            fns = tuple(node.fn for node in run)

            def fn(f, c, _fns=fns):
                for sfn in _fns:
                    ctl = sfn(f, c)
                    if ctl is not None:
                        return ctl
            out.append(BPure(fn))
        run.clear()

    for node in nodes:
        if node.kind == 0:
            run.append(node)
            continue
        flush()
        if node.kind == 3:
            node = BIf(node.cond_fn, _merge_pure(node.then_nodes),
                       _merge_pure(node.else_nodes))
        elif node.kind == 4:
            head = _merge_pure(node.nodes[:node.continue_index])
            tail = _merge_pure(node.nodes[node.continue_index:])
            node = BLoop(head + tail, len(head))
        out.append(node)
    flush()
    return tuple(out)


def _batch_bail_reason(root: ast.Node, hdl_names) -> Optional[str]:
    """Static pre-scan for constructs a plan can never contain.

    Non-blocking channel builtins compile to *pure* closures that mutate
    shared channel state, so a purity probe alone cannot reject them —
    this scan must run before plan compilation.
    """
    hdl = frozenset(hdl_names)
    reason: List[Optional[str]] = [None]

    def _walk(node: Any) -> None:
        if reason[0] is not None:
            return
        if isinstance(node, ast.Call):
            if node.func == "barrier":
                reason[0] = "work-group barrier"
                return
            if node.func in CHANNEL_BUILTINS:
                reason[0] = "channel operation"
                return
            if node.func in hdl:
                reason[0] = "HDL library call"
                return
        elif isinstance(node, ast.Declaration) and node.is_local:
            reason[0] = "__local memory"
            return
        for field_name in getattr(node, "__dataclass_fields__", {}):
            value = getattr(node, field_name)
            children = value if isinstance(value, list) else [value]
            for child in children:
                if isinstance(child, ast.Node):
                    _walk(child)
                elif isinstance(child, tuple):
                    for element in child:
                        if isinstance(element, ast.Node):
                            _walk(element)

    _walk(root)
    return reason[0]


class _PlanCompiler(_BodyCompiler):
    """Second lowering pass: closure segments + explicit memory-op nodes.

    Strategy: *probe* each statement with the inherited closure compiler;
    a non-generator result is already one maximal straight-line segment
    and becomes a single :class:`BPure`. Generator statements are
    decomposed structurally, hoisting each memory access into its own
    plan node with pure ANF temporaries carrying values across the
    splits. Because the pure fragments are compiled by the *same*
    machinery as the closure backend, plan value semantics are equal by
    construction.
    """

    # -- probe bookkeeping --------------------------------------------------

    def _temp(self) -> int:
        """Allocate an anonymous ANF temporary slot."""
        slot = self._n_slots
        self._n_slots += 1
        self._kinds.append(K_UNKNOWN)
        return slot

    def _snapshot(self, scope: _SlotScope) -> tuple:
        return (self._n_slots, list(self._kinds), set(self._hazard),
                dict(self._hdl_slots), dict(scope.slots))

    def _restore(self, scope: _SlotScope, snapshot: tuple) -> None:
        (self._n_slots, self._kinds, self._hazard, self._hdl_slots,
         slots) = snapshot
        scope.slots = slots

    def _spill(self, expr: _CExpr, steps: list) -> _CExpr:
        """Force ``expr``'s evaluation (and side effects) to happen *now*
        in plan order, returning a temp-slot read in its place."""
        if expr.const is not _NOCONST:
            return expr
        slot = self._temp()
        fn = expr.fn

        def save(f, c, _s=slot, _fn=fn):
            f[_s] = _fn(f, c)
        steps.append(BPure(save))
        return _CExpr(lambda f, c, _s=slot: f[_s])

    # -- statements ---------------------------------------------------------

    def _plan_stmt(self, node: ast.Node, scope: _SlotScope,
                   hazard: bool) -> list:
        if isinstance(node, ast.Declaration):
            # Never probed: a probe would pre-declare the names, and the
            # decomposition pass would then resolve initializer reads to
            # the *new* slots instead of the outer ones.
            return self._plan_declaration(node, scope, hazard)
        snapshot = self._snapshot(scope)
        gen, fn = self._stmt(node, scope, hazard)
        if not gen:
            return [BPure(fn)]
        self._restore(scope, snapshot)
        if isinstance(node, ast.Block):
            inner = _SlotScope(scope)
            nodes: list = []
            for statement in node.statements:
                nodes.extend(self._plan_stmt(statement, inner, hazard=False))
            return nodes
        if isinstance(node, ast.ExprStatement):
            steps: list = []
            value = self._plan_expr(node.expr, scope, steps)
            vfn = value.fn

            def run(f, c, _fn=vfn):
                _fn(f, c)
            steps.append(BPure(run))
            return steps
        if isinstance(node, ast.If):
            return self._plan_if(node, scope)
        if isinstance(node, ast.For):
            return self._plan_for(node, scope)
        if isinstance(node, ast.While):
            return self._plan_while(node, scope)
        if isinstance(node, ast.Return):
            steps = []
            value = self._plan_expr(node.value, scope, steps)
            vfn = value.fn

            def run_ret(f, c, _fn=vfn):
                _fn(f, c)
                return _RET
            steps.append(BPure(run_ret))
            return steps
        if isinstance(node, ast.Switch):
            raise _PlanBail("switch with memory operands")
        raise _PlanBail(f"cannot batch {type(node).__name__}")

    def _plan_declaration(self, node: ast.Declaration, scope: _SlotScope,
                          hazard: bool) -> list:
        steps: list = []
        for name, initializer in node.names:
            if node.is_local and name in node.array_sizes:
                raise _PlanBail("__local memory")
            if name in node.array_sizes:
                size = node.array_sizes[name]
                if isinstance(size, str):
                    size_expr = self._read_name(size, node, scope)
                else:
                    size_expr = _const(size)
                slot = self._declare(scope, name, K_PRIVATE, hazard)
                sfn = size_expr.fn

                def fn(f, c, _s=slot, _n=name, _sfn=sfn, _node=node):
                    size_value = _sfn(f, c)
                    if not isinstance(size_value, int) or size_value < 1:
                        raise error_at(
                            f"array {_n!r}: invalid size {size_value!r}",
                            _node)
                    f[_s] = [0] * size_value
                steps.append(BPure(fn))
                continue
            if initializer is None:
                slot = self._declare(scope, name, K_INT, hazard)

                def fn(f, c, _s=slot):
                    f[_s] = 0
                steps.append(BPure(fn))
                continue
            kind = self._static_kind(initializer, scope)
            isteps: list = []
            init = self._plan_expr(initializer, scope, isteps)
            slot = self._declare(scope, name,
                                 kind if kind != K_UNKNOWN else K_UNKNOWN,
                                 hazard)
            steps.extend(isteps)
            vfn = init.fn

            def fn(f, c, _s=slot, _vfn=vfn):
                f[_s] = _vfn(f, c)
            steps.append(BPure(fn))
        return steps

    def _plan_if(self, node: ast.If, scope: _SlotScope) -> list:
        csteps: list = []
        condition = self._plan_expr(node.condition, scope, csteps)
        if condition.const is not _NOCONST:
            # Mirror _if constant folding: both branches claim slots,
            # only the taken one is emitted.
            if condition.const:
                taken = self._plan_stmt(node.then_branch, scope, hazard=True)
                if node.else_branch is not None:
                    self._stmt(node.else_branch, scope, hazard=True)
                return csteps + taken
            self._stmt(node.then_branch, scope, hazard=True)
            if node.else_branch is not None:
                return csteps + self._plan_stmt(node.else_branch, scope,
                                                hazard=True)
            return csteps
        then_nodes = tuple(self._plan_stmt(node.then_branch, scope,
                                           hazard=True))
        else_nodes: tuple = ()
        if node.else_branch is not None:
            else_nodes = tuple(self._plan_stmt(node.else_branch, scope,
                                               hazard=True))
        csteps.append(BIf(condition.fn, then_nodes, else_nodes))
        return csteps

    def _plan_while(self, node: ast.While, scope: _SlotScope) -> list:
        csteps: list = []
        condition = self._plan_expr(node.condition, scope, csteps)
        body_nodes = self._plan_stmt(node.body, scope, hazard=True)
        loop_nodes = csteps + [BTest(condition.fn)] + body_nodes
        return [BLoop(tuple(loop_nodes), len(loop_nodes))]

    def _plan_for(self, node: ast.For, scope: _SlotScope) -> list:
        loop_scope = _SlotScope(scope)
        nodes: list = []
        if node.init is not None:
            nodes.extend(self._plan_stmt(node.init, loop_scope, hazard=False))
        csteps: list = []
        condition = None
        if node.condition is not None:
            condition = self._plan_expr(node.condition, loop_scope, csteps)
        body_nodes = self._plan_stmt(node.body, loop_scope, hazard=True)
        ssteps: list = []
        if node.step is not None:
            step = self._plan_expr(node.step, loop_scope, ssteps)
            sfn = step.fn

            def run(f, c, _fn=sfn):
                _fn(f, c)
            ssteps.append(BPure(run))
        loop_nodes = list(csteps)
        if condition is not None:
            loop_nodes.append(BTest(condition.fn))
        continue_index = len(loop_nodes) + len(body_nodes)
        loop_nodes.extend(body_nodes)
        loop_nodes.extend(ssteps)
        nodes.append(BLoop(tuple(loop_nodes), continue_index))
        return nodes

    # -- expressions --------------------------------------------------------

    def _plan_expr(self, node: ast.Node, scope: _SlotScope,
                   steps: list) -> _CExpr:
        """Compile ``node`` so its memory accesses become plan nodes in
        ``steps``; always returns a *pure* expression for the value.

        Invariant: the returned expression is consumed (evaluated exactly
        once) before any plan node appended after this call executes, so
        pure side effects keep their program-order position."""
        expr = self._expr(node, scope)
        if not expr.gen:
            return expr
        if isinstance(node, ast.Cast):
            return self._plan_expr(node.operand, scope, steps)
        if isinstance(node, ast.Unary):
            operand = self._plan_expr(node.operand, scope, steps)
            ofn = operand.fn
            if node.op == "-":
                return _CExpr(lambda f, c, _fn=ofn: -_fn(f, c))
            if node.op == "!":
                return _CExpr(lambda f, c, _fn=ofn: 0 if _fn(f, c) else 1)
            return _CExpr(lambda f, c, _fn=ofn: ~_fn(f, c))
        if isinstance(node, ast.Binary):
            if node.op in ("&&", "||"):
                # A conditionally-evaluated side containing a memory op
                # cannot be flattened into an unconditional schedule.
                raise _PlanBail("short-circuit operator with memory operand")
            left = self._plan_expr(node.left, scope, steps)
            rsteps: list = []
            right = self._plan_expr(node.right, scope, rsteps)
            if rsteps:
                # The left value (and its side effects) must land before
                # the right side's memory ops execute.
                left = self._spill(left, steps)
                steps.extend(rsteps)
            op_fn = _binop_fn(node.op, node)
            lf, rf = left.fn, right.fn
            return _CExpr(
                lambda f, c, _op=op_fn, _lf=lf, _rf=rf: _op(_lf(f, c),
                                                            _rf(f, c)))
        if isinstance(node, ast.Subscript):
            return self._plan_subscript(node, scope, steps)
        if isinstance(node, ast.Assign):
            return self._plan_assign(node, scope, steps)
        if isinstance(node, ast.AddressOf):
            return self._plan_address_of(node, scope, steps)
        if isinstance(node, ast.Call):
            name = node.func
            if name == "barrier":
                raise _PlanBail("work-group barrier")
            if name in CHANNEL_BUILTINS:
                raise _PlanBail("channel operation")
            if name in self._hdl_names:
                raise _PlanBail("HDL library call")
            raise _PlanBail(f"call to {name!r}")
        raise _PlanBail(
            f"cannot batch {type(node).__name__} with memory operands")

    def _plan_subscript(self, node: ast.Subscript, scope: _SlotScope,
                        steps: list) -> _CExpr:
        slot, kind = self._pristine_kind(node.base, scope)
        if kind == K_PRIVATE:
            idx = self._plan_expr(node.index, scope, steps)
            ifn = idx.fn

            def fn(f, c, _s=slot, _ifn=ifn, _node=node):
                array = f[_s]
                i = _ifn(f, c)
                if not 0 <= i < len(array):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(array)})", _node)
                return array[i]
            return _CExpr(fn)
        if kind == K_CHANARR:
            idx = self._plan_expr(node.index, scope, steps)
            ifn = idx.fn
            return _CExpr(lambda f, c, _s=slot, _ifn=ifn: f[_s][_ifn(f, c)])
        if kind == K_BUFFER:
            idx = self._plan_expr(node.index, scope, steps)
            dst = self._temp()
            steps.append(BLoad(slot, idx.fn, dst, self._site(node)))
            return _CExpr(lambda f, c, _d=dst: f[_d])
        if kind == K_LOCAL:
            raise _PlanBail("__local memory")
        raise _PlanBail("subscript with statically unresolved base")

    def _plan_assign(self, node: ast.Assign, scope: _SlotScope,
                     steps: list) -> _CExpr:
        target = node.target
        if isinstance(target, ast.Name):
            value = self._plan_expr(node.value, scope, steps)
            # The inherited lowering handles store/compound/undeclared
            # semantics; with a pure value it yields a pure expression.
            return self._assign_name(node, target, value, scope)
        compound = None if node.op == "=" else _compound_fn(node.op)
        slot, kind = self._pristine_kind(target.base, scope)
        if kind == K_PRIVATE:
            value = self._plan_expr(node.value, scope, steps)
            isteps: list = []
            idx = self._plan_expr(target.index, scope, isteps)
            if isteps:
                value = self._spill(value, steps)
                steps.extend(isteps)
            vfn, ifn = value.fn, idx.fn

            def fn(f, c, _s=slot, _vfn=vfn, _ifn=ifn, _node=node,
                   _cp=compound):
                v = _vfn(f, c)
                array = f[_s]
                i = _ifn(f, c)
                if not 0 <= i < len(array):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(array)})", _node)
                if _cp is not None:
                    v = _cp(array[i], v)
                array[i] = v
                return v
            return _CExpr(fn)
        if kind == K_BUFFER:
            value = self._plan_expr(node.value, scope, steps)
            # Value before index, both exactly once, both before the
            # memory ops — the closure's evaluation order.
            value = self._spill(value, steps)
            isteps = []
            idx = self._plan_expr(target.index, scope, isteps)
            steps.extend(isteps)
            idx = self._spill(idx, steps)
            result_fn = value.fn
            if compound is not None:
                current = self._temp()
                steps.append(BLoad(slot, idx.fn, current,
                                   self._site(target)))
                combined = self._temp()
                vfn = value.fn

                def combine(f, c, _r=combined, _cur=current, _vfn=vfn,
                            _cp=compound):
                    f[_r] = _cp(f[_cur], _vfn(f, c))
                steps.append(BPure(combine))
                result_fn = lambda f, c, _r=combined: f[_r]   # noqa: E731
            steps.append(BStore(slot, idx.fn, result_fn, self._site(node)))
            return _CExpr(result_fn)
        if kind == K_LOCAL:
            raise _PlanBail("__local memory")
        raise _PlanBail("subscript store with statically unresolved base")

    def _plan_address_of(self, node: ast.AddressOf, scope: _SlotScope,
                         steps: list) -> _CExpr:
        target = node.target    # a Subscript: otherwise _expr is pure
        base = self._plan_expr(target.base, scope, steps)
        isteps: list = []
        idx = self._plan_expr(target.index, scope, isteps)
        if isteps:
            base = self._spill(base, steps)
            steps.extend(isteps)
        bf, ifn = base.fn, idx.fn
        message = ("& is only supported on __global buffer elements (and "
                   "as the valid-flag argument of non-blocking channel "
                   "reads)")

        def fn(f, c, _bf=bf, _ifn=ifn, _node=node):
            b = _bf(f, c)
            i = _ifn(f, c)
            if isinstance(b, str):
                store = c._instance.memory.buffer(b)
                return store.address_of(i)
            raise error_at(message, _node)
        return _CExpr(fn)

    # -- entry --------------------------------------------------------------

    def compile_plan(self) -> BatchPlan:
        nodes = self._plan_stmt(self._definition.body, self._root,
                                hazard=False)
        return BatchPlan(
            kernel_name=self._definition.name,
            n_slots=self._n_slots,
            binding_slots=sorted(self._root.slots.items()),
            nodes=_merge_pure(nodes))


def compile_batch_plan(definition: ast.KernelDef, *,
                       site_table: Dict[int, str],
                       defines: Dict[str, int],
                       channel_kinds: Dict[str, int],
                       hdl_names,
                       autorun: bool) -> Tuple[Optional[BatchPlan], str]:
    """Lower one kernel definition to a :class:`BatchPlan` if possible.

    Returns ``(plan, "")`` on success or ``(None, reason)`` when the body
    contains a construct the batch executor cannot replay analytically.
    The arguments mirror :func:`compile_kernel_body` and must be the same
    values, so plan sites match the closure backend's LSU identities.
    """
    if autorun:
        return None, "autorun kernel"
    reason = _batch_bail_reason(definition.body, hdl_names)
    if reason is not None:
        return None, reason
    compiler = _PlanCompiler(definition, site_table, defines, channel_kinds,
                             hdl_names, autorun)
    try:
        return compiler.compile_plan(), ""
    except _PlanBail as bail:
        return None, bail.reason
