"""AST interpreter: executes parsed kernels as op-yielding generators.

The interpreter is the frontend's "scheduler": every global-memory access
and channel operation becomes a pipeline op (with the AST node id as its
static site label), arithmetic is zero-time, and — for autorun kernels —
each iteration of the outermost loop takes exactly one clock, matching
Listing 8's single-cycle-launch requirement.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.channels.channel import Channel
from repro.channels.registry import ChannelArray
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import FrontendError, error_at
from repro.memory.local_memory import LocalMemory
from repro.pipeline import ops
from repro.pipeline.context import KernelContext

#: Built-in constants the listings reference.
CONSTANTS = {
    "ULONG_MAX": (1 << 64) - 1,
    "UINT_MAX": (1 << 32) - 1,
    "INT_MAX": (1 << 31) - 1,
    "CLK_CHANNEL_MEM_FENCE": 1,
    "CLK_GLOBAL_MEM_FENCE": 2,
    "CLK_LOCAL_MEM_FENCE": 4,
}

#: Names handled specially by the interpreter.
CHANNEL_BUILTINS = {
    "read_channel_altera", "read_channel_intel",
    "write_channel_altera", "write_channel_intel",
    "read_channel_nb_altera", "read_channel_nb_intel",
    "write_channel_nb_altera", "write_channel_nb_intel",
}


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Scope:
    """Lexically scoped variable environment."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.values: Dict[str, Any] = {}

    def declare(self, name: str, value: Any) -> None:
        self.values[name] = value

    def lookup(self, name: str, node: Optional[ast.Node] = None) -> Any:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.values:
                return scope.values[name]
            scope = scope.parent
        if name in CONSTANTS:
            return CONSTANTS[name]
        raise error_at(f"undefined identifier {name!r}", node)

    def assign(self, name: str, value: Any,
               node: Optional[ast.Node] = None) -> None:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.values:
                scope.values[name] = value
                return
            scope = scope.parent
        raise error_at(f"assignment to undeclared identifier {name!r}", node)


class Interpreter:
    """Executes one kernel body for one iteration instance."""

    def __init__(self, kernel_name: str, hdl_modules: Dict[str, Any],
                 autorun: bool = False,
                 site_table: Optional[Dict[int, str]] = None) -> None:
        self.kernel_name = kernel_name
        self.hdl_modules = hdl_modules
        self.autorun = autorun
        self._loop_depth = 0
        #: node_id -> static site label. The compiler precomputes this once
        #: per kernel (see ``compiler.build_site_table``) and shares it
        #: across iterations; a bare interpreter memoizes labels lazily.
        self._site_table = {} if site_table is None else site_table

    def _site(self, node: ast.Node) -> str:
        node_id = node.node_id
        site = self._site_table.get(node_id)
        if site is None:
            site = f"{self.kernel_name}:n{node_id}"
            self._site_table[node_id] = site
        return site

    # -- entry ----------------------------------------------------------------

    def run(self, body: ast.Block, ctx: KernelContext,
            bindings: Dict[str, Any]) -> Generator:
        """Execute ``body`` with parameter ``bindings`` pre-declared."""
        scope = _Scope()
        for name, value in bindings.items():
            scope.declare(name, value)
        try:
            yield from self._exec_block(body, scope, ctx)
        except _Return:
            return

    # -- statements -------------------------------------------------------------

    def _exec_block(self, block: ast.Block, scope: _Scope,
                    ctx: KernelContext) -> Generator:
        inner = _Scope(scope)
        for statement in block.statements:
            yield from self._exec(statement, inner, ctx)

    def _exec(self, node: ast.Node, scope: _Scope, ctx: KernelContext) -> Generator:
        if isinstance(node, ast.Block):
            yield from self._exec_block(node, scope, ctx)
        elif isinstance(node, ast.Declaration):
            for name, initializer in node.names:
                if node.is_local and name in node.array_sizes:
                    # __local array: the compute unit's shared block RAM
                    # (created by the kernel's create_locals hook).
                    scope.declare(name, ctx.local(name))
                    continue
                if name in node.array_sizes:
                    # Private array: registers/MLABs, zero-time access.
                    size = node.array_sizes[name]
                    if isinstance(size, str):
                        size = scope.lookup(size, node)   # a define
                    if not isinstance(size, int) or size < 1:
                        raise error_at(
                            f"array {name!r}: invalid size {size!r}", node)
                    scope.declare(name, [0] * size)
                    continue
                value = 0
                if initializer is not None:
                    value = yield from self._eval(initializer, scope, ctx)
                scope.declare(name, value)
        elif isinstance(node, ast.ExprStatement):
            yield from self._eval(node.expr, scope, ctx)
        elif isinstance(node, ast.If):
            condition = yield from self._eval(node.condition, scope, ctx)
            if condition:
                yield from self._exec(node.then_branch, scope, ctx)
            elif node.else_branch is not None:
                yield from self._exec(node.else_branch, scope, ctx)
        elif isinstance(node, ast.For):
            yield from self._exec_for(node, scope, ctx)
        elif isinstance(node, ast.While):
            yield from self._exec_while(node, scope, ctx)
        elif isinstance(node, ast.Switch):
            yield from self._exec_switch(node, scope, ctx)
        elif isinstance(node, ast.Return):
            value = None
            if node.value is not None:
                value = yield from self._eval(node.value, scope, ctx)
            raise _Return(value)
        elif isinstance(node, ast.Break):
            raise _Break()
        elif isinstance(node, ast.Continue):
            raise _Continue()
        else:
            raise error_at(f"cannot execute {type(node).__name__}", node)

    def _cycle_boundary(self, ctx: KernelContext) -> Generator:
        """Autorun outermost loops advance one clock per iteration."""
        if self.autorun and self._loop_depth == 1:
            yield ctx.cycle()

    def _exec_for(self, node: ast.For, scope: _Scope, ctx: KernelContext) -> Generator:
        loop_scope = _Scope(scope)
        if node.init is not None:
            yield from self._exec(node.init, loop_scope, ctx)
        self._loop_depth += 1
        try:
            while True:
                if node.condition is not None:
                    condition = yield from self._eval(node.condition,
                                                      loop_scope, ctx)
                    if not condition:
                        break
                try:
                    yield from self._exec(node.body, loop_scope, ctx)
                except _Break:
                    break
                except _Continue:
                    pass
                yield from self._cycle_boundary(ctx)
                if node.step is not None:
                    yield from self._eval(node.step, loop_scope, ctx)
        finally:
            self._loop_depth -= 1

    def _exec_switch(self, node: ast.Switch, scope: _Scope,
                     ctx: KernelContext) -> Generator:
        """C semantics: first matching case (or default), with fallthrough
        until ``break``."""
        subject = yield from self._eval(node.subject, scope, ctx)
        start_index = None
        default_index = None
        for index, case in enumerate(node.cases):
            if case.label is None:
                default_index = index
                continue
            label = yield from self._eval(case.label, scope, ctx)
            if label == subject and start_index is None:
                start_index = index
        if start_index is None:
            start_index = default_index
        if start_index is None:
            return
        switch_scope = _Scope(scope)
        try:
            for case in node.cases[start_index:]:
                for statement in case.statements:
                    yield from self._exec(statement, switch_scope, ctx)
        except _Break:
            return

    def _exec_while(self, node: ast.While, scope: _Scope,
                    ctx: KernelContext) -> Generator:
        self._loop_depth += 1
        try:
            while True:
                condition = yield from self._eval(node.condition, scope, ctx)
                if not condition:
                    break
                try:
                    yield from self._exec(node.body, scope, ctx)
                except _Break:
                    break
                except _Continue:
                    pass
                yield from self._cycle_boundary(ctx)
        finally:
            self._loop_depth -= 1

    # -- expressions ---------------------------------------------------------------

    def _eval(self, node: ast.Node, scope: _Scope, ctx: KernelContext) -> Generator:
        if isinstance(node, ast.IntLiteral):
            return node.value
        if isinstance(node, ast.Name):
            return scope.lookup(node.ident, node)
        if isinstance(node, ast.Cast):
            value = yield from self._eval(node.operand, scope, ctx)
            return value
        if isinstance(node, ast.Unary):
            value = yield from self._eval(node.operand, scope, ctx)
            if node.op == "-":
                return -value
            if node.op == "!":
                return 0 if value else 1
            return ~value
        if isinstance(node, ast.Binary):
            return (yield from self._eval_binary(node, scope, ctx))
        if isinstance(node, ast.Subscript):
            return (yield from self._eval_subscript(node, scope, ctx))
        if isinstance(node, ast.AddressOf):
            return (yield from self._eval_address_of(node, scope, ctx))
        if isinstance(node, ast.Assign):
            return (yield from self._eval_assign(node, scope, ctx))
        if isinstance(node, ast.IncDec):
            current = scope.lookup(node.target.ident, node)
            updated = current + (1 if node.op == "++" else -1)
            scope.assign(node.target.ident, updated, node)
            return current
        if isinstance(node, ast.Call):
            return (yield from self._eval_call(node, scope, ctx))
        raise error_at(f"cannot evaluate {type(node).__name__}", node)

    def _eval_binary(self, node: ast.Binary, scope: _Scope,
                     ctx: KernelContext) -> Generator:
        left = yield from self._eval(node.left, scope, ctx)
        if node.op == "&&":
            if not left:
                return 0
            right = yield from self._eval(node.right, scope, ctx)
            return 1 if right else 0
        if node.op == "||":
            if left:
                return 1
            right = yield from self._eval(node.right, scope, ctx)
            return 1 if right else 0
        right = yield from self._eval(node.right, scope, ctx)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise error_at("division by zero in kernel", node)
            return int(left / right)           # C truncation semantics
        if op == "%":
            if right == 0:
                raise error_at("modulo by zero in kernel", node)
            return left - int(left / right) * right
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        raise error_at(f"unknown operator {op!r}", node)

    def _eval_subscript(self, node: ast.Subscript, scope: _Scope,
                        ctx: KernelContext) -> Generator:
        base = yield from self._eval(node.base, scope, ctx)
        index = yield from self._eval(node.index, scope, ctx)
        if isinstance(base, ChannelArray):
            return base[index]
        if isinstance(base, list):
            # Private array: combinational register-file read.
            if not 0 <= index < len(base):
                raise error_at(
                    f"private array index {index} out of range "
                    f"[0, {len(base)})", node)
            return base[index]
        if isinstance(base, LocalMemory):
            value = yield ops.LoadLocal(base, index, site=self._site(node))
            return value
        if isinstance(base, str):
            value = yield ctx.load(base, index, site=self._site(node))
            return value
        raise error_at(
            f"cannot index a {type(base).__name__} (expected a __global "
            "buffer, __local/private array, or channel array)", node)

    def _eval_address_of(self, node: ast.AddressOf, scope: _Scope,
                         ctx: KernelContext) -> Generator:
        """``&buf[i]`` — the device address of a buffer element."""
        target = node.target
        if isinstance(target, ast.Subscript):
            base = yield from self._eval(target.base, scope, ctx)
            index = yield from self._eval(target.index, scope, ctx)
            if isinstance(base, str):
                store = ctx._instance.memory.buffer(base)
                return store.address_of(index)
        raise error_at(
            "& is only supported on __global buffer elements (and as the "
            "valid-flag argument of non-blocking channel reads)", node)

    def _eval_assign(self, node: ast.Assign, scope: _Scope,
                     ctx: KernelContext) -> Generator:
        value = yield from self._eval(node.value, scope, ctx)
        target = node.target
        if isinstance(target, ast.Name):
            if node.op != "=":
                current = scope.lookup(target.ident, target)
                value = self._apply_compound(node.op, current, value)
            scope.assign(target.ident, value, target)
            return value
        # Subscript target: private array or global buffer.
        base = yield from self._eval(target.base, scope, ctx)
        index = yield from self._eval(target.index, scope, ctx)
        if isinstance(base, list):
            if not 0 <= index < len(base):
                raise error_at(
                    f"private array index {index} out of range "
                    f"[0, {len(base)})", node)
            if node.op != "=":
                value = self._apply_compound(node.op, base[index], value)
            base[index] = value
            return value
        if isinstance(base, LocalMemory):
            if node.op != "=":
                current = yield ops.LoadLocal(base, index,
                                              site=self._site(target))
                value = self._apply_compound(node.op, current, value)
            yield ops.StoreLocal(base, index, value, site=self._site(node))
            return value
        if not isinstance(base, str):
            raise error_at(
                "can only store into __global buffers or __local/private "
                "arrays", node)
        if node.op != "=":
            current = yield ctx.load(base, index, site=self._site(target))
            value = self._apply_compound(node.op, current, value)
        yield ctx.store(base, index, value, site=self._site(node))
        return value

    @staticmethod
    def _apply_compound(op: str, current: Any, value: Any) -> Any:
        if op == "+=":
            return current + value
        if op == "-=":
            return current - value
        if op == "*=":
            return current * value
        if op == "/=":
            return int(current / value)
        if op == "%=":
            return current - int(current / value) * value
        raise FrontendError(f"unknown compound assignment {op!r}")

    def _eval_call(self, node: ast.Call, scope: _Scope,
                   ctx: KernelContext) -> Generator:
        name = node.func
        if name in ("get_global_id", "get_global_size", "get_local_id"):
            return ctx.global_id if name == "get_global_id" else 0
        if name == "get_compute_id":
            return ctx.compute_id
        if name == "mem_fence":
            return 0
        if name == "barrier":
            yield ctx.barrier(site=self._site(node))
            return 0
        if name in CHANNEL_BUILTINS:
            return (yield from self._eval_channel_builtin(node, scope, ctx))
        if name in self.hdl_modules:
            args = []
            for argument in node.args:
                args.append((yield from self._eval(argument, scope, ctx)))
            value = yield ctx.call(self.hdl_modules[name], *args,
                                   site=self._site(node))
            return value
        raise error_at(f"unknown function {name!r}", node)

    def _eval_channel_builtin(self, node: ast.Call, scope: _Scope,
                              ctx: KernelContext) -> Generator:
        name = node.func
        channel = yield from self._eval(node.args[0], scope, ctx)
        if not isinstance(channel, Channel):
            raise error_at(
                f"{name} expects a channel, got {type(channel).__name__}",
                node)
        if name.startswith("read_channel_nb"):
            value, valid = ctx.read_channel_nb(channel)
            if len(node.args) > 1:
                flag = node.args[1]
                if isinstance(flag, ast.AddressOf) and isinstance(
                        flag.target, ast.Name):
                    scope.assign(flag.target.ident, 1 if valid else 0,
                                 flag.target)
                else:
                    raise error_at(
                        f"{name}: second argument must be &flag", node)
            return value if valid else 0
        if name.startswith("write_channel_nb"):
            value = yield from self._eval(node.args[1], scope, ctx)
            ok = ctx.write_channel_nb(channel, value)
            return 1 if ok else 0
        if name.startswith("read_channel"):
            value = yield ctx.read_channel(channel, site=self._site(node))
            return value
        # blocking write
        value = yield from self._eval(node.args[1], scope, ctx)
        yield ctx.write_channel(channel, value, site=self._site(node))
        return value
