"""Compiler: OpenCL-C source → kernels installed on a fabric.

The frontend equivalent of ``aoc``: parses a program, declares its
channels in the fabric namespace (honouring ``depth`` attributes), builds
a :class:`~repro.pipeline.kernel.Kernel` object per kernel function —
autorun kernels start immediately, as programming the device would — and
statically extracts each kernel's resource profile for the synthesis
model. An autorun kernel in the Listing 1 free-running-counter idiom is
installed as a lazy service instead: its channel becomes a
:class:`~repro.channels.channel.CounterRegisterChannel` (see
:func:`find_counter_registers`), so the counter costs no simulation
event per cycle.

Kernel dispatch mode follows AOCL semantics: a kernel that calls
``get_global_id`` is an NDRange kernel (launch with ``__global_size`` in
its args); anything else is a single task. Compiled single-task kernels
execute their loop nests *serially* (the frontend is a correctness-level
compiler, like the emulator); use the native Python-IR kernels when
pipelined timing is the subject of study.

Two execution backends share one parse:

* ``frontend="codegen"`` (default) lowers each kernel body once to
  slot-framed Python closures (:mod:`repro.frontend.codegen`) — names
  become list indices, pure arithmetic runs outside generator frames,
  and only scheduler ops yield. Same op stream, several times faster.
* ``frontend="reference"`` keeps the tree-walking interpreter — the
  semantics oracle the codegen backend is tested against.

Compilation artifacts that don't depend on the target fabric (the AST,
site tables, ``__local`` layouts, compiled closure bodies) are cached in
a process-wide LRU keyed by source text and compile options, so hosts
that re-program fabrics with the same ``.cl`` source skip the frontend
entirely. Inspect with :func:`program_cache_info`; reset with
:func:`program_cache_clear`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.channels.channel import CounterRegisterChannel
from repro.channels.registry import ChannelArray
from repro.frontend import ast_nodes as ast
from repro.frontend.codegen import (
    K_CHANARR,
    K_CHANNEL,
    CompiledBody,
    compile_kernel_body,
)
from repro.frontend.interpreter import CHANNEL_BUILTINS, Interpreter
from repro.frontend.lexer import FrontendError
from repro.frontend.parser import parse
from repro.frontend.preprocessor import preprocess
from repro.hdl.library import HDLLibrary
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import (
    AutorunKernel,
    NDRangeKernel,
    PipelineConfig,
    ResourceProfile,
    SingleTaskKernel,
)

#: Execution backends accepted by the ``frontend=`` compile option.
FRONTENDS = ("codegen", "reference")
DEFAULT_FRONTEND = "codegen"


def _uses_global_id(node: Any) -> bool:
    return any(isinstance(child, ast.Call) and child.func == "get_global_id"
               for child in ast.walk(node))


def extract_profile(kernel_def: ast.KernelDef) -> ResourceProfile:
    """Static per-compute-unit hardware content of one compiled kernel."""
    profile = ResourceProfile(control_states=2)
    store_targets: set = set()
    for node in ast.walk(kernel_def.body):
        if isinstance(node, ast.Assign) and isinstance(node.target, ast.Subscript):
            profile.store_sites += 1
            store_targets.add(id(node.target))
        if isinstance(node, ast.Subscript):
            # Heuristic: a subscript that is not a store target and whose
            # base is a plain name is a candidate load site (channel-array
            # subscripts are filtered by the zero-cost of being wrong here).
            if id(node) not in store_targets and isinstance(
                    node.base, ast.Name):
                profile.load_sites += 1
        if isinstance(node, ast.Binary):
            if node.op in ("+", "-"):
                profile.adders += 1
            elif node.op == "*":
                profile.multipliers += 1
            else:
                profile.logic_ops += 1
        if isinstance(node, ast.IncDec) or (
                isinstance(node, ast.Assign) and node.op in ("+=", "-=")):
            profile.adders += 1
        if isinstance(node, (ast.For, ast.While)):
            profile.control_states += 4
        if isinstance(node, ast.If):
            profile.control_states += 2
        if isinstance(node, ast.Call):
            if node.func in CHANNEL_BUILTINS:
                profile.channel_endpoints += 1
            elif node.func not in ("get_global_id", "get_compute_id",
                                   "get_global_size", "get_local_id",
                                   "mem_fence"):
                profile.hdl_modules += 1
    return profile


def build_site_table(kernel_name: str, root: ast.Node) -> Dict[int, str]:
    """Precompute the static site label of every AST node in a kernel.

    Site labels (``"<kernel>:n<node_id>"``) name the hardware unit an op
    maps to; they are a pure function of the AST, so the compiler computes
    them once per kernel instead of formatting one per executed op. Both
    execution backends read the same table, which is what makes their op
    streams site-for-site identical.
    """
    return {node.node_id: f"{kernel_name}:n{node.node_id}"
            for node in ast.walk(root)}


def _collect_local_arrays(node: Any, defines: Dict[str, Any]) -> Dict[str, int]:
    """All ``__local type name[size]`` declarations in a kernel body."""
    found: Dict[str, int] = {}
    for current in ast.walk(node):
        if isinstance(current, ast.Declaration) and current.is_local:
            for name, _ in current.names:
                size = current.array_sizes.get(name)
                if size is None:
                    raise FrontendError(
                        f"__local variable {name!r} must be an array")
                if isinstance(size, str):
                    size = defines.get(size)
                if not isinstance(size, int) or size < 1:
                    raise FrontendError(
                        f"__local array {name!r}: size must be a positive "
                        "constant (or a define)")
                found[name] = size
    return found


# -- fabric-independent compilation artifacts --------------------------------

class KernelArtifacts:
    """Everything compiled once per (kernel, options), reused per fabric."""

    __slots__ = ("definition", "kind", "site_table", "local_arrays",
                 "compiled_body")

    def __init__(self, definition: ast.KernelDef, kind: str,
                 site_table: Dict[int, str], local_arrays: Dict[str, int],
                 compiled_body: Optional[CompiledBody]) -> None:
        self.definition = definition
        self.kind = kind                      # "autorun" | "ndrange" | "task"
        self.site_table = site_table
        self.local_arrays = local_arrays
        self.compiled_body = compiled_body    # None under "reference"


def build_kernel_artifacts(definition: ast.KernelDef,
                           defines: Dict[str, Any],
                           channel_kinds: Dict[str, int],
                           hdl_names,
                           frontend: str) -> KernelArtifacts:
    """Compile one kernel definition's fabric-independent artifacts."""
    if definition.is_autorun:
        kind = "autorun"
    elif _uses_global_id(definition.body):
        kind = "ndrange"
    else:
        kind = "task"
    site_table = build_site_table(definition.name, definition.body)
    local_arrays = _collect_local_arrays(definition.body, defines)
    compiled_body = None
    if frontend == "codegen":
        compiled_body = compile_kernel_body(
            definition,
            site_table=site_table,
            defines=defines,
            channel_kinds=channel_kinds,
            hdl_names=hdl_names,
            autorun=kind == "autorun")
    return KernelArtifacts(definition, kind, site_table, local_arrays,
                           compiled_body)


def _counter_idiom_channel(definition: ast.KernelDef,
                           channels: Dict[str, ast.ChannelDecl]
                           ) -> Optional[str]:
    """The channel a kernel drives as a Listing 1 free-running counter.

    Matches a parameterless autorun kernel with one compute unit whose
    body is exactly ``int c = 0; while (1) { [uninitialised decls;] c++;
    [x =] write_channel_nb_altera(ch, c); }``, where ``ch`` is a scalar
    ``depth(0)`` channel and ``x`` one of the loop's declarations. Such a
    kernel writes ``now - start + 1`` to ``ch`` every cycle and nothing
    else; returns ``ch``, or None for any other kernel.
    """
    if (not definition.is_autorun or definition.num_compute_units != 1
            or any(p.type_name != "void" for p in definition.parameters)):
        return None
    statements = definition.body.statements
    if len(statements) != 2:
        return None
    init, loop = statements
    if not (isinstance(init, ast.Declaration) and init.type_name == "int"
            and not init.is_local and not init.array_sizes
            and len(init.names) == 1):
        return None
    counter, start = init.names[0]
    if not (isinstance(start, ast.IntLiteral) and start.value == 0
            and isinstance(loop, ast.While)
            and isinstance(loop.condition, ast.IntLiteral)
            and loop.condition.value != 0
            and isinstance(loop.body, ast.Block)
            and len(loop.body.statements) >= 2):
        return None
    *declarations, step, write = loop.body.statements
    loop_names = set()
    for declaration in declarations:
        if not (isinstance(declaration, ast.Declaration)
                and not declaration.is_local and not declaration.array_sizes
                and all(value is None for _, value in declaration.names)):
            return None
        loop_names.update(name for name, _ in declaration.names)
    if not (isinstance(step, ast.ExprStatement)
            and isinstance(step.expr, ast.IncDec) and step.expr.op == "++"
            and step.expr.target.ident == counter
            and isinstance(write, ast.ExprStatement)):
        return None
    call = write.expr
    if isinstance(call, ast.Assign):
        if not (call.op == "=" and isinstance(call.target, ast.Name)
                and call.target.ident in loop_names):
            return None
        call = call.value
    if not (isinstance(call, ast.Call) and call.func in CHANNEL_BUILTINS
            and call.func.startswith("write_channel_nb")
            and len(call.args) == 2
            and all(isinstance(arg, ast.Name) for arg in call.args)
            and call.args[1].ident == counter):
        return None
    channel = call.args[0].ident
    declaration = channels.get(channel)
    if (counter in loop_names or channel in loop_names or channel == counter
            or declaration is None or declaration.count is not None
            or declaration.depth != 0):
        return None
    return channel


def _only_read_by(channel: str, definition: ast.KernelDef) -> bool:
    """True if ``definition`` uses ``channel`` at most as a read argument,
    and, being an autorun kernel, not at all (an autorun reader shares the
    counter's intra-cycle lane, so its reads need the real writes)."""
    uses, read_args = [], set()
    for node in ast.walk(definition.body):
        if isinstance(node, ast.Name) and node.ident == channel:
            uses.append(node)
        elif (isinstance(node, ast.Call) and node.args
                and node.func in CHANNEL_BUILTINS
                and node.func.startswith("read_channel")):
            read_args.add(id(node.args[0]))
    if definition.is_autorun:
        return not uses
    return all(id(node) in read_args for node in uses)


def find_counter_registers(program_ast: ast.Program) -> Dict[str, str]:
    """Autorun kernels that can run as lazy counter registers.

    Maps each kernel matching the Listing 1 idiom (see
    :func:`_counter_idiom_channel`) to its channel, provided every other
    kernel only reads that channel and no other autorun kernel touches it.
    A pure function of the AST, computed once per program image.
    """
    channels = {declaration.name: declaration
                for declaration in program_ast.channels}
    found: Dict[str, str] = {}
    for definition in program_ast.kernels:
        channel = _counter_idiom_channel(definition, channels)
        if channel is not None and all(
                _only_read_by(channel, other)
                for other in program_ast.kernels if other is not definition):
            found[definition.name] = channel
    return found


class _ProgramImage:
    """Parsed + codegenned program, independent of any fabric."""

    __slots__ = ("ast", "macros", "artifacts", "counter_registers")

    def __init__(self, program_ast: ast.Program, macros: Dict[str, str],
                 artifacts: Dict[str, KernelArtifacts]) -> None:
        self.ast = program_ast
        self.macros = macros
        self.artifacts = artifacts
        #: Autorun kernel name -> the channel it drives as a lazy counter.
        self.counter_registers = find_counter_registers(program_ast)


def _build_image(source: str, defines: Dict[str, Any], hdl_names,
                 frontend: str) -> _ProgramImage:
    expanded, macros = preprocess(source)
    program_ast = parse(expanded)
    channel_kinds = {
        declaration.name: (K_CHANNEL if declaration.count is None
                           else K_CHANARR)
        for declaration in program_ast.channels
    }
    artifacts = {
        definition.name: build_kernel_artifacts(
            definition, defines, channel_kinds, hdl_names, frontend)
        for definition in program_ast.kernels
    }
    return _ProgramImage(program_ast, macros, artifacts)


#: Process-wide LRU of program images, keyed by source + compile options.
#: Guarded by ``_CACHE_LOCK``: the emulation server's sessions (and its
#: inline executor threads) compile concurrently against one process-wide
#: cache, so lookup+insert must be atomic — N concurrent compiles of the
#: same source must cost exactly one miss.
_PROGRAM_CACHE: "OrderedDict[Any, _ProgramImage]" = OrderedDict()
_PROGRAM_CACHE_MAXSIZE = 128
_CACHE_LOCK = threading.RLock()
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def _load_image(source: str, defines: Dict[str, Any], hdl_names,
                frontend: str) -> _ProgramImage:
    global _cache_hits, _cache_misses, _cache_evictions
    with _CACHE_LOCK:
        try:
            key = (source, tuple(sorted(defines.items())),
                   tuple(sorted(hdl_names)), frontend)
            hash(key)
        except TypeError:
            # Unhashable options (exotic define values): compile uncached.
            _cache_misses += 1
            return _build_image(source, defines, hdl_names, frontend)
        image = _PROGRAM_CACHE.get(key)
        if image is not None:
            _cache_hits += 1
            _PROGRAM_CACHE.move_to_end(key)
            return image
        # Build under the lock: a second thread asking for the same key
        # must block and then hit, not compile the image twice.
        _cache_misses += 1
        image = _build_image(source, defines, hdl_names, frontend)
        _PROGRAM_CACHE[key] = image
        if len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAXSIZE:
            _PROGRAM_CACHE.popitem(last=False)
            _cache_evictions += 1
        return image


def program_cache_info() -> Dict[str, int]:
    """Program-image cache statistics (for tests and capacity tuning).

    ``hits``/``misses``/``evictions`` are monotonic counters (reset only
    by :func:`program_cache_clear`); the snapshot is taken atomically
    under the cache lock, so concurrent compiles never yield torn reads.
    """
    with _CACHE_LOCK:
        return {"hits": _cache_hits, "misses": _cache_misses,
                "evictions": _cache_evictions,
                "size": len(_PROGRAM_CACHE),
                "maxsize": _PROGRAM_CACHE_MAXSIZE}


def program_cache_clear() -> None:
    """Drop all cached program images and reset the hit/miss counters."""
    global _cache_hits, _cache_misses, _cache_evictions
    with _CACHE_LOCK:
        _PROGRAM_CACHE.clear()
        _cache_hits = 0
        _cache_misses = 0
        _cache_evictions = 0


# -- compiled kernel objects -------------------------------------------------

class _CompiledMixin:
    """Shared launch-time binding and execution for compiled kernels."""

    def _init_compiled(self, definition, channel_bindings, hdl_modules,
                       defines, frontend: str,
                       artifacts: Optional[KernelArtifacts]) -> None:
        if frontend not in FRONTENDS:
            raise FrontendError(
                f"unknown frontend {frontend!r}; expected one of "
                f"{', '.join(FRONTENDS)}")
        self._definition = definition
        self._channel_bindings = channel_bindings
        self._hdl_modules = hdl_modules
        self._defines = dict(defines or {})
        self.frontend = frontend
        if artifacts is None:
            # Direct construction (no program image): infer the channel
            # kinds from the live bindings and compile on the spot.
            channel_kinds = {
                name: (K_CHANARR if isinstance(value, ChannelArray)
                       else K_CHANNEL)
                for name, value in channel_bindings.items()
            }
            artifacts = build_kernel_artifacts(
                definition, self._defines, channel_kinds,
                hdl_modules.keys(), frontend)
        self._site_table = artifacts.site_table
        self._local_arrays = artifacts.local_arrays
        self._compiled_body = artifacts.compiled_body

    def create_locals(self, fabric, compute_id: int) -> Dict[str, Any]:
        """Instantiate this kernel's ``__local`` arrays as block RAM."""
        from repro.memory.local_memory import LocalMemory

        return {name: LocalMemory(fabric.sim,
                                  f"{self.name}.cu{compute_id}.{name}", size)
                for name, size in self._local_arrays.items()}

    def _bindings(self, ctx) -> Dict[str, Any]:
        bindings: Dict[str, Any] = {}
        for parameter in self._definition.parameters:
            if parameter.type_name == "void":
                continue
            try:
                value = ctx.args[parameter.name]
            except KeyError:
                raise FrontendError(
                    f"kernel {self.name!r}: missing argument "
                    f"{parameter.name!r}") from None
            if parameter.is_global_pointer and not isinstance(value, str):
                raise FrontendError(
                    f"kernel {self.name!r}: argument {parameter.name!r} is a "
                    "__global pointer; pass a buffer name")
            bindings[parameter.name] = value
        bindings.update(self._defines)
        bindings.update(self._channel_bindings)
        return bindings

    def body(self, ctx):
        compiled = self._compiled_body
        if compiled is not None:
            return compiled.make(ctx, self._bindings(ctx), self._hdl_modules)
        interpreter = Interpreter(self.name, self._hdl_modules,
                                  autorun=self.kind == "autorun",
                                  site_table=self._site_table)
        return interpreter.run(self._definition.body, ctx, self._bindings(ctx))

    def resource_profile(self) -> ResourceProfile:
        return extract_profile(self._definition)


class CompiledSingleTask(_CompiledMixin, SingleTaskKernel):
    """A compiled single-task kernel: the whole function is one serialized
    iteration (correctness-level execution)."""

    def __init__(self, definition, channel_bindings, hdl_modules,
                 defines=None, frontend: str = DEFAULT_FRONTEND,
                 artifacts: Optional[KernelArtifacts] = None) -> None:
        super().__init__(name=definition.name,
                         pipeline=PipelineConfig(ii=1, max_inflight=1))
        self._init_compiled(definition, channel_bindings, hdl_modules,
                            defines, frontend, artifacts)

    def iteration_space(self, args) -> List[int]:
        return [0]


class CompiledNDRange(_CompiledMixin, NDRangeKernel):
    """A compiled NDRange kernel: one iteration per work-item.

    Launch with ``{"__global_size": N, ...}``. Work-items pipeline with
    II=1; any loop inside the work-item executes serially within it.
    """

    def __init__(self, definition, channel_bindings, hdl_modules,
                 defines=None, frontend: str = DEFAULT_FRONTEND,
                 artifacts: Optional[KernelArtifacts] = None) -> None:
        super().__init__(name=definition.name)
        self._init_compiled(definition, channel_bindings, hdl_modules,
                            defines, frontend, artifacts)

    def global_size(self, args) -> int:
        try:
            return int(args["__global_size"])
        except KeyError:
            raise FrontendError(
                f"NDRange kernel {self.name!r} needs '__global_size' in its "
                "launch args") from None

    def trip_count(self, args) -> int:
        return 1


class CompiledAutorun(_CompiledMixin, AutorunKernel):
    """A compiled autorun kernel (Listings 1, 5, 8)."""

    def __init__(self, definition, channel_bindings, hdl_modules,
                 defines=None, phase: str = "early",
                 frontend: str = DEFAULT_FRONTEND,
                 artifacts: Optional[KernelArtifacts] = None) -> None:
        super().__init__(name=definition.name,
                         num_compute_units=definition.num_compute_units,
                         phase=phase)
        self._init_compiled(definition, channel_bindings, hdl_modules,
                            defines, frontend, artifacts)


class CompiledProgram:
    """A compiled ``.cl`` program bound to one fabric."""

    def __init__(self, fabric: Fabric, source: str,
                 hdl_library: Optional[HDLLibrary] = None,
                 autorun_args: Optional[Dict[str, Dict[str, Any]]] = None,
                 start_autorun: bool = True,
                 defines: Optional[Dict[str, int]] = None,
                 frontend: str = DEFAULT_FRONTEND) -> None:
        if frontend not in FRONTENDS:
            raise FrontendError(
                f"unknown frontend {frontend!r}; expected one of "
                f"{', '.join(FRONTENDS)}")
        self.fabric = fabric
        self.frontend = frontend
        self.defines = dict(defines or {})
        self._hdl_modules: Dict[str, Any] = {}
        if hdl_library is not None:
            for module in hdl_library.modules():
                self._hdl_modules[module.name] = module

        image = _load_image(source, self.defines,
                            tuple(sorted(self._hdl_modules)), frontend)
        self.ast = image.ast
        self.macros = dict(image.macros)

        # A Listing 1 timer runs as a lazy counter register: its channel
        # computes now - start + 1 on demand instead of the kernel writing
        # it every cycle (the same binding PersistentTimestampService uses).
        counters = image.counter_registers if start_autorun else {}
        counter_channels = set(counters.values())

        # Channel declarations (file scope) go into the fabric namespace.
        self._channel_bindings: Dict[str, Any] = {}
        for declaration in self.ast.channels:
            depth = declaration.depth
            depth = 1 if depth is None else depth
            if declaration.name in counter_channels:
                channel = fabric.channels.adopt(CounterRegisterChannel(
                    fabric.sim, declaration.name,
                    start_cycle=fabric.sim.now))
                self._channel_bindings[declaration.name] = channel
            elif declaration.count is None:
                channel = fabric.channels.declare(declaration.name, depth=depth)
                self._channel_bindings[declaration.name] = channel
            else:
                array = fabric.channels.declare_array(
                    declaration.name, declaration.count, depth=depth)
                self._channel_bindings[declaration.name] = array

        self.kernels: Dict[str, Any] = {}
        for definition in self.ast.kernels:
            artifacts = image.artifacts[definition.name]
            if artifacts.kind == "autorun":
                kernel = CompiledAutorun(definition, self._channel_bindings,
                                         self._hdl_modules, self.defines,
                                         frontend=frontend,
                                         artifacts=artifacts)
            elif artifacts.kind == "ndrange":
                kernel = CompiledNDRange(definition, self._channel_bindings,
                                         self._hdl_modules, self.defines,
                                         frontend=frontend,
                                         artifacts=artifacts)
            else:
                kernel = CompiledSingleTask(definition, self._channel_bindings,
                                            self._hdl_modules, self.defines,
                                            frontend=frontend,
                                            artifacts=artifacts)
            self.kernels[definition.name] = kernel

        if start_autorun:
            for kernel in self.kernels.values():
                if not isinstance(kernel, CompiledAutorun):
                    continue
                counter = counters.get(kernel.name)
                if counter is not None:
                    fabric.add_lazy_service(kernel,
                                            self._channel_bindings[counter])
                else:
                    args = (autorun_args or {}).get(kernel.name, {})
                    fabric.add_autorun(kernel, args)

    def kernel(self, name: str):
        try:
            return self.kernels[name]
        except KeyError:
            raise FrontendError(
                f"no kernel named {name!r}; program defines "
                f"{sorted(self.kernels)}") from None

    def channel(self, name: str):
        try:
            return self._channel_bindings[name]
        except KeyError:
            raise FrontendError(f"no channel named {name!r}") from None


def compile_source(fabric: Fabric, source: str, **kwargs) -> CompiledProgram:
    """Convenience wrapper: ``aoc`` for the simulated fabric."""
    return CompiledProgram(fabric, source, **kwargs)
