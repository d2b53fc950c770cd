"""The pipeline engine: executes kernels the way AOCL hardware does.

A compiled kernel is a pipeline fed by a stream of iteration instances
(loop iterations for single-task kernels, work-items for NDRange kernels).
The engine models the dynamic behaviour that the paper's instrumentation
observes:

* iterations are **issued in schedule order**, one per initiation interval,
  with a bounded number in flight (pipeline depth) — issue stalls when the
  pipeline is full;
* each static memory site retires accesses **in order** (one LSU per static
  load/store), so a slow access stalls everything behind it — this is the
  stall the §5.1 monitor measures;
* channel operations follow AOCL semantics, including blocking reads that
  stall the pipeline and non-blocking writes that never do;
* autorun kernels run forever, phase-aligned within the clock cycle
  ("early" producers update before "late" consumers poll).

Site identity is derived from the generator's suspended source line when
not given explicitly, so one textual ``yield`` maps to one hardware unit
across all iterations — mirroring static elaboration. Compiled kernels
attach precomputed sites to every op instead (see
:func:`repro.frontend.compiler.build_site_table`), which keeps frame
inspection entirely off the compiled-listings path.

Op execution has two interchangeable executors (see ``docs/PERFORMANCE.md``,
"Op dispatch and cycle fusion"):

* the **fast executor** (default): a type-keyed dispatch table
  (:data:`OP_DISPATCH`) with the dominant ops inlined straight into the
  drive loop, zero-latency compute runs fused into one scheduler visit,
  autorun ``CycleBoundary`` steps parked on one shared broadcast tick
  per ``(cycle, phase)``, and idle ``WaitReadable`` units parked on their
  channels' wake hooks until a producer writes;
* the **reference executor** (``executor="reference"``): the original
  one-generator-per-op interpretation loop, kept as the semantic oracle
  for the dispatch property suite.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.channels.channel import Channel
from repro.errors import KernelBuildError, KernelError
from repro.memory.lsu import LoadStoreUnit
from repro.pipeline import ops
from repro.pipeline.accumulator import Accumulator
from repro.pipeline.context import KernelContext
from repro.pipeline.kernel import AutorunKernel, Kernel
from repro.sim.core import (
    PRIORITY_LATE,
    PRIORITY_URGENT,
    Event,
    Interrupt,
    Process,
)


# Hot-op aliases: `op.__class__ is _X` beats isinstance() and keeps the
# fast drive loop free of attribute lookups.
_Compute = ops.Compute
_CycleBoundary = ops.CycleBoundary
_Load = ops.Load
_Store = ops.Store
_LoadLocal = ops.LoadLocal
_StoreLocal = ops.StoreLocal
_MemFence = ops.MemFence


class _NonOpYield(Exception):
    """Internal: a kernel body yielded something that is not an Op."""


class KernelInstance:
    """One compute unit of a kernel: private locals, accumulators, endpoints.

    Holds the fabric's clock, memory and channel namespace, and the fabric
    itself only weakly: the fabric lists its engines, so a strong back
    reference would make every finished fabric a reference cycle.
    """

    def __init__(self, fabric: Any, kernel: Kernel, args: Dict[str, Any],
                 compute_id: int = 0) -> None:
        self._fabric = weakref.ref(fabric)
        self.sim = fabric.sim
        self.memory = fabric.memory
        self.channels = fabric.channels
        self.kernel = kernel
        self.args = dict(args or {})
        self.compute_id = compute_id
        #: The identity channels bind endpoints against (SPSC enforcement).
        #: Binding is at *kernel* granularity: replicated compute units of
        #: one kernel and repeated launches of one host-interface kernel
        #: are the same static endpoint in the compiled image. A weak
        #: reference (CPython hands out one per kernel), because kernels
        #: hold their channels and a channel holds its endpoints.
        self.endpoint_owner = weakref.ref(kernel)
        self._locals = kernel.create_locals(fabric, compute_id)
        self._accumulators: Dict[str, Accumulator] = {}

    @property
    def fabric(self) -> Any:
        """The fabric this unit runs on (None once it has been freed)."""
        return self._fabric()

    def local(self, name: str):
        try:
            return self._locals[name]
        except KeyError:
            raise KernelError(
                f"kernel {self.kernel.name!r} (cu{self.compute_id}) declares no "
                f"local memory named {name!r}") from None

    def accumulator(self, name: str) -> Accumulator:
        if name not in self._accumulators:
            self._accumulators[name] = Accumulator(
                self.sim, f"{self.kernel.name}.{name}")
        return self._accumulators[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelInstance {self.kernel.name!r} cu{self.compute_id}>"


@dataclass
class EngineStats:
    """Dynamic execution statistics of one kernel launch."""

    iterations_issued: int = 0
    iterations_retired: int = 0
    start_cycle: Optional[int] = None
    finish_cycle: Optional[int] = None
    issue_stall_cycles: int = 0
    #: Per-iteration lifetimes: (tag, issue_cycle, retire_cycle), retained
    #: when the fabric keeps samples. Ground truth for pipeline views.
    iteration_trace: List[Tuple[Any, int, int]] = field(default_factory=list)

    @property
    def total_cycles(self) -> Optional[int]:
        if self.start_cycle is None or self.finish_cycle is None:
            return None
        return self.finish_cycle - self.start_cycle


class _Wake:
    """The wake hook of one unit parked on :class:`~repro.pipeline.ops.
    WaitReadable`, held by each watched channel while the unit is parked.

    The unit last polled at the cycle it parked. A write that makes data
    visible in a watched channel at cycle ``t`` calls :meth:`fire`, which
    schedules the unit's resume in its own lane at ``max(t, parked + 1)``:
    the first poll a polling unit would have seen the data at. Each poll
    skipped meanwhile is a failed non-blocking read of every watched
    channel; :meth:`settle` charges those up to the previous cycle whenever
    channel statistics are read, so they match the polling model at every
    cycle boundary.
    """

    __slots__ = ("sim", "channels", "lane", "event", "counted", "wake_at")

    def __init__(self, sim: Any, channels: Tuple[Channel, ...],
                 lane: int) -> None:
        self.sim = sim
        self.channels = channels
        self.lane = lane
        self.event = Event(sim)
        #: Last cycle whose poll is already in the channels' statistics.
        self.counted = sim.now
        self.wake_at: Optional[int] = None
        for channel in channels:
            channel._wake = self

    def _charge(self, upto: int) -> None:
        skipped = upto - self.counted
        if skipped > 0:
            for channel in self.channels:
                channel._stats.read_failures += skipped
            self.counted = upto

    def settle(self) -> None:
        """Charge the polls skipped before the current cycle."""
        self._charge(self.sim.now - 1)

    def fire(self) -> None:
        """A watched channel got data: resume the unit at its next poll."""
        sim = self.sim
        now = sim.now
        wake_at = max(now, self.counted + 1)
        self._charge(wake_at - 1)
        self.release()
        self.wake_at = wake_at
        event = self.event
        event._value = None
        sim._schedule(event, wake_at - now, self.lane)

    def release(self) -> None:
        """Drop this hook from every watched channel still holding it."""
        for channel in self.channels:
            if channel._wake is self:
                channel._wake = None

    def unschedule(self) -> None:
        """Take a fired but unconsumed resume back out of the queue, so a
        killed unit leaves no event behind (see AutorunEngine.stop)."""
        if self.wake_at is not None and self.event.callbacks is not None:
            self.sim._unschedule(self.event, self.wake_at, self.lane)


def _parkable(channels: Tuple[Channel, ...]) -> bool:
    """Whether a late-lane unit may park on ``channels`` (else it polls).

    Parking is exact when data only ever becomes visible through a hooked
    write that lands before the late lane of its cycle. Three cases are
    not, and keep the unit polling: a channel whose data appears without a
    write (the analytic counter register), a channel another parked unit
    already watches, and a channel produced by a late-phase autorun kernel
    — its same-cycle writes are ordered against the unit by autorun start
    order, which a wake-up cannot reproduce.
    """
    for channel in channels:
        if type(channel) is not Channel or channel._wake is not None:
            return False
        producer = channel.producer
        if (isinstance(producer, AutorunKernel)
                and producer.phase == "late"):
            return False
    return True


class _OpExecutor:
    """Shared op-execution machinery for pipelined and autorun engines."""

    def __init__(self, fabric: Any, kernel: Kernel,
                 executor: str = "fast") -> None:
        # Parts of the fabric, not the fabric (see KernelInstance).
        self.kernel = kernel
        self.sim = fabric.sim
        self.memory = fabric.memory
        self.keep_lsu_samples = fabric.keep_lsu_samples
        self._lsus: Dict[Tuple[str, str], LoadStoreUnit] = {}
        #: Site-name cache keyed by the static identity of a yield: the
        #: body's code object, suspended line, op class, and compute unit.
        self._site_cache: Dict[Tuple[Any, int, type, int], str] = {}
        #: Intra-cycle lane of this kernel's cycle boundaries, resolved once
        #: ("early" producers run urgent, everything else late).
        self._tick_priority = (PRIORITY_URGENT
                               if getattr(kernel, "phase", "late") == "early"
                               else PRIORITY_LATE)
        if executor == "reference":
            self._drive = self._drive_reference
        elif executor != "fast":
            raise KernelBuildError(
                f"unknown executor {executor!r} "
                "(use 'fast' or 'reference')")

    def lsu(self, site: str, kind: str) -> LoadStoreUnit:
        """Get-or-create the LSU backing one static memory site."""
        key = (site, kind)
        if key not in self._lsus:
            self._lsus[key] = LoadStoreUnit(
                self.sim, self.memory, site, kind,
                keep_samples=self.keep_lsu_samples)
        return self._lsus[key]

    @property
    def lsus(self) -> Dict[Tuple[str, str], LoadStoreUnit]:
        return dict(self._lsus)

    def _derive_site(self, generator: Generator, op: ops.Op,
                     compute_id: int) -> str:
        frame = getattr(generator, "gi_frame", None)
        if frame is None:
            return f"{self.kernel.name}.cu{compute_id}:{type(op).__name__}@L0"
        # One textual yield is one hardware unit, so the formatted name is a
        # pure function of the (code object, line, op class, compute unit)
        # tuple — cache it and keep f-string formatting off the per-op path.
        key = (frame.f_code, frame.f_lineno, type(op), compute_id)
        site = self._site_cache.get(key)
        if site is None:
            site = (f"{self.kernel.name}.cu{compute_id}:"
                    f"{type(op).__name__}@L{frame.f_lineno}")
            self._site_cache[key] = site
        return site

    def _cycle_priority(self) -> int:
        return self._tick_priority

    def _drive(self, generator: Generator, compute_id: int,
               ctx: Optional[KernelContext] = None) -> Generator:
        """Run one body generator to completion, executing yielded ops.

        The fast executor. Dominant ops execute inline (no per-op handler
        generator); anything else goes through :data:`OP_DISPATCH`. Runs
        of *zero-latency* ``Compute`` ops are fused: they are purely
        combinational, so the body is resumed immediately with the op's
        value and no event ever reaches the scheduler. Timed computes
        yield their delay inline (one pooled tick or timeout, no per-op
        ``_execute`` generator) so ``ctx.now`` observed by the body after
        the yield advances exactly as in the reference executor.
        """
        sim = self.sim
        lsus = self._lsus
        send = generator.send
        send_value: Any = None
        throw_exc: Optional[BaseException] = None
        while True:
            try:
                if throw_exc is not None:
                    op = generator.throw(throw_exc)
                    throw_exc = None
                else:
                    op = send(send_value)
            except StopIteration:
                return
            cls = op.__class__
            if cls is _Compute and not op.cycles:
                send_value = op.value
                continue
            try:
                if cls is _Compute:
                    cycles = op.cycles
                    yield sim.tick() if cycles == 1 else sim.timeout(cycles)
                    send_value = op.value
                elif cls is _Load:
                    site = op.site
                    if site is None:
                        site = self._derive_site(generator, op, compute_id)
                    lsu = lsus.get((site, "load"))
                    if lsu is None:
                        lsu = self.lsu(site, "load")
                    send_value = yield lsu.issue(op.buffer, op.index)
                elif cls is _Store:
                    site = op.site
                    if site is None:
                        site = self._derive_site(generator, op, compute_id)
                    lsu = lsus.get((site, "store"))
                    if lsu is None:
                        lsu = self.lsu(site, "store")
                    yield lsu.issue(op.buffer, op.index, op.value)
                    send_value = None
                elif cls is _CycleBoundary:
                    yield sim.broadcast_tick(self._tick_priority)
                    send_value = None
                elif cls is _LoadLocal:
                    send_value = yield op.memory.load(op.index)
                elif cls is _StoreLocal:
                    yield op.memory.store(op.index, op.value)
                    send_value = None
                elif cls is _MemFence:
                    send_value = None
                else:
                    handler = OP_DISPATCH.get(cls) or _resolve_handler(cls)
                    if handler is None:
                        if isinstance(op, ops.Op):
                            raise KernelBuildError(
                                f"unknown op {op!r} from kernel "
                                f"{self.kernel.name!r}")
                        raise _NonOpYield(op)
                    send_value = yield from handler(self, generator, op,
                                                    compute_id, ctx)
            except (Interrupt, GeneratorExit):
                generator.close()
                raise
            except _NonOpYield as bad:
                generator.close()
                raise KernelBuildError(
                    f"kernel {self.kernel.name!r} yielded {bad.args[0]!r}; "
                    "kernel bodies must yield Op objects built via the "
                    "KernelContext") from None
            except BaseException as exc:
                send_value = None
                throw_exc = exc

    def _drive_reference(self, generator: Generator, compute_id: int,
                         ctx: Optional[KernelContext] = None) -> Generator:
        """The retained reference executor: one ``_execute`` generator per
        op, no fusion, per-process pooled cycle ticks. Semantic oracle for
        the fast path (see tests/test_prop_dispatch_equivalence.py)."""
        send_value: Any = None
        throw_exc: Optional[BaseException] = None
        while True:
            try:
                if throw_exc is not None:
                    op = generator.throw(throw_exc)
                    throw_exc = None
                else:
                    op = generator.send(send_value)
            except StopIteration:
                return
            if not isinstance(op, ops.Op):
                generator.close()
                raise KernelBuildError(
                    f"kernel {self.kernel.name!r} yielded {op!r}; kernel bodies "
                    "must yield Op objects built via the KernelContext")
            site = op.site or self._derive_site(generator, op, compute_id)
            try:
                send_value = yield from self._execute(op, site, ctx)
            except (Interrupt, GeneratorExit):
                generator.close()
                raise
            except BaseException as exc:
                send_value = None
                throw_exc = exc

    # -- dispatch-table handlers (one per op type; cold ops only on the
    # -- fast path, every op on the reference path via _execute) ---------

    def _op_barrier(self, generator: Generator, op: ops.Op, compute_id: int,
                    ctx: Optional[KernelContext]) -> Generator:
        site = op.site or self._derive_site(generator, op, compute_id)
        yield self._barrier_arrive(site, ctx)
        return None

    def _op_load(self, generator: Generator, op: ops.Op, compute_id: int,
                 ctx: Optional[KernelContext]) -> Generator:
        site = op.site or self._derive_site(generator, op, compute_id)
        value = yield self.lsu(site, "load").issue(op.buffer, op.index)
        return value

    def _op_store(self, generator: Generator, op: ops.Op, compute_id: int,
                  ctx: Optional[KernelContext]) -> Generator:
        site = op.site or self._derive_site(generator, op, compute_id)
        yield self.lsu(site, "store").issue(op.buffer, op.index, op.value)
        return None

    def _op_load_local(self, generator: Generator, op: ops.Op,
                       compute_id: int,
                       ctx: Optional[KernelContext]) -> Generator:
        value = yield op.memory.load(op.index)
        return value

    def _op_store_local(self, generator: Generator, op: ops.Op,
                        compute_id: int,
                        ctx: Optional[KernelContext]) -> Generator:
        yield op.memory.store(op.index, op.value)
        return None

    def _op_read_channel(self, generator: Generator, op: ops.Op,
                         compute_id: int,
                         ctx: Optional[KernelContext]) -> Generator:
        value = yield from op.channel.read()
        return value

    def _op_write_channel(self, generator: Generator, op: ops.Op,
                          compute_id: int,
                          ctx: Optional[KernelContext]) -> Generator:
        yield from op.channel.write(op.value)
        return None

    def _op_call(self, generator: Generator, op: ops.Op, compute_id: int,
                 ctx: Optional[KernelContext]) -> Generator:
        value = yield from op.module.invoke(op.args)
        return value

    def _op_compute(self, generator: Generator, op: ops.Op, compute_id: int,
                    ctx: Optional[KernelContext]) -> Generator:
        if op.cycles == 1:
            yield self.sim.tick()
        elif op.cycles:
            yield self.sim.timeout(op.cycles)
        return op.value

    def _op_collect(self, generator: Generator, op: ops.Op, compute_id: int,
                    ctx: Optional[KernelContext]) -> Generator:
        value = yield op.accumulator.collect(op.key, op.expected)
        return value

    def _op_mem_fence(self, generator: Generator, op: ops.Op,
                      compute_id: int,
                      ctx: Optional[KernelContext]) -> Generator:
        return None
        yield  # pragma: no cover - makes this a generator, never reached

    def _op_cycle_boundary(self, generator: Generator, op: ops.Op,
                           compute_id: int,
                           ctx: Optional[KernelContext]) -> Generator:
        yield self.sim.broadcast_tick(self._tick_priority)
        return None

    def _op_wait_readable(self, generator: Generator, op: ops.Op,
                          compute_id: int,
                          ctx: Optional[KernelContext]) -> Generator:
        sim = self.sim
        lane = self._tick_priority
        channels = op.channels
        park = lane == PRIORITY_LATE and _parkable(channels)
        while True:
            if not park or any(channel.has_data for channel in channels):
                yield sim.broadcast_tick(lane)
            else:
                wake = _Wake(sim, channels, lane)
                try:
                    yield wake.event
                except GeneratorExit:
                    wake.unschedule()
                    raise
                finally:
                    wake.settle()
                    wake.release()
            for channel in channels:
                if channel.has_data:
                    return None
            for channel in channels:
                channel._stats.read_failures += 1
            park = park and _parkable(channels)

    def _execute(self, op: ops.Op, site: str,
                 ctx: Optional[KernelContext] = None) -> Generator:
        """Execute one op; returns its result value (generator protocol)."""
        if isinstance(op, ops.Barrier):
            yield self._barrier_arrive(site, ctx)
            return None
        if isinstance(op, ops.Load):
            value = yield self.lsu(site, "load").issue(op.buffer, op.index)
            return value
        if isinstance(op, ops.Store):
            yield self.lsu(site, "store").issue(op.buffer, op.index, op.value)
            return None
        if isinstance(op, ops.LoadLocal):
            value = yield op.memory.load(op.index)
            return value
        if isinstance(op, ops.StoreLocal):
            yield op.memory.store(op.index, op.value)
            return None
        if isinstance(op, ops.ReadChannel):
            value = yield from op.channel.read()
            return value
        if isinstance(op, ops.WriteChannel):
            yield from op.channel.write(op.value)
            return None
        if isinstance(op, ops.Call):
            value = yield from op.module.invoke(op.args)
            return value
        if isinstance(op, ops.Compute):
            if op.cycles == 1:
                yield self.sim.tick()
            elif op.cycles:
                yield self.sim.timeout(op.cycles)
            return op.value
        if isinstance(op, ops.CollectReduction):
            value = yield op.accumulator.collect(op.key, op.expected)
            return value
        if isinstance(op, ops.MemFence):
            return None
        if isinstance(op, ops.CycleBoundary):
            # The dominant event of autorun stepping: use the pooled tick.
            yield self.sim.tick(self._cycle_priority())
            return None
        if isinstance(op, ops.WaitReadable):
            # The polling loop the fast executor's parking must reproduce:
            # one tick in the unit's lane per idle cycle, each a failed
            # non-blocking read of every watched channel.
            while True:
                yield self.sim.tick(self._cycle_priority())
                for channel in op.channels:
                    if channel.has_data:
                        return None
                for channel in op.channels:
                    channel.stats.read_failures += 1
        raise KernelBuildError(f"unknown op {op!r} from kernel {self.kernel.name!r}")

    def _barrier_arrive(self, site: str, ctx: Optional[KernelContext]) -> Event:
        raise KernelBuildError(
            f"kernel {self.kernel.name!r}: barrier() is only valid inside "
            "an NDRange kernel launch")


#: Type-keyed op dispatch: every concrete :class:`~repro.pipeline.ops.Op`
#: subclass maps to its executor handler. The fast drive loop consults it
#: for ops it does not inline; the exhaustiveness test
#: (tests/test_op_dispatch.py) asserts a newly added op can never silently
#: fall through. Handlers are generator methods with the uniform signature
#: ``(self, generator, op, compute_id, ctx)`` returning the op's result.
OP_DISPATCH: Dict[type, Any] = {
    ops.Barrier: _OpExecutor._op_barrier,
    ops.Load: _OpExecutor._op_load,
    ops.Store: _OpExecutor._op_store,
    ops.LoadLocal: _OpExecutor._op_load_local,
    ops.StoreLocal: _OpExecutor._op_store_local,
    ops.ReadChannel: _OpExecutor._op_read_channel,
    ops.WriteChannel: _OpExecutor._op_write_channel,
    ops.Call: _OpExecutor._op_call,
    ops.Compute: _OpExecutor._op_compute,
    ops.CollectReduction: _OpExecutor._op_collect,
    ops.MemFence: _OpExecutor._op_mem_fence,
    ops.CycleBoundary: _OpExecutor._op_cycle_boundary,
    ops.WaitReadable: _OpExecutor._op_wait_readable,
}


def _resolve_handler(cls: type) -> Optional[Any]:
    """MRO fallback for Op *subclasses* (memoized into the table)."""
    for base in getattr(cls, "__mro__", ()):
        handler = OP_DISPATCH.get(base)
        if handler is not None:
            OP_DISPATCH[cls] = handler
            return handler
    return None


class PipelineEngine(_OpExecutor):
    """Executes a single-task or NDRange kernel as a pipelined launch."""

    def __init__(self, fabric: Any, kernel: Kernel, args: Optional[Dict[str, Any]] = None,
                 compute_id: int = 0,
                 space: Optional[Any] = None,
                 executor: str = "fast") -> None:
        if isinstance(kernel, AutorunKernel):
            raise KernelBuildError(
                f"autorun kernel {kernel.name!r} cannot be enqueued; "
                "it starts with the device (use AutorunEngine)")
        super().__init__(fabric, kernel, executor=executor)
        self.instance = KernelInstance(fabric, kernel, args or {}, compute_id)
        #: Optional iteration-space override (multi-compute-unit launches
        #: give each unit its share of the space).
        self._space = space
        self.config = kernel.pipeline
        self.stats = EngineStats()
        self.completion: Event = self.sim.event()
        self._inflight = 0
        self._launch_done = False
        self._slot_event: Optional[Event] = None
        self._started = False
        self._failure: Optional[BaseException] = None
        #: Barrier rendezvous state: (site, group) -> {"arrived", "event"}.
        self._barriers: Dict[Tuple[str, int], Dict[str, Any]] = {}

    def start(self) -> Event:
        """Begin the launch; returns the completion event."""
        if self._started:
            raise KernelError(f"kernel {self.kernel.name!r} launch already started")
        self._started = True
        self.sim.process(self._launcher(), name=f"{self.kernel.name}.launcher")
        return self.completion

    # -- internals -----------------------------------------------------------

    def _launcher(self) -> Generator:
        self.stats.start_cycle = self.sim.now
        last_issue: Optional[int] = None
        space = (self._space if self._space is not None
                 else self.kernel.iteration_space(self.instance.args))
        for tag in space:
            if last_issue is not None:
                gap = last_issue + self.config.ii - self.sim.now
                if gap > 0:
                    yield self.sim.timeout(gap)
            while self._inflight >= self.config.max_inflight:
                stall_start = self.sim.now
                self._slot_event = self.sim.event()
                yield self._slot_event
                self.stats.issue_stall_cycles += self.sim.now - stall_start
            self._issue(tag)
            last_issue = self.sim.now
        self._launch_done = True
        # Inline-started iterations can retire synchronously inside
        # _issue(), i.e. before _launch_done was set — re-check here
        # rather than only when no iteration was issued at all.
        self._maybe_complete()

    def _issue(self, tag: Any) -> None:
        self._inflight += 1
        self.stats.iterations_issued += 1
        ctx = KernelContext(self.instance, iteration=tag)
        body = self.kernel.body(ctx)
        self.sim.process(self._iteration(body, ctx, tag, self.sim.now),
                         name=f"{self.kernel.name}[{tag}]", inline=True)

    def _iteration(self, body: Generator, ctx: Optional[KernelContext],
                   tag: Any, issued_at: int) -> Generator:
        try:
            yield from self._drive(body, self.instance.compute_id, ctx)
        except Interrupt:
            raise
        except BaseException as exc:
            # An unhandled kernel exception fails the whole launch; the
            # failure reaches the host at the completion event, like an
            # aborted command on a real runtime.
            if self._failure is None:
                self._failure = exc
        finally:
            if self.keep_lsu_samples:
                self.stats.iteration_trace.append((tag, issued_at,
                                                   self.sim.now))
            self._retire()

    def _barrier_arrive(self, site: str, ctx: Optional[KernelContext]) -> Event:
        """Work-group barrier: the returned event fires when the whole
        group has arrived at this site."""
        kernel = self.kernel
        if kernel.kind != "ndrange" or ctx is None:
            return super()._barrier_arrive(site, ctx)
        if self._space is not None:
            raise KernelBuildError(
                f"kernel {kernel.name!r}: barrier() is not supported in "
                "multi-compute-unit launches (a group must live in one unit)")
        global_size = kernel.global_size(self.instance.args)
        local_size = getattr(kernel, "local_size", None) or global_size
        gid = ctx.global_id
        group = gid // local_size
        expected = min(local_size, global_size - group * local_size)
        if expected > self.config.max_inflight:
            raise KernelBuildError(
                f"kernel {kernel.name!r}: work-group of {expected} cannot "
                f"rendezvous with max_inflight={self.config.max_inflight}; "
                "raise the pipeline depth or shrink local_size")
        key = (site, group)
        state = self._barriers.setdefault(
            key, {"arrived": 0, "event": self.sim.event()})
        state["arrived"] += 1
        event = state["event"]
        if state["arrived"] >= expected:
            # Last arrival releases the group; barrier crossing costs a cycle.
            del self._barriers[key]
            self.sim.timeout(1).add_callback(
                lambda done, _event=event: _event.succeed())
        return event

    def _retire(self) -> None:
        self._inflight -= 1
        self.stats.iterations_retired += 1
        if self._slot_event is not None and not self._slot_event.triggered:
            self._slot_event.succeed()
            self._slot_event = None
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self._launch_done and self._inflight == 0 and not self.completion.triggered:
            self.stats.finish_cycle = self.sim.now
            if self._failure is not None:
                failure = KernelError(
                    f"kernel {self.kernel.name!r} failed: {self._failure}")
                failure.__cause__ = self._failure
                self.completion.fail(failure)
            else:
                self.completion.succeed(self.stats)


class AutorunEngine(_OpExecutor):
    """Runs the compute units of an autorun kernel forever (until stopped)."""

    def __init__(self, fabric: Any, kernel: AutorunKernel,
                 args: Optional[Dict[str, Any]] = None,
                 executor: str = "fast") -> None:
        if not isinstance(kernel, AutorunKernel):
            raise KernelBuildError(
                f"kernel {kernel.name!r} is not autorun; use PipelineEngine")
        super().__init__(fabric, kernel, executor=executor)
        self.instances: List[KernelInstance] = [
            KernelInstance(fabric, kernel, args or {}, compute_id)
            for compute_id in range(kernel.num_compute_units)
        ]
        self._processes: List[Process] = []
        self._started = False

    def start(self) -> None:
        """Launch all compute units (normally done at device programming)."""
        if self._started:
            raise KernelError(f"autorun kernel {self.kernel.name!r} already started")
        self._started = True
        for instance in self.instances:
            self._processes.append(self.sim.process(
                self._unit(instance),
                name=f"{self.kernel.name}.cu{instance.compute_id}"))

    def _unit(self, instance: KernelInstance) -> Generator:
        skew = getattr(self.kernel, "launch_skew", 0)
        if skew:
            yield self.sim.timeout(skew)
        # Align the unit to its intra-cycle phase from the very first cycle.
        yield self.sim.timeout(0, priority=self._tick_priority)
        ctx = KernelContext(instance, iteration=None)
        body = self.kernel.body(ctx)
        try:
            yield from self._drive(body, instance.compute_id)
        except Interrupt:
            return

    def stop(self) -> None:
        """Tear the persistent kernels down: every compute unit ends now.

        The units are killed rather than interrupted, so no event of theirs
        stays queued: a parked unit could not act before its interrupt
        anyway, and a queued event would keep the simulator (and the
        fabric behind it) alive until the cycle collector ran.
        """
        for process in self._processes:
            if process.is_alive:
                process.kill()
        self._processes = []

    @property
    def running(self) -> bool:
        return any(process.is_alive for process in self._processes)
