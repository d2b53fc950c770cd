"""Batch work-item execution: columnar lockstep over a whole launch.

``executor="batch"`` runs the straight-line regions of a compiled kernel
body once per *plan node* across every work-item of the compute unit,
instead of once per work-item per op through the event loop. The engine
splits a launch into two phases:

* **Phase A (values)** — every work-item gets one frame row; plan nodes
  execute columnar-style (node-major, rows inner). Pure segments touch
  only per-row state; memory ops read the backing stores directly and
  record ``(site, index)`` issue tuples per row. This phase has **zero
  shared side effects**, so any divergence (non-uniform control flow
  across rows, an intra-launch read/write hazard, or any exception) can
  abort it and transparently re-run the launch through the ordinary
  per-iteration stepping path — reproducing exact oracle semantics,
  including the original failure mode.

* **Phase B (timing)** — an analytic replay of the launcher/LSU event
  choreography on a private heap. The same memory-controller and LSU
  accounting calls are made in the same ``(cycle, scheduling-order)``
  sequence the real event loop would produce — the simulator's wheel is
  FIFO per (cycle, priority) lane and all launch events are
  PRIORITY_NORMAL, so one monotone sequence number replicates the merged
  order exactly. Store commits are scheduled as *real* simulator events
  (posted-write drain is observable by the host); per-op retirements are
  not (they all precede the launch's completion and are unobservable
  from outside the engine).

The phases only run when the launch owns the simulator: an empty event
queue (no autoruns, monitors, or concurrent launches), no undrained
posted stores, and a kernel that lowered to a :class:`~repro.frontend.codegen.BatchPlan`.
Anything else falls back to per-iteration stepping with the fast
executor — ``executor="batch"`` is therefore *always* safe to request.

Equality with ``executor="reference"`` (buffers, ``sim.now``, engine and
LSU stats, iteration traces) is enforced by
``tests/test_prop_batch_equivalence.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.memory.global_memory import BufferTraffic as _BufferTraffic
from repro.pipeline.context import KernelContext
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.kernel import Kernel
from repro.sim.core import PRIORITY_NORMAL, Event

#: Phase A control codes 1..3 mirror the closure backend's
#: ``_BRK/_CNT/_RET``; ``_EXIT`` is the loop-condition-failed code a
#: ``BTest`` returns (it never escapes the enclosing ``BLoop``).
_BRK, _CNT, _RET, _EXIT = 1, 2, 3, 4

#: Phase B event kinds, in the tuple slot after ``(time, seq, ...)``.
_EV_ROW, _EV_LAUNCH = 0, 1


class _BatchAbort(Exception):
    """Phase A divergence/hazard: abort the table attempt, re-run fallback."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class BatchStats:
    """Outcome of one batch launch (``engine.batch``)."""

    #: "table" when the launch ran columnar, "fallback" otherwise.
    mode: str = ""
    #: Why the launch fell back ("" in table mode).
    reason: str = ""
    #: Work-item rows of the table attempt (0 when never materialized).
    rows: int = 0
    #: Static memory ops in the plan (0 without a plan).
    ops: int = 0
    #: Table attempts aborted at run time (divergence or hazard).
    divergence: int = 0


class _Row:
    """One work-item's state: frame column values + recorded memory ops."""

    __slots__ = ("tag", "ctx", "frame", "ops", "issued_at", "next_op")

    def __init__(self, tag: Any, ctx: KernelContext, frame: list) -> None:
        self.tag = tag
        self.ctx = ctx
        self.frame = frame
        #: Issue tuples ``(site, kind, buffer, index, value)`` in body order.
        self.ops: List[tuple] = []
        self.issued_at = 0
        self.next_op = 0


class BatchPipelineEngine(PipelineEngine):
    """A :class:`PipelineEngine` whose launcher batches eligible launches.

    The fallback path *is* the fast executor — the base class is
    constructed with ``executor="fast"`` and reused unchanged.
    """

    def __init__(self, fabric: Any, kernel: Kernel,
                 args: Optional[Dict[str, Any]] = None,
                 compute_id: int = 0, space: Optional[Any] = None) -> None:
        super().__init__(fabric, kernel, args, compute_id=compute_id,
                         space=space, executor="fast")
        self.batch = BatchStats()
        # Phase B launcher state machine.
        self._b_heap: List[tuple] = []
        self._b_seq = 0
        self._b_inflight = 0
        self._b_finish: Optional[int] = None
        self._b_launch_done = False
        self._b_slot_armed = False
        self._b_stall_start: Optional[int] = None
        self._b_rows: List[_Row] = []
        self._b_tag_index = 0
        self._b_last_issue: Optional[int] = None
        # Phase A intra-launch hazard sets: buffer name -> element indices.
        self._b_read: Dict[str, set] = {}
        self._b_written: Dict[str, set] = {}
        # Plan-time buffer snapshots: name -> (values-as-list, size). Loads
        # never observe this launch's own stores (RAW aborts), so reading
        # the plan-time contents is exact — and a plain list indexes far
        # faster than per-element ``ndarray.item()`` calls.
        self._b_data: Dict[str, tuple] = {}
        # Per-(site, kind) LSU state boxes and launch-wide accumulators;
        # flushed into the real LSU/memory objects when the replay ends.
        self._b_boxes: Dict[tuple, list] = {}
        self._b_counts = [0, 0, 0, 0]      # loads, stores, bytes r, bytes w
        self._b_traffic: Dict[str, list] = {}
        self._b_lat_acc = [0, 0, 0]        # row hits, row misses, load lat
        # Posted-store commits deferred to one flush event.
        self._b_commits: List[tuple] = []
        self._b_last_commit = 0
        self._advance_op: Any = None
        # The fabric's trace hub at launch, and bound writers per schema.
        self.trace = fabric.trace
        self._writers: Dict[str, Any] = {}

    # -- launcher ----------------------------------------------------------

    def _launcher(self) -> Generator:
        self.stats.start_cycle = self.sim.now
        plan, reason = self.kernel.batch_plan()
        if plan is None:
            yield from self._fallback(reason, self._iteration_tags())
            return
        sim = self.sim
        # Exclusivity gate: Phase A reads backing stores at plan time and
        # Phase B owns the timeline, so the launch must be alone on the
        # simulator with memory quiesced.
        if sim._wheel_count or sim._far:
            yield from self._fallback("concurrent simulator activity",
                                      self._iteration_tags(),
                                      ops=plan.op_count)
            return
        if self.memory.pending_commits:
            yield from self._fallback("undrained posted stores",
                                      self._iteration_tags(),
                                      ops=plan.op_count)
            return
        tags = list(self._iteration_tags())
        try:
            rows = self._plan_rows(plan, tags)
        except _BatchAbort as abort:
            # Phase A is side-effect-free, so the materialized tag list can
            # be replayed through the ordinary stepping path verbatim.
            self.batch.divergence += 1
            self._emit("batch.divergence", abort.reason, len(tags))
            yield from self._fallback(abort.reason, tags, rows=len(tags),
                                      ops=plan.op_count)
            return
        self.batch.mode = "table"
        self.batch.rows = len(tags)
        self.batch.ops = plan.op_count
        self._emit("batch.launch", "", 1, len(tags), plan.op_count)
        self._replay(rows)
        return
        yield  # pragma: no cover - makes _launcher a generator either way

    def _fallback(self, reason: str, space: Any, rows: int = 0,
                  ops: int = 0) -> Generator:
        self.batch.mode = "fallback"
        self.batch.reason = reason
        self.batch.rows = rows
        self.batch.ops = ops
        self._emit("batch.launch", reason, 0, rows, ops)
        yield from self._launch_tags(space)

    def _emit(self, schema: str, site: str = "", *values: int) -> None:
        # Values are positional in schema field order (batch.launch:
        # mode/rows/ops; batch.divergence: rows), via a bound writer per
        # schema so the hot fallback path skips record construction.
        hub = self.trace
        if hub is None:
            return
        writer = self._writers.get(schema)
        if writer is None:
            writer = hub.writer(schema, kernel=self.kernel.name,
                                cu=self.instance.compute_id)
            self._writers[schema] = writer
        writer.write_to(site, self.sim.now, *values)

    # -- Phase A: columnar value execution (no shared side effects) --------

    def _plan_rows(self, plan: Any, tags: List[Any]) -> List[_Row]:
        try:
            rows = []
            template = None
            for tag in tags:
                ctx = KernelContext(self.instance, iteration=tag)
                if template is None:
                    # Bindings depend only on launch args/defines/channels,
                    # not the iteration tag: build one frame and copy it.
                    template = plan.make_frame(self.kernel._bindings(ctx))
                rows.append(_Row(tag, ctx, template[:]))
            if rows:
                ctl = self._exec_nodes(plan.nodes, rows)
                if ctl is not None and ctl != _RET:
                    raise _BatchAbort("stray control code at body top level")
            return rows
        except _BatchAbort:
            raise
        except BaseException as exc:
            # Any body exception (bad index, missing buffer, arithmetic
            # error, ...) aborts the attempt; the fallback re-run raises
            # the same error with the oracle's exact failure semantics.
            raise _BatchAbort(f"body raised {type(exc).__name__}") from exc

    def _exec_nodes(self, nodes: tuple, rows: List[_Row],
                    start: int = 0) -> Optional[int]:
        memory = self.memory
        read, written = self._b_read, self._b_written
        index = start
        count = len(nodes)
        while index < count:
            node = nodes[index]
            index += 1
            kind = node.kind
            if kind == 0:                                   # BPure
                fn = node.fn
                first = rows[0]
                ctl = fn(first.frame, first.ctx)
                for row in rows[1:]:
                    if fn(row.frame, row.ctx) != ctl:
                        raise _BatchAbort("control-flow divergence")
                if ctl is not None:
                    return ctl
            elif kind == 1:                                 # BLoad
                index_fn = node.index_fn
                base, dst = node.base_slot, node.dst_slot
                box = self._site_box(node.site, "load")
                counts = self._b_counts
                name = None
                for row in rows:
                    frame = row.frame
                    buffer_name = frame[base]
                    if buffer_name is not name:
                        name = buffer_name
                        store = memory.buffer(name)
                        itemsize = store.itemsize
                        base_address = store.base_address
                        values, size = self._buffer_values(name, store)
                        traffic = self._b_traffic.setdefault(
                            name, [0, 0, 0, 0])
                        read_set = read.setdefault(name, set())
                        written_set = written.get(name)
                    element = index_fn(frame, row.ctx)
                    if type(element) is not int:
                        element = int(element)
                    if element < 0 or element >= size:
                        raise _BatchAbort("index out of range")
                    if written_set is not None and element in written_set:
                        raise _BatchAbort("read-after-write hazard")
                    read_set.add(element)
                    frame[dst] = values[element]
                    counts[0] += 1
                    counts[2] += itemsize
                    traffic[0] += 1
                    traffic[2] += itemsize
                    row.ops.append(
                        (box, base_address + element * itemsize, None, 0,
                         None))
            elif kind == 2:                                 # BStore
                index_fn, value_fn = node.index_fn, node.value_fn
                base = node.base_slot
                box = self._site_box(node.site, "store")
                counts = self._b_counts
                name = None
                for row in rows:
                    frame = row.frame
                    buffer_name = frame[base]
                    if buffer_name is not name:
                        name = buffer_name
                        store = memory.buffer(name)
                        itemsize = store.itemsize
                        base_address = store.base_address
                        size = store.size
                        traffic = self._b_traffic.setdefault(
                            name, [0, 0, 0, 0])
                        written_set = written.setdefault(name, set())
                        read_set = read.get(name)
                    element = index_fn(frame, row.ctx)
                    if type(element) is not int:
                        element = int(element)
                    value = value_fn(frame, row.ctx)
                    if element < 0 or element >= size:
                        raise _BatchAbort("index out of range")
                    if read_set is not None and element in read_set:
                        # The earlier load's in-flight completion could
                        # land after this store's commit: value unsafe.
                        raise _BatchAbort("write-after-read hazard")
                    written_set.add(element)
                    counts[1] += 1
                    counts[3] += itemsize
                    traffic[1] += 1
                    traffic[3] += itemsize
                    row.ops.append(
                        (box, base_address + element * itemsize, store,
                         element, value))
            elif kind == 3:                                 # BIf
                cond_fn = node.cond_fn
                first = rows[0]
                taken = bool(cond_fn(first.frame, first.ctx))
                for row in rows[1:]:
                    if bool(cond_fn(row.frame, row.ctx)) != taken:
                        raise _BatchAbort("control-flow divergence")
                ctl = self._exec_nodes(
                    node.then_nodes if taken else node.else_nodes, rows)
                if ctl is not None:
                    return ctl
            elif kind == 4:                                 # BLoop
                body = node.nodes
                continue_index = node.continue_index
                while True:
                    ctl = self._exec_nodes(body, rows)
                    if ctl == _CNT:
                        ctl = self._exec_nodes(body, rows,
                                               start=continue_index)
                    if ctl is None:
                        continue
                    if ctl == _BRK or ctl == _EXIT:
                        break
                    return ctl                              # _RET propagates
            else:                                           # BTest (kind 5)
                cond_fn = node.cond_fn
                first = rows[0]
                live = bool(cond_fn(first.frame, first.ctx))
                for row in rows[1:]:
                    if bool(cond_fn(row.frame, row.ctx)) != live:
                        raise _BatchAbort("control-flow divergence")
                if not live:
                    return _EXIT
        return None

    def _buffer_values(self, name: str, store: Any) -> tuple:
        """Plan-time contents of ``name`` as ``(plain-list, size)``."""
        info = self._b_data.get(name)
        if info is None:
            info = self._b_data[name] = (store.data.tolist(), store.size)
        return info

    def _site_box(self, site: str, kind: str) -> list:
        """Mutable per-LSU state ``[tail, count, total, max, stall,
        samples, lsu]`` seeded from (and flushed back into) the real LSU."""
        key = (site, kind)
        box = self._b_boxes.get(key)
        if box is None:
            lsu = self.lsu(site, kind)
            stats = lsu.stats
            box = self._b_boxes[key] = [
                lsu._tail_time, 0, 0, stats.max_latency, 0,
                stats.samples if self.keep_lsu_samples else None,
                lsu]
        return box

    # -- Phase B: analytic replay of the launch timeline -------------------

    def _replay(self, rows: List[_Row]) -> None:
        """Re-enact the launcher/LSU event choreography analytically.

        The private heap is ordered ``(time, seq)`` with one global
        monotone ``seq`` assigned at push; pushes happen in the same
        chronological order the real event loop performs its scheduling
        calls, so pops replicate the wheel's FIFO-per-cycle merged order.
        The memory-controller bank model runs inlined in the ``advance``
        closure below with exactly :meth:`GlobalMemory._service_latency`'s
        arithmetic and call order; summable statistics accumulate
        launch-wide and flush once at the end, and posted-store commits
        land in one flush event at the last commit cycle (no mid-launch
        observer exists — the exclusivity gate held).
        """
        sim = self.sim
        memory = self.memory
        start = sim.now
        heap = self._b_heap
        self._b_rows = rows
        config = memory.config
        row_bytes = config.row_bytes
        banks = config.banks
        busy = config.bank_busy_cycles
        hit_cycles = config.row_hit_cycles
        miss_cycles = config.row_miss_cycles
        pipe = config.pipe_latency
        posted = config.posted_write_latency
        bank_ready = memory._bank_ready
        bank_open_row = memory._bank_open_row
        accumulator = self._b_lat_acc
        commits = self._b_commits
        retire_row = self._b_retire
        heappush = heapq.heappush

        def advance(row: _Row, now: int) -> None:
            # Issue ``row``'s next memory op at cycle ``now`` (or retire
            # it): GlobalMemory._service_latency + LoadStoreUnit.issue_at
            # inlined — same arithmetic, same call order.
            ops = row.ops
            position = row.next_op
            if position >= len(ops):
                retire_row(row, now)
                return
            row.next_op = position + 1
            box, address, store, element, value = ops[position]
            dram_row = address // row_bytes
            bank = dram_row % banks
            bstart = bank_ready[bank]
            if now > bstart:
                bstart = now
            if bank_open_row[bank] == dram_row:
                access = hit_cycles
                accumulator[0] += 1
            else:
                access = miss_cycles
                accumulator[1] += 1
                bank_open_row[bank] = dram_row
            bfinish = bstart + access + busy
            bank_ready[bank] = bfinish
            latency = bfinish - now + pipe
            if store is None:
                accumulator[2] += latency
            else:
                # Posted store: the commit lands at the full latency, but
                # the pipeline resumes after the posted latency only.
                commit = now + latency
                commits.append((store, element, value))
                if commit > self._b_last_commit:
                    self._b_last_commit = commit
                if latency > posted:
                    latency = posted
            raw_retire = now + latency
            tail = box[0]
            retire = raw_retire if raw_retire >= tail else tail
            box[0] = retire
            total = retire - now
            box[1] += 1
            box[2] += total
            if total > box[3]:
                box[3] = total
            box[4] += retire - raw_retire
            samples = box[5]
            if samples is not None:
                samples.append(total)
            self._b_seq += 1
            heappush(heap, (retire, self._b_seq, _EV_ROW, row))

        self._advance_op = advance
        self._launch_turn(start)
        pop = heapq.heappop
        while heap:
            when, _, kind, row = pop(heap)
            if kind == _EV_ROW:
                advance(row, when)
            else:
                if self._b_stall_start is not None:
                    self.stats.issue_stall_cycles += (
                        when - self._b_stall_start)
                    self._b_stall_start = None
                self._launch_turn(when)
        finish = self._b_finish
        if commits:
            # Same-address commits are same-bank, and bank finish times
            # are monotone in issue order, so append order is commit
            # order; one event applies them all at the last commit cycle.
            memory.post_commit_batch(commits, self._b_last_commit - start)
        # Flush the launch-wide accumulators into the shared objects.
        loads, stores, bytes_read, bytes_written = self._b_counts
        mstats = memory.stats
        mstats.loads += loads
        mstats.stores += stores
        mstats.bytes_read += bytes_read
        mstats.bytes_written += bytes_written
        hits, misses, load_latency = self._b_lat_acc
        mstats.row_hits += hits
        mstats.row_misses += misses
        mstats.total_load_latency += load_latency
        for name, (tl, ts, tbr, tbw) in self._b_traffic.items():
            traffic = memory.traffic.setdefault(name, _BufferTraffic())
            traffic.loads += tl
            traffic.stores += ts
            traffic.bytes_read += tbr
            traffic.bytes_written += tbw
        for tail, count, total, peak, stall, _, lsu in \
                self._b_boxes.values():
            lsu._tail_time = tail
            stats = lsu.stats
            stats.issued += count
            stats.completed += count
            stats.total_latency += total
            stats.max_latency = peak
            stats.ordering_stall_cycles += stall
        # Completion fires through a real (Timeout-style, pre-triggered)
        # event so `Fabric.run` steps the clock to the finish cycle
        # exactly as it would draining the fallback's event population.
        trigger = Event(sim)
        trigger._value = None

        def _complete(done: Event) -> None:
            self.stats.finish_cycle = sim.now
            self.completion.succeed(self.stats)

        trigger.callbacks.append(_complete)
        sim._schedule(trigger, delay=finish - start,
                      priority=PRIORITY_NORMAL)

    def _push(self, when: int, kind: int, row: Optional[_Row]) -> None:
        self._b_seq += 1
        heapq.heappush(self._b_heap, (when, self._b_seq, kind, row))

    def _launch_turn(self, now: int) -> None:
        """One launcher wake: issue until a gap, a full pipeline, or done."""
        rows = self._b_rows
        config = self.config
        while True:
            if self._b_tag_index >= len(rows):
                self._b_launch_done = True
                if self._b_inflight == 0 and self._b_finish is None:
                    self._b_finish = now
                return
            if self._b_last_issue is not None:
                gap = self._b_last_issue + config.ii - now
                if gap > 0:
                    self._push(now + gap, _EV_LAUNCH, None)
                    return
            if self._b_inflight >= config.max_inflight:
                self._b_slot_armed = True
                self._b_stall_start = now
                return
            row = rows[self._b_tag_index]
            self._b_tag_index += 1
            self._b_issue(row, now)
            self._b_last_issue = now

    def _b_issue(self, row: _Row, now: int) -> None:
        self._b_inflight += 1
        self.stats.iterations_issued += 1
        row.issued_at = now
        # Inline start: the first op issues at the issue cycle itself, and
        # op-free rows retire synchronously (mirrors `inline=True` bodies).
        self._advance_op(row, now)

    def _b_retire(self, row: _Row, now: int) -> None:
        if self.keep_lsu_samples:
            self.stats.iteration_trace.append((row.tag, row.issued_at, now))
        self._b_inflight -= 1
        self.stats.iterations_retired += 1
        if self._b_slot_armed:
            # The real retire succeeds the launcher's slot event (delay 0):
            # the launcher resumes this cycle, after already-queued events.
            self._b_slot_armed = False
            self._push(now, _EV_LAUNCH, None)
        if self._b_launch_done and self._b_inflight == 0:
            self._b_finish = now
