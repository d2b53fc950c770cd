"""Property test: a parked ibuffer is observationally equal to a polling one.

An idle ibuffer unit (not in READ, nothing read this cycle) yields
``ctx.wait_readable``. The fast executor parks it on its channels' wake
hooks; the reference executor runs the op as the literal polling loop
(one tick per cycle, a ``has_data`` check, failed reads charged). For any
script of host channel writes, clock advances, host drains of the output
channel and writes from a concurrently running pipeline kernel, both must
agree after every step on the unit states, every recorded entry with its
timestamp, the dropped-sample counts, ``sim.now`` and the full channel
statistics table — including while units are parked. After teardown the
parked fabric must hold no wake hook and no queued event.

Example budget: ``PARKING_EXAMPLES`` (default 60); CI runs a deeper sweep.
"""

from __future__ import annotations

import os
import weakref

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.commands import IBufferCommand, IBufferState, SamplingMode
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic, WatchpointLogic
from repro.pipeline.engine import AutorunEngine
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, SingleTaskKernel

MAX_EXAMPLES = int(os.environ.get("PARKING_EXAMPLES", "60"))


class _PollingFabric(Fabric):
    """A fabric whose autorun kernels run on the reference executor, where
    ``WaitReadable`` is the per-cycle polling loop (the oracle)."""

    def add_autorun(self, kernel, args=None):
        engine = AutorunEngine(self, kernel, args, executor="reference")
        engine.start()
        self.autorun_engines.append(engine)
        return engine


class _Writer(SingleTaskKernel):
    """Writes the ibuffer's data channels at planned cycles, non-blocking
    or blocking (the FIFO fast path and, when full, a stalled write)."""

    def __init__(self, ibuffer, plan):
        super().__init__(name="writer")
        self.ibuffer = ibuffer
        self.plan = plan

    def iteration_space(self, args):
        return [0]

    def body(self, ctx):
        for delay, cu, value, blocking in self.plan:
            if delay:
                yield ctx.compute(delay)
            channel = self.ibuffer.data_c[cu % self.ibuffer.num_compute_units]
            payload = self.ibuffer.payload(value)
            if blocking:
                yield ctx.write_channel(channel, payload)
            else:
                ctx.write_channel_nb(channel, payload)
        yield ctx.compute(1)


def _build(fabric_class, count, depth, mode, aux, initial):
    fabric = fabric_class()
    if aux:
        def logic(cu):
            return WatchpointLogic(max_watches=2, bound_low=0, bound_high=6,
                                   invariance=True)
    else:
        def logic(cu):
            return RawRecorderLogic()
    ibuffer = IBuffer(fabric, "park", logic_factory=logic,
                      config=IBufferConfig(count=count, depth=depth, mode=mode,
                                           use_aux_channel=aux,
                                           initial_state=initial))
    ibuffer.payload = ((lambda v: (v % 8, v // 8 % 4)) if aux
                       else (lambda v: v))
    return fabric, ibuffer


def _observe(fabric, ibuffer):
    return {
        "now": fabric.sim.now,
        "states": dict(ibuffer.states),
        "entries": {cu: trace.entries()
                    for cu, trace in ibuffer.trace_buffers.items()},
        "dropped": dict(ibuffer.samples_dropped),
        "channels": fabric.channels.stats_table(),
    }


def _apply(fabric, ibuffer, step):
    kind, cu, value = step
    cu %= ibuffer.num_compute_units
    if kind == "advance":
        fabric.advance(value)
        return None
    if kind == "cmd":
        return ibuffer.cmd_c[cu].write_nb(int(value))
    if kind == "data":
        return ibuffer.data_c[cu].write_nb(ibuffer.payload(value))
    if kind == "aux":
        if ibuffer.addr_c is None:
            return None
        return ibuffer.addr_c[cu].write_nb(value % 8)
    assert kind == "drain"
    return ibuffer.out_c[cu].read_nb()


_step = st.one_of(
    st.tuples(st.just("advance"), st.just(0), st.integers(0, 4)),
    st.tuples(st.just("cmd"), st.integers(0, 2),
              st.sampled_from(list(IBufferCommand))),
    st.tuples(st.just("data"), st.integers(0, 2), st.integers(0, 63)),
    st.tuples(st.just("aux"), st.integers(0, 2), st.integers(0, 7)),
    st.tuples(st.just("drain"), st.integers(0, 2), st.just(0)),
)

_plan = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2),
                           st.integers(0, 63), st.booleans()), max_size=10)


def _quiesce(fabric, ibuffer, writer):
    """Drain every READ, finish the writer, and let every unit go idle."""
    inputs = [channel for array in (ibuffer.cmd_c, ibuffer.data_c,
                                    ibuffer.addr_c or ())
              for channel in array]
    for _ in range(400):
        fabric.advance(1)
        reading = [cu for cu, state in ibuffer.states.items()
                   if state == IBufferState.READ]
        for cu in reading:
            ibuffer.out_c[cu].read_nb()
        if not (reading or any(channel.has_data for channel in inputs)
                or not writer.completion.processed):
            break
    fabric.advance(2)


class TestParkedEqualsPolling:
    @given(count=st.integers(1, 3), depth=st.integers(1, 4),
           mode=st.sampled_from([SamplingMode.LINEAR, SamplingMode.CYCLIC]),
           aux=st.booleans(),
           initial=st.sampled_from([IBufferState.SAMPLE, IBufferState.RESET]),
           steps=st.lists(_step, min_size=1, max_size=40), plan=_plan,
           last_write=st.one_of(st.none(), st.sampled_from(["cmd", "data",
                                                             "aux"])))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_parked_matches_polling(self, count, depth, mode, aux, initial,
                                    steps, plan, last_write):
        fast = _build(Fabric, count, depth, mode, aux, initial)
        oracle = _build(_PollingFabric, count, depth, mode, aux, initial)
        writers = [fabric.launch(_Writer(ibuffer, plan))
                   for fabric, ibuffer in (fast, oracle)]
        assert _observe(*fast) == _observe(*oracle)
        for step in steps:
            assert _apply(*fast, step) == _apply(*oracle, step)
            assert _observe(*fast) == _observe(*oracle)

        for (fabric, ibuffer), writer in zip((fast, oracle), writers):
            _quiesce(fabric, ibuffer, writer)
        assert _observe(*fast) == _observe(*oracle)
        fabric, ibuffer = fast
        assert all(channel._wake is not None
                   for cu in range(count)
                   for channel in (ibuffer.data_c[cu], ibuffer.cmd_c[cu]))
        assert fabric.sim.peek() is None          # every unit is parked

        if last_write is not None:
            # A wake fired at the teardown cycle must not stay queued.
            step = (last_write, count - 1, IBufferCommand.STOP)
            for pair in (fast, oracle):
                _apply(*pair, step)
            assert _observe(*fast) == _observe(*oracle)
        for pair in (fast, oracle):
            pair[0].stop_autorun()
        assert _observe(*fast) == _observe(*oracle)
        assert all(channel._wake is None
                   for channel in fabric.channels.all_channels())
        assert fabric.sim.peek() is None


def test_parked_unit_costs_no_events():
    fabric, ibuffer = _build(Fabric, 2, 4, SamplingMode.LINEAR, False,
                             IBufferState.SAMPLE)
    fabric.advance(3)
    before = fabric.channels.stats_table()
    assert fabric.sim.peek() is None
    fabric.advance(1000)
    assert fabric.sim.peek() is None
    after = fabric.channels.stats_table()
    for name in ("park_data_in[0]", "park_cmd_c[1]"):
        assert (after[name]["read_failures"]
                - before[name]["read_failures"]) == 1000


def test_write_wakes_unit_at_the_write_cycle():
    pairs = [_build(cls, 1, 4, SamplingMode.LINEAR, False,
                    IBufferState.SAMPLE) for cls in (Fabric, _PollingFabric)]
    for fabric, ibuffer in pairs:
        fabric.advance(10)
        ibuffer.data_c[0].write_nb(7)
    # No statistics were read while parked: the write itself charges the
    # skipped polls before it releases the hooks.
    assert _observe(*pairs[0]) == _observe(*pairs[1])
    for fabric, ibuffer in pairs:
        fabric.advance(1)
        assert [entry["timestamp"] for entry in
                ibuffer.trace_buffers[0].entries()] == [10]
    assert _observe(*pairs[0]) == _observe(*pairs[1])


class _LateProducer(AutorunKernel):
    """A late-phase autorun kernel writing a data channel every few cycles:
    a producer in the ibuffer's own intra-cycle lane."""

    def __init__(self, period):
        super().__init__(name="late_producer", phase="late")
        self.period = period
        self.target = None

    def body(self, ctx):
        value = 0
        while True:
            if ctx.now % self.period == 0 and ctx.now:
                ctx.write_channel_nb(self.target, value)
                value += 1
            yield ctx.cycle()


def _same_lane(fabric_class, producer_first, bind_early):
    fabric = fabric_class()
    producer = _LateProducer(period=5)
    if producer_first:
        fabric.add_autorun(producer)
    ibuffer = IBuffer(fabric, "lane",
                      logic_factory=lambda cu: RawRecorderLogic(),
                      config=IBufferConfig(count=1, depth=16))
    producer.target = ibuffer.data_c[0]
    if bind_early:
        producer.target.bind_producer(weakref.ref(producer))
    if not producer_first:
        fabric.add_autorun(producer)
    fabric.advance(42)
    return fabric, ibuffer


def _timestamps(ibuffer):
    return [entry["timestamp"] for entry in ibuffer.trace_buffers[0].entries()]


class TestSameLaneProducer:
    """A late-phase autorun producer's same-cycle writes are ordered
    against the unit by autorun start order, which a wake-up cannot
    reproduce. A unit watching a channel such a kernel produces therefore
    keeps polling."""

    @pytest.mark.parametrize("producer_first", [True, False])
    def test_bound_producer_keeps_unit_polling(self, producer_first):
        fast = _same_lane(Fabric, producer_first, bind_early=True)
        oracle = _same_lane(_PollingFabric, producer_first, bind_early=True)
        assert _observe(*fast) == _observe(*oracle)
        assert fast[1].data_c[0]._wake is None     # polling, not parked
        # Start order decides the cycle a write is seen at.
        lag = 0 if producer_first else 1
        assert _timestamps(fast[1]) == [t + lag for t in range(5, 42, 5)]

    def test_producer_binding_while_unit_is_parked(self):
        # Bound only by its first write, the producer finds the unit
        # parked. The write wakes the unit behind the producer in their
        # lane, where it then keeps polling: every write is seen in the
        # cycle it lands, as if the producer had started first (a polling
        # unit started first sees each one a cycle later).
        fabric, ibuffer = _same_lane(Fabric, producer_first=False,
                                     bind_early=False)
        assert ibuffer.data_c[0]._wake is None
        assert _timestamps(ibuffer) == list(range(5, 42, 5))
        oracle = _same_lane(_PollingFabric, producer_first=False,
                            bind_early=False)
        assert _timestamps(oracle[1]) == list(range(6, 42, 5))


class _Poller(AutorunKernel):
    """A generic late-phase poller over a depth-0 and a FIFO channel, idle
    through ``ctx.wait_readable``; logs ``(cycle, channel, value)``."""

    def __init__(self, channels):
        super().__init__(name="poller", phase="late")
        self.channels = channels
        self.log = []

    def body(self, ctx):
        idle = ctx.wait_readable(self.channels)
        while True:
            got = False
            for index, channel in enumerate(self.channels):
                value, ok = ctx.read_channel_nb(channel)
                if ok:
                    got = True
                    self.log.append((ctx.now, index, value))
            yield ctx.cycle() if got else idle


class _Rendezvous(SingleTaskKernel):
    """Blocking writes into a depth-0 channel: each waits for the reader."""

    def __init__(self, channel, delays):
        super().__init__(name="rendezvous")
        self.channel = channel
        self.delays = delays

    def iteration_space(self, args):
        return [0]

    def body(self, ctx):
        for value, delay in enumerate(self.delays):
            yield ctx.compute(delay)
            yield ctx.write_channel(self.channel, value)


@pytest.mark.parametrize("register", [False, True])
def test_depth0_channels_wake_parked_unit(register):
    """The register write and the rendezvous writer queueing are wake
    paths too (the ibuffer itself only watches FIFOs)."""
    runs = []
    for fabric_class in (Fabric, _PollingFabric):
        fabric = fabric_class()
        rendezvous = fabric.channels.declare("r0", depth=0)
        fifo = fabric.channels.declare("f2", depth=2)
        poller = _Poller([rendezvous, fifo])
        fabric.add_autorun(poller)
        engine = fabric.launch(_Rendezvous(rendezvous, [3, 0, 5, 1]))
        fabric.advance(4)
        fifo.write_nb("a")
        fabric.advance(20)
        if register:
            rendezvous.write_nb("reg")   # the poller is parked by now
        fabric.advance(5)
        runs.append((poller.log, fabric.sim.now, engine.completion.processed,
                     fabric.channels.stats_table()))
    assert runs[0] == runs[1]
    assert runs[0][2]
