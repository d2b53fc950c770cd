"""Fuzz the ibuffer with random command/data interleavings.

A reference model (the Figure 3 transition function + a Python list)
predicts the ibuffer's state and recorded entries for any script of
commands and data arrivals; the hardware model must match.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.commands import IBufferCommand, IBufferState, SamplingMode, next_state
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic
from repro.pipeline.fabric import Fabric

#: Script steps: ("cmd", command) | ("data", value) | ("wait", cycles)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("cmd"),
                  st.sampled_from([IBufferCommand.RESET,
                                   IBufferCommand.SAMPLE,
                                   IBufferCommand.STOP])),
        st.tuples(st.just("data"), st.integers(0, 1000)),
        st.tuples(st.just("wait"), st.integers(1, 4)),
    ),
    min_size=1, max_size=30)


class _Reference:
    """Pure-Python model of one ibuffer instance (linear mode)."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.state = IBufferState.SAMPLE
        self.entries: list = []
        self.dropped_out_of_sample = 0

    def command(self, command: IBufferCommand) -> None:
        new = next_state(self.state, command)
        if new != self.state and new == IBufferState.RESET:
            self.entries = []
        self.state = new

    def data(self, value: int) -> None:
        if self.state == IBufferState.SAMPLE:
            if len(self.entries) < self.depth:
                self.entries.append(value)
        else:
            self.dropped_out_of_sample += 1


class TestIBufferFuzz:
    @given(steps=_steps, depth=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_model(self, steps, depth):
        fabric = Fabric()
        ibuffer = IBuffer(fabric, "fuzz",
                          logic_factory=lambda cu: RawRecorderLogic(),
                          config=IBufferConfig(count=1, depth=depth,
                                               mode=SamplingMode.LINEAR))
        fabric.advance(2)  # let the unit come up in its initial state
        reference = _Reference(depth)

        for kind, payload in steps:
            if kind == "cmd":
                ibuffer.cmd_c[0].write_nb(int(payload))
                fabric.advance(3)   # one command consumed per cycle; settle
                reference.command(payload)
            elif kind == "data":
                ibuffer.data_c[0].write_nb(payload)
                fabric.advance(3)
                reference.data(payload)
            else:
                fabric.advance(payload)

        assert ibuffer.states[0] == reference.state
        recorded = [entry["value"]
                    for entry in ibuffer.trace_buffers[0].entries()]
        assert recorded == reference.entries
        assert ibuffer.samples_dropped[0] == reference.dropped_out_of_sample


class _CycleReference(_Reference):
    """Cycle-level model: host writes queue in the channel FIFOs and the
    unit takes at most one command, then one datum, per cycle."""

    def __init__(self, depth: int, cmd_depth: int, data_depth: int) -> None:
        super().__init__(depth)
        self.commands: list = []
        self.values: list = []
        self.cmd_depth = cmd_depth
        self.data_depth = data_depth

    def write(self, queue: list, capacity: int, item) -> bool:
        if len(queue) >= capacity:
            return False
        queue.append(item)
        return True

    def advance(self, cycles: int) -> None:
        for _ in range(cycles):
            if self.commands:
                self.command(self.commands.pop(0))
            if self.values:
                self.data(self.values.pop(0))


class TestIBufferFuzzSameCycle:
    """Settling 0-1 cycles after a write puts several writes, and the
    wake-ups they cause, in one cycle; a FIFO-level model must still
    predict the unit exactly."""

    @given(steps=_steps, depth=st.integers(min_value=1, max_value=8),
           settles=st.lists(st.integers(0, 1), min_size=30, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_matches_cycle_reference(self, steps, depth, settles):
        config = IBufferConfig(count=1, depth=depth, mode=SamplingMode.LINEAR)
        fabric = Fabric()
        ibuffer = IBuffer(fabric, "fuzz",
                          logic_factory=lambda cu: RawRecorderLogic(),
                          config=config)
        fabric.advance(2)
        reference = _CycleReference(depth, config.command_channel_depth,
                                    config.data_channel_depth)

        for (kind, payload), settle in zip(steps, settles):
            if kind == "cmd":
                assert ibuffer.cmd_c[0].write_nb(int(payload)) == \
                    reference.write(reference.commands,
                                    reference.cmd_depth, payload)
            elif kind == "data":
                assert ibuffer.data_c[0].write_nb(payload) == \
                    reference.write(reference.values,
                                    reference.data_depth, payload)
            else:
                settle = payload
            fabric.advance(settle)
            reference.advance(settle)
            assert ibuffer.states[0] == reference.state

        fabric.advance(16)
        reference.advance(16)
        assert ibuffer.states[0] == reference.state
        recorded = [entry["value"]
                    for entry in ibuffer.trace_buffers[0].entries()]
        assert recorded == reference.entries
        assert ibuffer.samples_dropped[0] == reference.dropped_out_of_sample
