"""Integration tests for the host interface kernel (Listing 10)."""

from __future__ import annotations

import pytest

from repro.core.commands import IBufferCommand, IBufferState
from repro.core.host_interface import HostController, HostInterfaceKernel
from repro.core.ibuffer import IBuffer, IBufferConfig
from repro.core.logic_blocks import RawRecorderLogic
from repro.errors import IBufferError, SimulationError
from repro.pipeline.kernel import SingleTaskKernel


def _setup(fabric, count=1, depth=4):
    ibuffer = IBuffer(fabric, "ib", logic_factory=lambda cu: RawRecorderLogic(),
                      config=IBufferConfig(count=count, depth=depth))
    controller = HostController(fabric, ibuffer)
    return ibuffer, controller


class FeedKernel(SingleTaskKernel):
    def __init__(self, ibuffer, unit=0, **kw):
        super().__init__(**kw)
        self.ibuffer = ibuffer
        self.unit = unit

    def iteration_space(self, args):
        return range(args["n"])

    def body(self, ctx):
        ctx.write_channel_nb(self.ibuffer.data_c[self.unit],
                             100 + ctx.iteration)
        yield ctx.compute(1)


class TestCommandForwarding:
    def test_stop_via_host_kernel(self, fabric):
        ibuffer, controller = _setup(fabric)
        controller.stop()
        assert ibuffer.states[0] == IBufferState.STOP

    def test_reset_then_sample_cycle(self, fabric):
        ibuffer, controller = _setup(fabric)
        controller.reset()
        assert ibuffer.states[0] == IBufferState.RESET
        controller.sample()
        assert ibuffer.states[0] == IBufferState.SAMPLE

    def test_read_command_via_command_method_rejected(self, fabric):
        _, controller = _setup(fabric)
        with pytest.raises(IBufferError):
            controller.command(IBufferCommand.READ)

    def test_out_of_range_unit_rejected(self, fabric):
        ibuffer, controller = _setup(fabric, count=2)
        from repro.errors import ProcessError
        with pytest.raises(ProcessError):
            controller.stop(unit=5)


class TestTraceReadout:
    def test_full_protocol_recovers_entries(self, fabric):
        ibuffer, controller = _setup(fabric, depth=8)
        fabric.run_kernel(FeedKernel(ibuffer, name="feed"), {"n": 5})
        controller.stop()
        entries = controller.read_trace()
        assert [e["value"] for e in entries] == [100, 101, 102, 103, 104]

    def test_readout_is_fixed_length_with_partial_fill(self, fabric):
        """Listing 10 always reads DEPTH entries; invalid slots decode away."""
        ibuffer, controller = _setup(fabric, depth=8)
        fabric.run_kernel(FeedKernel(ibuffer, name="feed"), {"n": 2})
        controller.stop()
        entries = controller.read_trace()
        assert len(entries) == 2

    def test_read_all_stops_sampling_units(self, fabric):
        ibuffer, controller = _setup(fabric, count=2, depth=4)
        fabric.run_kernel(FeedKernel(ibuffer, unit=1, name="feed"), {"n": 3})
        traces = controller.read_all()
        assert set(traces) == {0, 1}
        assert [e["value"] for e in traces[1]] == [100, 101, 102]
        assert traces[0] == []

    def test_reread_after_reset_sees_new_data(self, fabric):
        ibuffer, controller = _setup(fabric, depth=8)
        feed = FeedKernel(ibuffer, name="feed")   # re-enqueued, as on hardware
        fabric.run_kernel(feed, {"n": 2})
        controller.stop()
        first = controller.read_trace()
        controller.reset()
        controller.sample()
        fabric.run_kernel(feed, {"n": 1})
        controller.stop()
        second = controller.read_trace()
        assert len(first) == 2
        assert len(second) == 1

    def test_read_from_reset_reports_deadlock_at_once(self, fabric):
        """READ is ignored in RESET, so the host interface waits on an
        output channel nothing will ever write. The idle unit is parked,
        the queue drains, and the hang is reported as a deadlock right
        away instead of after ``max_cycles`` of polling."""
        ibuffer = IBuffer(fabric, "ib",
                          logic_factory=lambda cu: RawRecorderLogic(),
                          config=IBufferConfig(
                              depth=4, initial_state=IBufferState.RESET))
        kernel = HostInterfaceKernel(ibuffer)
        fabric.advance(5)
        with pytest.raises(SimulationError, match="deadlock"):
            fabric.run_kernel(kernel, {"cmd": int(IBufferCommand.READ),
                                       "id": 0, "out": "readout"})
        assert fabric.sim.now < 10
        assert ibuffer.states[0] == IBufferState.RESET

    def test_foreign_kernel_on_same_channel_rejected(self, fabric):
        """SPSC endpoint discipline: a *different* kernel cannot produce on
        an ibuffer data channel already owned by another kernel."""
        ibuffer, controller = _setup(fabric, depth=8)
        fabric.run_kernel(FeedKernel(ibuffer, name="feed"), {"n": 1})
        from repro.errors import ProcessError
        with pytest.raises(ProcessError, match="single-producer"):
            fabric.run_kernel(FeedKernel(ibuffer, name="other_feed"), {"n": 1})


class TestKernelShape:
    def test_invalid_unit_argument_raises_in_kernel(self, fabric):
        ibuffer, controller = _setup(fabric)
        kernel = HostInterfaceKernel(ibuffer, name="hif2")
        from repro.errors import ProcessError
        with pytest.raises(ProcessError):
            fabric.run_kernel(kernel, {"cmd": 2, "id": 9, "out": "x"})

    def test_resource_profile_scales_with_instances(self, fabric):
        ibuffer, controller = _setup(fabric, count=4)
        profile = controller.kernel.resource_profile()
        assert profile.channel_endpoints == 8  # 2 per instance, unrolled
