"""Compiled Listing 1 timers run as lazy counter registers.

The frontend recognises the free-running-counter autorun idiom and binds
its channel to a :class:`~repro.channels.channel.CounterRegisterChannel`
instead of stepping the kernel every cycle. The eager oracle is the
plain API: compile with ``start_autorun=False`` and start every autorun
kernel with ``fabric.add_autorun``. Both must agree on the clock, the
output buffers and the channel statistics, at completion and after the
device is torn down and the clock moves on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channels.channel import CounterRegisterChannel
from repro.frontend import compile_source
from repro.frontend import compiler
from repro.frontend.listings import (
    LISTING_1,
    LISTING_2,
    LISTING_5,
    LISTING_6,
    LISTING_7,
    LISTING_8_DEFINES,
    LISTING_8_IBUFFER,
)
from repro.pipeline.fabric import Fabric

#: Listing 1 plus a read site, so the counter has a consumer to observe.
LISTING_1_READ = LISTING_1 + """
__kernel void reader(__global int* out, int n) {
    int sum = 0;
    for (int i = 0; i < n; i++) {
        sum += i;
    }
    out[0] = read_channel_altera(time_ch1);
    out[1] = sum;
}
"""


def _program(source, lazy, k, **options):
    """Compile ``source`` after ``k`` cycles, lazily or with the eager
    oracle (every autorun kernel started through ``add_autorun``)."""
    fabric = Fabric()
    fabric.advance(k)
    if lazy:
        return fabric, compile_source(fabric, source, **options)
    program = compile_source(fabric, source, start_autorun=False, **options)
    for kernel in program.kernels.values():
        if kernel.kind == "autorun":
            fabric.add_autorun(kernel)
    return fabric, program


def _observe(fabric, launch, buffers):
    """Run one launch; state at completion, then after teardown + advance."""
    launch()
    memory = fabric.memory
    at_completion = (fabric.sim.now,
                     [memory.buffer(name).snapshot().tolist()
                      for name in buffers],
                     fabric.channels.stats_table())
    fabric.stop_autorun()
    fabric.advance(9)
    return at_completion, (fabric.sim.now, fabric.channels.stats_table())


def _run_listing1(lazy, k, n=6):
    fabric, program = _program(LISTING_1_READ, lazy, k)
    fabric.memory.allocate("O", 2)
    return _observe(fabric, lambda: fabric.run_kernel(
        program.kernel("reader"), {"out": "O", "n": n}), ["O"])


def _run_listing2(lazy, k, n=8):
    fabric, program = _program(LISTING_2, lazy, k)
    memory = fabric.memory
    memory.allocate("X", n).fill(np.arange(n))
    memory.allocate("Y", n).fill(np.arange(n) % 3)
    memory.allocate("Z", 1)
    memory.allocate("T", 2)
    return _observe(fabric, lambda: fabric.run_kernel(
        program.kernel("dot_product"),
        {"x": "X", "y": "Y", "z": "Z", "times": "T", "n": n}),
        ["Z", "T"])


def _run_matvec(listing, lazy, k, n, num):
    fabric, program = _program({6: LISTING_6, 7: LISTING_7}[listing],
                               lazy, k)
    memory = fabric.memory
    memory.allocate("X", n * num).fill(np.arange(n * num) % 7 - 3)
    memory.allocate("Y", num).fill(np.arange(num) % 5)
    memory.allocate("Z", n)
    for name in ("I1", "I2", "I3"):
        memory.allocate(name, n * 10 + 1)
    args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
            "info3": "I3", "num": num}
    if listing == 6:
        args["n"] = n
    else:
        args["__global_size"] = n
    return _observe(fabric, lambda: fabric.run_kernel(
        program.kernel("matvec"), args), ["Z", "I1", "I2", "I3"])


class TestLazyEqualsEager:
    @pytest.mark.parametrize("k", [0, 1, 13])
    def test_listing1(self, k):
        assert _run_listing1(True, k) == _run_listing1(False, k)

    @pytest.mark.parametrize("k", [0, 5, 40])
    def test_listing2(self, k):
        assert _run_listing2(True, k) == _run_listing2(False, k)

    @pytest.mark.parametrize("listing", [6, 7])
    @pytest.mark.parametrize("k", [0, 3, 13])
    def test_listings_6_and_7(self, listing, k):
        lazy = _run_matvec(listing, True, k, n=4, num=12)
        assert lazy == _run_matvec(listing, False, k, n=4, num=12)
        # The timestamps really are read: one per probed iteration, all
        # after the counter started.
        stamps = lazy[0][1][1][1:]
        assert all(stamp > 0 for stamp in stamps)

    @settings(max_examples=25, deadline=None)
    @given(listing=st.sampled_from([6, 7]), n=st.integers(1, 4),
           num=st.integers(1, 12), k=st.integers(0, 30))
    def test_matvec_property(self, listing, n, num, k):
        assert (_run_matvec(listing, True, k, n, num)
                == _run_matvec(listing, False, k, n, num))


def _placement(source, kernel_name, **options):
    fabric = Fabric()
    program = compile_source(fabric, source, **options)
    kernel = program.kernel(kernel_name)
    if kernel in fabric.service_kernels:
        return "lazy"
    if kernel in [engine.kernel for engine in fabric.autorun_engines]:
        return "eager"
    return "stopped"


TIMER = """
channel int ch __attribute__((depth({depth})));

__attribute__((autorun))
__kernel void timer_srv(void) {{
    int count = {start};
    while (1) {{
        bool success;
        {step};
        success = {write}(ch, count);
    }}
}}
"""


def _timer(depth=0, start=0, step="count++",
           write="write_channel_nb_altera"):
    return TIMER.format(depth=depth, start=start, step=step, write=write)


class TestRecognition:
    @pytest.mark.parametrize("source, kernel", [
        (LISTING_1, "timer_srv"),
        (LISTING_2, "timer_srv1"),
        (LISTING_2, "timer_srv2"),
        (LISTING_6, "timer_srv"),
        (LISTING_7, "timer_srv"),
        (_timer(), "timer_srv"),
        (_timer(write="write_channel_nb_intel"), "timer_srv"),
    ], ids=["listing1", "listing2-site1", "listing2-site2", "listing6",
            "listing7", "altera", "intel"])
    def test_listing1_idiom_runs_lazily(self, source, kernel):
        assert _placement(source, kernel) == "lazy"

    def test_counter_channel_is_a_counter_register(self):
        fabric = Fabric()
        program = compile_source(fabric, LISTING_6)
        channel = program.channel("time_ch1")
        assert isinstance(channel, CounterRegisterChannel)
        assert fabric.channels.get("time_ch1") is channel
        assert [engine.kernel.name for engine in fabric.autorun_engines] \
            == ["seq_srv"]

    def test_without_autorun_start_nothing_runs(self):
        assert _placement(LISTING_1, "timer_srv",
                          start_autorun=False) == "stopped"

    @pytest.mark.parametrize("source, kernel", [
        (_timer(start=5), "timer_srv"),
        (_timer(step="count += 2"), "timer_srv"),
        (_timer(step="count--"), "timer_srv"),
        (_timer(depth=1), "timer_srv"),
        (LISTING_5, "seq_srv"),
        (_timer() + """
            __kernel void other(void) {
                write_channel_nb_altera(ch, 7);
            }""", "timer_srv"),
        (LISTING_8_IBUFFER, "timer_srv"),
    ], ids=["start-5", "step-2", "decrement", "depth-1", "blocking-write",
            "second-writer", "autorun-reader"])
    def test_other_kernels_stay_eager(self, source, kernel):
        assert _placement(source, kernel,
                          defines=LISTING_8_DEFINES) == "eager"

    def test_shadowed_counter_stays_eager(self):
        source = _timer().replace("bool success;", "bool success; int count;")
        assert _placement(source, "timer_srv") == "eager"

    def test_predicate_runs_once_per_program_image(self, monkeypatch):
        calls = []
        original = compiler.find_counter_registers

        def counting(program_ast):
            calls.append(program_ast)
            return original(program_ast)

        monkeypatch.setattr(compiler, "find_counter_registers", counting)
        compiler.program_cache_clear()
        for _ in range(3):
            assert _placement(LISTING_6, "timer_srv") == "lazy"
        assert len(calls) == 1
        assert compiler.program_cache_info()["hits"] == 2
