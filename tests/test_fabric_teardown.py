"""A finished fabric is freed by reference counting alone.

A run that ends in ``stop_autorun`` must leave no reference cycle behind:
with the cycle collector off, dropping the fabric has to free it and its
simulator at once. Otherwise every dropped fabric (its memory, engines,
LSU samples) waits for the collector, and a loop that builds fabrics
grows until it runs.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.sequence import SequenceService
from repro.core.timestamp import PersistentTimestampService
from repro.frontend import compile_source
from repro.frontend.compiler import program_cache_clear
from repro.frontend.listings import LISTING_6, LISTING_7
from repro.kernels.matvec import (
    MatVecNDRange,
    MatVecSingleTask,
    allocate_matvec_buffers,
)
from repro.pipeline.fabric import Fabric

N, NUM = 4, 12


def _compiled_listing(listing):
    program_cache_clear()            # cold compile, as a fresh host would
    fabric = Fabric()
    program = compile_source(fabric, {6: LISTING_6, 7: LISTING_7}[listing])
    memory = fabric.memory
    memory.allocate("X", N * NUM).fill(np.arange(N * NUM))
    memory.allocate("Y", NUM).fill(np.arange(NUM))
    memory.allocate("Z", N)
    for name in ("I1", "I2", "I3"):
        memory.allocate(name, N * 10 + 1)
    args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
            "info3": "I3", "num": NUM}
    if listing == 6:
        args["n"] = N
    else:
        args["__global_size"] = N
    fabric.run_kernel(program.kernel("matvec"), args)
    fabric.stop_autorun()
    return weakref.ref(fabric), weakref.ref(fabric.sim)


def _ir_matvec(kernel_class):
    fabric = Fabric()
    sequence = SequenceService(fabric)
    timestamps = PersistentTimestampService(fabric, sites=1)
    allocate_matvec_buffers(fabric, N, NUM)
    fabric.run_kernel(kernel_class(sequence, timestamps), {"N": N, "num": NUM})
    fabric.stop_autorun()
    return weakref.ref(fabric), weakref.ref(fabric.sim)


@pytest.mark.parametrize("run", [
    lambda: _compiled_listing(6),
    lambda: _compiled_listing(7),
    lambda: _ir_matvec(MatVecSingleTask),
    lambda: _ir_matvec(MatVecNDRange),
], ids=["listing6", "listing7", "ir-single-task", "ir-ndrange"])
def test_dropped_fabric_is_freed_without_the_collector(run):
    gc.collect()
    gc.disable()
    try:
        fabric_ref, sim_ref = run()
        assert fabric_ref() is None
        assert sim_ref() is None
    finally:
        gc.enable()


def test_run_kernel_returns_with_its_events_processed():
    fabric = Fabric()
    sequence = SequenceService(fabric)
    timestamps = PersistentTimestampService(fabric, sites=1)
    allocate_matvec_buffers(fabric, N, NUM)
    engine = fabric.run_kernel(MatVecSingleTask(sequence, timestamps),
                               {"N": N, "num": NUM})
    assert engine.completion.processed
    assert fabric.sim.peek() is None      # only the parked sequencer left


def test_channel_endpoints_name_their_kernels():
    fabric = Fabric()
    program = compile_source(fabric, LISTING_6)
    fabric.advance(1)
    assert program.channel("seq_ch").producer is program.kernel("seq_srv")
