"""Compute-unit replication scaling (the num_compute_units knob).

Not a paper table, but the mechanism behind the ibuffer's own replication
(§4) and AOCL's standard throughput scaling — the harness quantifies how
far it goes before the memory system becomes the wall.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.kernels.vecadd import VecAddKernel
from repro.memory.global_memory import GlobalMemoryConfig
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import NDRangeKernel, PipelineConfig


class _SlowVecAdd(VecAddKernel):
    """II=4 vecadd: issue-bound per compute unit."""

    def __init__(self, compute_units: int):
        NDRangeKernel.__init__(self, name="vecadd_cu",
                               num_compute_units=compute_units,
                               pipeline=PipelineConfig(ii=4))


def _cycles(compute_units: int, banks: int, n: int = 256) -> int:
    fabric = Fabric(memory_config=GlobalMemoryConfig(banks=banks, row_bytes=64),
                    keep_lsu_samples=False)
    fabric.memory.allocate("a", n).fill(np.arange(n))
    fabric.memory.allocate("b", n).fill(np.arange(n))
    c = fabric.memory.allocate("c", n)
    engines = fabric.run_replicated(_SlowVecAdd(compute_units), {"n": n})
    assert (c.snapshot() == np.arange(n) * 2).all()
    return max(engine.stats.finish_cycle for engine in engines)


def test_cu_scaling_curve(benchmark):
    def sweep():
        return {
            "parallel_mem": {cu: _cycles(cu, banks=16) for cu in (1, 2, 4, 8)},
            "serial_mem": {cu: _cycles(cu, banks=1) for cu in (1, 4)},
        }

    results = run_once(benchmark, sweep)
    parallel = results["parallel_mem"]
    print("\nCU scaling (parallel memory):",
          {cu: parallel[cu] for cu in sorted(parallel)})
    print("CU scaling (single bank):   ", results["serial_mem"])

    # Monotone improvement while issue-bound...
    assert parallel[2] < parallel[1]
    assert parallel[4] < parallel[2]
    # ...near-ideal early: 2 CUs buy at least 1.4x.
    assert parallel[1] / parallel[2] > 1.4
    # ...with diminishing returns by 8 CUs (memory takes over).
    gain_2 = parallel[1] / parallel[2]
    gain_8 = parallel[4] / parallel[8]
    assert gain_8 < gain_2

    # A single bank caps everything: quad CUs remain far slower than the
    # parallel-memory quad build.
    assert results["serial_mem"][4] > 2 * parallel[4]
