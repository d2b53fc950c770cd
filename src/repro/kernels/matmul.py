"""Matrix multiply: the §5 evaluation kernel (Table 1, Listing 9/11 contexts).

``C[i, j] = Σ_k A[i, k] * B[k, j]`` as a pipelined single task over the
flattened ``(i, j, k)`` nest. Instrumentation is optional and composable,
matching Table 1's four rows:

* ``Base``   — no instrumentation;
* ``SM``     — stall-monitor snapshots around the ``A`` load (Listing 9);
* ``WP``     — smart watchpoint monitoring the ``A``-load address and the
  ``C``-store address/value (Listing 11);
* ``SM+WP``  — both.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.stall_monitor import StallMonitor
from repro.core.watchpoint import SmartWatchpoint
from repro.pipeline.kernel import ResourceProfile, SingleTaskKernel
from repro.pipeline.schedule import flattened


class MatMulKernel(SingleTaskKernel):
    """Matrix multiply with optional stall-monitor / watchpoint probes.

    Args per launch: ``rows_a``, ``col_a``, ``col_b``.
    Buffers: ``data_a`` (rows_a*col_a), ``data_b`` (col_a*col_b),
    ``data_c`` (rows_a*col_b).
    """

    def __init__(self, stall_monitor: Optional[StallMonitor] = None,
                 watchpoint: Optional[SmartWatchpoint] = None,
                 watch_element: int = 0, name: str = "matmul") -> None:
        super().__init__(name=name)
        self.stall_monitor = stall_monitor
        self.watchpoint = watchpoint
        #: Which ``data_a`` element the watchpoint watches (&data_a[0] in
        #: Listing 11).
        self.watch_element = watch_element

    def iteration_space(self, args: Dict) -> Iterable[Tuple[int, int, int]]:
        return flattened((args["rows_a"], args["col_b"], args["col_a"]))

    def body(self, ctx):
        i, j, k = ctx.iteration
        col_a = ctx.arg("col_a")
        col_b = ctx.arg("col_b")

        if self.watchpoint is not None and ctx.iteration == (0, 0, 0):
            # Listing 11: add_watch(0, (size_t)&data_a[0]); done once.
            buffer_a = ctx._instance.memory.buffer("data_a")
            self.watchpoint.add_watch(ctx, 0,
                                      buffer_a.address_of(self.watch_element))

        if self.stall_monitor is not None:
            self.stall_monitor.take_snapshot(ctx, 0, k)   # snapshot site 1
        a = yield ctx.load("data_a", i * col_a + k)
        if self.stall_monitor is not None:
            self.stall_monitor.take_snapshot(ctx, 1, a)   # snapshot site 2
        if self.watchpoint is not None:
            # Monitor the read address for bound checking (Listing 11).
            buffer_a = ctx._instance.memory.buffer("data_a")
            self.watchpoint.monitor_address(
                ctx, 0, buffer_a.address_of(i * col_a + k), a)

        b = yield ctx.load("data_b", k * col_b + j)
        ctx.accumulate("acc", (i, j), a * b)

        if k == col_a - 1:
            total = yield ctx.collect("acc", (i, j), expected=col_a)
            yield ctx.store("data_c", i * col_b + j, total)
            if self.watchpoint is not None and self.watchpoint.units > 1:
                # Monitor the write address for bound checking and value
                # updates (second monitor id, as in Listing 11).
                buffer_c = ctx._instance.memory.buffer("data_c")
                self.watchpoint.monitor_address(
                    ctx, 1, buffer_c.address_of(i * col_b + j), total)

    def resource_profile(self) -> ResourceProfile:
        # A realistically unrolled AOCL matmul: wide vectorized loads, a
        # 128-lane multiply-accumulate array, and banked A/B tiles — this is
        # where the §5.3 baseline's 2.97M memory bits / 396 blocks live
        # (together with the BSP shell and LSU caches).
        profile = ResourceProfile(
            load_sites=4, store_sites=1, adders=140, multipliers=128,
            logic_ops=64, control_states=6,
            local_memory_bits=2_290_000,
            ram_blocks_structural=295,
        )
        if self.stall_monitor is not None:
            profile = profile.merged(ResourceProfile(channel_endpoints=2,
                                                     logic_ops=2))
        if self.watchpoint is not None:
            endpoints = 2 if self.watchpoint.units > 1 else 1
            profile = profile.merged(ResourceProfile(
                channel_endpoints=endpoints + 1, logic_ops=endpoints + 1))
        return profile


def allocate_matmul_buffers(fabric, rows_a: int, col_a: int, col_b: int,
                            a=None, b=None) -> Dict:
    """Allocate/initialise A, B, C; defaults are small ramp patterns."""
    import numpy as np

    stores = {
        "data_a": fabric.memory.allocate("data_a", rows_a * col_a),
        "data_b": fabric.memory.allocate("data_b", col_a * col_b),
        "data_c": fabric.memory.allocate("data_c", rows_a * col_b),
    }
    stores["data_a"].fill(np.arange(rows_a * col_a) % 7 if a is None else a)
    stores["data_b"].fill(np.arange(col_a * col_b) % 5 if b is None else b)
    return stores


def expected_matmul(rows_a: int, col_a: int, col_b: int, a=None, b=None):
    """Reference result for the default buffer contents."""
    import numpy as np

    mat_a = (np.arange(rows_a * col_a) % 7 if a is None
             else np.asarray(a)).reshape(rows_a, col_a)
    mat_b = (np.arange(col_a * col_b) % 5 if b is None
             else np.asarray(b)).reshape(col_a, col_b)
    return mat_a @ mat_b
