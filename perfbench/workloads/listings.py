"""``paper_listings``: the paper's own OpenCL source through the frontend.

Each pass cold-compiles Listing 6 (single-task) and Listing 7 (NDRange)
with the program cache cleared, runs each at N=50, num=100 on seeded X/Y
through ``Fabric.run_kernel``, and stops the autorun kernels. Z must equal
the NumPy product, and the info buffers must show the Figure 2 order:
program order for Listing 6, interleaved for Listing 7. Cycles are
recorded, not checked: making the listings match the IR model changes
them on purpose.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from common import OpLog, checked, maybe_span

N, NUM, PROBED = 50, 100, 10
VARIANTS = 8


def expected_order(listing: int) -> List[Tuple[int, int]]:
    """(row, i) of each probed iteration in sequence-number order."""
    if listing == 6:
        return [(k, i) for k in range(N) for i in range(PROBED)]
    return [(k, i) for i in range(PROBED) for k in range(N)]


def generate(seed: int) -> Dict[str, Any]:
    """Seeded X/Y operands and their NumPy products, one set per variant."""
    rng = np.random.default_rng(seed)
    variants = []
    for _ in range(VARIANTS):
        x = rng.integers(-1000, 1000, N * NUM, dtype=np.int64)
        y = rng.integers(-1000, 1000, NUM, dtype=np.int64)
        variants.append({"x": x, "y": y, "z": x.reshape(N, NUM) @ y})
    return {"variants": variants,
            "orders": {6: expected_order(6), 7: expected_order(7)}}


class Workload:
    name = "paper_listings"

    def __init__(self, inputs: Dict[str, Any], workdir: Path,
                 traced: bool = False) -> None:
        from repro.frontend import compile_source
        from repro.frontend.compiler import (program_cache_clear,
                                             program_cache_info)
        from repro.frontend.listings import LISTING_6, LISTING_7
        from repro.pipeline.fabric import Fabric

        self.inputs = inputs
        self.tracer = None
        self.compile_source = compile_source
        self.program_cache_clear = program_cache_clear
        self.program_cache_info = program_cache_info
        self.Fabric = Fabric
        self.sources = {6: LISTING_6, 7: LISTING_7}
        self.passes = 0
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero the per-layer counts (before the traced half starts)."""
        self.compiles = 0
        self.compile_hits = 0

    def _compile(self, fabric, source):
        hits = self.program_cache_info()["hits"]
        with maybe_span(self.tracer, "compile_source", "frontend"):
            program = self.compile_source(fabric, source)
        self.compiles += 1
        self.compile_hits += self.program_cache_info()["hits"] > hits
        return program

    def _run_listing(self, listing: int, variant: Dict[str, Any]):
        self.program_cache_clear()
        fabric = self.Fabric()
        program = self._compile(fabric, self.sources[listing])
        memory = fabric.memory
        memory.allocate("X", N * NUM).fill(variant["x"])
        memory.allocate("Y", NUM).fill(variant["y"])
        memory.allocate("Z", N)
        for name in ("I1", "I2", "I3"):
            memory.allocate(name, N * PROBED + 1)
        args = {"x": "X", "y": "Y", "z": "Z", "info1": "I1", "info2": "I2",
                "info3": "I3", "num": NUM}
        if listing == 6:
            args["n"] = N
        else:
            args["__global_size"] = N
        fabric.run_kernel(program.kernel("matvec"), args)
        fabric.stop_autorun()
        return (memory.buffer("Z").snapshot(),
                list(zip(memory.buffer("I2").snapshot()[1:].tolist(),
                         memory.buffer("I3").snapshot()[1:].tolist())))

    def _verify(self, listing: int, variant: Dict[str, Any], out) -> bool:
        z, order = out
        return (np.array_equal(z, variant["z"])
                and order == self.inputs["orders"][listing])

    def run_pass(self, log: OpLog, probe) -> None:
        variant = self.inputs["variants"][self.passes % VARIANTS]
        self.passes += 1
        elapsed = 0.0
        parts = []
        for listing in (6, 7):
            if listing == 7:
                # A listing takes seconds: time the reference loop again
                # between the two, outside the pass time.
                log.calibrate()
            start = time.perf_counter()
            checked(log, f"listing{listing}",
                    lambda listing=listing: self._run_listing(listing,
                                                              variant),
                    lambda out, listing=listing: self._verify(listing,
                                                              variant, out),
                    timed=False)
            seconds = time.perf_counter() - start
            elapsed += seconds
            parts.append(log.stretch(seconds))
        log.add_pass(elapsed, work=probe.end_pass(), parts=parts)
        # The pass is the op a user waits for; its parts are too unlike
        # one another to share one latency distribution.
        log.add_latency(elapsed, parts=parts)

    def layer_counts(self) -> Dict[str, float]:
        return {"frontend.cache_hit_ratio": (self.compile_hits / self.compiles
                                             if self.compiles else 0.0)}

    def close(self) -> None:
        pass
