"""Counts simulated work by watching every :class:`Fabric` a pass creates.

The probe wraps ``Fabric.__init__`` in the benchmark process (the program
is not edited). Untraced, it keeps only each fabric's simulator, to sum
simulated cycles at the end of a pass. Traced, it keeps the fabrics and
reads their public stats objects: engines, global memory, LSUs, channels.
"""

from __future__ import annotations

import functools
from typing import Dict, List

COUNTS = ("sim.cycles", "pipeline.launches", "pipeline.iterations_retired",
          "pipeline.issue_stall_cycles", "memory.loads", "memory.stores",
          "memory.row_hits", "memory.row_misses", "memory.lsu_stall_cycles",
          "channels.transfers", "channels.stall_cycles")


class FabricProbe:
    def __init__(self, keep_fabrics: bool) -> None:
        self.keep_fabrics = keep_fabrics
        self.totals: Dict[str, int] = {name: 0 for name in COUNTS}
        self.passes = 0
        self._fabrics: List[object] = []
        self._original = None

    def install(self) -> None:
        from repro.pipeline.fabric import Fabric

        original = self._original = Fabric.__init__
        kept = self._fabrics
        keep_fabrics = self.keep_fabrics

        @functools.wraps(original)
        def init(fabric, *args, **kwargs):
            original(fabric, *args, **kwargs)
            kept.append(fabric if keep_fabrics else fabric.sim)

        Fabric.__init__ = init

    def remove(self) -> None:
        if self._original is not None:
            from repro.pipeline.fabric import Fabric

            Fabric.__init__ = self._original
            self._original = None

    def end_pass(self) -> int:
        """Close one pass: returns its simulated cycles, banks the counts."""
        kept = self._fabrics[:]
        del self._fabrics[:]
        sims = [item.sim if self.keep_fabrics else item for item in kept]
        cycles = sum({id(sim): sim.now for sim in sims}.values())
        self.passes += 1
        self.totals["sim.cycles"] += cycles
        if self.keep_fabrics:
            for fabric in kept:
                self._bank(fabric)
        return cycles

    def _bank(self, fabric) -> None:
        totals = self.totals
        for engine in fabric.engines:
            totals["pipeline.launches"] += 1
            totals["pipeline.iterations_retired"] += \
                engine.stats.iterations_retired
            totals["pipeline.issue_stall_cycles"] += \
                engine.stats.issue_stall_cycles
            for lsu in engine.lsus.values():
                totals["memory.lsu_stall_cycles"] += \
                    lsu.stats.ordering_stall_cycles
        stats = fabric.memory.stats
        totals["memory.loads"] += stats.loads
        totals["memory.stores"] += stats.stores
        totals["memory.row_hits"] += stats.row_hits
        totals["memory.row_misses"] += stats.row_misses
        for channel in fabric.channels.stats_table().values():
            totals["channels.transfers"] += channel["reads"]
            totals["channels.stall_cycles"] += (channel["write_stall_cycles"]
                                                + channel["read_stall_cycles"])

    def per_pass(self) -> Dict[str, float]:
        """Banked counts per pass, with the row-buffer hit ratio derived."""
        passes = max(self.passes, 1)
        out = {name: value / passes for name, value in self.totals.items()
               if name not in ("memory.row_hits", "memory.row_misses")}
        accesses = self.totals["memory.row_hits"] + \
            self.totals["memory.row_misses"]
        out["memory.row_hit_ratio"] = (self.totals["memory.row_hits"]
                                       / accesses if accesses else 0.0)
        return out
