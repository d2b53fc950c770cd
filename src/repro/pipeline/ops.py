"""Operation IR yielded by kernel bodies.

A kernel body is a Python generator; every *timed* hardware operation is
expressed by yielding one of these op objects to the pipeline engine, which
executes it with the right latency/ordering and sends the result back into
the generator. Non-blocking channel operations are zero-time and are
provided directly on the kernel context instead.

Each op carries a ``site`` label identifying the static program location
(the synthesized hardware unit). If the kernel author does not name a site,
the engine derives one from the generator's suspended source line, so that
the same textual ``yield`` in different iterations maps to the same LSU —
matching how one static load in OpenCL becomes one load unit in hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple


class Op:
    """Base class for all kernel operations."""

    __slots__ = ("site",)

    def __init__(self, site: Optional[str] = None) -> None:
        self.site = site


class Load(Op):
    """Global-memory load: yields the loaded value."""

    __slots__ = ("buffer", "index")

    def __init__(self, buffer: str, index: int, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.buffer = buffer
        self.index = int(index)


class Store(Op):
    """Global-memory store (posted): yields once the pipeline may proceed."""

    __slots__ = ("buffer", "index", "value")

    def __init__(self, buffer: str, index: int, value: Any,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.buffer = buffer
        self.index = int(index)
        self.value = value


class LoadLocal(Op):
    """Local-memory load: yields the value after the scratchpad latency."""

    __slots__ = ("memory", "index")

    def __init__(self, memory: Any, index: int, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.memory = memory
        self.index = int(index)


class StoreLocal(Op):
    """Local-memory store."""

    __slots__ = ("memory", "index", "value")

    def __init__(self, memory: Any, index: int, value: Any,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.memory = memory
        self.index = int(index)
        self.value = value


class ReadChannel(Op):
    """Blocking channel read (``read_channel_altera``): yields the value."""

    __slots__ = ("channel",)

    def __init__(self, channel: Any, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channel = channel


class WriteChannel(Op):
    """Blocking channel write (``write_channel_altera``)."""

    __slots__ = ("channel", "value")

    def __init__(self, channel: Any, value: Any, site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channel = channel
        self.value = value


class Call(Op):
    """Invocation of an HDL-library function (Listing 3's ``get_time``).

    Yields the module's return value after its pipeline latency.
    """

    __slots__ = ("module", "args")

    def __init__(self, module: Any, args: Tuple[Any, ...] = (),
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.module = module
        self.args = tuple(args)


class Compute(Op):
    """Generic datapath latency (ALU/FPU chains): yields ``value``."""

    __slots__ = ("cycles", "value")

    def __init__(self, cycles: int, value: Any = None,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        if cycles < 0:
            raise ValueError(f"compute latency must be >= 0, got {cycles}")
        self.cycles = int(cycles)
        self.value = value


class CollectReduction(Op):
    """Wait for a loop-carried reduction to receive all contributions.

    Yields the reduced value once ``expected`` contributions were added to
    ``accumulator`` under ``key`` (see :mod:`repro.pipeline.accumulator`).
    """

    __slots__ = ("accumulator", "key", "expected")

    def __init__(self, accumulator: Any, key: Any, expected: int,
                 site: Optional[str] = None) -> None:
        super().__init__(site)
        self.accumulator = accumulator
        self.key = key
        self.expected = int(expected)


class MemFence(Op):
    """``mem_fence(CLK_CHANNEL_MEM_FENCE)`` — ordering marker, zero-time.

    Listing 9 issues one after the non-blocking snapshot write; the model's
    zero-time in-order execution already provides the guarantee, so this op
    exists for source fidelity and costs nothing.
    """

    __slots__ = ("flags",)

    def __init__(self, flags: str = "channel", site: Optional[str] = None) -> None:
        super().__init__(site)
        self.flags = flags


class Barrier(Op):
    """OpenCL work-group barrier: all work-items of the group must arrive
    before any proceeds. Only meaningful in NDRange kernels; the group is
    derived from the work-item id and the kernel's ``local_size``."""

    __slots__ = ()


class CycleBoundary(Op):
    """Advance one clock cycle (autorun kernels' outer-loop heartbeat)."""

    __slots__ = ()


class WaitReadable(Op):
    """Advance at least one cycle, then until any of ``channels`` holds
    data at this unit's poll point (an idle autorun unit's outer loop).

    Equivalent to yielding cycle boundaries and polling the channels with
    failed non-blocking reads in between; the fast executor parks the unit
    instead and charges the skipped polls to the channels' statistics.
    """

    __slots__ = ("channels",)

    def __init__(self, channels: Sequence[Any], site: Optional[str] = None) -> None:
        super().__init__(site)
        self.channels = tuple(channels)
