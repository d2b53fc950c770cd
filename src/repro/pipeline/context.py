"""Kernel execution context: what a kernel body sees as its environment.

One :class:`KernelContext` exists per iteration instance (single-task /
NDRange kernels) or per compute unit (autorun kernels). It provides:

* constructors for the timed ops the body yields (loads, stores, blocking
  channel accesses, HDL calls, …);
* zero-time operations executed inline (non-blocking channel accesses,
  accumulator adds) — these are combinational in hardware and must never
  stall the calling pipeline, which is precisely the property the paper's
  instrumentation depends on ("writes to the input data channel of the
  ibuffer should not block the calling site", §4);
* identity: the iteration tag, the work-item global id, and the compute-unit
  id (``get_compute_id`` in Listing 8).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import KernelArgumentError
from repro.pipeline import ops
from repro.pipeline.accumulator import Accumulator

#: Shared cycle-boundary op (stateless; see :meth:`KernelContext.cycle`).
_CYCLE_BOUNDARY = ops.CycleBoundary()


class KernelContext:
    """Per-iteration (or per-compute-unit) view of the machine."""

    # One context is allocated per iteration instance, so slots matter.
    __slots__ = ("_instance", "_iteration")

    def __init__(self, instance: Any, iteration: Any = None) -> None:
        self._instance = instance
        self._iteration = iteration

    # -- identity ----------------------------------------------------------

    @property
    def iteration(self) -> Any:
        """The iteration tag (e.g. ``(k, i)``) this body instance executes."""
        return self._iteration

    @property
    def global_id(self) -> int:
        """NDRange ``get_global_id(0)``: first component of the tag."""
        tag = self._iteration
        if isinstance(tag, tuple) and tag:
            return tag[0]
        if isinstance(tag, int):
            return tag
        raise KernelArgumentError(
            f"iteration tag {tag!r} has no work-item component")

    @property
    def compute_id(self) -> int:
        """``get_compute_id(0)`` for replicated (autorun) kernels."""
        return self._instance.compute_id

    @property
    def kernel_name(self) -> str:
        return self._instance.kernel.name

    @property
    def sim(self):
        return self._instance.sim

    @property
    def now(self) -> int:
        """Current cycle — ground truth for tests; *kernels under test*
        should obtain time through the paper's timestamp patterns instead."""
        return self.sim.now

    def arg(self, name: str) -> Any:
        """Fetch a kernel argument by name."""
        try:
            return self._instance.args[name]
        except KeyError:
            raise KernelArgumentError(
                f"kernel {self.kernel_name!r} has no argument {name!r}") from None

    @property
    def args(self) -> Dict[str, Any]:
        return self._instance.args

    # -- timed ops (yield these) --------------------------------------------

    def load(self, buffer: str, index: int, site: Optional[str] = None) -> ops.Load:
        """Global load op; yield it to receive the value."""
        return ops.Load(buffer, index, site=site)

    def store(self, buffer: str, index: int, value: Any,
              site: Optional[str] = None) -> ops.Store:
        """Global store op (posted)."""
        return ops.Store(buffer, index, value, site=site)

    def load_local(self, name: str, index: int,
                   site: Optional[str] = None) -> ops.LoadLocal:
        """Local-memory load op against this instance's scratchpad ``name``."""
        return ops.LoadLocal(self._instance.local(name), index, site=site)

    def store_local(self, name: str, index: int, value: Any,
                    site: Optional[str] = None) -> ops.StoreLocal:
        """Local-memory store op."""
        return ops.StoreLocal(self._instance.local(name), index, value, site=site)

    def read_channel(self, channel: Any, site: Optional[str] = None) -> ops.ReadChannel:
        """Blocking channel read op (``read_channel_altera``)."""
        channel.bind_consumer(self._instance.endpoint_owner)
        return ops.ReadChannel(channel, site=site)

    def write_channel(self, channel: Any, value: Any,
                      site: Optional[str] = None) -> ops.WriteChannel:
        """Blocking channel write op (``write_channel_altera``)."""
        channel.bind_producer(self._instance.endpoint_owner)
        return ops.WriteChannel(channel, value, site=site)

    def call(self, module: Any, *args: Any, site: Optional[str] = None) -> ops.Call:
        """HDL library call op (e.g. ``get_time(command)``)."""
        return ops.Call(module, args, site=site)

    def compute(self, cycles: int, value: Any = None,
                site: Optional[str] = None) -> ops.Compute:
        """Explicit datapath latency carrying ``value``."""
        return ops.Compute(cycles, value, site=site)

    def collect(self, accumulator_name: str, key: Any, expected: int,
                site: Optional[str] = None) -> ops.CollectReduction:
        """Wait for a reduction to finish (see :meth:`accumulate`)."""
        acc = self._instance.accumulator(accumulator_name)
        return ops.CollectReduction(acc, key, expected, site=site)

    def mem_fence(self, flags: str = "channel") -> ops.MemFence:
        """Zero-time ordering marker (source fidelity with Listing 9)."""
        return ops.MemFence(flags)

    def cycle(self) -> ops.CycleBoundary:
        """Advance one clock (autorun outer-loop heartbeat, Listing 8).

        Returns a shared immutable instance: the op carries no per-call
        state, and autorun kernels yield one per simulated cycle.
        """
        return _CYCLE_BOUNDARY

    def wait_readable(self, channels: Any) -> ops.WaitReadable:
        """Idle until one of ``channels`` has data (at least one cycle).

        The outer loop of an autorun kernel that polled ``channels`` with
        non-blocking reads and got nothing yields this instead of
        :meth:`cycle`: it resumes at the first later cycle on which its
        polls would succeed, with the failed polls in between counted in
        each channel's ``read_failures``. Yield the op once per idle cycle
        in which every read of exactly these channels failed.
        """
        owner = self._instance.endpoint_owner
        for channel in channels:
            channel.bind_consumer(owner)
        return ops.WaitReadable(channels)

    def barrier(self, site: Optional[str] = None) -> ops.Barrier:
        """OpenCL ``barrier(CLK_LOCAL_MEM_FENCE)``: group-wide sync point."""
        return ops.Barrier(site)

    # -- zero-time inline operations ----------------------------------------

    def write_channel_nb(self, channel: Any, value: Any) -> bool:
        """``write_channel_nb_altera``: never stalls; returns success."""
        channel.bind_producer(self._instance.endpoint_owner)
        return channel.write_nb(value)

    def read_channel_nb(self, channel: Any) -> Tuple[Any, bool]:
        """``read_channel_nb_altera``: returns ``(value, valid)``."""
        channel.bind_consumer(self._instance.endpoint_owner)
        return channel.read_nb()

    def accumulate(self, accumulator_name: str, key: Any, value: Any) -> None:
        """Fold ``value`` into a shared loop-carried reduction register."""
        self._instance.accumulator(accumulator_name).add(key, value)

    def local(self, name: str):
        """Direct handle to an instance-local scratchpad (for nb paths)."""
        return self._instance.local(name)

    def channel(self, name: str):
        """Resolve a scalar channel declared in the program namespace."""
        return self._instance.channels.get(name)

    def channel_array(self, name: str):
        """Resolve a channel array declared in the program namespace."""
        return self._instance.channels.get_array(name)
