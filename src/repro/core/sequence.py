"""Sequence-number primitive pattern (§3.2, Listing 5).

"Rather than a free-running counter for timestamps, the sequencing counter
will not be incremented until the blocking channel write function is
finished. In other words, only after the consumer reads out the counter
value from the channel, the counter is incremented."

Consumers therefore observe a strictly increasing, gap-free sequence whose
order **is** the dynamic order in which read sites executed — the paper
uses it both to reveal scheduling order (Figure 2) and as addresses into
the profiling info buffers (Listings 6–7).
"""

from __future__ import annotations

from repro.channels.channel import Channel
from repro.pipeline.context import KernelContext
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import AutorunKernel, ResourceProfile
from repro.pipeline import ops


class SequenceServerKernel(AutorunKernel):
    """Listing 5: autorun kernel whose counter advances one per consumer read."""

    is_instrumentation = True

    def __init__(self, channel: Channel, name: str = "seq_srv",
                 start: int = 0) -> None:
        super().__init__(name=name, phase="early")
        self.channel = channel
        self.start = start

    def body(self, ctx: KernelContext):
        count = self.start
        while True:
            count += 1
            # Blocking write: rendezvous with the consumer before the next
            # increment (the whole point of the pattern).
            yield ctx.write_channel(self.channel, count)

    def resource_profile(self) -> ResourceProfile:
        return ResourceProfile(adders=1, channel_endpoints=1,
                               control_states=2, extra_registers=64)


class SequenceService:
    """A sequence-number source usable from kernels under test."""

    def __init__(self, fabric: Fabric, name: str = "seq", start: int = 0) -> None:
        # The fabric is not kept: kernels under test hold this service, and
        # the fabric holds their engines (no reference cycle).
        self.channel = fabric.channels.declare(f"{name}_ch", depth=0,
                                               width_bits=32)
        self.kernel = SequenceServerKernel(self.channel, name=f"{name}_srv",
                                           start=start)
        fabric.add_autorun(self.kernel)

    def read_op(self, ctx: KernelContext) -> ops.ReadChannel:
        """The read site: ``seq = yield seq_service.read_op(ctx)``.

        Blocking read — the data dependency on the returned value "prevents
        compiler from moving the read channel function" (§3.2).
        """
        return ctx.read_channel(self.channel)
