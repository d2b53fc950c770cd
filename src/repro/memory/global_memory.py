"""Banked, DDR-like global memory with queued, variable-latency access.

Pipeline stalls in AOCL designs "may occur because of loads or stores
accessing global memory" (§5.1); the stall monitor's whole purpose is to
observe those latencies. This controller therefore models the effects that
make load latency *variable*:

* a fixed pipe latency (controller + PHY traversal),
* per-bank busy time (consecutive accesses to one bank serialize),
* an open-row model (row hits are cheaper than row misses), and
* port arbitration across concurrent requesters.

The model is deterministic: identical request streams produce identical
latencies, which keeps the reproduced experiments stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import AddressError
from repro.memory.backing import AddressMap, BackingStore
from repro.sim.core import PRIORITY_NORMAL, Event, Simulator


@dataclass(frozen=True)
class GlobalMemoryConfig:
    """Timing knobs for the global-memory controller (cycles)."""

    #: Fixed controller/PHY pipe latency added to every access.
    pipe_latency: int = 38
    #: Number of DDR banks; addresses interleave across them by row.
    banks: int = 8
    #: Data-transfer occupancy per access on its bank.
    bank_busy_cycles: int = 4
    #: Bytes per DRAM row (open-page granularity).
    row_bytes: int = 1024
    #: Extra cycles when the access hits the bank's open row.
    row_hit_cycles: int = 6
    #: Extra cycles when the bank must precharge + activate a new row.
    row_miss_cycles: int = 24
    #: Writes are posted: the issuing pipeline sees this many cycles only.
    posted_write_latency: int = 2

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise AddressError(f"banks must be >= 1, got {self.banks}")
        if self.row_bytes < 1:
            raise AddressError(f"row_bytes must be >= 1, got {self.row_bytes}")
        if min(self.pipe_latency, self.bank_busy_cycles, self.row_hit_cycles,
               self.row_miss_cycles, self.posted_write_latency) < 0:
            raise AddressError("latencies must be non-negative")
        if self.row_hit_cycles > self.row_miss_cycles:
            raise AddressError(
                "a row hit cannot be slower than a row miss "
                f"({self.row_hit_cycles} > {self.row_miss_cycles})")


@dataclass
class GlobalMemoryStats:
    """Aggregate counters used by reports and tests."""

    loads: int = 0
    stores: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_load_latency: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def mean_load_latency(self) -> float:
        return self.total_load_latency / self.loads if self.loads else 0.0


@dataclass
class BufferTraffic:
    """Per-buffer traffic counters (what a vendor profiler accumulates)."""

    loads: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class GlobalMemory:
    """The device's global memory: buffers + a timing model.

    Access methods return simulator events that trigger with the loaded
    value (loads) or ``None`` (stores) once the access completes.
    """

    def __init__(self, sim: Simulator, config: Optional[GlobalMemoryConfig] = None,
                 address_map: Optional[AddressMap] = None) -> None:
        self.sim = sim
        self.config = config or GlobalMemoryConfig()
        self.address_map = address_map or AddressMap()
        self.stats = GlobalMemoryStats()
        self._bank_ready = [0] * self.config.banks
        self._bank_open_row: list = [None] * self.config.banks
        self._pending_commits = 0
        self._drain_waiters: list = []
        #: Per-buffer traffic, keyed by buffer name.
        self.traffic: Dict[str, BufferTraffic] = {}

    # -- buffer management -------------------------------------------------

    def allocate(self, name: str, size: int, dtype: str = "int64") -> BackingStore:
        """Allocate a global buffer addressable by kernels."""
        return self.address_map.allocate(name, size, dtype=dtype)

    def buffer(self, name: str) -> BackingStore:
        """Look up a buffer by name."""
        return self.address_map.get(name)

    # -- timing ------------------------------------------------------------

    def _bank_and_row(self, address: int) -> tuple:
        row = address // self.config.row_bytes
        return row % self.config.banks, row

    def _service_latency(self, address: int) -> int:
        """Compute this access's latency and update bank state."""
        now = self.sim.now
        bank, row = self._bank_and_row(address)
        start = max(now, self._bank_ready[bank])
        if self._bank_open_row[bank] == row:
            access = self.config.row_hit_cycles
            self.stats.row_hits += 1
        else:
            access = self.config.row_miss_cycles
            self.stats.row_misses += 1
            self._bank_open_row[bank] = row
        finish = start + access + self.config.bank_busy_cycles
        self._bank_ready[bank] = finish
        return (finish - now) + self.config.pipe_latency

    # -- access API ----------------------------------------------------------

    def load_timing(self, buffer_name: str, index: int) -> tuple:
        """Account one load; returns ``(backing_store, latency_cycles)``.

        Bank state, statistics, and traffic counters are updated at issue
        (as the controller accepts the request). The caller is responsible
        for reading the value *at completion time* — a posted store that
        commits while the load is in flight must be observed.
        """
        store = self.buffer(buffer_name)
        store.check_index(index)
        latency = self._service_latency(store.address_of(index))
        self.stats.loads += 1
        self.stats.total_load_latency += latency
        self.stats.bytes_read += store.itemsize
        traffic = self.traffic.setdefault(buffer_name, BufferTraffic())
        traffic.loads += 1
        traffic.bytes_read += store.itemsize
        return store, latency

    def load(self, buffer_name: str, index: int) -> Event:
        """Asynchronous load; the event triggers with the value."""
        store, latency = self.load_timing(buffer_name, index)

        # One scheduled event per load (not timeout + chained succeed):
        # the event is scheduled directly at its completion cycle and its
        # first callback materializes the value *at fire time*, preserving
        # read-at-completion semantics (a store committing meanwhile is
        # observed, exactly as with the old two-event chain).
        event = Event(self.sim)
        event._value = None

        def _materialize(done, _store=store, _index=index):
            done._value = _store.read(_index)

        event.callbacks.append(_materialize)
        self.sim._schedule(event, delay=latency, priority=PRIORITY_NORMAL)
        return event

    def store_timing(self, buffer_name: str, index: int, value: Any) -> int:
        """Account one posted store; returns the pipeline-visible latency.

        The commit (value becoming visible in the backing store at the
        access's *full* latency) is scheduled here; the caller only needs
        an event at the returned posted latency to resume the pipeline.
        """
        store = self.buffer(buffer_name)
        store.check_index(index)
        latency = self._service_latency(store.address_of(index))
        self.stats.stores += 1
        self.stats.bytes_written += store.itemsize
        traffic = self.traffic.setdefault(buffer_name, BufferTraffic())
        traffic.stores += 1
        traffic.bytes_written += store.itemsize
        self._pending_commits += 1

        def _commit(done, _store=store, _index=index, _value=value):
            _store.write(_index, _value)
            self._pending_commits -= 1
            if self._pending_commits == 0:
                waiters, self._drain_waiters = self._drain_waiters, []
                for waiter in waiters:
                    waiter.succeed()

        commit = Event(self.sim)
        commit._value = None
        commit.callbacks.append(_commit)
        self.sim._schedule(commit, delay=latency, priority=PRIORITY_NORMAL)
        return min(latency, self.config.posted_write_latency)

    def store(self, buffer_name: str, index: int, value: Any) -> Event:
        """Posted store; the event triggers when the pipeline may proceed.

        The value becomes visible in the backing store when the *memory*
        access completes (its full latency), not when the pipeline resumes.
        """
        posted = self.store_timing(buffer_name, index, value)
        # The pipeline-resume event is scheduled directly at the posted
        # latency instead of via a chained timeout + succeed().
        event = Event(self.sim)
        event._value = None
        self.sim._schedule(event, delay=posted, priority=PRIORITY_NORMAL)
        return event

    @property
    def pending_commits(self) -> int:
        """Posted stores issued but not yet visible in backing stores."""
        return self._pending_commits

    def drained(self) -> Event:
        """Event firing when no posted store remains in flight.

        The host must wait for this before reading result buffers; a real
        runtime gets the same guarantee from ``clFinish``.
        """
        event = Event(self.sim)
        if self._pending_commits == 0:
            event.succeed()
        else:
            self._drain_waiters.append(event)
        return event
