"""Measurement plumbing shared by the workloads.

Everything here observes the program from outside: an op log for the
end-to-end numbers, a reference loop that times the host's speed between
passes, and -- only in the traced run -- spans recorded around public
entry points plus a sampling profiler that charges CPU time to the
``repro.<package>`` layer on top of each sampled stack.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The layers the traced run attributes time to, named after the
#: ``repro`` packages. ``sweep`` is the server's worker pool; every other
#: package (experiments, kernels, analysis, host, hdl, synthesis, ...),
#: the standard library and the benchmark itself count as ``other``.
LAYERS = ("sim", "pipeline", "memory", "channels", "core", "frontend",
          "trace", "server", "other")
_PACKAGE_LAYER = {name: name for name in LAYERS if name != "other"}
_PACKAGE_LAYER["sweep"] = "server"


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and its descendants, MB."""
    total_kib = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            status = Path(f"/proc/{current}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                pending.extend(int(child) for child in task.read_text().split())
            except OSError:
                continue
    return total_kib / 1024.0


#: iterations of the reference loop; one loop is one ``ref``, the time unit
#: of the end-to-end timings (about 3 ms on a 2-vCPU Xeon KVM guest).
REFERENCE_ITERATIONS = 20_000
REFERENCE_REPEATS = 3


def _reference_loop(iterations: int) -> int:
    """Fixed pure-Python work: integer arithmetic and dict updates."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
        key = acc & 255
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


def reference_s(every_cpu: bool = False) -> float:
    """Seconds the reference loop takes now: the median of a few loops.

    A shared host runs the same code up to 1.6 times slower for spells of
    a second to minutes, on each CPU apart. The loop is timed between
    passes, and each stretch of timed work is divided by the mean of the
    reference times either side of it, so the end-to-end timings come
    out in ``ref`` units that such spells leave unchanged.
    With ``every_cpu``, the calling thread times the loop on each CPU it
    may run on, in turn, and returns the mean: the measure for work that
    spreads over all of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus if every_cpu else [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            loops = []
            for _ in range(REFERENCE_REPEATS):
                start = time.perf_counter()
                _reference_loop(REFERENCE_ITERATIONS)
                loops.append(time.perf_counter() - start)
            times.append(statistics.median(loops))
    finally:
        if every_cpu:
            os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


#: a stretch of timed work: its seconds, and how many reference timings
#: were taken before it.
Stretch = Tuple[float, int]


@dataclass
class OpLog:
    """Every checked operation of one measurement, thread-safe."""

    attempted: int = 0
    failed: int = 0
    #: latencies (s) of the workload's latency-critical ops.
    latencies: List[float] = field(default_factory=list)
    #: wall time (s) of each completed pass.
    passes: List[float] = field(default_factory=list)
    #: units of work completed (cycles, rows or requests) and the wall
    #: time (s) they took, for the throughput metric.
    work: float = 0.0
    work_s: float = 0.0
    #: whether :meth:`calibrate` times the reference loop (not in the
    #: traced run), and every reference time (s) taken.
    calibrating: bool = False
    refs: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: the stretches each latency, pass and ``work_s`` is made of.
    _latency_parts: List[List[Stretch]] = field(default_factory=list)
    _pass_parts: List[List[Stretch]] = field(default_factory=list)
    _work_parts: List[Stretch] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def calibrate(self, every_cpu: bool = False) -> None:
        """Time the reference loop, if calibrating; call it while no op
        is in flight and outside any timed interval."""
        if not self.calibrating:
            return
        ref = reference_s(every_cpu)
        with self._lock:
            self.refs.append(ref)

    def stretch(self, seconds: float) -> Stretch:
        """``seconds`` of work timed since the last reference timing."""
        with self._lock:
            return (seconds, len(self.refs))

    def record(self, ok: bool, latency: Optional[float] = None,
               what: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        if latency is not None:
            self.add_latency(latency)

    def add_latency(self, seconds: float,
                    parts: Optional[List[Stretch]] = None) -> None:
        """One op's latency; ``parts`` when a reference timing fell
        between its parts."""
        parts = parts or [self.stretch(seconds)]
        with self._lock:
            self.latencies.append(seconds)
            self._latency_parts.append(parts)

    def add_work(self, work: float, seconds: float,
                 parts: Optional[List[Stretch]] = None) -> None:
        parts = parts or [self.stretch(seconds)]
        with self._lock:
            self.work += work
            self.work_s += seconds
            self._work_parts.extend(parts)

    def add_pass(self, seconds: float, work: float = 0.0,
                 work_s: Optional[float] = None,
                 parts: Optional[List[Stretch]] = None) -> None:
        """One pass; ``parts`` as for :meth:`add_latency`. ``work_s`` is
        the part of the pass the work took, if not all of it."""
        parts = parts or [self.stretch(seconds)]
        with self._lock:
            self.passes.append(seconds)
            self._pass_parts.append(parts)
        if work_s is None:
            self.add_work(work, seconds, parts)
        else:
            self.add_work(work, work_s)

    def _in_ref(self, parts: List[Stretch]) -> float:
        """Stretches in ``ref``: each divided by the mean of the reference
        times taken just before and just after it."""
        total = 0.0
        for seconds, before in parts:
            around = self.refs[max(before - 1, 0):before + 1] or [1.0]
            total += seconds / statistics.mean(around)
        return total

    @property
    def rel_latencies(self) -> List[float]:
        return [self._in_ref(parts) for parts in self._latency_parts]

    @property
    def rel_passes(self) -> List[float]:
        return [self._in_ref(parts) for parts in self._pass_parts]

    @property
    def rel_work_s(self) -> float:
        return self._in_ref(self._work_parts)


def checked(log: OpLog, what: str, call: Callable[[], Any],
            verify: Callable[[Any], bool], timed: bool = True) -> Any:
    """Run one op and check its result; returns the result or None.

    Only ``call`` is timed. An exception from either side, or a False
    verdict, counts the op as failed.
    """
    start = time.perf_counter()
    try:
        result = call()
        elapsed = time.perf_counter() - start
        ok = bool(verify(result))
    except Exception as exc:  # counted as a failed op; the loop goes on
        log.record(False, None, f"{what}: {type(exc).__name__}: {exc}")
        return None
    log.record(ok, elapsed if timed else None, what)
    return result if ok else None


def maybe_span(tracer: Optional["Tracer"], name: str, layer: str):
    """A span when tracing, else a no-op context."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, layer)


# -- tracing (the --trace 1 run only) ---------------------------------------


class Tracer:
    """In-memory spans: (name, layer, start, end, parent, thread)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, float, float, int, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, layer, time.perf_counter(), 0.0, parent,
                               threading.get_ident()))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            with self._lock:
                entry = self.spans[index]
                self.spans[index] = entry[:3] + (time.perf_counter(),) \
                    + entry[4:]

    def wrap(self, owner: object, attr: str, name: str, layer: str) -> None:
        """Record a span around every call of ``owner.attr`` until unwrap."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, original))

    def unwrap(self) -> None:
        while self._undo:
            self._undo.pop()()

    def total(self, name: str) -> float:
        return sum(end - start for span_name, _, start, end, _, _
                   in self.spans if span_name == name and end)

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, _, start, end, _, _ in self.spans
                if span_name == name and end]

    def write_chrome(self, path: Path, origin: float) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": thread, "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6, "args": {"parent": parent}}
                  for name, layer, start, end, parent, thread in self.spans
                  if end]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class Sampler:
    """CPU-time sampling profiler charging time to ``repro`` layers.

    Every ``interval`` seconds it reads the CPU clock of every other
    thread of this process and charges the CPU time the thread used since
    the previous sample to the layer of the innermost frame that lives in
    ``src/repro/<package>``, so a NumPy or stdlib call made by
    ``repro.memory`` counts as memory. Stacks with no ``repro`` frame
    count as ``other``. A thread blocked on a socket or a lock uses no
    CPU, so waiting is charged to no layer.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: the creating thread's kernel id. After a fork, threading still
        #: reports the parent's id for the child's main thread.
        self._own_tid = {threading.get_ident(): threading.get_native_id()}
        self._cpu: Dict[int, float] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._layer_of_code: Dict[object, Optional[str]] = {}
        self._repro_dir = str(SRC / "repro") + os.sep

    def start(self) -> None:
        self.tick(charge=False)
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-sampler")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _layer(self, frame) -> str:
        cache = self._layer_of_code
        while frame is not None:
            code = frame.f_code
            layer = cache.get(code, False)
            if layer is False:
                layer = None
                filename = code.co_filename
                if filename.startswith(self._repro_dir):
                    package = filename[len(self._repro_dir):].split(os.sep)[0]
                    layer = _PACKAGE_LAYER.get(package, "other")
                cache[code] = layer
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def tick(self, charge: bool = True) -> None:
        """Take one sample; with ``charge`` False only reset the clocks."""
        tids = {thread.ident: thread.native_id
                for thread in threading.enumerate()}
        tids.update(self._own_tid)
        me = threading.get_ident()
        cpu: Dict[int, float] = {}
        for ident, frame in sys._current_frames().items():
            tid = tids.get(ident)
            if ident == me or tid is None:
                continue
            try:
                # The kernel's per-thread CPU clock: MAKE_THREAD_CPUCLOCK.
                now = time.clock_gettime(((~tid) << 3) | 6)
            except OSError:         # the thread has just ended
                continue
            cpu[tid] = now
            if charge:
                self.seconds[self._layer(frame)] += now - self._cpu.get(tid,
                                                                        now)
        self._cpu = cpu

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
