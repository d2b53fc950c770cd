"""``server_sessions``: the emulation daemon under a closed loop of clients.

The daemon runs in its own process, started as ``python -m repro serve``
with default workers. This process drives ``CONNECTIONS`` client
connections, one thread each; every connection holds its own session
with binary segment frames and a trace subscription, and sends its next
request only when the previous reply is in. A round holds one request
of each kind the benchmark's design lists, in seeded order:

* ``experiment.run`` of fig2 at a reduced size with tracing on;
* ``experiment.run`` of sec52;
* ``program.compile`` followed by ``kernel.run`` of a convergent NDRange
  kernel on seeded operands;
* ``trace.store_query`` over a bundle written at set-up.

No measured traffic is known to weight the kinds by, so each has the
same share: a round is five RPCs.

Replies must equal in-process renders (made at set-up) and NumPy; the
capture streamed with fig2 must be byte-identical to a local capture.
A ``busy`` refusal or any other error counts as a failed request.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from common import HERE, SRC, OpLog, checked, maybe_span, tree_peak_rss_mb
from daemon_sampling import DaemonSampling

CONNECTIONS = 2
FIG2_SIZE = (5, 7)
KERNEL_SIZE = 64
#: one request of each kind per round (a kernel request is two RPCs,
#: program.compile then kernel.run).
KINDS = ("fig2", "sec52", "kernel", "store_query")
#: distinct seeded rounds per connection, repeated in turn.
ROUNDS = 8
#: seconds between two timings of the reference loop.
SLICE_S = 1.0
KERNEL_SOURCES = {
    "saxpy": """
__kernel void saxpy(__global int* x, __global int* y, __global int* z,
                    int a) {
    int i = get_global_id(0);
    z[i] = a * x[i] + y[i];
}
""",
    "blend": """
__kernel void blend(__global int* x, __global int* y, __global int* z,
                    int a) {
    int i = get_global_id(0);
    z[i] = x[i] * y[i] - a * y[i];
}
""",
}


def _kernel_expected(name: str, x, y, a: int) -> List[int]:
    if name == "saxpy":
        return (a * x + y).tolist()
    return (x * y - a * y).tolist()


def generate(seed: int) -> Dict[str, Any]:
    """Per-connection rounds of requests, with every expected reply's
    inputs: ``rounds[connection][round]`` is a list of requests."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    rounds = []
    for _ in range(CONNECTIONS):
        connection = []
        for index in range(ROUNDS):
            requests = []
            for kind in KINDS:
                if kind == "kernel":
                    name = rng.choice(sorted(KERNEL_SOURCES))
                    x = nprng.integers(-500, 500, KERNEL_SIZE, dtype=np.int64)
                    y = nprng.integers(-500, 500, KERNEL_SIZE, dtype=np.int64)
                    a = int(nprng.integers(-9, 10))
                    requests.append({"kind": kind, "name": name, "a": a,
                                     "x": x.tolist(), "y": y.tolist(),
                                     "z": _kernel_expected(name, x, y, a)})
                elif kind == "store_query":
                    # Alternate rounds: a grouped aggregate, a row limit.
                    params: Dict[str, Any] = {
                        "schema": "latency.sample",
                        "kernel": rng.choice(("k0", "k1", "k2", "k3"))}
                    if index % 2:
                        params.update(agg="latency", by="site")
                    else:
                        params.update(schema="counter.lsu",
                                      limit=rng.randint(5, 40))
                    requests.append({"kind": kind, "params": params})
                else:
                    requests.append({"kind": kind})
            rng.shuffle(requests)
            connection.append(requests)
        rounds.append(connection)
    return {"seed": seed, "rounds": rounds}


def start_daemon(workdir: Path, sample_dir: Optional[Path] = None
                 ) -> "tuple[subprocess.Popen, str]":
    """Start ``repro serve`` on an ephemeral port; returns (process, addr).

    With ``sample_dir``, the daemon starts through ``daemon_sampling.py``
    so it and its workers can be sampled (see :class:`DaemonSampling`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    launcher = (["-m", "repro"] if sample_dir is None else
                [str(HERE / "daemon_sampling.py"), str(sample_dir)])
    log = open(workdir / "daemon.log", "wb")
    try:
        process = subprocess.Popen(
            [sys.executable, *launcher, "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=log, env=env, text=True)
    finally:
        log.close()
    banner = process.stdout.readline()
    if " listening on " not in banner:
        stop_daemon(process, None)
        raise RuntimeError(f"daemon did not start: {banner!r}")
    return process, banner.split(" listening on ")[1].split(" (")[0]


def stop_daemon(process: subprocess.Popen, address) -> None:
    """Ask the daemon to shut down; kill it if it does not exit."""
    if address is not None and process.poll() is None:
        from repro.server import Client, ServerError

        try:
            with Client(address, timeout=30) as client:
                client.shutdown()
        except (OSError, ServerError):
            pass
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=30)
    if process.stdout is not None:
        process.stdout.close()


class Workload:
    name = "server_sessions"

    def __init__(self, inputs: Dict[str, Any], workdir: Path,
                 traced: bool = False) -> None:
        from repro.experiments.registry import run_experiment
        from repro.server import Client

        self.inputs = inputs
        self.tracer = None
        self.workdir = workdir
        self.expected = self._local_renders(run_experiment)
        self.daemon_sampling = (DaemonSampling(workdir / "samples")
                                if traced else None)
        self.process, self.address = start_daemon(
            workdir, self.daemon_sampling and self.daemon_sampling.directory)
        self.clients: List[Any] = []
        self._lock = threading.Lock()
        self.reset_counts()
        try:
            for index in range(CONNECTIONS):
                client = Client(self.address)
                self.clients.append(client)
                client.open_session()
                client.subscribe()
                # Warm-up: one request of every kind, outside the timing.
                warm = OpLog()
                for request in self._warm_requests(index):
                    self._request(client, index, request, warm)
                if warm.failed:
                    raise RuntimeError(f"warm-up failed: {warm.failures}")
        except BaseException:
            self.close()
            raise

    def _local_renders(self, run_experiment) -> Dict[Any, Any]:
        """In-process renders, local captures and the query bundle."""
        from repro.cli import format_trace_query
        from repro.trace import ColumnarSink, ColumnarStore, TraceHub
        from workloads import trace_store

        expected: Dict[Any, Any] = {"sec52": run_experiment("sec52")}
        n, num = FIG2_SIZE
        path = self.workdir / "fig2.ctb"
        hub = TraceHub()
        hub.attach(ColumnarSink(str(path), hub.registry))
        render = run_experiment("fig2", hub=hub, n=n, num=num)
        hub.close()
        expected["fig2"] = (render, path.read_bytes())
        bundle = self.workdir / "store_query.ctb"
        rows = trace_store.generate_rows(self.inputs["seed"], captures=1)
        trace_store.write_capture(bundle, rows["captures"][0])
        self.bundle = str(bundle)
        store = ColumnarStore.load(self.bundle)
        for connection in self.inputs["rounds"]:
            for request in (r for round_ in connection for r in round_):
                if request["kind"] == "store_query":
                    params = request["params"]
                    key = ("store_query", repr(sorted(params.items())))
                    expected[key] = format_trace_query(store, params)
        return expected

    def _warm_requests(self, index: int) -> List[Dict[str, Any]]:
        return self.inputs["rounds"][index][0]

    def reset_counts(self) -> None:
        """Zero the per-layer counts (before the traced half starts)."""
        self.refused = 0
        self.segment_bytes = 0
        self.compiles = 0
        self.compile_hits = 0
        self.rounds = 0

    def _call(self, log: OpLog, what: str, call, verify):
        from repro.server.protocol import E_BUSY, ServerError

        def counted_call():
            try:
                with maybe_span(self.tracer, f"Client.call:{what}", "server"):
                    return call()
            except ServerError as exc:
                if exc.code == E_BUSY:
                    with self._lock:
                        self.refused += 1
                raise

        return checked(log, what, counted_call, verify)

    def _request(self, client, index: int, request: Dict[str, Any],
                 log: OpLog) -> None:
        kind = request["kind"]
        if kind == "fig2":
            n, num = FIG2_SIZE
            render, capture = self.expected["fig2"]
            del client.segments[:]
            path = self.workdir / f"stream-{index}.ctb"

            def streamed_matches(result) -> bool:
                if result["rendered"] != render:
                    return False
                client.save_trace(str(path))
                data = path.read_bytes()
                with self._lock:
                    self.segment_bytes += len(data)
                return data == capture

            self._call(log, "experiment.run",
                       lambda: client.run_experiment(
                           "fig2", params={"n": n, "num": num}, trace=True),
                       streamed_matches)
        elif kind == "sec52":
            self._call(log, "experiment.run",
                       lambda: client.run_experiment("sec52"),
                       lambda result: result["rendered"]
                       == self.expected["sec52"])
        elif kind == "kernel":
            name = request["name"]
            compiled = self._call(
                log, "program.compile",
                lambda: client.compile(KERNEL_SOURCES[name]),
                lambda result: result["kernels"] == {name: "ndrange"})
            if compiled is None:
                return
            with self._lock:
                self.compiles += 1
                self.compile_hits += compiled["cache"] == "hit"
            size = len(request["x"])
            self._call(log, "kernel.run",
                       lambda: client.run_kernel(
                           program=compiled["program"], kernel=name,
                           args={"a": request["a"], "__global_size": size},
                           buffers={"x": {"size": size, "fill": request["x"]},
                                    "y": {"size": size, "fill": request["y"]},
                                    "z": {"size": size}}),
                       lambda result: result["buffers"]["z"] == request["z"])
        else:
            params = request["params"]
            expected = self.expected[("store_query",
                                      repr(sorted(params.items())))]
            self._call(log, "trace.store_query",
                       lambda: client.call("trace.store_query",
                                           {"path": self.bundle, **params}),
                       lambda result: result["lines"] == expected)

    def measure(self, log: OpLog, seconds: float) -> None:
        """Every connection's closed loop for ``seconds``, in slices of
        ``SLICE_S``; the reference loop is timed between slices, while no
        request is in flight, on every CPU, as the daemon and its workers
        run on all of them. Throughput is completed requests per second
        of the slices' wall time."""
        deadline = time.perf_counter() + seconds
        turns = [0] * CONNECTIONS
        while time.perf_counter() < deadline:
            log.calibrate(every_cpu=True)
            self._slice(log, min(deadline, time.perf_counter() + SLICE_S),
                        turns)
        log.calibrate(every_cpu=True)

    def _slice(self, log: OpLog, until: float, turns: List[int]) -> None:
        """Rounds on every connection until ``until``; each connection
        finishes the round it is in."""
        errors: List[BaseException] = []

        def loop(index: int) -> None:
            client = self.clients[index]
            rounds = self.inputs["rounds"][index]
            try:
                while time.perf_counter() < until:
                    start = time.perf_counter()
                    for request in rounds[turns[index] % ROUNDS]:
                        self._request(client, index, request, log)
                    turns[index] += 1
                    # The slice's wall time is the throughput's time.
                    log.add_pass(time.perf_counter() - start,
                                 work_s=0.0)
                    with self._lock:
                        self.rounds += 1
            except BaseException as exc:  # surfaced by the caller
                errors.append(exc)

        threads = [threading.Thread(target=loop, args=(index,))
                   for index in range(CONNECTIONS)]
        done = log.attempted - log.failed
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        log.add_work(log.attempted - log.failed - done,
                     time.perf_counter() - start)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def layer_counts(self) -> Dict[str, float]:
        rounds = max(self.rounds, 1)
        return {"server.refused": self.refused,
                "server.segment_bytes": self.segment_bytes / rounds,
                "frontend.cache_hit_ratio": (self.compile_hits / self.compiles
                                             if self.compiles else 0.0)}

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if getattr(self, "process", None) is not None:
            stop_daemon(self.process, self.address)
            self.process = None
