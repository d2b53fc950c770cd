"""``trace_store``: trace ingest, append, load and query, with no simulation.

Each pass starts a fresh ``.ctb`` bundle and appends ``CAPTURES`` seeded
captures to it. A capture is a fresh ``TraceHub`` whose ``ColumnarSink``
appends to the bundle on ``hub.close``; rows go in through bound
``hub.writer``s over three schemas and several kernels, CUs and sites,
with monotone timestamps. The pass then loads the bundle and runs the
query terminals the benchmark's design lists, the same number of each, in
seeded order: a grouped aggregate by site over a kernel and one capture's
time window (which prunes the other captures' segments), a count with a
site filter, a ``where`` filter, ``rows`` with a limit, and a ``select``
over a site (which scans every segment). Every answer is checked against
what the generator computed from the rows it made, not against the
program's reference engine.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import OpLog, checked, maybe_span

CAPTURES = 16
ROWS_PER_CAPTURE = 4000
KERNELS = ("k0", "k1", "k2", "k3")
SCHEMAS = {
    "latency.sample": ("start_cycle", "end_cycle", "latency", "start_value",
                       "end_value"),
    "watch.event": ("address", "tag", "kind"),
    "counter.lsu": ("accesses", "total_latency", "max_latency"),
}


def _streams() -> List[Tuple[str, str, int, str]]:
    """(schema, kernel, cu, site) of every bound writer."""
    streams = []
    for kernel in KERNELS:
        for cu in (0, 1):
            for site in range(6):
                streams.append(("latency.sample", kernel, cu, f"lat{site}"))
        for site in range(4):
            streams.append(("watch.event", kernel, 0, f"w{site}"))
            streams.append(("counter.lsu", kernel, 0, f"m{site}"))
    return streams


STREAMS = _streams()


def _values(rng: random.Random, schema: str, ts: int) -> Tuple[int, ...]:
    if schema == "latency.sample":
        latency = rng.randint(1, 400)
        start = rng.randint(0, 1 << 20)
        return (ts, ts + latency, latency, start, start + latency)
    if schema == "watch.event":
        return (rng.randrange(4096), rng.randrange(8), rng.randrange(3))
    accesses = rng.randint(1, 500)
    return (accesses, accesses * rng.randint(1, 60), rng.randint(1, 300))


#: the query terminals of a pass, each run ``QUERY_REPEATS`` times with
#: seeded kernels, sites, windows and values. No measured use is known to
#: weight them by, so each has the same share.
KINDS = ("aggregate", "count", "where", "rows", "select")
QUERY_REPEATS = 8


def _query_mix(rng: random.Random, rows: List[tuple],
               windows: List[Tuple[int, int]]) -> List[Dict[str, Any]]:
    """One pass's queries, each with the answer computed from ``rows``;
    ``windows`` holds each capture's [first, last] timestamp."""
    by_schema: Dict[str, List[tuple]] = {name: [] for name in SCHEMAS}
    for row in rows:
        by_schema[row[0]].append(row)

    mix = []
    for kind in KINDS:
        for _ in range(QUERY_REPEATS):
            kernel = rng.choice(KERNELS)
            query: Dict[str, Any] = {"kind": kind}
            if kind == "aggregate":
                first, last = rng.choice(windows)
                since, until = first, last + 1
                groups: Dict[str, List[int]] = {}
                for row in by_schema["latency.sample"]:
                    if row[1] == kernel and since <= row[4] < until:
                        groups.setdefault(row[3], []).append(row[5][2])
                answer: Any = {site: (len(v), min(v), max(v), sum(v))
                               for site, v in groups.items()}
                query.update(kernel=kernel, since=since, until=until)
            elif kind == "count":
                site = f"lat{rng.randrange(6)}"
                answer = sum(1 for row in by_schema["latency.sample"]
                             if row[3] == site)
                query.update(site=site)
            elif kind == "where":
                value = rng.randrange(3)
                answer = [(row[4], row[5][0])
                          for row in by_schema["watch.event"]
                          if row[1] == kernel and row[5][2] == value]
                query.update(kernel=kernel, value=value)
            elif kind == "rows":
                limit = rng.randint(250, 350)
                answer = [(row[4], row[2], row[3]) + row[5]
                          for row in by_schema["counter.lsu"]
                          if row[1] == kernel][:limit]
                query.update(kernel=kernel, limit=limit)
            else:
                site = f"lat{rng.randrange(6)}"
                answer = [(row[4], row[5][2])
                          for row in by_schema["latency.sample"]
                          if row[3] == site]
                query.update(site=site)
            query["answer"] = answer
            mix.append(query)
    rng.shuffle(mix)
    return mix


def generate_rows(seed: int, captures: int) -> Dict[str, Any]:
    """Seeded captures of (stream, ts, values) rows, plus the flat rows."""
    rng = random.Random(seed)
    weights = [6 if s[0] == "latency.sample" else 2 for s in STREAMS]
    out = []
    flat: List[tuple] = []      # (schema, kernel, cu, site, ts, values)
    windows = []
    ts = 0
    for _ in range(captures):
        rows = []
        picks = rng.choices(range(len(STREAMS)), weights, k=ROWS_PER_CAPTURE)
        for stream in picks:
            ts += rng.randint(1, 4)
            schema, kernel, cu, site = STREAMS[stream]
            values = _values(rng, schema, ts)
            rows.append((stream, ts, values))
            flat.append((schema, kernel, cu, site, ts, values))
        out.append(rows)
        windows.append((rows[0][1], ts))
    return {"captures": out, "flat": flat, "windows": windows, "rng": rng}


def generate(seed: int) -> Dict[str, Any]:
    """The pass's captures plus the checked query mix."""
    made = generate_rows(seed, CAPTURES)
    rng = made["rng"]
    # Every query filters one schema, so the generator's own rows in write
    # order are the store's rows in storage order for that query.
    return {"captures": made["captures"],
            "queries": _query_mix(rng, made["flat"], made["windows"]),
            "rows": len(made["flat"])}


def write_capture(path: Path, rows, tracer=None) -> int:
    """Append one capture to ``path`` through bound writers; returns rows."""
    from repro.trace import ColumnarSink, TraceHub

    hub = TraceHub(keep_records=False)
    sink = hub.attach(ColumnarSink(str(path), hub.registry))
    writers = [hub.writer(schema, kernel=kernel, cu=cu, site=site)
               for schema, kernel, cu, site in STREAMS]
    for stream, ts, values in rows:
        writers[stream].write(ts, *values)
    with maybe_span(tracer, "hub.close", "trace"):
        hub.close()
    return sink.rows_written


class Workload:
    name = "trace_store"

    def __init__(self, inputs: Dict[str, Any], workdir: Path,
                 traced: bool = False) -> None:
        from repro.trace import ColumnarStore, TraceQuery

        self.inputs = inputs
        self.tracer = None
        self.path = workdir / "trace_store.ctb"
        self.ColumnarStore = ColumnarStore
        self.TraceQuery = TraceQuery
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero the per-layer counts (before the traced half starts)."""
        self.passes = 0
        self.totals = {"trace.rows_sealed": 0, "trace.bytes_written": 0,
                       "trace.segments": 0}

    def _query(self, store, spec: Dict[str, Any]):
        query = self.TraceQuery(store)
        kind = spec["kind"]
        with maybe_span(self.tracer, f"TraceQuery.{kind}", "trace"):
            if kind == "aggregate":
                result = (query.schema("latency.sample")
                          .kernel(spec["kernel"])
                          .between(spec["since"], spec["until"])
                          .aggregate("latency", by="site"))
                return {site: (agg.count, agg.minimum, agg.maximum,
                               agg.total) for site, agg in result.items()}
            if kind == "count":
                return (query.schema("latency.sample").site(spec["site"])
                        .count())
            if kind == "where":
                return (query.schema("watch.event").kernel(spec["kernel"])
                        .where(kind=spec["value"]).select("ts", "address"))
            if kind == "rows":
                rows = (query.schema("counter.lsu").kernel(spec["kernel"])
                        .limit(spec["limit"]).rows())
                return [(row["ts"], row["cu"], row["site"], row["accesses"],
                         row["total_latency"], row["max_latency"])
                        for row in rows]
            return (query.schema("latency.sample").site(spec["site"])
                    .select("ts", "latency"))

    def run_pass(self, log: OpLog, probe) -> None:
        inputs = self.inputs
        self.passes += 1
        if self.path.exists():
            self.path.unlink()
        start = time.perf_counter()
        rows_written = 0
        for capture in inputs["captures"]:
            with maybe_span(self.tracer, "capture", "trace"):
                written = checked(log, "capture",
                                  lambda capture=capture: write_capture(
                                      self.path, capture, self.tracer),
                                  lambda n, expect=len(capture): n == expect,
                                  timed=False)
            rows_written += written or 0
        ingest_s = time.perf_counter() - start
        with maybe_span(self.tracer, "ColumnarStore.load", "trace"):
            store = checked(log, "load",
                            lambda: self.ColumnarStore.load(str(self.path)),
                            lambda s: s.total_rows() == inputs["rows"],
                            timed=False)
        if store is not None:
            for spec in inputs["queries"]:
                checked(log, f"query.{spec['kind']}",
                        lambda spec=spec: self._query(store, spec),
                        lambda got, spec=spec: got == spec["answer"])
            self.totals["trace.segments"] += len(store.segments)
        elapsed = time.perf_counter() - start
        self.totals["trace.rows_sealed"] += rows_written
        if self.path.exists():
            self.totals["trace.bytes_written"] += self.path.stat().st_size
        log.add_pass(elapsed, work=rows_written, work_s=ingest_s)

    def layer_counts(self) -> Dict[str, float]:
        passes = max(self.passes, 1)
        return {name: value / passes for name, value in self.totals.items()}

    def close(self) -> None:
        if self.path.exists():
            self.path.unlink()
