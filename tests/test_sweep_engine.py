"""Unit tests for the sweep engine: specs, runner, retry, trace merge."""

from __future__ import annotations

import os

import pytest

from repro.sweep import (
    PointResult,
    SweepError,
    SweepPoint,
    SweepSpec,
    WorkerPool,
    default_chunk_size,
    default_workers,
    resolve_callable,
    run_sweep,
)

HERE = "tests.test_sweep_engine"


# -- module-level point functions (must be importable by workers) -----------

def square(x):
    return x * x


def record_pid(x):
    return {"x": x, "pid": os.getpid()}


def fail_always(x):
    raise RuntimeError(f"point {x} is broken")


def fail_once(marker_path, x):
    """Fails on the first execution, succeeds on the retry."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("attempted")
        raise RuntimeError("first attempt fails")
    return f"recovered-{x}"


def emit_records(count, trace=None):
    for index in range(count):
        trace.emit("order.record", ts=index, kernel="k", cu=0,
                   site=f"s{index}", seq=index, outer=0, inner=index)
    return count


def emit_dynamic_schema(trace=None):
    trace.ensure_schema("ibuffer.custom", ("alpha", "beta"))
    trace.emit("ibuffer.custom", ts=1, kernel="k", cu=0, site="s",
               alpha=7, beta=9)
    return 1


def _points(values, func="square"):
    return [SweepPoint(key=(value,), func=f"{HERE}:{func}",
                       kwargs={"x": value}) for value in values]


class TestSpec:
    def test_resolve_callable(self):
        assert resolve_callable(f"{HERE}:square") is square

    @pytest.mark.parametrize("path", ["nodots", "tests.test_sweep_engine:",
                                      ":square", "no.such.module:f",
                                      f"{HERE}:missing_attr",
                                      f"{HERE}:HERE"])
    def test_resolve_callable_rejects(self, path):
        with pytest.raises(SweepError):
            resolve_callable(path)

    def test_empty_spec_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(name="empty", points=[])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(name="dup", points=_points([1]) + _points([1]))

    def test_keys_in_order(self):
        spec = SweepSpec(name="s", points=_points([3, 1, 2]))
        assert spec.keys() == [(3,), (1,), (2,)]


class TestSerialExecution:
    def test_values_and_order(self):
        spec = SweepSpec(name="s", points=_points([4, 2, 9]))
        outcome = run_sweep(spec, serial=True)
        assert outcome.serial
        assert [result.key for result in outcome.results] == [(4,), (2,), (9,)]
        assert outcome.value_map() == {(4,): 16, (2,): 4, (9,): 81}
        assert not outcome.failures
        outcome.raise_if_failed()   # no-op

    def test_failure_recorded_not_raised(self):
        spec = SweepSpec(name="s", points=_points([1], "fail_always")
                         + _points([2]))
        outcome = run_sweep(spec, serial=True)
        failed = outcome.results[0]
        assert failed.status == "failed"
        assert "point 1 is broken" in failed.error
        assert failed.attempts == 2          # retried once, then reported
        assert outcome.results[1].ok
        with pytest.raises(SweepError, match="1/2 points failed"):
            outcome.raise_if_failed()

    def test_retry_once_recovers(self, tmp_path):
        marker = str(tmp_path / "marker")
        spec = SweepSpec(name="s", points=[SweepPoint(
            key=("flaky",), func=f"{HERE}:fail_once",
            kwargs={"marker_path": marker, "x": 1})])
        outcome = run_sweep(spec, serial=True)
        result = outcome.results[0]
        assert result.ok and result.value == "recovered-1"
        assert result.attempts == 2
        assert outcome.retried == [result]


class TestParallelExecution:
    def test_matches_serial(self):
        spec = SweepSpec(name="s", points=_points(list(range(13))))
        serial = run_sweep(spec, serial=True)
        parallel = run_sweep(spec, workers=2, chunk_size=3)
        assert parallel.workers == 2
        assert parallel.value_map() == serial.value_map()
        assert [r.key for r in parallel.results] == [
            r.key for r in serial.results]

    def test_retry_once_recovers(self, tmp_path):
        marker = str(tmp_path / "marker")
        spec = SweepSpec(name="s", points=[SweepPoint(
            key=("flaky",), func=f"{HERE}:fail_once",
            kwargs={"marker_path": marker, "x": 1})] + _points([5]))
        outcome = run_sweep(spec, workers=2, chunk_size=1)
        by_key = {result.key: result for result in outcome.results}
        assert by_key[("flaky",)].ok
        assert by_key[("flaky",)].attempts == 2
        assert by_key[(5,)].value == 25

    def test_permanent_failure_does_not_sink_sweep(self):
        spec = SweepSpec(name="s", points=_points([7], "fail_always")
                         + _points(list(range(4))))
        outcome = run_sweep(spec, workers=2, chunk_size=2)
        assert len(outcome.failures) == 1
        assert outcome.failures[0].attempts == 2
        assert sorted(outcome.value_map().values()) == [0, 1, 4, 9]

    def test_warm_workers_reused_across_sweeps(self):
        with WorkerPool(workers=2) as pool:
            first = run_sweep(
                SweepSpec(name="a", points=_points(list(range(6)),
                                                   "record_pid")),
                pool=pool, chunk_size=1)
            second = run_sweep(
                SweepSpec(name="b", points=_points(list(range(6)),
                                                   "record_pid")),
                pool=pool, chunk_size=1)
        pids_first = {value["pid"] for value in first.value_map().values()}
        pids_second = {value["pid"] for value in second.value_map().values()}
        assert pids_first & pids_second, "expected warm workers to be reused"
        assert all(pid != os.getpid() for pid in pids_first)

    def test_worker_telemetry_recorded(self):
        spec = SweepSpec(name="s", points=_points([1, 2]))
        outcome = run_sweep(spec, workers=1)
        for result in outcome.results:
            assert result.worker is not None
            assert result.duration_s >= 0.0


class TestChunking:
    def test_default_chunk_size(self):
        assert default_chunk_size(12, 4) == 1
        assert default_chunk_size(100, 4) == 7
        assert default_chunk_size(1, 8) == 1
        assert default_workers() >= 1


class TestTraceMerging:
    def _spec(self):
        points = [SweepPoint(key=(count,), func=f"{HERE}:emit_records",
                             kwargs={"count": count})
                  for count in (3, 1, 2)]
        return SweepSpec(name="t", points=points, trace_kwarg="trace")

    def test_records_ride_back_with_results(self):
        outcome = run_sweep(self._spec(), serial=True)
        assert outcome.trace_rows() == 6
        assert [sum(header["rows"] for header, _ in result.trace_segments)
                for result in outcome.results] == [3, 1, 2]
        # Rows travel as encoded segment bytes, never pickled records.
        for result in outcome.results:
            for header, payload in result.trace_segments:
                assert isinstance(payload, bytes)
                assert len(payload) == header["rows"] * 8 * (
                    4 + len(header["fields"]))

    def test_serial_and_parallel_bundles_byte_identical(self, tmp_path):
        serial_path = str(tmp_path / "serial.ctb")
        parallel_path = str(tmp_path / "parallel.ctb")
        run_sweep(self._spec(), serial=True, trace_path=serial_path)
        run_sweep(self._spec(), workers=2, chunk_size=1,
                  trace_path=parallel_path)
        with open(serial_path, "rb") as handle:
            serial_bytes = handle.read()
        with open(parallel_path, "rb") as handle:
            parallel_bytes = handle.read()
        assert serial_bytes == parallel_bytes

    def test_dynamic_schemas_shipped_from_workers(self, tmp_path):
        from repro.trace.columnar import ColumnarStore

        path = str(tmp_path / "dyn.ctb")
        spec = SweepSpec(name="d", points=[SweepPoint(
            key=("d",), func=f"{HERE}:emit_dynamic_schema", kwargs={})],
            trace_kwarg="trace")
        outcome = run_sweep(spec, workers=1, trace_path=path)
        outcome.raise_if_failed()
        store = ColumnarStore.load(path)
        assert store.schemas() == ["ibuffer.custom"]
        assert store.records()[0].values == (7, 9)

    def test_dynamic_schemas_deduped_per_chunk(self, tmp_path):
        # Five points in one chunk all emit the same dynamic schema; its
        # layout rides in each segment header, with no separate registry.
        from repro.trace.columnar import ColumnarStore

        points = [SweepPoint(key=(index,), func=f"{HERE}:emit_dynamic_schema",
                             kwargs={})
                  for index in range(5)]
        spec = SweepSpec(name="dd", points=points, trace_kwarg="trace")
        path = str(tmp_path / "dd.ctb")
        outcome = run_sweep(spec, workers=1, chunk_size=5, trace_path=path)
        outcome.raise_if_failed()
        assert [(header["schema"], header["fields"])
                for result in outcome.results
                for header, _ in result.trace_segments] == \
            [("ibuffer.custom", ["alpha", "beta"])] * 5
        store = ColumnarStore.load(path)
        assert store.schemas() == ["ibuffer.custom"]
        assert store.total_rows() == 5


class TestOutcome:
    def test_value_map_skips_failures(self):
        results = [
            PointResult(key=(1,), label="a", status="ok", value=10),
            PointResult(key=(2,), label="b", status="failed", error="boom"),
        ]
        from repro.sweep import SweepOutcome
        outcome = SweepOutcome(spec_name="s", results=results, workers=0)
        assert outcome.value_map() == {(1,): 10}
        assert len(outcome.failures) == 1


def add(a, b):
    return a + b


class TestWorkerPoolLifecycle:
    def test_warm_start_forks_before_first_submit(self):
        with WorkerPool(workers=2) as pool:
            assert not pool.started
            pids = pool.warm_start()
            assert pool.started
            assert len(pids) == 2
            assert all(pid != os.getpid() for pid in pids)

    def test_submit_call_resolves_by_path(self):
        with WorkerPool(workers=1) as pool:
            future = pool.submit_call(f"{HERE}:add", {"a": 2, "b": 40})
            assert future.result(timeout=30) == 42

    def test_ensure_healthy_on_live_pool(self):
        with WorkerPool(workers=1) as pool:
            pool.warm_start()
            assert pool.ensure_healthy() is True

    def test_ensure_healthy_builds_unstarted_pool(self):
        with WorkerPool(workers=1) as pool:
            assert pool.ensure_healthy() is False
            assert pool.started
            assert pool.ensure_healthy() is True

    def test_ensure_healthy_rebuilds_broken_pool(self):
        with WorkerPool(workers=1) as pool:
            pool.warm_start()
            # Simulate an idle worker dying (OOM kill, say).
            pool._executor.shutdown(wait=False, cancel_futures=True)
            broken = pool._executor
            broken._broken = "worker died"
            assert pool.ensure_healthy() is False
            assert pool._executor is not broken
            future = pool.submit_call(f"{HERE}:add", {"a": 1, "b": 1})
            assert future.result(timeout=30) == 2

    def test_rebuild_then_reuse(self):
        with WorkerPool(workers=1) as pool:
            pool.warm_start()
            pool.rebuild()
            assert not pool.started
            assert pool.submit_call(
                f"{HERE}:add", {"a": 3, "b": 4}).result(timeout=30) == 7
