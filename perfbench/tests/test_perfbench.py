"""The benchmark's own tests: seeded inputs, its checks, its output format.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import common
import workloads
from common import LAYERS, OpLog, Sampler, checked
from workloads import listings, server_sessions, trace_store

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture
def small_trace_store(monkeypatch):
    monkeypatch.setattr(trace_store, "CAPTURES", 2)
    monkeypatch.setattr(trace_store, "ROWS_PER_CAPTURE", 600)


class TestSeededInputs:
    @pytest.mark.parametrize("name", sorted(workloads.MODULES))
    def test_same_seed_same_inputs(self, name, small_trace_store):
        module = workloads.load(name)
        first, again, other = (module.generate(7), module.generate(7),
                               module.generate(8))
        assert _canonical(first) == _canonical(again)
        assert _canonical(first) != _canonical(other)


def _canonical(value):
    """Inputs as comparable plain data (arrays to lists)."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


class TestChecksCatchCorruption:
    def test_artifacts_counts_a_changed_report(self, tmp_path):
        from workloads import artifacts
        from workloads.fabric_probe import FabricProbe

        workload = artifacts.Workload(artifacts.generate(1), tmp_path)
        real = workload.run_experiment
        workload.run_experiment = lambda name: (
            real(name).replace("Table", "Tab1e") if name == "table1"
            else real(name))
        log = OpLog()
        workload.run_pass(log, FabricProbe(keep_fabrics=False))
        assert (log.attempted, log.failed) == (7, 1)
        assert log.failures == ["table1"]

    def test_listings_catch_wrong_z_and_wrong_order(self, tmp_path):
        inputs = listings.generate(3)
        workload = listings.Workload(inputs, tmp_path)
        variant = inputs["variants"][0]
        z, order = workload._run_listing(7, variant)
        assert workload._verify(7, variant, (z, order))
        bad_z = z.copy()
        bad_z[3] += 1
        assert not workload._verify(7, variant, (bad_z, order))
        swapped = order[:]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert not workload._verify(7, variant, (z, swapped))
        # Listing 7's interleaved order is not Listing 6's program order.
        assert not workload._verify(6, variant, (z, order))

    def test_trace_store_counts_a_wrong_answer(self, tmp_path,
                                               small_trace_store):
        inputs = trace_store.generate(5)
        workload = trace_store.Workload(inputs, tmp_path)
        log = OpLog()
        workload.run_pass(log, None)
        assert log.failed == 0
        assert log.attempted == trace_store.CAPTURES + 1 + len(
            inputs["queries"])
        query = next(q for q in inputs["queries"] if q["kind"] == "count")
        query["answer"] += 1
        workload.run_pass(log, None)
        assert log.failed == 1
        workload.close()

    def test_an_exception_counts_as_failed(self):
        log = OpLog()

        def boom():
            raise RuntimeError("busy")

        assert checked(log, "op", boom, bool) is None
        assert checked(log, "op", lambda: 1, lambda got: got == 1) == 1
        assert (log.attempted, log.failed) == (2, 1)

    def test_server_counts_wrong_replies(self, tmp_path):
        inputs = server_sessions.generate(4)
        workload = server_sessions.Workload(inputs, tmp_path)
        try:
            client = workload.clients[0]
            log = OpLog()
            by_kind = {request["kind"]: request
                       for request in inputs["rounds"][0][0]}
            for request in by_kind.values():
                workload._request(client, 0, request, log)
            assert log.failed == 0
            render, capture = workload.expected["fig2"]
            workload.expected["fig2"] = (render, capture[:-1] + b"\0")
            workload._request(client, 0, by_kind["fig2"], log)
            assert log.failed == 1
            corrupted = dict(by_kind["kernel"], z=[0] * 64)
            workload._request(client, 0, corrupted, log)
            assert log.failed == 2
        finally:
            workload.close()
        assert workload.clients == []


class TestReferenceUnit:
    def test_stretches_are_divided_by_the_references_around_them(
            self, monkeypatch):
        log = OpLog()
        log.calibrate()
        assert log.refs == []       # not calibrating: the traced run
        log.calibrating = True
        for ref in (0.5, 1.5, 1.0):
            monkeypatch.setattr(common, "reference_s",
                                lambda every_cpu, ref=ref: ref)
            log.calibrate()
            if ref == 0.5:
                log.add_pass(2.0, work=10, work_s=1.0)
                checked(log, "op", lambda: 1, bool)
                first = log.stretch(3.0)
            elif ref == 1.5:
                log.add_pass(4.0, parts=[first, log.stretch(1.25)])
        log.add_latency(0.25)       # after the last reference time
        assert log.passes == [2.0, 4.0]
        assert log.rel_passes == [2.0, 3.0 + 1.0]
        assert log.rel_latencies[-1] == 0.25
        assert (log.work, log.work_s) == (10, 5.0)
        assert log.rel_work_s == 1.0 + 3.0 + 1.0

    def test_the_reference_loop_takes_time(self):
        cpus = os.sched_getaffinity(0)
        assert 0 < common.reference_s() < 1
        assert 0 < common.reference_s(every_cpu=True) < 1
        assert os.sched_getaffinity(0) == cpus


class TestSampler:
    def test_charges_cpu_time_not_waiting(self):
        """A spinning thread is charged its CPU time; a sleeping one nothing."""
        sampler = Sampler(interval=0.002)
        done = threading.Event()

        def spin():
            while not done.is_set():
                pass

        sleeper = threading.Thread(target=done.wait)
        spinner = threading.Thread(target=spin)
        sleeper.start()
        sampler.start()
        spinner.start()
        time.sleep(0.3)
        done.set()
        spinner.join()
        sleeper.join()
        sampler.stop()
        charged = sum(sampler.seconds.values())
        assert set(sampler.seconds) == set(LAYERS)
        # The spinner shares the GIL with this thread and the sampler, so
        # it gets most, not all, of 0.3 s; the sleeper adds nothing.
        assert 0.1 < charged < 0.35
        assert sampler.seconds["other"] == charged

    def test_reaches_the_daemons_worker_processes(self, tmp_path):
        """Simulation runs only in the daemon's forked workers."""
        inputs = server_sessions.generate(2)
        workload = server_sessions.Workload(inputs, tmp_path, traced=True)
        try:
            log = OpLog()
            workload.daemon_sampling.start()
            for request in inputs["rounds"][0][0]:
                workload._request(workload.clients[0], 0, request, log)
            seconds = workload.daemon_sampling.stop()
        finally:
            workload.close()
        assert log.failed == 0
        assert seconds["sim"] > 0 and seconds["pipeline"] > 0
        reports = list((tmp_path / "samples").glob("layers-*.json"))
        assert len(reports) >= 2        # the daemon and a worker


class TestOutputContract:
    def test_declared_workloads_are_the_benchmarks(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == \
            list(workloads.MODULES)

    def test_benchmark_json_limits(self):
        names = ([m["name"] for m in BENCHMARK["end_to_end"]]
                 + [m["name"] for m in BENCHMARK["per_layer"]]
                 + [w["name"] for w in BENCHMARK["workloads"]])
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
        assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())

    @pytest.mark.parametrize("trace", ["0", "1"])
    def test_printed_metrics_match_benchmark_json(self, trace):
        result = _run(["--workload", "trace_store", "--seed", "3",
                       "--seconds", "0.5", "--trace", trace])
        assert result.returncode == 0, result.stderr
        line = json.loads(result.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
        assert {name: value["unit"]
                for name, value in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}

    def test_without_the_program_it_fails_and_prints_no_result(
            self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = _run(["--workload", "paper_artifacts", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                      timeout=60)
        assert result.returncode != 0
        assert result.stdout == ""
