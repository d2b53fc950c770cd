"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_artifacts --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures half the time untraced and half traced, and prints
the per-layer metrics, including the tracing overhead between the two
halves; the spans go to ``.perfbench/spans-<workload>-seed<seed>.json``.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import time

#: set-up time counts from here, so it includes the benchmark's imports.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (LAYERS, ROOT, SRC, OpLog, Sampler,  # noqa: E402
                    Tracer, median_or_zero, peak_rss_mb, percentile)
import workloads  # noqa: E402
from workloads.fabric_probe import FabricProbe  # noqa: E402

DEFAULT_SEED = 1
#: set-up is timed this many times, each in a fresh process; the median
#: is reported.
SETUP_REPEATS = 5
WORK_ROOT = ROOT / ".perfbench"


def declared_units(trace: bool) -> dict:
    """name -> unit of the metrics one run prints, from BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in declared["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.MODULES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path, traced: bool = False):
    """Imports, input generation and the workload's own start-up."""
    module = workloads.load(name)
    inputs = module.generate(seed)
    return module.Workload(inputs, workdir, traced=traced)


def time_setup(args) -> float:
    """Median of ``SETUP_REPEATS`` set-ups, each in a fresh process.

    Each child times its own imports and set-up (not interpreter start-up,
    nor the tear-down after it) and prints the figure.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE,
            text=True)
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(workload, log: OpLog, seconds: float, probe: FabricProbe,
            calibrate: bool = True) -> None:
    """Closed loop of passes (at least one) for ``seconds``; with
    ``calibrate``, the reference loop is timed before every pass and
    after the last."""
    log.calibrating = calibrate
    if hasattr(workload, "measure"):
        workload.measure(log, seconds)
        return
    deadline = time.perf_counter() + seconds
    while True:
        log.calibrate()
        workload.run_pass(log, probe)
        if time.perf_counter() >= deadline:
            break
    log.calibrate()


def end_to_end(log: OpLog, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "pass_ref": statistics.median(log.rel_passes),
        "op_p50_ref": percentile(log.rel_latencies, 0.5),
        "op_p90_ref": percentile(log.rel_latencies, 0.9),
        "throughput_per_ref": log.work / log.rel_work_s,
        "peak_rss_mb": rss_mb,
        "ops_ok_frac": (log.attempted - log.failed) / log.attempted,
    }


def report_seconds(name: str, log: OpLog) -> None:
    """The run's size and its timings in seconds, on stderr."""
    ms = [latency * 1e3 for latency in log.latencies]
    print(f"{name}: {len(log.passes)} passes, {len(ms)} timed ops, "
          f"{log.attempted} checked ops; in seconds: pass "
          f"{statistics.median(log.passes):.4f} s, op p50 "
          f"{percentile(ms, 0.5):.3f} ms, op p90 {percentile(ms, 0.9):.3f} "
          f"ms, throughput {log.work / log.work_s:.6g}/s; ref "
          f"{statistics.median(log.refs) * 1e3:.3f} ms (min "
          f"{min(log.refs) * 1e3:.3f}, max {max(log.refs) * 1e3:.3f}, "
          f"{len(log.refs)} timings)", file=sys.stderr)


def traced(workload, log: OpLog, seconds: float, args) -> dict:
    """Half untraced, half traced; the per-layer metrics of the latter."""
    from repro.pipeline.fabric import Fabric

    untraced_log = OpLog()
    probe = FabricProbe(keep_fabrics=False)
    probe.install()
    try:
        measure(workload, untraced_log, seconds / 2, probe,
                calibrate=False)
    finally:
        probe.remove()

    tracer = Tracer()
    sampler = Sampler()
    daemon = getattr(workload, "daemon_sampling", None)
    daemon_seconds = {}
    probe = FabricProbe(keep_fabrics=True)
    traced_log = OpLog()
    getattr(workload, "reset_counts", lambda: None)()
    tracer.wrap(Fabric, "run_kernel", "Fabric.run_kernel", "pipeline")
    workload.tracer = tracer
    origin = time.perf_counter()
    probe.install()
    sampler.start()
    if daemon is not None:
        daemon.start()
    try:
        measure(workload, traced_log, seconds / 2, probe, calibrate=False)
    finally:
        if daemon is not None:
            daemon_seconds = daemon.stop()
        sampler.stop()
        probe.remove()
        tracer.unwrap()
        workload.tracer = None
    for part in (untraced_log, traced_log):
        log.attempted += part.attempted
        log.failed += part.failed
        log.failures.extend(part.failures)

    passes = len(traced_log.passes)
    out = {name: 0.0 for name in declared_units(trace=True)}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sampler.seconds[layer]
                                  + daemon_seconds.get(layer, 0.0)) / passes
    if probe.passes:
        out.update(probe.per_pass())
    out.update(getattr(workload, "layer_counts", dict)())
    out["pipeline.run_kernel_s"] = tracer.total("Fabric.run_kernel") / passes
    compile_spans = (tracer.durations("compile_source")
                     + tracer.durations("Client.call:program.compile"))
    out["frontend.compile_s"] = median_or_zero(compile_spans)
    out["trace.ingest_s"] = tracer.total("capture") / passes
    out["trace.load_s"] = tracer.total("ColumnarStore.load") / passes
    out["trace.query_s"] = sum(
        tracer.total(f"TraceQuery.{kind}") for kind in
        ("aggregate", "count", "where", "rows", "select")) / passes
    for name in out:
        if name.startswith("server.rpc_s."):
            method = name[len("server.rpc_s."):]
            out[name] = median_or_zero(
                tracer.durations(f"Client.call:{method}"))
    out["bench.trace_overhead_frac"] = (
        statistics.median(traced_log.passes)
        / statistics.median(untraced_log.passes) - 1.0)
    tracer.write_chrome(
        WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json", origin)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"work-{args.workload}-{time.time_ns()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            workload = set_up(args.workload, args.seed, workdir)
            print(time.perf_counter() - STARTED)
            workload.close()
            return 0
        setup_s = 0.0 if args.trace else time_setup(args)
        workload = set_up(args.workload, args.seed, workdir,
                          traced=bool(args.trace))
        # The generated inputs and expected answers live as long as the
        # run; keep them out of the collector's scans, as a user process
        # would not have them.
        gc.collect()
        gc.freeze()
        log = OpLog()
        try:
            if args.trace:
                values = traced(workload, log, args.seconds, args)
            else:
                probe = FabricProbe(keep_fabrics=False)
                probe.install()
                try:
                    measure(workload, log, args.seconds, probe)
                finally:
                    probe.remove()
                rss = (workload.peak_rss_mb()
                       if hasattr(workload, "peak_rss_mb") else peak_rss_mb())
                values = end_to_end(log, setup_s, rss)
                report_seconds(args.workload, log)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in log.failures:
        print(f"failed: {failure}", file=sys.stderr)
    units = declared_units(bool(args.trace))
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
