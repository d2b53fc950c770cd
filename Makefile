# Convenience targets for the DAC'17 reproduction.

.PHONY: install test bench bench-perf profile sweep-demo experiments examples trace-demo all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Simulator perf suite: writes BENCH_sim.json and fails on >20% regression
# against benchmarks/perf/baseline.json (see docs/PERFORMANCE.md).
bench-perf:
	python -m repro bench

# One cProfile run per benchmark; pstats files land in profiles/
# (inspect with: python -m pstats profiles/<name>.pstats).
profile:
	python -m repro bench --profile

# Shard the §4 scalability grid across worker processes and verify the
# merged report is byte-identical to a serial run (docs/PERFORMANCE.md,
# "Parallel sweeps").
sweep-demo:
	python -m repro sweep scalability --simulate > sweep_par.txt
	python -m repro sweep scalability --simulate --serial > sweep_ser.txt
	diff sweep_par.txt sweep_ser.txt && echo "parallel == serial"

experiments:
	python -m repro run all

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null && echo OK; done

# Capture a Figure 2 trace bundle and export a Perfetto-loadable JSON
# (load fig2.trace.json at https://ui.perfetto.dev; see docs/TRACING.md).
trace-demo:
	python -m repro run fig2 --trace-out fig2.ctb
	python -m repro trace info fig2.ctb
	python -m repro trace export fig2.ctb --format chrome -o fig2.trace.json

all: test bench experiments
