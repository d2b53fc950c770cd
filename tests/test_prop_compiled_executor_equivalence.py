"""Property test: frontend-compiled NDRange kernels run identically under
``executor="fast"`` and ``executor="reference"``.

``tests/test_prop_dispatch_equivalence.py`` drives hand-built Python
kernels; this suite drives kernels that come out of the OpenCL-C
frontend. Hypothesis generates random NDRange kernels — arithmetic on
``get_global_id``, divergent branches, private arrays, global loads and
stores (including read-modify-write patterns on the output buffer) — and
runs each under both executors on independent fabrics. Every externally
observable surface must match exactly: buffer contents, ``sim.now``,
engine statistics (including issue-stall cycles and the per-iteration
trace), global-memory statistics and per-buffer traffic, and the
per-(site, kind) LSU timing snapshots.

Example budget: ``COMPILED_EQUIV_EXAMPLES`` (default 60); CI runs a
dedicated step with a larger budget.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, ProcessError
from repro.frontend import compile_source, program_cache_clear
from repro.pipeline.fabric import Fabric

MAX_EXAMPLES = int(os.environ.get("COMPILED_EQUIV_EXAMPLES", "60"))

_BUF = 16         # size of the in/out buffers
_ACC = 8          # size of the private array


@st.composite
def _exprs(draw, depth=0):
    """A source-text expression; total values stay modest via & masks."""
    leaves = [
        st.integers(-9, 9).map(str),
        st.sampled_from(["a", "b", "c", "n", "gid"]),
        st.just(f"in[((gid + a) & {_BUF - 1})]"),
        st.just(f"acc[(b & {_ACC - 1})]"),
    ]
    if depth >= 3:
        return draw(st.one_of(leaves))
    node = draw(st.integers(0, 9))
    if node <= 3:
        return draw(st.one_of(leaves))
    left = draw(_exprs(depth=depth + 1))
    right = draw(_exprs(depth=depth + 1))
    if node == 4:
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({left} {op} {right})"
    if node == 5:
        op = draw(st.sampled_from(["<", ">", "<=", ">=", "==", "!="]))
        return f"({left} {op} {right})"
    if node == 6:
        op = draw(st.sampled_from(["&&", "||"]))
        return f"({left} {op} {right})"
    if node == 7:
        op = draw(st.sampled_from(["/", "%"]))
        # Denominator folded into [1, 8] — never zero.
        return f"({left} {op} (1 + ({right} & 7)))"
    if node == 8:
        op = draw(st.sampled_from(["!", "-", "~"]))
        return f"({op}({left}))"
    shift = draw(st.integers(0, 3))
    return f"(({left} & 255) << {shift})"


@st.composite
def _stmts(draw, depth=0, loop_depth=0):
    """One source-text statement (possibly a nested block construct).

    Statements referencing ``gid`` in branch conditions make control
    flow diverge across work-items; ``out[...] op=`` statements read and
    write the output buffer, so in-flight work-items race on the same
    addresses and the two executors must order those accesses alike.
    """
    node = draw(st.integers(0, 11))
    if node <= 2:
        target = draw(st.sampled_from(["a", "b", "c"]))
        op = draw(st.sampled_from(["=", "+=", "-=", "*="]))
        return f"{target} {op} {draw(_exprs())};"
    if node == 3:
        return f"acc[((gid + a) & {_ACC - 1})] = {draw(_exprs())};"
    if node == 4:
        op = draw(st.sampled_from(["=", "+=", "-="]))
        return f"out[(b & {_BUF - 1})] {op} {draw(_exprs())};"
    if node == 5:
        target = draw(st.sampled_from(["a", "b", "c"]))
        return f"{target}{draw(st.sampled_from(['++', '--']))};"
    if node == 6:
        return f"out[(c & {_BUF - 1})] = in[(a & {_BUF - 1})];"
    if depth >= 2 or node <= 8:
        return f"a = {draw(_exprs())};"
    inner = draw(st.lists(_stmts(depth=depth + 1, loop_depth=loop_depth),
                          min_size=1, max_size=3))
    block = " ".join(inner)
    if node == 9:
        other = draw(st.lists(_stmts(depth=depth + 1, loop_depth=loop_depth),
                              min_size=0, max_size=2))
        else_block = (" else { " + " ".join(other) + " }") if other else ""
        return f"if ({draw(_exprs())}) {{ {block} }}{else_block}"
    if node == 10 and loop_depth < 2:
        var = f"i{loop_depth}"
        bound = draw(st.integers(1, 4))
        inner = draw(st.lists(
            _stmts(depth=depth + 1, loop_depth=loop_depth + 1),
            min_size=1, max_size=3))
        return (f"for (int {var} = 0; {var} < {bound}; {var}++) "
                f"{{ {' '.join(inner)} c += {var}; }}")
    return f"{{ int t = {draw(_exprs())}; b = t + 1; }}"


@st.composite
def _kernel_sources(draw):
    body = draw(st.lists(_stmts(), min_size=1, max_size=8))
    lines = [
        "int gid = get_global_id(0);",
        f"int a = {draw(st.integers(0, 9))};",
        f"int b = {draw(st.integers(0, 9))};",
        "int c = 0;",
        f"int acc[{_ACC}];",
    ] + body + [
        f"out[(gid & {_BUF - 1})] = c + acc[((gid + b) & {_ACC - 1})];",
    ]
    return (
        "__kernel void k(__global int* in, __global int* out, int n) {\n"
        + "\n".join("    " + line for line in lines) + "\n}\n")


def _lsu_snapshot(engine):
    """Per-LSU timing stats with *rank-normalized* site labels.

    Each ``compile_source`` call parses fresh AST nodes, so the numeric
    part of a site label (``k:n<node_id>``) differs between the two
    compiles even though the ASTs are structurally identical. Node ids
    are assigned in parse order, so ranking them restores a stable
    correspondence: the i-th static site of one compile must carry
    exactly the timings of the i-th static site of the other.
    """
    raw = {}
    for (site, kind), lsu in engine.lsus.items():
        stats = lsu.stats
        raw[(site, kind)] = (
            stats.issued, stats.completed, stats.total_latency,
            stats.max_latency, stats.ordering_stall_cycles,
            tuple(stats.samples))

    def _site_id(site):
        kernel, _, node = site.rpartition(":n")
        return (kernel, int(node))

    ordered = sorted({site for site, _ in raw}, key=_site_id)
    rank = {site: f"{_site_id(site)[0]}:site{index}"
            for index, site in enumerate(ordered)}
    return {(rank[site], kind): value
            for (site, kind), value in raw.items()}


def _memory_snapshot(fabric):
    stats = fabric.memory.stats
    return (
        (stats.loads, stats.stores, stats.row_hits, stats.row_misses,
         stats.total_load_latency, stats.bytes_read, stats.bytes_written),
        {name: (t.loads, t.stores, t.bytes_read, t.bytes_written)
         for name, t in fabric.memory.traffic.items()},
    )


def _run_generated(source, global_size, executor, kernel="k",
                   buffers=(("IN", "in"), ("OUT", "out")), n=7):
    fabric = Fabric(keep_lsu_samples=True)
    program = compile_source(fabric, source)
    args = {"n": n, "__global_size": global_size}
    for alloc_name, arg_name in buffers:
        fabric.memory.allocate(alloc_name, _BUF).fill(
            np.arange(_BUF) * 3 - 5)
        args[arg_name] = alloc_name
    engine = fabric.run_kernel(program.kernel(kernel), args,
                               executor=executor)
    return fabric, engine


def _assert_equivalent(fast, ref, buffers):
    fast_fabric, fast_engine = fast
    ref_fabric, ref_engine = ref
    assert fast_fabric.sim.now == ref_fabric.sim.now
    fs, rs = fast_engine.stats, ref_engine.stats
    assert (fs.iterations_issued, fs.iterations_retired) == \
        (rs.iterations_issued, rs.iterations_retired)
    assert (fs.start_cycle, fs.finish_cycle) == \
        (rs.start_cycle, rs.finish_cycle)
    assert fs.issue_stall_cycles == rs.issue_stall_cycles
    assert fs.iteration_trace == rs.iteration_trace
    assert _lsu_snapshot(fast_engine) == _lsu_snapshot(ref_engine)
    assert _memory_snapshot(fast_fabric) == _memory_snapshot(ref_fabric)
    assert fast_fabric.memory.pending_commits == 0
    assert ref_fabric.memory.pending_commits == 0
    for name in buffers:
        fast_buffer = fast_fabric.memory.buffer(name)
        ref_buffer = ref_fabric.memory.buffer(name)
        assert list(fast_buffer.snapshot()) == list(ref_buffer.snapshot()), \
            f"buffer {name!r} diverged"


class TestCompiledExecutorEquivalence:
    @given(source=_kernel_sources(), global_size=st.integers(0, 12))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_fast_matches_reference(self, source, global_size):
        program_cache_clear()
        fast = _run_generated(source, global_size, "fast")
        ref = _run_generated(source, global_size, "reference")
        _assert_equivalent(fast, ref, ["IN", "OUT"])

    @given(n=st.integers(1, 16))
    @settings(max_examples=max(4, MAX_EXAMPLES // 10), deadline=None)
    def test_local_and_barrier_kernel_matches_reference(self, n):
        """The canonical __local + barrier work-group reverse."""
        source = """
        __kernel void reverse(__global int* in, __global int* out, int n) {
            __local int stage[%d];
            int gid = get_global_id(0);
            stage[gid] = in[gid];
            barrier(CLK_LOCAL_MEM_FENCE);
            out[gid] = stage[n - 1 - gid];
        }
        """ % _BUF
        program_cache_clear()
        fast = _run_generated(source, n, "fast", kernel="reverse", n=n)
        ref = _run_generated(source, n, "reference", kernel="reverse", n=n)
        _assert_equivalent(fast, ref, ["IN", "OUT"])
        assert list(fast[0].memory.buffer("OUT").snapshot())[:n] == \
            list(fast[0].memory.buffer("IN").snapshot())[:n][::-1]


class TestAddressErrors:
    def test_out_of_range_index_raises_address_error(self):
        """A wild global index surfaces as the memory model's
        AddressError, chained under the kernel's ProcessError."""
        program_cache_clear()
        source = """
        __kernel void k(__global int* in, __global int* out, int n) {
            int gid = get_global_id(0);
            out[gid + n] = in[gid];
        }
        """
        fabric = Fabric()
        program = compile_source(fabric, source)
        fabric.memory.allocate("IN", 8).fill(np.arange(8) + 1)
        fabric.memory.allocate("OUT", 8)
        with pytest.raises(ProcessError) as exc_info:
            fabric.run_kernel(program.kernel("k"),
                              {"in": "IN", "out": "OUT", "n": 8,
                               "__global_size": 8}, executor="fast")
        cause = exc_info.value.__cause__
        while cause is not None and not isinstance(cause, AddressError):
            cause = cause.__cause__
        assert isinstance(cause, AddressError)
        assert "index 8 out of range [0, 8)" in str(exc_info.value)
