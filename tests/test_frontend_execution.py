"""Integration tests: compiled OpenCL-C kernels executing on the fabric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import FrontendError, compile_source, extract_profile, parse
from repro.pipeline.fabric import Fabric


class TestSingleTaskExecution:
    VECADD = """
        __kernel void vecadd(__global int* a, __global int* b,
                             __global int* c, int n) {
            for (int i = 0; i < n; i++) {
                c[i] = a[i] + b[i];
            }
        }
    """

    def _run_vecadd(self, fabric, n=8):
        program = compile_source(fabric, self.VECADD)
        fabric.memory.allocate("A", n).fill(np.arange(n))
        fabric.memory.allocate("B", n).fill(np.arange(n) * 10)
        fabric.memory.allocate("C", n)
        fabric.run_kernel(program.kernel("vecadd"),
                          {"a": "A", "b": "B", "c": "C", "n": n})
        return fabric.memory.buffer("C").snapshot()

    def test_vecadd_correct(self, fabric):
        assert np.array_equal(self._run_vecadd(fabric),
                              np.arange(8) * 11)

    def test_single_task_classified(self, fabric):
        program = compile_source(fabric, self.VECADD)
        assert program.kernel("vecadd").kind == "single-task"

    def test_missing_argument_reported(self, fabric):
        program = compile_source(fabric, self.VECADD)
        from repro.errors import ProcessError
        with pytest.raises(ProcessError, match="missing argument"):
            fabric.run_kernel(program.kernel("vecadd"), {"a": "A"})

    def test_global_pointer_needs_buffer_name(self, fabric):
        program = compile_source(fabric, self.VECADD)
        from repro.errors import ProcessError
        with pytest.raises(ProcessError, match="buffer name"):
            fabric.run_kernel(program.kernel("vecadd"),
                              {"a": 1, "b": "B", "c": "C", "n": 1})


class TestControlFlow:
    def _run(self, fabric, body, n=8, extra_args=None):
        source = f"""
            __kernel void k(__global int* out, int n) {{ {body} }}
        """
        program = compile_source(fabric, source)
        fabric.memory.allocate("OUT", n)
        args = {"out": "OUT", "n": n}
        args.update(extra_args or {})
        fabric.run_kernel(program.kernel("k"), args)
        return fabric.memory.buffer("OUT").snapshot()

    def test_nested_loops(self, fabric):
        out = self._run(fabric, """
            for (int i = 0; i < 2; i++) {
                for (int j = 0; j < 4; j++) {
                    out[i * 4 + j] = i * 10 + j;
                }
            }
        """)
        assert list(out) == [0, 1, 2, 3, 10, 11, 12, 13]

    def test_break_and_continue(self, fabric):
        out = self._run(fabric, """
            int written = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 8) break;
                out[written] = i;
                written++;
            }
        """)
        assert list(out[:4]) == [1, 3, 5, 7]

    def test_while_with_condition(self, fabric):
        out = self._run(fabric, """
            int i = 0;
            while (i < n) {
                out[i] = i * i;
                i++;
            }
        """)
        assert list(out) == [i * i for i in range(8)]

    def test_compound_assign_and_division(self, fabric):
        out = self._run(fabric, """
            int a = 7;
            a *= 3;      // 21
            a -= 1;      // 20
            a /= 6;      // 3 (C truncation)
            out[0] = a;
            out[1] = 7 % 3;
            out[2] = -7 / 2;   // -3 in C (truncation toward zero)
        """)
        assert list(out[:3]) == [3, 1, -3]

    def test_logical_short_circuit(self, fabric):
        # Division by zero on the right side must not execute.
        out = self._run(fabric, """
            int zero = 0;
            if (0 && (1 / zero)) { out[0] = 1; } else { out[0] = 2; }
            if (1 || (1 / zero)) { out[1] = 3; }
        """)
        assert list(out[:2]) == [2, 3]

    def test_return_exits_kernel(self, fabric):
        out = self._run(fabric, """
            out[0] = 1;
            return;
            out[1] = 2;
        """)
        assert list(out[:2]) == [1, 0]

    def test_division_by_zero_reported(self, fabric):
        from repro.errors import ProcessError
        with pytest.raises(ProcessError, match="division by zero"):
            self._run(fabric, "out[0] = 1 / 0;")

    def test_undefined_identifier_reported(self, fabric):
        from repro.errors import ProcessError
        with pytest.raises(ProcessError, match="undefined identifier"):
            self._run(fabric, "out[0] = ghost;")


class TestChannelsFromSource:
    def test_producer_consumer_pair(self, fabric):
        source = """
            channel int stream __attribute__((depth(4)));

            __kernel void producer(__global int* src, int n) {
                for (int i = 0; i < n; i++) {
                    write_channel_altera(stream, src[i]);
                }
            }

            __kernel void consumer(__global int* dst, int n) {
                for (int i = 0; i < n; i++) {
                    dst[i] = read_channel_altera(stream) * 2;
                }
            }
        """
        program = compile_source(fabric, source)
        n = 6
        fabric.memory.allocate("S", n).fill(np.arange(n))
        fabric.memory.allocate("D", n)
        producer = fabric.launch(program.kernel("producer"),
                                 {"src": "S", "n": n})
        consumer = fabric.launch(program.kernel("consumer"),
                                 {"dst": "D", "n": n})
        fabric.run(producer.completion, consumer.completion)
        fabric.run(fabric.memory.drained())
        assert list(fabric.memory.buffer("D").snapshot()) == [
            0, 2, 4, 6, 8, 10]

    def test_nonblocking_read_with_valid_flag(self, fabric):
        source = """
            channel int c __attribute__((depth(2)));

            __kernel void probe(__global int* out) {
                bool valid;
                int v = read_channel_nb_altera(c, &valid);
                out[0] = valid;
                out[1] = v;
            }
        """
        program = compile_source(fabric, source)
        fabric.memory.allocate("O", 2)
        fabric.run_kernel(program.kernel("probe"), {"out": "O"})
        assert list(fabric.memory.buffer("O").snapshot()) == [0, 0]


class TestAutorunFromSource:
    def test_listing1_counter_tracks_cycles(self, fabric):
        source = """
            channel int time_ch1 __attribute__((depth(0)));

            __attribute__((autorun))
            __kernel void timer_srv(void) {
                int count = 0;
                while (1) {
                    bool success;
                    count++;
                    success = write_channel_nb_altera(time_ch1, count);
                }
            }

            __kernel void reader(__global int* out) {
                int t = read_channel_altera(time_ch1);
                out[0] = t;
            }
        """
        program = compile_source(fabric, source)
        fabric.memory.allocate("O", 1)
        fabric.advance(40)
        fabric.run_kernel(program.kernel("reader"), {"out": "O"})
        stamp = int(fabric.memory.buffer("O").read(0))
        # The counter's first write is at cycle 0 (count 1), so the read at
        # cycle 40 sees 41 — the value eager per-cycle stepping produces.
        assert stamp == 41

    def test_listing5_sequence_blocking_semantics(self, fabric):
        source = """
            channel int seq_ch __attribute__((depth(0)));

            __attribute__((autorun))
            __kernel void seq_srv(void) {
                int count = 0;
                while (1) {
                    count++;
                    write_channel_altera(seq_ch, count);
                }
            }

            __kernel void reader(__global int* out, int n) {
                for (int i = 0; i < n; i++) {
                    out[i] = read_channel_altera(seq_ch);
                }
            }
        """
        program = compile_source(fabric, source)
        fabric.memory.allocate("O", 4)
        fabric.advance(100)   # counter must NOT advance while unread
        fabric.run_kernel(program.kernel("reader"), {"out": "O", "n": 4})
        assert list(fabric.memory.buffer("O").snapshot()) == [1, 2, 3, 4]

    def test_replicated_autorun_compute_ids(self, fabric):
        source = """
            channel int out_c[3];

            __attribute__((autorun)) __attribute__((num_compute_units(3, 1)))
            __kernel void ids(void) {
                int id = get_compute_id(0);
                write_channel_nb_altera(out_c[id], id + 100);
                while (1) { }
            }
        """
        compile_source(fabric, source)
        fabric.advance(3)
        values = sorted(fabric.channels.get_array("out_c")[i].read_nb()[0]
                        for i in range(3))
        assert values == [100, 101, 102]


class TestNDRangeFromSource:
    def test_get_global_id_dispatch(self, fabric):
        source = """
            __kernel void square(__global int* out) {
                int gid = get_global_id(0);
                out[gid] = gid * gid;
            }
        """
        program = compile_source(fabric, source)
        kernel = program.kernel("square")
        assert kernel.kind == "ndrange"
        fabric.memory.allocate("O", 6)
        fabric.run_kernel(kernel, {"out": "O", "__global_size": 6})
        assert list(fabric.memory.buffer("O").snapshot()) == [
            0, 1, 4, 9, 16, 25]

    def test_missing_global_size_reported(self, fabric):
        program = compile_source(fabric, """
            __kernel void k(__global int* out) {
                out[get_global_id(0)] = 1;
            }
        """)
        from repro.errors import ProcessError
        with pytest.raises(ProcessError, match="__global_size"):
            fabric.run_kernel(program.kernel("k"), {"out": "O"})


class TestHDLCallsFromSource:
    def test_get_time_library_call(self, fabric):
        from repro.hdl.library import HDLLibrary
        library = HDLLibrary(fabric.sim)
        library.add_get_time()
        source = """
            __kernel void timed(__global int* out) {
                int start_t = get_time(0);
                int sum = 0;
                for (int i = 0; i < 5; i++) { sum += i; }
                int end_t = get_time(sum);
                out[0] = end_t - start_t;
                out[1] = sum;
            }
        """
        program = compile_source(fabric, source, hdl_library=library)
        fabric.memory.allocate("O", 2)
        fabric.run_kernel(program.kernel("timed"), {"out": "O"})
        out = fabric.memory.buffer("O").snapshot()
        assert out[1] == 10
        assert out[0] >= 0   # elapsed cycles of the loop

    def test_unknown_function_reported(self, fabric):
        program = compile_source(fabric, """
            __kernel void k(__global int* out) { out[0] = warp_drive(9); }
        """)
        fabric.memory.allocate("O", 1)
        from repro.errors import ProcessError
        with pytest.raises(ProcessError, match="unknown function"):
            fabric.run_kernel(program.kernel("k"), {"out": "O"})


class TestProfileExtraction:
    def test_counts_memory_sites_and_operators(self):
        program = parse("""
            __kernel void k(__global int* a, __global int* b, int n) {
                for (int i = 0; i < n; i++) {
                    b[i] = a[i] * a[i] + 3;
                }
            }
        """)
        profile = extract_profile(program.kernels[0])
        assert profile.store_sites == 1
        assert profile.load_sites == 2
        assert profile.multipliers == 1
        assert profile.adders >= 2       # + and i++
        assert profile.control_states > 2

    def test_channel_endpoints_counted(self):
        program = parse("""
            channel int c;
            __kernel void k(void) {
                write_channel_altera(c, read_channel_altera(c) + 1);
            }
        """)
        profile = extract_profile(program.kernels[0])
        assert profile.channel_endpoints == 2

    def test_synthesizable_via_cost_model(self, fabric):
        """Compiled kernels plug straight into the synthesis model."""
        from repro.host.context import Context
        from repro.host.program import Program
        context = Context()
        compiled = compile_source(context.fabric, """
            __kernel void k(__global int* a, __global int* b, int n) {
                for (int i = 0; i < n; i++) { b[i] = a[i] + 1; }
            }
        """)
        report = Program(context, [compiled.kernel("k")]).synthesis_report()
        assert report.fmax_mhz > 0
        assert report.total.alms > 0


class TestPrivateArrays:
    def test_declaration_and_access(self, fabric):
        from repro.frontend import compile_source
        program = compile_source(fabric, """
            __kernel void k(__global int* out, int n) {
                int acc[4];
                for (int i = 0; i < n; i++) {
                    acc[i % 4] += i;
                }
                for (int j = 0; j < 4; j++) {
                    out[j] = acc[j];
                }
            }
        """)
        fabric.memory.allocate("O", 4)
        fabric.run_kernel(program.kernel("k"), {"out": "O", "n": 8})
        # Lanes: 0+4, 1+5, 2+6, 3+7.
        assert list(fabric.memory.buffer("O").snapshot()) == [4, 6, 8, 10]

    def test_out_of_range_access_reported(self, fabric):
        from repro.frontend import compile_source
        from repro.errors import ProcessError
        program = compile_source(fabric, """
            __kernel void k(__global int* out) {
                int acc[2];
                out[0] = acc[5];
            }
        """)
        fabric.memory.allocate("O", 1)
        with pytest.raises(ProcessError, match="out of range"):
            fabric.run_kernel(program.kernel("k"), {"out": "O"})

    def test_private_arrays_are_zero_time(self, fabric):
        """Register-file accesses must not add cycles."""
        from repro.frontend import compile_source
        source_template = """
            __kernel void k(__global int* out, int n) {{
                {decl}
                int x = 0;
                for (int i = 0; i < n; i++) {{ {body} }}
                out[0] = x;
            }}
        """
        program = compile_source(fabric, source_template.format(
            decl="int acc[8];", body="acc[i % 8] = i; x += acc[i % 8];"))
        fabric.memory.allocate("O", 1)
        engine = fabric.run_kernel(program.kernel("k"), {"out": "O", "n": 32})
        other = Fabric()
        program2 = compile_source(other, source_template.format(
            decl="", body="x += i;"))
        other.memory.allocate("O", 1)
        engine2 = other.run_kernel(program2.kernel("k"), {"out": "O", "n": 32})
        assert engine.stats.total_cycles == engine2.stats.total_cycles


class TestSwitchStatement:
    def _run_switch(self, fabric, subject):
        from repro.frontend import compile_source
        program = compile_source(fabric, """
            __kernel void k(__global int* out, int sel) {
                int r = 0;
                switch (sel) {
                    case 1:
                        r = 10;
                        break;
                    case 2:
                        r = 20;        // falls through to case 3
                    case 3:
                        r = r + 5;
                        break;
                    default:
                        r = 99;
                        break;
                }
                out[0] = r;
            }
        """)
        name = f"O{subject}"
        fabric.memory.allocate(name, 1)
        fabric.run_kernel(program.kernel("k"), {"out": name, "sel": subject})
        return int(fabric.memory.buffer(name).read(0))

    def test_simple_case(self, fabric):
        assert self._run_switch(fabric, 1) == 10

    def test_fallthrough(self, fabric):
        assert self._run_switch(fabric, 2) == 25

    def test_direct_case_after_fallthrough_target(self, fabric):
        assert self._run_switch(fabric, 3) == 5

    def test_default(self, fabric):
        assert self._run_switch(fabric, 7) == 99

    def test_defines_reachable_in_kernels(self, fabric):
        from repro.frontend import compile_source
        program = compile_source(fabric, """
            __kernel void k(__global int* out) {
                out[0] = MAGIC * 2;
            }
        """, defines={"MAGIC": 21})
        fabric.memory.allocate("O", 1)
        fabric.run_kernel(program.kernel("k"), {"out": "O"})
        assert fabric.memory.buffer("O").read(0) == 42


class TestBarrierFromSource:
    def test_workgroup_reversal_compiles_and_runs(self, fabric):
        from repro.frontend import compile_source
        # local memory is not in the frontend subset; a barrier plus a
        # global staging buffer demonstrates the sync itself.
        program = compile_source(fabric, """
            __kernel void stage_then_read(__global int* src,
                                          __global int* stage,
                                          __global int* dst, int n) {
                int gid = get_global_id(0);
                stage[gid] = src[gid];
                barrier(CLK_GLOBAL_MEM_FENCE);
                dst[gid] = stage[n - 1 - gid];
            }
        """)
        n = 6
        fabric.memory.allocate("S", n).fill(range(n))
        fabric.memory.allocate("G", n)
        fabric.memory.allocate("D", n)
        fabric.run_kernel(program.kernel("stage_then_read"),
                          {"src": "S", "stage": "G", "dst": "D", "n": n,
                           "__global_size": n})
        assert list(fabric.memory.buffer("D").snapshot()) == list(range(n))[::-1]


class TestLocalMemoryFromSource:
    def test_workgroup_reverse_with_local_and_barrier(self, fabric):
        """The canonical __local + barrier kernel, compiled from source."""
        from repro.frontend import compile_source
        program = compile_source(fabric, """
            __kernel void reverse(__global int* src, __global int* dst,
                                  int n) {
                __local int stage[32];
                int gid = get_global_id(0);
                stage[gid] = src[gid];
                barrier(CLK_LOCAL_MEM_FENCE);
                dst[gid] = stage[n - 1 - gid];
            }
        """)
        n = 8
        fabric.memory.allocate("S", n).fill(range(n))
        fabric.memory.allocate("D", n)
        fabric.run_kernel(program.kernel("reverse"),
                          {"src": "S", "dst": "D", "n": n,
                           "__global_size": n})
        assert list(fabric.memory.buffer("D").snapshot()) == list(range(n))[::-1]

    def test_local_size_from_define(self, fabric):
        from repro.frontend import compile_source
        program = compile_source(fabric, """
            #define TILE 16
            __kernel void k(__global int* out) {
                __local int buf[TILE];
                int gid = get_global_id(0);
                buf[gid] = gid * 2;
                out[gid] = buf[gid];
            }
        """)
        fabric.memory.allocate("O", 4)
        fabric.run_kernel(program.kernel("k"),
                          {"out": "O", "__global_size": 4})
        assert list(fabric.memory.buffer("O").snapshot()) == [0, 2, 4, 6]

    def test_local_scalar_rejected(self, fabric):
        from repro.frontend import compile_source
        from repro.frontend.lexer import FrontendError
        with pytest.raises(FrontendError, match="must be an array"):
            compile_source(fabric, """
                __kernel void k(__global int* out) {
                    __local int x;
                    out[0] = x;
                }
            """)

    def test_local_accesses_cost_cycles_unlike_private(self, fabric):
        """__local is timed block RAM; private arrays are zero-time."""
        from repro.frontend import compile_source
        source = """
            __kernel void k(__global int* out, int n) {{
                {decl}
                int acc = 0;
                for (int i = 0; i < n; i++) {{
                    {body}
                }}
                out[0] = acc;
            }}
        """
        slow_prog = compile_source(fabric, source.format(
            decl="__local int buf[8];", body="buf[i % 8] = i; acc += buf[i % 8];"))
        fabric.memory.allocate("O", 1)
        slow = fabric.run_kernel(slow_prog.kernel("k"),
                                 {"out": "O", "n": 32})
        fast_fabric = Fabric()
        fast_prog = compile_source(fast_fabric, source.format(
            decl="int buf[8];", body="buf[i % 8] = i; acc += buf[i % 8];"))
        fast_fabric.memory.allocate("O", 1)
        fast = fast_fabric.run_kernel(fast_prog.kernel("k"),
                                      {"out": "O", "n": 32})
        assert slow.stats.total_cycles > fast.stats.total_cycles
