#!/usr/bin/env python3
"""The benchmark's own tests: every workload end to end at a small field,
the oracle, and negative cases the checks must count as failed.

    python3 perfbench/test_bench.py

Run from the root of the checkout (builds the program if needed). Takes
a few seconds once the build is fresh.
"""

import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402

ROOT = os.getcwd()
F8 = [8, 4, 3, 1, 0]
F4 = [4, 1, 0]


# The per-layer metrics each workload's traced replay reaches.
COMMON = {"circuits.gen_s", "field.context_s", "process.drop_s"}
ALGEBRA = {"field.coeff_mul_ns", "field.coeff_muls", "model.build_s", "model.gates_per_s",
           "model.allocs", "model.peak_live_mb", "reduce.normal_form_s", "reduce.steps",
           "reduce.steps_per_s", "reduce.peak_terms", "reduce.allocs", "reduce.peak_live_mb"}
PARSE = {"netlist.parse_s", "netlist.parse_mb_per_s"}
REACHED = {
    "extract": COMMON | ALGEBRA | PARSE,
    "hier": COMMON | ALGEBRA | {"hier.extract_s", "hier.mid_block_s", "engine.manifest_load_s",
                                "engine.cache_hits", "engine.cache_misses"},
    "refute": COMMON | PARSE | {"netlist.sim_s"},
}


def small(kind, modulus=F8):
    return run.Workload(f"test-{kind}-{modulus[0]}", kind, modulus, 1.0, 20.0)


def work_dir(name):
    path = os.path.join(ROOT, ".perfbench_work", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def plant_and_to_xor(path, out, nth):
    """Copies a netlist with its nth AND gate turned into XOR."""
    with open(path) as f:
        lines = f.read().split("\n")
    ands = [i for i, l in enumerate(lines) if l.startswith("gate and ")]
    lines[ands[nth]] = lines[ands[nth]].replace("gate and", "gate xor", 1)
    with open(out, "w") as f:
        f.write("\n".join(lines))


class BenchTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.gfab, cls.runner = run.build(ROOT)

    def workload_inputs(self, wl, n, seed=7):
        inputs = run.Inputs(work_dir(wl.name), self.gfab, wl)
        inputs.set_up(repeats=1)
        queries, problems = run.make_queries(inputs, n, seed)
        self.assertEqual(problems, [])
        return inputs, queries

    def test_every_workload_passes_end_to_end_and_traced(self):
        for kind in ("extract", "hier", "refute"):
            wl = small(kind)
            for trace in (0, 1):
                with self.subTest(kind=kind, trace=trace):
                    r = run.run(wl, 5, 3, trace, ROOT, self.gfab, self.runner)
                    self.assertTrue(r["correct"])
                    self.assertEqual((r["attempted"], r["failed"]), (3, 0))
                    units = run.LAYER_UNITS if trace else run.END_TO_END_UNITS
                    self.assertEqual(set(r["metrics"]), set(units))
                    values = {k: m["value"] for k, m in r["metrics"].items()}
                    if not trace:
                        self.assertTrue(all(v > 0 for v in values.values()))
                        continue
                    # The replay times only the layers on the workload's
                    # path; the others read 0.
                    reached = {k for k, v in values.items() if v != 0}
                    reached.discard("process.other_s")  # a difference, of either sign
                    self.assertEqual(reached, REACHED[kind])

    def test_unfaulted_implementation_in_refute_list_fails(self):
        inputs, queries = self.workload_inputs(small("refute"), 3)
        clean = run.Query([inputs.impl if a == inputs.faults[1][0] else a
                           for a in queries[1].argv], queries[1].check)
        _, failures, _ = run.run_queries([queries[0], clean, queries[2]], inputs.work, 20.0)
        self.assertEqual([i for i, _ in failures], [1])
        self.assertIn("expected 1", failures[0][1])

    def test_run_with_every_query_failed_reports_no_query_time(self):
        inputs, queries = self.workload_inputs(small("refute"), 2)
        clean = [run.Query([inputs.impl if a == path else a for a in q.argv], q.check)
                 for q, (path, _) in zip(queries, inputs.faults)]
        procs, failures, phase_s = run.run_queries(clean, inputs.work, 20.0)
        self.assertEqual([i for i, _ in failures], [0, 1])
        m = run.end_to_end(inputs, procs, failures, phase_s)
        self.assertIsNone(m["query_s"])
        self.assertEqual(m["queries_per_s"], 0)

    def test_time_limit_marks_only_killed_queries(self):
        work = work_dir("limit")
        out = os.path.join(work, "p.out")
        slow = run.run_proc(["sleep", "5"], out, limit_s=0.2)
        self.assertTrue(slow.timed_out)
        self.assertLess(slow.wall_s, 2.0)
        fast = run.run_proc(["true"], out, limit_s=5.0)
        self.assertEqual((fast.code, fast.timed_out), (0, False))
        # Dying of SIGKILL within the limit is a crash, not a timeout.
        self_killed = run.run_proc(["sh", "-c", "kill -9 $$"], out, limit_s=5.0)
        self.assertEqual((self_killed.code, self_killed.timed_out), (-9, False))

    def test_faulted_mastrovito_in_extract_list_fails(self):
        # k = 4 keeps the faulted circuit's Case-2 completion instant.
        inputs, queries = self.workload_inputs(small("extract", F4), 2)
        faulted = os.path.join(inputs.work, "faulted.nl")
        plant_and_to_xor(inputs.spec, faulted, 3)
        bad = run.Query([faulted if a == inputs.spec else a for a in queries[0].argv],
                        run.check_extract)
        procs, failures, _ = run.run_queries([queries[0], bad], inputs.work, 20.0)
        self.assertEqual([i for i, _ in failures], [1])
        self.assertEqual(procs[1].code, 0)  # a wrong function, not a crash

    def test_corrupted_counterexample_fails(self):
        inputs, queries = self.workload_inputs(small("refute"), 1)
        procs, failures, _ = run.run_queries(queries, inputs.work, 20.0)
        self.assertEqual(failures, [])
        good = procs[0]
        check = queries[0].check
        self.assertIsNone(check(good))
        line = next(l for l in good.stdout.splitlines() if "counterexample:" in l)
        for corrupt in ("  counterexample: (0, 0)", "  counterexample: (α^8, 1)",
                        "  counterexample: (1)", ""):
            with self.subTest(corrupt=corrupt):
                bad = run.Proc(good.wall_s, good.rss_mb, good.code,
                               good.stdout.replace(line, corrupt), False)
                self.assertIsNotNone(check(bad))

    def test_oracle_field_axioms(self):
        for exps in (F4, F8, run.NIST_409, run.NIST_571):
            oracle.Field(exps).self_check(seed=3)

        class Truncating(oracle.Field):
            def reduce(self, r):  # drops x^k and above instead of folding them
                return r & self.mask

        with self.assertRaises(AssertionError):
            Truncating(F8).self_check(seed=3)

    def test_oracle_rejects_a_circuit_that_does_not_multiply(self):
        inputs, _ = self.workload_inputs(small("extract"), 1)
        faulted = os.path.join(inputs.work, "faulted.nl")
        plant_and_to_xor(inputs.spec, faulted, 10)
        with open(faulted) as f:
            circuit = oracle.Circuit(f.read())
        self.assertTrue(oracle.multiplier_mismatches(circuit, inputs.field, seed=1))

    def test_alpha_polynomial_parsing(self):
        self.assertEqual(oracle.parse_alpha_poly("α^7 + α + 1", 8), 0b10000011)
        self.assertEqual(oracle.parse_alpha_poly("0", 8), 0)
        for bad in ("α^8", "α + α", "x + 1", ""):
            with self.assertRaises(ValueError):
                oracle.parse_alpha_poly(bad, 8)

    def test_exits_nonzero_outside_a_source_checkout(self):
        bare = work_dir("bare")
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "target"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "refute-faulted-409", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True, text=True,
                           timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
