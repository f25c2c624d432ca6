#!/usr/bin/env python3
"""File-to-verdict benchmark for the `gfab` CLI at the paper's field sizes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the release `gfab`
binary (and, for traced runs, the in-process layer runner in
`perfbench/harness`) offline, writes the workload's netlists with
`gfab gen`, confirms with an independent oracle (`oracle.py`) that they
multiply, then runs a fixed list of queries one at a time, each as its
own `gfab ... --threads 1` process, and checks every verdict against the
oracle. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same queries
and then the traced layer runner, and reports the per-layer metrics.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import oracle

NIST_409 = [409, 87, 0]
NIST_571 = [571, 10, 5, 2, 0]


class Workload:
    """One workload: its field, the CLI path it drives, and its query
    budget. A run makes one query per `per_query_s` seconds of --seconds, a
    fixed count that does not depend on how fast the machine runs; it is
    set per workload to spend the run where the timings spread most.
    `limit_s` is the per-query time limit beyond which a query is killed
    and counted as failed."""

    def __init__(self, name, kind, modulus, per_query_s, limit_s):
        self.name, self.kind, self.modulus = name, kind, modulus
        self.per_query_s, self.limit_s = per_query_s, limit_s

    def queries(self, seconds):
        return max(3, math.ceil(seconds / self.per_query_s))


WORKLOADS = {w.name: w for w in [
    Workload("extract-mastrovito-571", "extract", NIST_571, 6.0, 20.0),
    Workload("equiv-hier-montgomery-409", "hier", NIST_409, 10.0, 20.0),
    Workload("refute-faulted-409", "refute", NIST_409, 3.0, 8.0),
]}

SETUP_REPEATS = 9
ORACLE_LANES = 64


class BenchError(Exception):
    """A condition that makes the run meaningless (exit 2, no result)."""


# --- processes ----------------------------------------------------------

class Proc:
    """One finished process: wall time from spawn to exit, peak RSS, exit
    code and captured stdout."""

    def __init__(self, wall_s, rss_mb, code, stdout, timed_out):
        self.wall_s, self.rss_mb, self.code = wall_s, rss_mb, code
        self.stdout, self.timed_out = stdout, timed_out


def run_proc(argv, out_path, limit_s=None):
    """Runs argv to completion with stdout in out_path; kills it after
    limit_s. Wall time and max RSS come from the child's own wait4.

    The child is waited for without being reaped (WNOWAIT), and the kill
    timer is stopped before the reap: until then the pid stays a zombie
    that no other process can be given, so the timer can only ever signal
    this child. A query counts as timed out only when the timer fired and
    the child died of its SIGKILL, not when it exited on its own first."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        fired = threading.Event()

        def kill():
            fired.set()
            os.kill(p.pid, signal.SIGKILL)

        timer = threading.Timer(limit_s, kill) if limit_s is not None else None
        try:
            if timer is not None:
                timer.start()
            os.waitid(os.P_PID, p.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
        except BaseException:
            os.kill(p.pid, signal.SIGKILL)
            raise
        finally:
            if timer is not None:
                timer.cancel()
                timer.join()
            _, status, ru = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    timed_out = fired.is_set() and p.returncode == -signal.SIGKILL
    # ru_maxrss is in KiB on Linux.
    return Proc(wall, ru.ru_maxrss / 1024.0, p.returncode, stdout, timed_out)


# --- build --------------------------------------------------------------

BUILD_INPUTS = ["Cargo.toml", "Cargo.lock", "build.rs", "src", "crates",
                os.path.join("perfbench", "harness")]


def source_files(root):
    for top in BUILD_INPUTS:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            yield path
            continue
        for d, dirs, files in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            for f in sorted(files):
                yield os.path.join(d, f)


def source_digest(root):
    """Digest of every file the two builds read. The program's build
    script re-runs on every cargo call outside a git checkout, so an
    unchanged source tree skips cargo instead of trusting its freshness."""
    h = hashlib.sha256()
    for f in source_files(root):
        h.update(os.path.relpath(f, root).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(root):
    """Builds gfab and the layer runner; returns their paths."""
    for need in ["Cargo.toml", "src/main.rs", "crates", "perfbench/harness/Cargo.toml"]:
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"not a gfab source checkout: {need} is missing")
    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    gfab = os.path.join(target, "release", "gfab")
    runner = os.path.join(target, "release", "perfbench-trace")
    stamp = os.path.join(target, "perfbench.stamp")
    digest = source_digest(root)
    if os.path.exists(gfab) and os.path.exists(runner) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                return gfab, runner
    for argv in (["cargo", "build", "--release", "--offline", "--quiet", "--bin", "gfab"],
                 ["cargo", "build", "--release", "--offline", "--quiet",
                  "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")]):
        r = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    with open(stamp, "w") as f:
        f.write(digest)
    return gfab, runner


# --- inputs -------------------------------------------------------------

def modulus_arg(modulus):
    return ",".join(map(str, modulus))


class Inputs:
    """A workload's files on disk and the oracle's view of them."""

    def __init__(self, work, gfab, wl):
        self.work, self.gfab, self.wl = work, gfab, wl
        self.field = oracle.Field(wl.modulus)
        self.spec = os.path.join(work, "spec.nl")
        self.impl = os.path.join(work, "impl.nl")
        self.manifest = os.path.join(work, "manifest.json")
        self.faults = []  # (path, gate index) per refute query
        self.setup_walls = []
        self.gen_rss_mb = []

    def gen(self, arch, path, limit_s=120.0):
        p = run_proc([self.gfab, "gen", arch, "--modulus", modulus_arg(self.wl.modulus),
                      "-o", path], path + ".gen", limit_s)
        if p.code != 0:
            raise BenchError(f"gfab gen {arch} failed with exit {p.code}")
        self.gen_rss_mb.append(p.rss_mb)
        return p.wall_s

    def set_up(self, repeats=SETUP_REPEATS):
        """Writes the workload's netlists `repeats` times; the set-up time
        of each repeat is the wall time of its `gfab gen` calls."""
        arches = [("mastrovito", self.spec)]
        if self.wl.kind == "refute":
            arches.append(("montgomery", self.impl))
        for _ in range(repeats):
            self.setup_walls.append(sum(self.gen(a, p) for a, p in arches))

    def confirm(self, seed):
        """Oracle checks, untimed: the field is a field, every netlist
        multiplies, and (refute) every planted fault changes the output.
        Returns the list of failures (empty when all hold)."""
        problems = []
        try:
            self.field.self_check(seed)
        except AssertionError as e:
            problems.append(f"oracle field check failed: {e}")
        with open(self.spec) as f:
            self.spec_circuit = oracle.Circuit(f.read())
        if oracle.multiplier_mismatches(self.spec_circuit, self.field, seed, ORACLE_LANES):
            problems.append("spec netlist does not compute A*B")
        if self.wl.kind == "hier":
            # The batch query generates this design in-process; the flat
            # file is the same generator's output, written for the oracle.
            self.gen("montgomery", self.impl)
        if self.wl.kind in ("hier", "refute"):
            with open(self.impl) as f:
                self.impl_circuit = oracle.Circuit(f.read())
            if oracle.multiplier_mismatches(self.impl_circuit, self.field, seed, ORACLE_LANES):
                problems.append("Montgomery netlist does not compute A*B")
        return problems

    def plant_faults(self, n, seed):
        """Writes n faulted copies of the Montgomery netlist, each with one
        seeded AND gate of the middle block turned into XOR, and confirms
        with the oracle that each fault changes the output. A faulted file
        differs from the parsed base only in that gate's kind, so the
        oracle evaluates the base with the one gate flipped."""
        with open(self.impl, "rb") as f:
            base = f.read()
        mid_ands = [i for i, off in enumerate(self.impl_circuit.offsets)
                    if base.startswith(b"gate and blk_mid_", off)]
        problems = []
        for q, gate in enumerate(random.Random(seed).sample(mid_ands, n)):
            off = self.impl_circuit.offsets[gate]
            faulted = base[:off] + b"gate xor" + base[off + len(b"gate and"):]
            path = os.path.join(self.work, f"impl-fault-{q}.nl")
            with open(path, "wb") as f:
                f.write(faulted)
            self.faults.append((path, gate))
            if not oracle.multiplier_mismatches(self.impl_circuit, self.field, seed + q,
                                                ORACLE_LANES, flip=(gate, oracle.XOR)):
                problems.append(f"planted fault {q} (gate {gate}) does not change the output")
        return problems

    def write_manifest(self):
        """The hier workload's one-query batch manifest: the spec file
        against the hierarchical Montgomery the batch engine generates."""
        query = {"name": "mastrovito-vs-montgomery", "op": "equiv",
                 "spec": "spec.nl", "impl": {"gen": "montgomery"}}
        doc = {"field": {"modulus": self.wl.modulus}, "queries": [query]}
        with open(self.manifest, "w") as f:
            json.dump(doc, f)


# --- queries and their checks --------------------------------------------

class Query:
    """One CLI invocation and the oracle check of its output; `check`
    returns None when the output is right, else the reason it is not."""

    def __init__(self, argv, check):
        self.argv, self.check = argv, check


def check_extract(proc):
    if proc.code != 0:
        return f"exit {proc.code}, expected 0"
    lines = [l for l in proc.stdout.splitlines() if l.startswith("function:")]
    if lines != ["function: Z = A*B"]:
        return f"expected exactly 'function: Z = A*B', got {lines[:1] or 'no function line'}"
    return None


def batch_lines(stdout):
    rows = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            rows.append(json.loads(line))
    return rows


def check_hier(proc):
    if proc.code != 0:
        return f"exit {proc.code}, expected 0"
    try:
        rows = batch_lines(proc.stdout)
    except ValueError as e:
        return f"unparsable batch output: {e}"
    verdicts = [r.get("verdict") for r in rows if "query" in r]
    if verdicts != ["equivalent"]:
        return f"expected one 'equivalent' verdict, got {verdicts}"
    if not any("batch-summary" in r for r in rows):
        return "no batch-summary line"
    return None


def counterexample(stdout, k):
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("counterexample: (") and line.endswith(")"):
            parts = line[len("counterexample: ("):-1].split(",")
            if len(parts) != 2:
                raise ValueError(f"counterexample is not a pair: {line!r}")
            return [oracle.parse_alpha_poly(p, k) for p in parts]
    raise ValueError("no counterexample line")


def refute_check(inputs, gate):
    """Exit 1 with a counterexample (A, B) on which the oracle finds that
    the spec computes A*B and the faulted implementation does not."""
    field = inputs.field

    def check(proc):
        if proc.code != 1:
            return f"exit {proc.code}, expected 1"
        try:
            a, b = counterexample(proc.stdout, field.k)
        except ValueError as e:
            return f"bad counterexample: {e}"
        want = field.mul(a, b)
        if inputs.spec_circuit.evaluate([[a], [b]], 1)[0] != want:
            return "the spec does not compute A*B at the counterexample"
        if inputs.impl_circuit.evaluate([[a], [b]], 1, flip=(gate, oracle.XOR))[0] == want:
            return "the faulted implementation computes A*B at the counterexample"
        return None
    return check


def make_queries(inputs, n, seed):
    """The run's fixed query list, with every input file written and
    confirmed by the oracle. Returns (queries, set-up problems)."""
    wl, gfab = inputs.wl, inputs.gfab
    mod = ["--modulus", modulus_arg(wl.modulus), "--threads", "1"]
    problems = inputs.confirm(seed)
    if wl.kind == "extract":
        return [Query([gfab, "extract", inputs.spec] + mod, check_extract)] * n, problems
    if wl.kind == "hier":
        inputs.write_manifest()
        return [Query([gfab, "batch", inputs.manifest, "--threads", "1"], check_hier)] * n, problems
    problems += inputs.plant_faults(n, seed)
    return [Query([gfab, "equiv", inputs.spec, path] + mod, refute_check(inputs, gate))
            for path, gate in inputs.faults], problems


def run_queries(queries, work, limit_s):
    """Runs the queries one after another (a closed loop of one client),
    then checks them. Returns (procs, failures, query-phase wall)."""
    procs = []
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        procs.append(run_proc(q.argv, os.path.join(work, f"query-{i}.out"), limit_s))
    phase_s = time.perf_counter() - t0
    failures = []
    for i, (q, p) in enumerate(zip(queries, procs)):
        why = f"killed after {limit_s} s" if p.timed_out else q.check(p)
        if why is not None:
            failures.append((i, why))
    return procs, failures, phase_s


# --- metrics ------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "query_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB"}


def passing(procs, failures):
    failed = {i for i, _ in failures}
    return [p for i, p in enumerate(procs) if i not in failed]


def end_to_end(inputs, procs, failures, phase_s):
    """The end-to-end metrics. With no passing query there is no query
    time to report: query_s is null (not 0, which would read as the best
    time ever measured) and queries_per_s is 0."""
    passed = passing(procs, failures)
    return {
        "setup_s": statistics.median(inputs.setup_walls),
        "query_s": statistics.median(p.wall_s for p in passed) if passed else None,
        "queries_per_s": len(passed) / phase_s,
        "peak_rss_mb": max([p.rss_mb for p in procs] + inputs.gen_rss_mb),
    }


LAYER_UNITS = {
    "netlist.parse_s": "s", "netlist.parse_mb_per_s": "MB/s", "netlist.sim_s": "s",
    "circuits.gen_s": "s", "field.context_s": "s", "field.coeff_mul_ns": "ns",
    "field.coeff_muls": "count", "model.build_s": "s", "model.gates_per_s": "1/s",
    "model.allocs": "count", "model.peak_live_mb": "MB", "reduce.normal_form_s": "s",
    "reduce.steps": "count", "reduce.steps_per_s": "1/s", "reduce.peak_terms": "count",
    "reduce.allocs": "count", "reduce.peak_live_mb": "MB", "hier.extract_s": "s",
    "hier.mid_block_s": "s", "engine.manifest_load_s": "s", "engine.cache_hits": "count",
    "engine.cache_misses": "count", "process.drop_s": "s", "process.other_s": "s",
}


def self_times(spans):
    """Per-layer self time: each span's duration minus the time its child
    spans cover, summed over the spans of that layer."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    layers = {}
    for i, s in enumerate(spans):
        if s["name"] != "query":
            layers[s["name"]] = layers.get(s["name"], 0.0) + s["end"] - s["start"] - child[i]
    return layers


def rate(work, seconds):
    return work / seconds if seconds else 0.0


def per_layer(doc, query_s, passed, kind):
    """The per-layer metrics of one traced replay. A layer the workload
    does not reach has no span and no count, and reads 0: the query spent
    no time and did no work there."""
    spans = doc["spans"]
    t = collections.defaultdict(float, self_times(spans))
    c = collections.defaultdict(int, doc["counts"])
    # The query's own layers are the children of the q0 root span; the
    # rest of the process's wall time belongs to no named layer.
    on_path = sum(s["end"] - s["start"] for s in spans
                  if s["parent"] is not None and spans[s["parent"]]["name"] == "query"
                  and spans[s["parent"]]["query"] == "q0")
    hits = misses = 0
    if kind == "hier":
        summaries = [r["batch-summary"]["cache"] for p in passed
                     for r in batch_lines(p.stdout) if "batch-summary" in r]
        if summaries:
            hits = statistics.median(cache["hits"] for cache in summaries)
            misses = statistics.median(cache["misses"] for cache in summaries)
    return {
        "netlist.parse_s": t["netlist.parse"],
        "netlist.parse_mb_per_s": rate(c["netlist.parse_bytes"] / 1e6, t["netlist.parse"]),
        "netlist.sim_s": t["netlist.sim"],
        "circuits.gen_s": t["circuits.gen"],
        "field.context_s": t["field.context"],
        "field.coeff_mul_ns": c["field.coeff_mul_ns"],
        "field.coeff_muls": c["field.coeff_muls"],
        "model.build_s": t["model.build"],
        "model.gates_per_s": rate(c["model.gates"], t["model.build"]),
        "model.allocs": c["model.allocs"],
        "model.peak_live_mb": c["model.peak_live_mb"],
        "reduce.normal_form_s": t["reduce.normal_form"],
        "reduce.steps": c["reduce.steps"],
        "reduce.steps_per_s": rate(c["reduce.steps"], t["reduce.normal_form"]),
        "reduce.peak_terms": c["reduce.peak_terms"],
        "reduce.allocs": c["reduce.allocs"],
        "reduce.peak_live_mb": c["reduce.peak_live_mb"],
        "hier.extract_s": t["hier.extract"],
        "hier.mid_block_s": t["hier.mid_block"],
        "engine.manifest_load_s": t["engine.manifest_load"],
        "engine.cache_hits": hits,
        "engine.cache_misses": misses,
        "process.drop_s": t["process.drop"],
        "process.other_s": None if query_s is None else query_s - on_path,
    }


def trace_layers(runner, inputs, procs, failures, phase_s, work):
    wl = inputs.wl
    out = os.path.join(work, "spans.json")
    argv = [runner, "--mode", wl.kind, "--modulus", modulus_arg(wl.modulus),
            "--spec", inputs.spec, "--out", out]
    if wl.kind == "hier":
        argv += ["--manifest", inputs.manifest]
    if wl.kind == "refute":
        argv += ["--impl", inputs.faults[0][0]]
    p = run_proc(argv, os.path.join(work, "runner.out"), limit_s=60.0)
    if p.code != 0:
        raise BenchError(f"traced layer runner failed with exit {p.code}")
    with open(out) as f:
        doc = json.load(f)
    query_s = end_to_end(inputs, procs, failures, phase_s)["query_s"]
    return per_layer(doc, query_s, passing(procs, failures), wl.kind)


# --- main ---------------------------------------------------------------

def run(wl, seed, seconds, trace, root, gfab, runner):
    work = os.path.join(root, ".perfbench_work", wl.name)
    os.makedirs(work, exist_ok=True)
    for f in os.listdir(work):
        os.remove(os.path.join(work, f))
    inputs = Inputs(work, gfab, wl)
    inputs.set_up()
    queries, problems = make_queries(inputs, wl.queries(seconds), seed)
    for why in problems:
        print(f"set-up check failed: {why}", file=sys.stderr)
    procs, failures, phase_s = run_queries(queries, work, wl.limit_s)
    for i, why in failures:
        print(f"query {i} failed: {why}", file=sys.stderr)
    if trace:
        metrics = trace_layers(runner, inputs, procs, failures, phase_s, work)
        units = LAYER_UNITS
    else:
        metrics, units = end_to_end(inputs, procs, failures, phase_s), END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": len(queries),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    root = os.getcwd()
    try:
        gfab, runner = build(root)
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                     root, gfab, runner)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
