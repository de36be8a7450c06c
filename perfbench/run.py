#!/usr/bin/env python3
"""Wall-clock benchmark of the release `gentrius` binary.

Usage (from the repository root):

    python3 perfbench/run.py --workload serial-deadend --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``serial-deadend``  - the dead-end blow-up instance (complete) and the trap
  instance under its 50k-state rule, ``--threads 1``, count only;
* ``parallel-count``  - the dead-end instance, long-runner-0, long-runner-1
  (complete) and the caterpillar blow-up under a tree cap, ``--threads`` =
  cores, count only;
* ``stand-roundtrip`` - long-runner-0 streamed to a ``.stand`` container with
  a fixed checkpoint cadence, then read back with ``gentrius stand cat``.

Load is a closed loop: one binary invocation at a time from this process.
``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds and
reports medians over passes. ``--trace 1`` runs one untraced pass and then
the in-process traced pass of ``perfbench-harness trace`` for the per-layer
metrics. ``--seed`` varies the taxon labels of the inputs, which leaves the
search identical. Every output is checked; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The binary's default stopping rules, passed explicitly so the binary and
# the in-process legs run under the same rules.
MAX_TREES = 1_000_000
MAX_STATES = 10_000_000
# Tree cap of the caterpillar blow-up on parallel-count.
BLOWUP_CAP = 3_000_000
# Trees in the read-back container of the count-only workloads, and the
# `stand cat` reads of it per pass (each takes a fraction of a second).
READBACK_TREES = 20_000
READBACK_READS = 3
# Repetitions of the 1-state set-up invocations per run.
SETUP_REPS = 31
MIN_PASSES = 3

# Exact counters of the pinned instances, built from their Newick files
# (trees, intermediate states, dead ends, stop). Taxon ids follow the
# labels' first appearance in the file, and the dynamic taxon order breaks
# ties by smallest id, so these differ from runs on the in-memory Dataset
# (deadend: 82,620 dead ends there). Every input but the capped parallel
# caterpillar-blowup is pinned.
PINNED = {
    "deadend": (192375, 204299, 162810, "complete"),
    "trap": (3310, 50000, 42611, "state-limit"),
    "long-runner-0": (165375, 12439, 0, "complete"),
    "long-runner-1": (218295, 23227, 0, "complete"),
}

WORKLOADS = {
    "serial-deadend": {
        "parallel": False,
        "inputs": [("deadend", MAX_TREES, MAX_STATES), ("trap", MAX_TREES, 50_000)],
    },
    "parallel-count": {
        "parallel": True,
        "inputs": [
            ("deadend", MAX_TREES, MAX_STATES),
            ("long-runner-0", MAX_TREES, MAX_STATES),
            ("long-runner-1", MAX_TREES, MAX_STATES),
            ("caterpillar-blowup", BLOWUP_CAP, MAX_STATES),
        ],
    },
    "stand-roundtrip": {
        "parallel": True,
        "roundtrip": True,
        "inputs": [("long-runner-0", MAX_TREES, MAX_STATES)],
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("stand_trees_per_s", "1/s"),
    ("read_trees_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Per-layer metrics, each with the end-to-end metric and workload it
# should move.
PER_LAYER = [
    ("problem.parse_s", "s", "setup_s, all workloads"),
    ("problem.build_s", "s", "setup_s, all workloads"),
    ("problem.initial_tree_s", "s", "setup_s, all workloads"),
    ("explore.entered", "count", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.dead_ends", "count", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.stand_trees", "count", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.backtracks", "count", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.entered_ns", "ns", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.dead_end_ns", "ns", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.stand_tree_ns", "ns", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.backtrack_ns", "ns", "events_per_s, wall_s on serial-deadend and parallel-count"),
    ("explore.dead_end_ratio", "ratio", "events_per_s on serial-deadend and parallel-count"),
    ("explore.kernel_self_s", "s", "wall_s on serial-deadend; flat on stand-roundtrip"),
    ("state.snapshot_ns", "ns", "events_per_s on parallel-count"),
    ("state.resume_ns", "ns", "events_per_s on parallel-count"),
    ("engine.busy_s", "s", "events_per_s on parallel-count"),
    ("engine.idle_s", "s", "events_per_s on parallel-count"),
    ("engine.busy_ratio", "ratio", "events_per_s on parallel-count"),
    ("engine.tasks", "count", "events_per_s on parallel-count"),
    ("engine.splits", "count", "events_per_s on parallel-count"),
    ("engine.steals", "count", "events_per_s on parallel-count"),
    ("engine.steal_success_ratio", "ratio", "events_per_s on parallel-count"),
    ("engine.parks", "count", "events_per_s on parallel-count"),
    ("engine.deque_grows", "count", "events_per_s on parallel-count"),
    ("engine.imbalance", "ratio", "events_per_s on parallel-count"),
    ("engine.prefix_states", "count", "events_per_s on parallel-count"),
    ("engine.stop_overshoot", "count", "events_per_s on parallel-count"),
    ("monitor.ticks", "count", "events_per_s on parallel-count"),
    ("monitor.dropped_heartbeats", "count", "events_per_s on parallel-count"),
    ("sink.tree_ns", "ns", "stand_trees_per_s, wall_s on stand-roundtrip"),
    ("p2v.encode_ns", "ns", "stand_trees_per_s, wall_s on stand-roundtrip"),
    ("container.push_ns", "ns", "stand_trees_per_s, wall_s on stand-roundtrip"),
    ("container.merge_s", "s", "stand_trees_per_s, wall_s on stand-roundtrip"),
    ("container.bytes_per_tree", "B/tree", "stand_trees_per_s on stand-roundtrip (size guard)"),
    ("container.open_s", "s", "read_trees_per_s on stand-roundtrip"),
    ("p2v.decode_ns", "ns", "read_trees_per_s on stand-roundtrip"),
    ("container.read_ns", "ns", "read_trees_per_s on stand-roundtrip"),
    ("ckpt.epochs", "count", "wall_s on stand-roundtrip"),
    ("ckpt.pause_s", "s", "wall_s on stand-roundtrip"),
    ("ckpt.write_s", "s", "wall_s on stand-roundtrip"),
    ("ckpt.bytes", "bytes", "wall_s on stand-roundtrip"),
    ("ckpt.frontier_tasks", "count", "wall_s on stand-roundtrip"),
    ("mapping.recompute_kernel_s", "s", "none (oracle engine, paper SV check)"),
    ("mapping.recompute_over_edge_indexed", "ratio", "wall_s on serial-deadend"),
    ("finding.dead_end_over_lr_event", "ratio", "none (HEAD finding on parallel-count)"),
    ("finding.encode_share", "ratio", "stand_trees_per_s on stand-roundtrip"),
    ("trace.unattributed_share", "ratio", "none (trace coverage)"),
    ("trace.overhead_ratio", "ratio", "none (traced wall over untraced wall)"),
]


class BenchError(Exception):
    """A failure that ends the run without a result."""


class Runner:
    """Runs one child process at a time. Benchmarked invocations go through
    `perfbench-harness run`, which reports the child's wall time and peak
    resident memory (a child forked from this Python process would inherit
    its high-water mark)."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.launcher = None
        self.child = None
        self.seq = 0

    def run(self, cmd, stdout_path=None, measure=False):
        self.seq += 1
        out_path = stdout_path or os.path.join(self.workdir, f"out-{self.seq}.txt")
        err_path = os.path.join(self.workdir, f"err-{self.seq}.txt")
        report = os.path.join(self.workdir, f"report-{self.seq}.json")
        if measure:
            cmd = [self.launcher, "run", "--report", report, "--", *cmd]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            # A process group of its own (setsid), so stop() can end the
            # launcher and the program it runs together.
            self.child = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, start_new_session=True)
            code = self.child.wait()
            self.child = None
        with open(err_path, "r", errors="replace") as f:
            stderr = f.read()
        os.remove(err_path)
        text = None
        if stdout_path is None:
            with open(out_path, "r", errors="replace") as f:
                text = f.read()
            os.remove(out_path)
        result = {"code": code, "out": text, "err": stderr}
        if measure:
            if code != 0 and not os.path.exists(report):
                raise BenchError(f"launcher failed: {stderr.strip()}")
            with open(report) as f:
                rep = json.load(f)
            os.remove(report)
            result.update(code=rep["code"], wall=rep["wall_s"], rss_mb=rep["maxrss_kb"] / 1024.0)
        return result

    def stop(self):
        if self.child is not None:
            try:
                os.killpg(self.child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.child.wait()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "gentrius-cli", "--bin", "gentrius"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd) + "\n" + r.stdout[-4000:])
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "gentrius"), os.path.join(release, "perfbench-harness")


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def parse_stand(out):
    """Counters, status and reported enumeration time from `gentrius stand`."""
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    status = fields.get("status", "")
    stop = {
        "complete enumeration": "complete",
        "stopped: stand-tree limit (rule 1)": "tree-limit",
        "stopped: intermediate-state limit (rule 2)": "state-limit",
        "stopped: time limit (rule 3)": "time-limit",
    }.get(status, status)
    written = None
    for line in out.splitlines():
        if line.startswith("wrote ") and " trees to " in line:
            written = int(line.split()[1])
    return {
        "trees": int(fields.get("stand trees", -1)),
        "states": int(fields.get("intermediate states", -1)),
        "dead_ends": int(fields.get("dead ends", -1)),
        "stop": stop,
        "time_s": float(fields.get("time", "nan").rstrip("s")),
        "written": written,
    }


def source_digest():
    """sha256 over the sources the binary is built from (a revision for
    checkouts without git metadata)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith((".rs", ".toml", ".lock", ".py"))]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable (not a git checkout)"


class Bench:
    def __init__(self, args, workdir, runner, gentrius, harness):
        self.args = args
        self.workdir = workdir
        self.runner = runner
        self.gentrius = gentrius
        self.harness = harness
        self.spec = WORKLOADS[args.workload]
        cores = len(os.sched_getaffinity(0))
        self.cores = cores
        self.threads = cores if self.spec["parallel"] else 1
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.inputs = []
        self.absent = []

    # -- bookkeeping -----------------------------------------------------
    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            log(f"check failed: {what}")
        return ok

    def harness_json(self, *argv):
        r = self.runner.run([self.harness, *argv])
        if r["code"] != 0:
            raise BenchError(f"harness {argv[0]} failed: {r['err'].strip()}")
        return last_json(r["out"])

    def rel(self, path):
        return os.path.relpath(path, ROOT)

    # -- set-up -----------------------------------------------------------
    def generate(self):
        for name, max_trees, max_states in self.spec["inputs"]:
            path = os.path.join(self.workdir, f"{name}.nwk")
            self.harness_json("gen", "--instance", name, "--seed", str(self.args.seed), "--out", path)
            inp = {"name": name, "path": path, "max_trees": max_trees, "max_states": max_states}
            if not self.capped_parallel(inp):
                inp["expect"] = PINNED[name]
            self.inputs.append(inp)
        # The engine settings of the binary's parallel runs and the round
        # trip's checkpoint cadence, from the code itself.
        self.params = self.harness_json("params", "--threads", str(self.threads))

    def capped_parallel(self, inp):
        """Parallel runs stopped by a count limit have schedule-dependent
        counters; they are checked by stop cause and overshoot bound."""
        return self.threads > 1 and (inp["max_trees"], inp["max_states"]) != (MAX_TREES, MAX_STATES)

    def stand_cmd(self, inp, max_states=None, threads=None, extra=()):
        return [
            self.gentrius, "stand", "--trees", self.rel(inp["path"]),
            "--threads", str(threads or self.threads),
            "--max-trees", str(inp["max_trees"]),
            "--max-states", str(max_states if max_states is not None else inp["max_states"]),
            *extra,
        ]

    def digest_oracle(self, inp, max_trees):
        o = self.harness_json("oracle", "--trees", inp["path"], "--max-trees", str(max_trees),
                              "--max-states", str(inp["max_states"]), "--collect", "1")
        return o["lines"], o["digest"]

    def prepare_readback(self):
        """Count-only workloads read back a container of the first
        READBACK_TREES stand trees of their first input, written once here
        by the binary (serial, so the tree set is the oracle's)."""
        inp = self.inputs[0]
        self.readback = os.path.join(self.workdir, "readback.stand")
        cmd = [self.gentrius, "stand", "--trees", self.rel(inp["path"]), "--max-trees", str(READBACK_TREES),
               "--max-states", str(inp["max_states"]), "--output", self.rel(self.readback)]
        r = self.runner.run(cmd)
        if r["code"] != 0:
            raise BenchError("read-back container write failed: " + r["out"] + r["err"])
        self.readback_expect = self.digest_oracle(inp, READBACK_TREES)

    def setup_time(self):
        """Median over SETUP_REPS of the summed wall of 1-state-budget runs.
        They run serially: set-up is process start, parse, problem build,
        initial tree and root check; starting worker threads is part of the
        enumeration."""
        sums = []
        for _ in range(SETUP_REPS):
            total = 0.0
            for inp in self.inputs:
                r = self.runner.run(self.stand_cmd(inp, max_states=1, threads=1), measure=True)
                self.check(r["code"] == 0 and "status: " in r["out"], f"{inp['name']}: 1-state run")
                total += r["wall"]
            sums.append(total)
        return statistics.median(sums)

    # -- checks -------------------------------------------------------------
    def check_counts(self, inp, got, what):
        if "expect" in inp:
            exp = inp["expect"]
            ok = (got["trees"], got["states"], got["dead_ends"], got["stop"]) == tuple(exp)
            return self.check(ok, f"{what} {inp['name']}: got {got['trees']}/{got['states']}/{got['dead_ends']}/{got['stop']}, want {'/'.join(map(str, exp))}")
        # The engine's documented count-limit overshoot: one counter-flush
        # batch plus one stop-poll stride per context (the workers and the
        # serial prefix).
        if inp["max_trees"] != MAX_TREES:
            stop, count, cap, batch = "tree-limit", got["trees"], inp["max_trees"], self.params["flush_trees"]
        else:
            stop, count, cap, batch = "state-limit", got["states"], inp["max_states"], self.params["flush_states"]
        bound = cap + (batch + self.params["stop_poll_stride"]) * (self.threads + 1)
        ok = got["stop"] == stop and cap <= count <= bound
        return self.check(ok, f"{what} {inp['name']}: stop {got['stop']} at {count}, want {stop} within [{cap}, {bound}]")

    def cat(self, container, expect):
        out_path = os.path.join(self.workdir, "cat.txt")
        r = self.runner.run([self.gentrius, "stand", "cat", self.rel(container)], stdout_path=out_path, measure=True)
        ok = r["code"] == 0
        if ok:
            d = self.harness_json("digest", out_path)
            ok = (d["lines"], d["digest"]) == tuple(expect)
        self.check(ok, f"stand cat {os.path.basename(container)}: digest mismatch or error")
        os.remove(out_path)
        return r["wall"], expect[0]

    # -- passes -------------------------------------------------------------
    def count_pass(self):
        p = {"wall": 0.0, "enum_s": 0.0, "events": 0, "trees": 0, "rss": 0.0, "states": 0, "dead_ends": 0}
        for inp in self.inputs:
            r = self.runner.run(self.stand_cmd(inp), measure=True)
            got = parse_stand(r["out"]) if r["code"] == 0 else None
            if got is None:
                self.check(False, f"{inp['name']}: exit {r['code']}: {r['out'][-300:]}")
                continue
            self.check_counts(inp, got, "count")
            p["wall"] += r["wall"]
            p["enum_s"] += got["time_s"]
            p["events"] += got["trees"] + got["states"]
            p["trees"] += got["trees"]
            p["states"] += got["states"]
            p["dead_ends"] += got["dead_ends"]
            p["rss"] = max(p["rss"], r["rss_mb"])
        p["read_rates"] = []
        for _ in range(READBACK_READS):
            read_wall, read_trees = self.cat(self.readback, self.readback_expect)
            p["read_rates"].append(read_trees / read_wall)
        p["property"] = ("dead_end_share", p["dead_ends"] / max(p["states"], 1))
        return p

    def roundtrip_pass(self):
        inp = self.inputs[0]
        out = os.path.join(self.workdir, "roundtrip.stand")
        r = self.runner.run(self.stand_cmd(inp, extra=("--output", self.rel(out), "--checkpoint-every", str(self.params["checkpoint_every_s"]))), measure=True)
        p = {"wall": r["wall"], "enum_s": 0.0, "events": 0, "trees": 0, "rss": r["rss_mb"]}
        if r["code"] != 0:
            self.check(False, f"roundtrip write: exit {r['code']}: {r['out'][-300:]}")
            return None
        got = parse_stand(r["out"])
        self.check_counts(inp, got, "roundtrip write")
        self.check(got["written"] == got["trees"], f"roundtrip write: wrote {got['written']} of {got['trees']} trees")
        p["enum_s"] = got["time_s"]
        p["events"] = got["trees"] + got["states"]
        p["trees"] = got["trees"]
        p["write_wall"] = r["wall"]
        read_wall, read_trees = self.cat(out, self.roundtrip_expect)
        os.remove(out)
        p["wall"] += read_wall
        p["read_wall"] = read_wall
        p["read_rates"] = [read_trees / read_wall]
        # Defining property: the count-only share of the write wall.
        c = self.runner.run(self.stand_cmd(inp), measure=True)
        if self.check(c["code"] == 0, "roundtrip count-only probe"):
            self.check_counts(inp, parse_stand(c["out"]), "roundtrip count-only probe")
        p["property"] = ("count_only_share_of_write", c["wall"] / r["wall"])
        return p

    def one_pass(self):
        return self.roundtrip_pass() if self.spec.get("roundtrip") else self.count_pass()

    def measure(self):
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            p = self.one_pass()
            if p is None:
                break
            passes.append(p)
            name, value = p["property"]
            log(f"pass {len(passes)}: wall_s={p['wall']:.4f} events={p['events']} {name}={value:.4f} ({time.perf_counter() - t0:.2f}s)")
            elapsed = time.perf_counter() - start
            per_pass = elapsed / len(passes)
            # Stop where the run ends closest to --seconds.
            if len(passes) >= MIN_PASSES and elapsed + per_pass / 2 > self.args.seconds:
                break
        return passes

    # -- traced run ----------------------------------------------------------
    def traced(self, passes):
        argv = ["trace", "--workload", self.args.workload, "--workdir", self.rel(self.workdir), "--threads", str(self.threads)]
        for inp in self.inputs:
            # Relative to the repository root, the harness's working
            # directory, so a ':' in the checkout path cannot split the spec.
            argv += ["--input", f"{inp['name']}:{self.rel(inp['path'])}:{inp['max_trees']}:{inp['max_states']}"]
        t = self.harness_json(*argv)
        # Same inputs on both legs: the in-process counters must equal the
        # binary's (and the pinned or oracle values) per input.
        by_name = {inp["name"]: inp for inp in self.inputs}
        for c in t["counts"]:
            inp = by_name[c["name"]]
            got = {k: c[k] for k in ("trees", "states", "dead_ends", "stop")}
            serial_leg = c["leg"].startswith("kernel")
            if serial_leg and "expect" not in inp:
                # A capped parallel input: its serial counters stop exactly
                # at the cap.
                ok = got["trees"] == inp["max_trees"] or got["states"] == inp["max_states"]
                self.check(ok and got["stop"] != "complete", f"trace {c['leg']} {inp['name']}: {got}")
            else:
                self.check_counts(inp, got, f"trace {c['leg']}")
        if self.spec.get("roundtrip"):
            self.check((t["roundtrip_lines"], t["roundtrip_digest"]) == tuple(self.roundtrip_expect),
                       "trace round trip: digest mismatch")
        m = t["metrics"]
        binary_wall = statistics.median(p["write_wall"] + p["read_wall"] if "write_wall" in p else p["wall"] for p in passes)
        m["trace.overhead_ratio"] = m["trace.pass_wall_s"] / binary_wall
        spans = os.path.join(ROOT, ".bench_work", f"spans-{self.args.workload}.json")
        shutil.copy(os.path.join(ROOT, t["spans"]), spans)
        log(f"traced pass: spans in {self.rel(spans)}; layer self time (s): {json.dumps(t['layer_self_s'])}")
        findings = []
        if "finding.dead_end_over_lr_event" in m:
            r = m["finding.dead_end_over_lr_event"]
            findings.append(f"dead-end step costs {r:.1f}x a long-runner event: "
                            + ("held (over 10x)" if r > 10 else "did not hold"))
        if "finding.encode_largest" in m:
            findings.append(f"phylo2vec encode is {m['finding.encode_share']:.0%} of round-trip layer self time: "
                            + ("held (largest layer)" if m["finding.encode_largest"] else "did not hold"))
            log(f"round-trip pipeline (thread-seconds): {json.dumps(t['roundtrip_pipeline_s'])}")
        if "mapping.recompute_over_edge_indexed" in m:
            findings.append(f"paper SV check: Recompute kernel {m['mapping.recompute_kernel_s']:.3f}s vs "
                            f"EdgeIndexed {m['explore.kernel_self_s']:.3f}s "
                            f"({m['mapping.recompute_over_edge_indexed']:.2f}x)")
        for f in findings:
            print(f"finding: {f}")
        # The result must carry every per-layer metric. A metric whose layer
        # does not run on this workload (or a mean over no events) is not
        # measured: it is 0 in the result and named on the `absent:` line.
        self.absent = [name for name, _, _ in PER_LAYER if name not in m]
        return {name: {"value": float(m.get(name, 0.0)), "unit": unit} for name, unit, _ in PER_LAYER}

    def run(self):
        self.generate()
        if self.spec.get("roundtrip"):
            self.roundtrip_expect = self.digest_oracle(self.inputs[0], self.inputs[0]["max_trees"])
        else:
            self.prepare_readback()
        # The traced run needs one untraced pass (counters and the overhead
        # base), not the timed loop.
        setup_s = None if self.args.trace else self.setup_time()
        passes = [p for p in [self.one_pass()] if p] if self.args.trace else self.measure()
        if not passes:
            raise BenchError("no pass completed")
        med = lambda f: statistics.median(f(p) for p in passes)
        end_to_end = {
            "wall_s": med(lambda p: p["wall"]),
            "events_per_s": med(lambda p: p["events"] / p["enum_s"]),
            "stand_trees_per_s": med(lambda p: p["trees"] / (p.get("write_wall") or p["wall"])),
            "read_trees_per_s": statistics.median(r for p in passes for r in p["read_rates"]),
            "peak_rss_mb": med(lambda p: p["rss"]),
            "setup_s": setup_s,
        }
        prop_name = passes[0]["property"][0]
        provenance = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "instances": [i["name"] for i in self.inputs],
            "cores": self.cores,
            "threads": self.threads,
            "build_profile": "release",
            "rustc": subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip(),
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
            "checkpoint_every_s": self.params["checkpoint_every_s"] if self.spec.get("roundtrip") else None,
            "passes": len(passes),
            prop_name: [round(p["property"][1], 4) for p in passes],
        }
        print("provenance: " + json.dumps(provenance))
        if self.args.trace:
            metrics = self.traced(passes)
        else:
            units = dict(END_TO_END)
            metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
        moves = {name: what for name, _, what in PER_LAYER}
        for name, m in metrics.items():
            if name in self.absent:
                print(f"{name}: not measured on this workload (0 in the result)")
                continue
            note = f"  (should move: {moves[name]})" if name in moves else ""
            print(f"{name}: {m['value']:.6g} {m['unit']}{note}")
        if self.args.trace:
            print("absent: " + json.dumps(self.absent))
        print(f"fail_ratio: {self.failed / max(self.attempted, 1):.6g} ({self.failed} of {self.attempted} checks failed)")
        return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="taxon-label seed (0 = generator labels)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "crates", "cli")):
        log("error: the gentrius sources (Cargo.toml, crates/) are not next to perfbench/; run from a full checkout")
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.join(ROOT, target_dir) if not os.path.isabs(target_dir) else target_dir
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workdir)
    try:
        gentrius, harness = build(target_dir)
        runner.launcher = harness
        bench = Bench(args, workdir, runner, gentrius, harness)
        metrics = bench.run()
        for f in bench.failures:
            log(f"failed: {f}")
        result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
