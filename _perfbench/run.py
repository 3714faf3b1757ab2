#!/usr/bin/env python3
"""End-to-end benchmark of alexander_cli / alexander_serve.

Usage, from the root of a checkout of the repository:

    python3 _perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Builds the binaries from the checkout's sources into `.bench_build/`,
generates the workload's inputs from `--seed`, runs the workload against
the binaries for `--seconds` seconds, checks every answer against an
oracle that does not use the engine, and prints one JSON object as the
last line of standard output.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it also builds `_perfbench/trace`,
drives the same inputs through each layer in-process and reports the
per-layer metrics.  See `_perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import gen  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
CLI = os.path.join(WS, "_build", "default", "bin", "alexander_cli.exe")
SERVE = os.path.join(WS, "_build", "default", "bin", "alexander_serve.exe")
TRACE = os.path.join(WS, "_build", "default", "trace", "trace.exe")

SIZES = {
    "closure": {"chain": 400},
    "bound_batch": {"nodes": 10000, "edges": 9000, "queries": 40},
    "checkpoint_resume": {"chain": 140, "max_iterations": 70},
    "service_mix": {"nodes": 10000, "path": 5, "requests": 100},
}
# Traced runs load every layer on every workload; the workloads without
# a request stream or a checkpoint of their own get these smaller ones.
PROBE_REQUESTS = 40
PROBE_CAP = 25
SETUP_SAMPLES = 5
PROC_TIMEOUT = 120


class BenchError(Exception):
    """A benchmark failure (not a wrong answer): no result is printed."""


# ---- build -------------------------------------------------------------

def digest(*tops):
    """SHA-256 over the named files and directory trees of the checkout."""
    h = hashlib.sha256()
    for top in tops:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".ml", ".mli", ".py", "dune", "dune-project")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def build(with_trace):
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} under {ROOT}: not a checkout of the "
                             "repository")
    os.makedirs(WS, exist_ok=True)
    for d in ("lib", "bin", "trace"):
        shutil.rmtree(os.path.join(WS, d), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "lib"), os.path.join(WS, "lib"))
    shutil.copytree(os.path.join(ROOT, "bin"), os.path.join(WS, "bin"))
    for f in ("dune-project", "dune"):
        if os.path.exists(os.path.join(ROOT, f)):
            shutil.copy2(os.path.join(ROOT, f), os.path.join(WS, f))
    targets = ["./bin/alexander_cli.exe", "./bin/alexander_serve.exe"]
    if with_trace:
        shutil.copytree(os.path.join(HERE, "trace"), os.path.join(WS, "trace"))
        targets.append("./trace/trace.exe")
    env = dict(os.environ, DUNE_CACHE="disabled")
    out = subprocess.run(["dune", "build", "--root", WS, "--profile",
                          "release"] + targets, capture_output=True,
                         text=True, env=env, timeout=850)
    if out.returncode != 0:
        raise BenchError("build failed:\n" + out.stdout + out.stderr)


# ---- processes ---------------------------------------------------------

def run_proc(args, out_path):
    """Run to completion with stdout to a file; returns (wall seconds,
    exit code, peak RSS in MB).  The peak is the child's ru_maxrss, the
    VmHWM its /proc status shows just before it exits."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdout=out, stderr=err)
        timer = threading.Timer(PROC_TIMEOUT, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss / 1024.0


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


class Server:
    """A fresh alexander_serve in its own directory; the socket path is
    relative to keep it under the Unix socket path limit."""

    def __init__(self, program, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        shutil.copy(program, os.path.join(workdir, "program.dl"))
        self.sock_path = os.path.relpath(os.path.join(workdir, "s.sock"))
        t0 = time.perf_counter()
        self.err = open(os.path.join(workdir, "server.err"), "wb")
        self.proc = subprocess.Popen(
            [SERVE, "program.dl", "--socket", "s.sock", "--snapshot",
             "state.snap", "--fsync", "always", "--quiet"],
            cwd=workdir, stdout=subprocess.DEVNULL, stderr=self.err)
        deadline = t0 + 60
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                break
            except OSError:
                s.close()
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.close()
                    raise BenchError("server did not start")
                time.sleep(0.001)
        self.sock = s
        self.io = s.makefile("rwb")
        if self.request('{"op": "ping"}').get("status") != "ok":
            self.close()
            raise BenchError("server did not answer ping")
        self.setup_s = time.perf_counter() - t0

    def request(self, line):
        self.io.write(line.encode() + b"\n")
        self.io.flush()
        reply = self.io.readline()
        if not reply:
            raise BenchError("server closed the connection")
        return json.loads(reply)

    def close(self):
        """Shut down, wait, and return the exit code (killing on timeout)."""
        try:
            if hasattr(self, "io"):
                self.request('{"op": "shutdown"}')
                self.io.close()
                self.sock.close()
        except (OSError, BenchError, ValueError):
            pass
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.err.close()
        return code


# ---- workloads ---------------------------------------------------------

def percentile(xs, q):
    s = sorted(xs)
    if not s:
        raise BenchError("no latency samples")
    if len(s) == 1:
        return s[0]
    return statistics.quantiles(s, n=100, method="inclusive")[q - 1]


class Workload:
    """One generated workload.  `rep()` runs the workload's command(s)
    once and returns a dict with `wall`, `rss`, `ops`, `attempted`,
    `failed` and `counts` (deterministic figures)."""

    strategy = "seminaive"

    def __init__(self, name, seed, tmp):
        self.name, self.seed, self.tmp = name, seed, tmp
        self.sizes = dict(SIZES[name])
        self.program = os.path.join(tmp, "program.dl")
        self.verified = {}

    def cli(self, *args):
        return [CLI, "run", self.program] + list(args)

    def setup_sample(self):
        wall, code, _ = run_proc(self.cli("-q", self.edb_goal),
                                 os.path.join(self.tmp, "setup.out"))
        if code != 0:
            raise BenchError(f"setup lookup exited {code}")
        return wall

    def check_output(self, path, expected):
        """Compare a CLI output file with {goal: set of pairs}; outputs
        already verified are recognised by digest.  Returns the number of
        goals whose answers are wrong, and the digest (the output must
        repeat byte for byte)."""
        with open(path, "rb") as fh:
            data = fh.read()
        key = hashlib.sha256(data).hexdigest()
        if key not in self.verified:
            got, _ = gen.cli_answers(data.decode())
            self.verified[key] = sum(
                1 for g, want in expected.items() if got.get(g) != want)
        return self.verified[key], key

    # the traced run's probes: one checkpoint/resume and one request
    # stream on this workload's own data
    def probe_goal(self):
        return "anc(X, Y)", ["-s", "seminaive"]


class Closure(Workload):
    def __init__(self, name, seed, tmp):
        super().__init__(name, seed, tmp)
        r = gen.rng(name, seed)
        self.labels, self.edges = gen.chain(r, self.sizes["chain"])
        self.nodes = self.labels
        with open(self.program, "w") as fh:
            fh.write(gen.program_text(self.edges))
        self.edb_goal = f"par({self.labels[0]}, X)"
        self.expected = {"anc(X, Y)": gen.chain_closure(self.labels)}
        self.sizes["answers"] = len(self.expected["anc(X, Y)"])

    def probe_expected(self, goal):
        return self.expected[goal]

    def rep(self):
        out = os.path.join(self.tmp, "run.out")
        wall, code, rss = run_proc(
            self.cli("-s", "seminaive", "-q", "anc(X, Y)"), out)
        bad, key = self.check_output(out, self.expected)
        return {"wall": wall, "rss": rss, "ops": 1, "attempted": 1,
                "failed": int(code != 0 or bad > 0),
                "counts": {"exit": code, "output_sha256": key}}


class BoundBatch(Workload):
    strategy = "alexander"

    def __init__(self, name, seed, tmp):
        super().__init__(name, seed, tmp)
        r = gen.rng(name, seed)
        s = self.sizes
        self.edges = gen.digraph(r, s["nodes"], s["edges"])
        self.nodes = list(range(1, s["nodes"] + 1))
        self.queries = r.sample(self.nodes, s["queries"])
        with open(self.program, "w") as fh:
            fh.write(gen.program_text(self.edges, self.queries))
        adj = gen.adjacency(self.edges)
        self.expected = {f"anc({k}, X)": {(k, v) for v in gen.reach(adj, k)}
                         for k in self.queries}
        self.edb_goal = f"par({self.edges[0][0]}, X)"
        s["answers"] = sum(len(v) for v in self.expected.values())

    def probe_goal(self):
        return f"anc({self.queries[0]}, X)", []

    def probe_expected(self, goal):
        return self.expected[goal]

    def rep(self):
        out = os.path.join(self.tmp, "run.out")
        wall, code, rss = run_proc(self.cli(), out)
        n = len(self.queries)
        bad, key = self.check_output(out, self.expected)
        return {"wall": wall, "rss": rss, "ops": n, "attempted": n,
                "failed": n if code != 0 else bad,
                "counts": {"exit": code, "output_sha256": key}}


class CheckpointResume(Closure):
    def rep(self):
        ck = os.path.join(self.tmp, "run.ckpt")
        if os.path.exists(ck):
            os.remove(ck)
        base = self.cli("-s", "seminaive", "-q", "anc(X, Y)", "--checkpoint",
                        ck)
        out1 = os.path.join(self.tmp, "interrupted.out")
        cap = str(self.sizes["max_iterations"])
        w1, c1, r1 = run_proc(base + ["--checkpoint-every", "1",
                                      "--max-iterations", cap], out1)
        with open(out1) as fh:
            partial, notes = gen.cli_answers(fh.read())
        partial = partial.get("anc(X, Y)", set())
        ok1 = (c1 == 5 and partial <= self.expected["anc(X, Y)"]
               and any("incomplete" in n for n in notes))
        out2 = os.path.join(self.tmp, "resumed.out")
        w2, c2, r2 = run_proc(base + ["--resume", ck], out2)
        bad, key = self.check_output(out2, self.expected)
        return {"wall": w1 + w2, "rss": max(r1, r2), "ops": 1, "attempted": 2,
                "failed": (not ok1) + (c2 != 0 or bad > 0), "resume": w2,
                "counts": {"exits": [c1, c2], "partial_answers": len(partial),
                           "checkpoint_bytes": os.path.getsize(ck),
                           "output_sha256": key}}


class ServiceMix(Workload):
    strategy = "saturated"

    def __init__(self, name, seed, tmp):
        super().__init__(name, seed, tmp)
        r = gen.rng(name, seed)
        s = self.sizes
        self.edges = gen.path_forest(r, s["nodes"], s["path"])
        self.nodes = list(range(1, s["nodes"] + 1))
        with open(self.program, "w") as fh:
            fh.write(gen.program_text(self.edges))
        self.stream = gen.request_stream(r, self.nodes, self.edges,
                                         s["requests"])
        s["edges"] = len(self.edges)
        adj = gen.adjacency(self.edges)
        s["saturated_facts"] = sum(len(gen.reach(adj, k)) for k in self.nodes)

    def probe_expected(self, goal):
        adj = gen.adjacency(self.edges)
        return {(k, v) for k in self.nodes for v in gen.reach(adj, k)}

    def setup_sample(self):
        server = Server(self.program, os.path.join(self.tmp, "setup-server"))
        setup = server.setup_s
        if server.close() != 0:
            raise BenchError("server exited abnormally")
        return setup

    def rep(self):
        return drive(self.program, self.stream,
                     os.path.join(self.tmp, "server"))


def drive(program, stream, workdir):
    """A fresh server on `program`, the request stream sent in a closed
    loop from one client, each reply checked against the model."""
    server = Server(program, workdir)
    lat = {"query": [], "add": [], "remove": []}
    replies = []
    try:
        t0 = time.perf_counter()
        for line, kind, _ in stream:
            a = time.perf_counter()
            replies.append(server.request(line))
            lat[kind].append(time.perf_counter() - a)
        wall = time.perf_counter() - t0
        stats = server.request('{"op": "stats"}')
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        code = server.close()
    # checked after the loop, so the client has no think time
    failed = int(code != 0)
    for (line, kind, expected), reply in zip(stream, replies):
        if reply.get("status") != "ok":
            failed += 1
        elif kind == "query":
            k = json.loads(line)["goal"]
            k = int(k[4:k.index(",")])
            got = {gen.parse_pair(x) for x in reply.get("answers", [])}
            if got != {(k, v) for v in expected}:
                failed += 1
    cache, wal = stats.get("cache", {}), stats.get("wal", {})
    return {"wall": wall, "rss": rss, "ops": len(stream),
            "attempted": len(stream), "failed": failed,
            "setup": server.setup_s, "latency": lat,
            "counts": {"txn": stats.get("txn"), "facts": stats.get("facts"),
                       "cache_hits": cache.get("hits", 0)
                       + cache.get("subsumed_hits", 0),
                       "cache_misses": cache.get("misses"),
                       "cache_invalidations": cache.get("invalidations"),
                       "wal_appends": wal.get("appends"),
                       "wal_bytes": wal.get("bytes")}}


WORKLOADS = {
    "closure": Closure,
    "bound_batch": BoundBatch,
    "checkpoint_resume": CheckpointResume,
    "service_mix": ServiceMix,
}


# ---- measurement -------------------------------------------------------

def measure(w, seconds, min_reps=3):
    """Repetitions for `seconds`, each with a set-up sample of its own (the
    server's launch, on `service_mix`), so the set-up samples see the same
    machine as the repetitions."""
    setups = [w.setup_sample() for _ in range(SETUP_SAMPLES)]
    reps = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        rep = w.rep()
        reps.append(rep)
        setups.append(rep["setup"] if "setup" in rep else w.setup_sample())
    counts = reps[0]["counts"]
    if any(r["counts"] != counts for r in reps):
        raise BenchError("deterministic counts drifted between repetitions: "
                         + json.dumps([r["counts"] for r in reps]))
    return setups, reps


def end_to_end(setups, reps):
    """Times are the fastest repetition: other load on the machine only
    ever slows a repetition down, by up to ~80% on a shared 2-core VM,
    and the best of a few dozen repetitions repeats far better than their
    median.  The median is printed on the configuration line."""
    walls = [r["wall"] for r in reps]
    best = min(range(len(reps)), key=lambda i: walls[i])
    return {
        "wall_s": (walls[best], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss"] for r in reps), "MB"),
        "ops_per_s": (reps[best]["ops"] / walls[best], "1/s"),
    }


def latency_metrics(lat):
    ms = {k: [x * 1000.0 for x in v] for k, v in lat.items()}
    mutations = ms["add"] + ms["remove"]
    return {
        "query_p50_ms": (percentile(ms["query"], 50), "ms"),
        "query_p99_ms": (percentile(ms["query"], 99), "ms"),
        "mutation_p50_ms": (percentile(mutations, 50), "ms"),
        "mutation_p90_ms": (percentile(mutations, 90), "ms"),
    }


def check_record(key, counts):
    """Deterministic figures of one seed must repeat across runs of the
    same sources: the first run records them, later runs compare."""
    path = os.path.join(BUILD, "records", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    counts = json.loads(json.dumps(counts, sort_keys=True))
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        if before != counts:
            raise BenchError(f"deterministic counts drifted from an earlier "
                             f"run of this seed: {before} != {counts}")
    else:
        with open(path + ".tmp", "w") as fh:
            json.dump(counts, fh, sort_keys=True)
        os.replace(path + ".tmp", path)


def checkpoint_probe(w):
    """The workload's probe goal run with an every-round checkpoint under
    a round cap, then resumed; returns (resume seconds, failed ops)."""
    goal, flags = w.probe_goal()
    ck = os.path.join(w.tmp, "probe.ckpt")
    if os.path.exists(ck):
        os.remove(ck)
    base = w.cli("-q", goal, *flags)
    _, c1, _ = run_proc(base + ["--checkpoint", ck, "--checkpoint-every", "1",
                                "--max-iterations", str(PROBE_CAP)],
                        os.path.join(w.tmp, "probe1.out"))
    out = os.path.join(w.tmp, "probe2.out")
    resume, c2, _ = run_proc(base + ["--resume", ck], out)
    bad, _ = w.check_output(out, {goal: w.probe_expected(goal)})
    return resume, int(c1 not in (0, 5) or c2 != 0 or bad > 0)


def traced(w, seconds, wall_s):
    """The per-layer run: probes for the layers the workload does not
    load itself, then the in-process harness."""
    per = {}
    failed = 0
    attempted = 0
    if isinstance(w, CheckpointResume):
        rep = w.rep()
        per["resume_s"] = (rep["resume"], "s")
        failed += rep["failed"]
        attempted += rep["attempted"]
        cap = w.sizes["max_iterations"]
    else:
        resume, bad = checkpoint_probe(w)
        per["resume_s"] = (resume, "s")
        failed += bad
        attempted += 2
        cap = PROBE_CAP
    if isinstance(w, ServiceMix):
        stream = w.stream
    else:
        stream = gen.request_stream(gen.rng(w.name, w.seed, "probe"),
                                    w.nodes, w.edges, PROBE_REQUESTS)
    stream_path = os.path.join(w.tmp, "stream.jsonl")
    with open(stream_path, "w") as fh:
        fh.writelines(line + "\n" for line, _, _ in stream)
    sock = drive(w.program, stream, os.path.join(w.tmp, "probe-server"))
    failed += sock["failed"]
    attempted += sock["attempted"]
    per.update(latency_metrics(sock["latency"]))
    socket_ms = statistics.median(sock["latency"]["query"]) * 1000.0

    goal, _ = w.probe_goal()
    strategy = "alexander" if isinstance(w, BoundBatch) else "seminaive"
    args = [TRACE, "--program", w.program, "--strategy", strategy,
            "--cap", str(cap), "--stream", stream_path, "--dir", w.tmp,
            "--budget", str(seconds)]
    if not isinstance(w, BoundBatch):
        args += ["--query", goal]
    out = os.path.join(w.tmp, "trace.out")
    _, code, _ = run_proc(args, out)
    if code != 0:
        with open(out + ".err") as fh:
            raise BenchError("trace harness failed: " + fh.read())
    with open(out) as fh:
        t = json.loads(fh.read().strip().splitlines()[-1])
    if not t["deterministic"]:
        raise BenchError("engine counts drifted between traced repetitions")
    failed += t["service.failed"]
    attempted += t["service.requests"]
    sock_counts = sock["counts"]
    if (t["cache.hits"], t["cache.misses"], t["wal.appends"], t["wal.bytes"]) \
            != (sock_counts["cache_hits"], sock_counts["cache_misses"],
                sock_counts["wal_appends"], sock_counts["wal_bytes"]):
        raise BenchError("in-process and socket runs of one stream disagree "
                         f"on cache/WAL counts: {t} vs {sock_counts}")

    units = {".s": "s", "_s": "s", "_ms": "ms", "words_per_fact": "words",
             "bytes_per_fact": "bytes", "ratio": "ratio",
             "words": "words", "bytes": "bytes"}
    for name in PER_LAYER:
        if name in per or name not in t:
            continue
        unit = next((u for suf, u in units.items() if name.endswith(suf)),
                    "count")
        per[name] = (t[name], unit)
    per["server.socket_overhead_ms"] = (socket_ms - t["supervisor.query_median_ms"],
                                        "ms")
    per["trace.overhead_s"] = (t["trace.total_s"] - wall_s, "s")
    per["trace.coverage"] = (t["trace.layers_sum_s"] / t["trace.pipeline_s"],
                             "ratio")
    per["failure_ratio"] = (failed / max(1, attempted), "ratio")
    deterministic = {k: v for k, v in t.items() if isinstance(v, int)
                     and not isinstance(v, bool) and not k.startswith("gc.")
                     and k != "trace.repetitions"}
    return per, attempted, failed, deterministic


PER_LAYER = [
    "parser.s", "analysis.s", "rewrite.s", "rewrite.rules",
    "plan.compile_s", "plan.plans",
    "storage.load_s", "storage.replay_insert_s",
    "storage.replay_minor_words_per_fact",
    "engine.eval_s", "engine.minor_words_per_fact", "gc.top_heap_words",
    "gc.major_collections", "engine.facts_derived", "engine.iterations",
    "engine.firings", "engine.probes", "engine.scanned",
    "answer.s", "render.s", "render.bytes",
    "checkpoint.saves", "checkpoint.bytes", "checkpoint.overhead_s",
    "checkpoint.load_s", "snapshot.save_s",
    "protocol.parse_s", "protocol.render_s",
    "supervisor.query_s", "supervisor.add_s", "supervisor.remove_s",
    "server.socket_overhead_ms",
    "incremental.add_s", "incremental.remove_s",
    "incremental.tuples_changed",
    "wal.append_s", "wal.sync_s", "wal.bytes_per_fact",
    "cache.hit_ratio", "cache.invalidations",
    "resume_s", "query_p50_ms", "query_p99_ms", "mutation_p50_ms",
    "mutation_p90_ms", "failure_ratio",
    "trace.total_s", "trace.overhead_s", "trace.coverage",
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build(with_trace=a.trace == 1)
    sources = digest("dune-project", "dune", "lib", "bin")
    # deterministic counts are recorded per sources, benchmark and seed
    key = "-".join([a.workload, str(a.seed), sources[:16],
                    digest(os.path.basename(HERE))[:16]])
    tmp = os.path.join(BUILD, "runs", f"{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        w = WORKLOADS[a.workload](a.workload, a.seed, tmp)
        budget = a.seconds if a.trace == 0 else a.seconds * 0.3
        setups, reps = measure(w, budget, min_reps=3 if a.trace == 0 else 2)
        e2e = end_to_end(setups, reps)
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        extra = {}
        if isinstance(w, CheckpointResume):
            extra["resume_s"] = (statistics.median(r["resume"] for r in reps),
                                 "s")
        if isinstance(w, ServiceMix):
            lat = {k: [x for r in reps for x in r["latency"][k]]
                   for k in ("query", "add", "remove")}
            extra.update(latency_metrics(lat))
        check_record(key + "-e2e", reps[0]["counts"])
        if a.trace == 1:
            metrics, t_att, t_failed, counts = traced(
                w, a.seconds * 0.4, e2e["wall_s"][0])
            attempted += t_att
            failed += t_failed
            check_record(key + "-trace", counts)
        else:
            metrics = e2e
        extra["failure_ratio"] = (failed / attempted, "ratio")
        config = {
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "trace": a.trace, "sizes": w.sizes, "strategy": w.strategy,
            "fsync": "always", "domains": 1, "nproc": os.cpu_count(),
            "commit": git_commit(), "source_sha256": sources,
            "repetitions": len(reps), "setup_samples": len(setups),
        }
        extra["wall_median_s"] = (
            statistics.median(r["wall"] for r in reps), "s")
        report = {name: {"value": v, "unit": u}
                  for name, (v, u) in {**e2e, **extra}.items()}
        print(json.dumps({"config": config, "end_to_end": report}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u}
                        for name, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
