#!/usr/bin/env python3
"""Served end-to-end benchmark for tgks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One run:

  1. builds tgks_cli, tgks_gen and the benchmark's two helpers from the
     checked-out sources (perfbench/CMakeLists.txt, into .bench_build/);
  2. generates the workload's graph with tgks_gen and checks its digest
     against README.md, then draws the requests from --seed;
  3. starts `tgks_cli --serve` on the .tgf file and times set-up until the
     first 200 from /healthz;
  4. drives the workload closed-loop over loopback HTTP from one client
     process (perfbench_client);
  5. checks every distinct response with perfbench/checker.py;
  6. stops the server;
  7. prints one JSON line: correct, attempted, failed and the metrics.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same served
workload and then replays it in-process (perfbench_trace), recording spans
around each layer's public functions, and prints the per-layer metrics.

Other entry points:
    python3 perfbench/run.py --print-digests    digests of the generated graphs
    python3 perfbench/checker.py                the checker's self-test
"""

import argparse
import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of build output

import checker  # noqa: E402
import layers  # noqa: E402
import tgf  # noqa: E402
import workloads  # noqa: E402

SERVER_THREADS = 2  # search workers, where a workload does not set its own

GRAPHS = {
    "dblp": ["dblp", "--papers", "8000", "--authors", "3000", "--venues", "60",
             "--seed", "42"],
    "social": ["social", "--nodes", "15000", "--seed", "7"],
}

WORKLOADS = {
    # One connection and one worker: a handful of ~1 s queries carry half of
    # dblp-search's time, and a second connection or worker made the figures
    # hang on how those overlapped and which worker's scratch pool grew.
    "dblp-search": {"graph": "dblp", "server": [], "readers": 1, "threads": 1},
    "social-hot": {"graph": "social", "server": ["--cache"], "readers": 2},
    # Background compaction is pushed past the run: a byte trigger far
    # above anything a run ingests and the age trigger off.
    "social-live": {"graph": "social", "readers": 1,
                    "server": ["--live", "--compact-bytes", str(1 << 50),
                               "--compact-age-ms", "0"]},
}

RUN_TIMEOUT_S = 170

# Peak memory is the server's VmHWM once this many timed rounds have been
# handed out. The social-live graph grows with every round and the dblp
# search pools grow over rounds too, so a reading at the end of the run
# would follow the number of rounds, that is the speed: a faster program
# would read as a memory regression.
RSS_ROUNDS = 4

_children = []


class Abort(Exception):
    pass


def _on_signal(signum, _frame):
    raise Abort("signal %d" % signum)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def binary(name):
    sub = "" if name.startswith("perfbench_") else os.path.join("tgks", "examples")
    return os.path.join(BUILD, sub, name)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise Abort("no tgks sources at %s (CMakeLists.txt, src/)" % ROOT)
    os.makedirs(WORK, exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4", "--target", "tgks_cli",
              "tgks_gen", "perfbench_client", "perfbench_trace"]]
    with open(os.path.join(WORK, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                raise Abort("build failed: %s (see .bench_build/build.log)"
                            % " ".join(cmd))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def readme_digests():
    out = {}
    with open(os.path.join(HERE, "README.md")) as f:
        for line in f:
            m = re.match(r"^perfbench-digest (\S+) ([0-9a-f]{64})\s*$", line)
            if m:
                out[m.group(1)] = m.group(2)
    return out


def graph_file(name, check_digest=True):
    """Generates the named graph with the checked-out tgks_gen on every run
    (about 1.6 s for social, before the server starts) and checks its digest,
    so the check always tests the current generator."""
    path = os.path.join(WORK, "inputs", name + ".tgf")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp.tgf"
    with open(os.path.join(WORK, "gen.log"), "w") as out:
        if subprocess.call([binary("tgks_gen")] + GRAPHS[name] + [tmp],
                           stdout=out, stderr=subprocess.STDOUT) != 0:
            raise Abort("tgks_gen %s failed" % name)
    os.replace(tmp, path)
    if check_digest:
        want = readme_digests().get(name + ".tgf")
        got = sha256(path)
        if want != got:
            raise Abort("%s.tgf digest %s differs from README.md (%s): the "
                        "generator changed, so the workload would change; "
                        "see README.md on making the digest anew"
                        % (name, got, want))
    return path


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def split_cpus():
    """(server CPUs, client CPUs): the client gets the last CPU to itself so
    it never takes a core from the server's I/O thread and two workers.
    None when there are too few CPUs to split."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except OSError:
        return None
    if len(cpus) < SERVER_THREADS + 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


CPU_SPLIT = split_cpus()


def start_server(graph_path, threads, flags, log_path):
    """Returns (process, port, set-up seconds to the first 200 /healthz)."""
    cmd = [binary("tgks_cli"), graph_path, "--serve", "--port", "0",
           "--threads", str(threads), "--drain-timeout-ms", "2000"] + flags
    out = open(log_path, "w")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        preexec_fn=((lambda: os.sched_setaffinity(0, CPU_SPLIT[0]))
                    if CPU_SPLIT else None))
    _children.append(proc)
    out.close()
    port = None
    while port is None:
        if proc.poll() is not None:
            raise Abort("server exited with %d (see %s)" % (proc.returncode,
                                                            log_path))
        with open(log_path) as f:
            m = re.search(r"on http://127\.0\.0\.1:(\d+)", f.read())
        if m:
            port = int(m.group(1))
        else:
            time.sleep(0.0005)
    while True:
        try:
            if http_get(port, "/healthz")[0] == 200:
                break
        except OSError:
            pass
        if proc.poll() is not None:
            raise Abort("server exited during start-up")
        time.sleep(0.0005)
    return proc, port, time.perf_counter() - start


def stop(proc):
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc in _children:
        _children.remove(proc)


def peak_rss_mb(summary):
    """VmHWM after RSS_ROUNDS timed rounds, or at the end of a shorter run."""
    hwm = summary["hwm_kb_at_round_start"]
    kb = hwm[RSS_ROUNDS] if len(hwm) > RSS_ROUNDS else summary["hwm_kb_end"]
    if kb <= 0:
        raise Abort("no VmHWM for the server")
    return kb / 1024.0


def write_lines(path, lines):
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


def prepare(name, seed, graph, run_dir):
    """Writes the client's input files; returns what the checks need."""
    rng = workloads.Rng(seed)
    if name == "dblp-search":
        reads = workloads.dblp_population(graph)
        schedule = workloads.round_schedule(rng, len(reads))
    elif name == "social-hot":
        reads = workloads.social_population(
            graph, workloads.SOCIAL_HOT_QUERIES, 1)
        schedule = workloads.zipf_schedule(rng, len(reads))
    else:
        reads = workloads.social_population(
            graph, workloads.SOCIAL_LIVE_QUERIES, 2)
        schedule = workloads.round_schedule(rng, len(reads))
    files = {"reads": os.path.join(run_dir, "reads.jsonl"),
             "schedule": os.path.join(run_dir, "schedule.txt")}
    write_lines(files["reads"], (workloads.dumps(r) for r in reads))
    write_lines(files["schedule"], (" ".join(map(str, r)) for r in schedule))
    writes = []
    if name == "social-hot":
        files["reference"] = os.path.join(run_dir, "reference.jsonl")
        write_lines(files["reference"],
                    (workloads.dumps(dict(r, cache=False)) for r in reads))
    if name == "social-live":
        writes = workloads.live_writes(graph, rng, seed)
        files["writes"] = os.path.join(run_dir, "writes.tsv")
        write_lines(files["writes"],
                    ("%s\t%s" % (w, workloads.dumps(b)) for w, b in writes))
    return reads, writes, files


def run_client(port, server_pid, seconds, files, readers, run_dir):
    prefix = os.path.join(run_dir, "client")
    cmd = [binary("perfbench_client"), "--port", str(port), "--server-pid",
           str(server_pid), "--seconds", str(seconds), "--out", prefix,
           "--reads", files["reads"], "--schedule", files["schedule"],
           "--connections", str(readers)]
    if "reference" in files:
        cmd += ["--reference", files["reference"]]
    if "writes" in files:
        cmd += ["--writes", files["writes"], "--compact-every",
                str(workloads.COMPACT_EVERY)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    _children.append(proc)
    try:
        code = proc.wait(timeout=seconds + 120)
    finally:
        stop(proc)
    if code != 0:
        raise Abort("client exited with %d" % code)
    return load_client_output(prefix)


def load_client_output(prefix):
    ops = []
    with open(prefix + ".ops.tsv") as f:
        for line in f:
            kind, index, rnd, start, lat, status, xcache, gen, body = \
                line.rstrip("\n").split("\t")
            ops.append({"kind": kind, "index": int(index), "round": int(rnd),
                        "start_ns": int(start),
                        "latency_ns": int(lat), "status": int(status),
                        "x_cache": xcache, "generation": gen, "body": int(body)})
    bodies = []
    with open(prefix + ".bodies", "rb") as f:
        while True:
            head = f.readline()
            if not head:
                break
            _, size = head.split()
            bodies.append(f.read(int(size)).decode())
            f.read(1)
    with open(prefix + ".summary.json") as f:
        summary = json.load(f)
    return ops, bodies, summary


class Checks:
    def __init__(self):
        self.errors = []

    def fail(self, msg):
        if len(self.errors) < 20:
            log("CHECK FAILED: " + msg)
        self.errors.append(msg)


def check_run(name, graph, reads, writes, ops, bodies, summary, varz, checks):
    """Checks every distinct response; returns the number of bodies checked."""
    base_nodes, base_edges = graph.num_nodes, graph.num_edges
    limits = None
    if name == "social-live":
        acked = [op for op in ops if op["kind"] == "ingest" and op["status"] == 200]
        acked.sort(key=lambda op: op["index"])
        written = [writes[op["index"]][1] for op in acked]
        for i, op in enumerate(acked):
            if op["index"] != i:
                checks.fail("write %d acknowledged out of order" % op["index"])
                break
        # Generation -> (nodes, edges) visible at it.
        limits, nodes, edges = [], base_nodes, base_edges
        for op, body in zip(acked, written):
            nodes += len(body["nodes"])
            edges += len(body["edges"])
            limits.append((int(json.loads(bodies[op["body"]])["generation"]),
                           nodes, edges))
        checker.apply_writes(graph, written)
        served = json.loads(varz).get("snapshot_nodes")
        if served != graph.num_nodes:
            checks.fail("/varz snapshot_nodes %r != base %d + %d acknowledged "
                        "write nodes" % (served, base_nodes,
                                         graph.num_nodes - base_nodes))
        if summary["writes_acked"] != len(acked):
            checks.fail("client tally %d != %d acknowledged writes"
                        % (summary["writes_acked"], len(acked)))
        probes = [op for op in ops if op["kind"] == "probe"]
        if not probes:
            checks.fail("no write was probed")
        for op in probes:
            node = base_nodes + op["index"]
            doc = json.loads(bodies[op["body"]])
            if op["status"] != 200 or not doc.get("results") or \
                    doc["results"][0]["nodes"] != [node]:
                checks.fail("search for write %d's word did not return node %d"
                            % (op["index"], node))
    chk = checker.Checker(graph)
    seen = set()
    for op in ops:
        if op["kind"] not in ("warmup", "search", "reference") or op["status"] != 200:
            continue
        key = (op["kind"] == "reference", op["index"], op["body"], op["generation"])
        if key in seen:
            continue
        seen.add(key)
        request = reads[op["index"]]
        num_nodes = num_edges = None
        if limits is not None:
            gen = int(op["generation"])
            num_nodes, num_edges = base_nodes, base_edges
            for g, n, e in limits:
                if g > gen:
                    break
                num_nodes, num_edges = n, e
        for err in chk.check(request, bodies[op["body"]], num_nodes, num_edges):
            checks.fail("%s %d: %s" % (name, op["index"], err))
    if name == "social-hot":
        # The workload measures result-cache hits: every timed search must be
        # one, and each hit must be byte-identical to the uncached body.
        reference = {op["index"]: op["body"] for op in ops
                     if op["kind"] == "reference" and op["status"] == 200}
        timed = [op for op in ops if op["kind"] == "search"]
        misses = sum(1 for op in timed if op["x_cache"] != "hit")
        if not timed or misses:
            checks.fail("%d of %d timed searches were not result-cache hits"
                        % (misses, len(timed)))
        for op in timed:
            if op["x_cache"] == "hit" and op["body"] != reference.get(op["index"]):
                checks.fail("cache hit for query %d differs from its "
                            "uncached body" % op["index"])
                break
    # The checker must still reject doctored copies of a real response.
    for op in ops:
        if op["kind"] == "warmup" and op["status"] == 200 and \
                json.loads(bodies[op["body"]])["result_count"] >= 2:
            problems, _ = checker.self_test_on(chk, reads[op["index"]],
                                               bodies[op["body"]])
            for p in problems:
                checks.fail("self-test on query %d: %s" % (op["index"], p))
            break
    for p in checker.self_test():
        checks.fail("self-test: " + p)
    return len(seen)


def served_run(name, seed, seconds, run_dir):
    spec = WORKLOADS[name]
    graph_path = graph_file(spec["graph"])
    graph = tgf.load_tgf(graph_path)
    reads, writes, files = prepare(name, seed, graph, run_dir)
    proc, port, setup_s = start_server(graph_path,
                                       spec.get("threads", SERVER_THREADS),
                                       spec["server"],
                                       os.path.join(run_dir, "server.log"))
    try:
        ops, bodies, summary = run_client(port, proc.pid, seconds, files,
                                          spec["readers"], run_dir)
        if summary["writes_exhausted"]:
            raise Abort("the writer ran out of pre-generated writes; raise "
                        "workloads.LIVE_WRITES")
        varz = http_get(port, "/varz")[1]
    finally:
        stop(proc)
    return {"graph": graph, "graph_path": graph_path, "reads": reads,
            "writes": writes, "files": files, "ops": ops, "bodies": bodies,
            "summary": summary, "varz": varz, "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(summary)}


def end_to_end(run):
    """Throughput and latency over every timed search of the run: on this
    kind of shared host the speed drifts from one few-second stretch to the
    next, and pooling the whole run averages over that drift."""
    ops, summary = run["ops"], run["summary"]
    wall_s = (summary["timed_end_ns"] - summary["timed_start_ns"]) / 1e9
    timed = [op for op in ops if op["kind"] in ("search", "ingest", "compact", "probe")]
    searches = [op for op in timed if op["kind"] == "search" and op["status"] == 200]
    lat = [op["latency_ns"] / 1e6 for op in searches]
    cpu_ms = (summary["cpu_ticks_end"] - summary["cpu_ticks_start"]) * 1000.0 \
        / summary["clock_ticks_per_s"]
    log("timed: %.2f s, %d searches in %d rounds, %d other requests"
        % (wall_s, len(searches), len({op["round"] for op in searches}),
           len(timed) - len(searches)))
    return {
        "setup_s": (run["setup_s"], "s"),
        "search_qps": (len(searches) / wall_s, "req/s"),
        "search_p50_ms": (layers.percentile(lat, 50), "ms"),
        "search_p90_ms": (layers.percentile(lat, 90), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "server_cpu_ms_per_req": (cpu_ms / max(1, len(timed)), "ms"),
    }


def print_digests():
    build()
    for name in sorted(GRAPHS):
        path = graph_file(name, check_digest=False)
        print("perfbench-digest %s.tgf %s" % (name, sha256(path)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM):
        signal.signal(sig, _on_signal)
    try:
        if args.print_digests:
            print_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        build()
        signal.alarm(RUN_TIMEOUT_S)
        if CPU_SPLIT:
            os.sched_setaffinity(0, CPU_SPLIT[1])  # inherited by the client
        run_dir = os.path.join(WORK, "run", args.workload)
        os.makedirs(run_dir, exist_ok=True)
        run = served_run(args.workload, args.seed, args.seconds, run_dir)
        checks = Checks()
        checked = check_run(args.workload, run["graph"], run["reads"],
                            run["writes"], run["ops"], run["bodies"],
                            run["summary"], run["varz"], checks)
        log("checked %d distinct responses, %d problems"
            % (checked, len(checks.errors)))
        if args.trace:
            metrics = layers.per_layer(args.workload, run, run_dir, binary,
                                       CPU_SPLIT[0] if CPU_SPLIT else None)
        else:
            metrics = end_to_end(run)
        ops = run["ops"]
        result = {
            "correct": not checks.errors,
            "attempted": len(ops),
            "failed": sum(1 for op in ops if op["status"] != 200),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        signal.alarm(0)
        print(json.dumps(result))
        return 0
    except Abort as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        signal.alarm(0)
        for proc in list(_children):
            stop(proc)


if __name__ == "__main__":
    sys.exit(main())
