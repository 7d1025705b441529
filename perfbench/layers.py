"""Per-layer metrics of a traced run (run.py --trace 1).

The served run has already driven the workload over HTTP; this module
replays it in-process with perfbench_trace, reads the spans it wrote, and
turns spans, their counters and the served run's client records into the
per-layer metrics of BENCHMARK.json. A metric whose layer a workload does
not exercise reads 0 (README.md lists which apply where).
"""

import json
import os
import subprocess
import sys

import workloads

# Replay sizes: enough spans for stable medians at a few seconds each.
REPLAY = {
    "dblp-search": {"rounds": 1},
    "social-hot": {"rounds": 2, "hot_requests": 20000},
    "social-live": {"rounds": 2},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return percentile(values, 50)


def percentile(values, p):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    values = sorted(values)
    rank = max(1, -(-len(values) * p // 100))
    return values[int(rank) - 1]


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, req, name, start, end, attrs = line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent), "req": int(req),
                          "name": name, "start": int(start), "end": int(end),
                          "attrs": json.loads(attrs)})
    return spans


def self_times(spans):
    """Span duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def replay(name, run, run_dir, binary, cpus):
    files = run["files"]
    prefix = os.path.join(run_dir, "trace")
    cfg = REPLAY[name]
    cmd = [binary("perfbench_trace"), "--graph", run["graph_path"], "--reads",
           files["reads"], "--out", prefix, "--rounds", str(cfg["rounds"])]
    if "hot_requests" in cfg:
        cmd += ["--schedule", files["schedule"], "--hot-requests",
                str(cfg["hot_requests"])]
    if "writes" in files:
        cmd += ["--writes", files["writes"], "--compact-every",
                str(workloads.COMPACT_EVERY)]
    # The replay runs on the CPUs the server had, not the client's one.
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    if subprocess.call(cmd, timeout=120, preexec_fn=pin) != 0:
        raise RuntimeError("perfbench_trace failed")
    with open(prefix + ".summary.json") as f:
        summary = json.load(f)
    return load_spans(prefix + ".spans.tsv"), summary


def served_metrics(run):
    """Metrics read off the served run's client records."""
    ops = run["ops"]
    ok = lambda kinds: [op for op in ops if op["kind"] in kinds and op["status"] == 200]
    searches = sorted(op["latency_ns"] / 1e6 for op in ok(("search",)))
    ingests = [op["latency_ns"] / 1e6 for op in ok(("ingest",))]
    compacts = ok(("compact",))
    stall = 0.0
    for c in compacts:
        c_end = c["start_ns"] + c["latency_ns"]
        for op in ok(("search",)):
            if op["start_ns"] < c_end and op["start_ns"] + op["latency_ns"] > c["start_ns"]:
                stall = max(stall, op["latency_ns"] / 1e6)
    timed = ok(("search",))
    return {
        "search_p99_ms": (percentile(searches, 99) if len(searches) >= 1000 else 0.0, "ms"),
        "ingest_p50_ms": (percentile(ingests, 50), "ms"),
        "ingest_p90_ms": (percentile(ingests, 90), "ms"),
        "compact_s": (median([c["latency_ns"] / 1e9 for c in compacts]), "s"),
        "server.compact_stall_ms": (stall, "ms"),
        "server.response_bytes": (
            sum(len(run["bodies"][op["body"]]) for op in timed) / max(1, len(timed)),
            "bytes"),
    }


def per_layer(name, run, run_dir, binary, cpus):
    spans, summary = replay(name, run, run_dir, binary, cpus)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    dur = lambda s: (s["end"] - s["start"]) / 1e9
    one = lambda n: dur(by_name[n][0]) if n in by_name else 0.0
    durs = lambda n, scale: [dur(s) * scale for s in by_name.get(n, [])]
    selfs = self_times(spans)

    engine = by_name.get("search.engine", [])
    queries = max(1, len(engine))
    total = lambda key: sum(s["attrs"][key] for s in engine)
    passes = REPLAY[name]["rounds"]
    pops = total("pops")
    engine_ns = sum(s["end"] - s["start"] for s in engine)
    exec_waits = [selfs[s["id"]] / 1e6 for s in by_name.get("exec.submit", [])]
    hits = [dur(s) * 1e6 for s in by_name.get("server.router", []) if s["attrs"]["hit"]]
    compactions = by_name.get("ingest.compact", [])

    # server.overhead_ms: client latency of an uncached request minus the
    # in-process engine time of the same request, median over requests.
    client = {}
    for op in run["ops"]:
        if op["kind"] in ("warmup", "search") and op["status"] == 200 \
                and op["x_cache"] != "hit":
            client.setdefault(op["index"], []).append(op["latency_ns"] / 1e6)
    engine_by_req = {}
    for s in engine:
        engine_by_req.setdefault(s["req"], []).append(dur(s) * 1000.0)
    overhead = [median(client[i]) - median(engine_by_req[i])
                for i in client if i in engine_by_req]

    lookups = summary.get("result_cache_lookups", 0)
    metrics = {
        "graph.load_s": (one("graph.load"), "s"),
        "graph.build_s": (one("graph.build"), "s"),
        "graph.reach_build_s": (one("graph.reach_build"), "s"),
        "graph.reach_label_bytes": (
            by_name["graph.reach_build"][0]["attrs"]["label_bytes"], "bytes"),
        "graph.inverted_index_s": (one("graph.inverted_index"), "s"),
        "search.engine_ms_p50": (median(durs("search.engine", 1e3)), "ms"),
        "search.engine_ms_p90": (percentile(durs("search.engine", 1e3), 90), "ms"),
        "search.match_ms": (total("match_s") * 1e3 / queries, "ms"),
        "search.filter_ms": (total("filter_s") * 1e3 / queries, "ms"),
        "search.expand_ms": (total("expand_s") * 1e3 / queries, "ms"),
        "search.generate_ms": (total("generate_s") * 1e3 / queries, "ms"),
        "search.pops": (pops // passes, "count"),
        "search.ntds_created": (total("ntds_created") // passes, "count"),
        "search.edges_scanned": (total("edges_scanned") // passes, "count"),
        "search.ntds_per_pop": (total("ntds_created") / max(1, pops), "ratio"),
        "search.ns_per_pop": (engine_ns / max(1, pops), "ns"),
        "search.subsumption_ops": (total("subsumption_ops") // passes, "count"),
        "search.parse_us": (median(durs("search.parse_query", 1e6)), "us"),
        "temporal.interval_ops_per_query": (total("interval_ops") / queries, "count"),
        "exec.queue_wait_ms_p50": (median(exec_waits), "ms"),
        "exec.queue_wait_ms_p90": (percentile(exec_waits, 90), "ms"),
        "cache.result_hit_rate": (
            summary.get("result_cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "cache.result_lookup_us": (median(durs("cache.lookup", 1e6)), "us"),
        "cache.result_bytes": (summary.get("result_cache_bytes", 0), "bytes"),
        "server.request_parse_us": (median(durs("server.json_parse", 1e6)), "us"),
        "server.router_hit_us": (median(hits), "us"),
        "server.overhead_ms": (median(overhead), "ms"),
        "ingest.parse_us": (median(durs("ingest.parse", 1e6)), "us"),
        "ingest.apply_us": (median(durs("ingest.apply", 1e6)), "us"),
        "ingest.compact_rebuild_s": (
            median([s["attrs"]["rebuild_s"] for s in compactions]), "s"),
        "ingest.compact_swap_us": (
            median([s["attrs"]["swap_s"] * 1e6 for s in compactions]), "us"),
    }
    metrics.update(served_metrics(run))

    layer_self = {}
    for s in spans:
        layer = s["name"].split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0) + selfs[s["id"]]
    overhead_share = summary["traced_pass_s"] / summary["untraced_pass_s"] - 1
    log("self time by layer (s): " + ", ".join(
        "%s %.3f" % (k, v / 1e9) for k, v in sorted(layer_self.items())))
    log("result cache: %d hits of %d lookups" % (summary.get("result_cache_hits", 0),
                                                 lookups))
    log("tracing overhead: engine pass %.4f s traced vs %.4f s untraced (%+.1f%%)"
        % (summary["traced_pass_s"], summary["untraced_pass_s"],
           100 * overhead_share))
    return metrics
