// perfbench_trace: in-process traced replay of a perfbench workload.
//
//   perfbench_trace --graph G.tgf --reads FILE --out PREFIX [--rounds R]
//                   [--schedule FILE --hot-requests N]
//                   [--writes FILE --compact-every M]
//
// Replays the workload's requests without sockets and records a span
// around every call into a layer's public function: graph (load, build,
// reachability index, inverted index), server (JsonValue::Parse,
// RequestRouter::Handle), search (ParseQuery, SearchEngine), exec
// (QueryExecutor::Submit to callback), cache (ResultCache::Lookup) and
// ingest (ParseIngestBatch, LiveGraph::Apply, LiveGraph::Compact).
//
// Passes, in order:
//   load     graph.load, graph.build, graph.reach_build, graph.inverted_index
//   exec     each read once through QueryExecutor::Submit, two in flight
//            (exec.submit; its child search.run is the run time the
//            callback reports, so exec self time is the queue wait)
//   router   with --schedule: each read once through RequestRouter::Handle
//            with a result cache, then the first N scheduled requests
//            (server.router, x-cache hits as attrs) and the same keys
//            against a ResultCache filled with the served bodies
//            (cache.lookup)
//   engine   each read R times on one thread: server.json_parse,
//            search.parse_query, search.engine (work counters as attrs);
//            with --writes the reads run against the live snapshot and one
//            write follows each read (server.ingest_json_parse, ingest.*;
//            ingest.compact every M)
//   overhead the first 64 reads twice without and twice with recording,
//            into a scratch tracer, to measure what recording costs
//
// Spans stay in memory and are written when the replay ends:
// PREFIX.spans.tsv holds "id parent request name start_ns end_ns attrs"
// per span, PREFIX.summary.json the pass totals.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "exec/query_executor.h"
#include "graph/graph_builder.h"
#include "graph/inverted_index.h"
#include "graph/reachability_index.h"
#include "graph/serialization.h"
#include "ingest/ingest_batch.h"
#include "ingest/live_graph.h"
#include "search/query_parser.h"
#include "search/search_engine.h"
#include "server/admission.h"
#include "server/json_io.h"
#include "server/request_router.h"

namespace {

using Clock = std::chrono::steady_clock;
using tgks::graph::NodeId;
using tgks::graph::TemporalGraph;
using tgks::server::JsonValue;

struct Span {
  int64_t parent;
  int64_t request;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  std::string attrs;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  /// Opens a span; returns its id (-1 while recording is off).
  int64_t Begin(const char* name, int64_t parent, int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{parent, request, name, Now(), -1, {}});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id, std::string attrs = {}) {
    if (id < 0) return;
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    span.attrs = std::move(attrs);
  }

  /// Records a span whose bounds were measured elsewhere.
  int64_t Add(const char* name, int64_t parent, int64_t request,
              int64_t start_ns, int64_t end_ns, std::string attrs = {}) {
    if (!enabled_) return -1;
    spans_.push_back(
        Span{parent, request, name, start_ns, end_ns, std::move(attrs)});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << (s.attrs.empty() ? "{}" : s.attrs) << '\n';
    }
    return out.good();
  }

 private:
  Clock::time_point epoch_;
  bool enabled_ = true;
  std::vector<Span> spans_;
};

struct Read {
  std::string text;
  tgks::search::Query query;
  int32_t k = 10;
  tgks::search::UpperBoundKind bound = tgks::search::UpperBoundKind::kEmpirical;
  std::vector<std::vector<NodeId>> matches;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench_trace: " << message << "\n";
  std::exit(1);
}

tgks::search::UpperBoundKind ParseBound(const std::string& name) {
  if (name == "accurate") return tgks::search::UpperBoundKind::kAccurate;
  if (name == "average") return tgks::search::UpperBoundKind::kAverage;
  return tgks::search::UpperBoundKind::kEmpirical;
}

// JsonValue::Parse + ParseQuery for one request body, under `parent`.
Read ParseRead(Tracer* tracer, const std::string& body, int64_t parent,
               int64_t request) {
  Read read;
  int64_t span = tracer->Begin("server.json_parse", parent, request);
  auto doc = JsonValue::Parse(body);
  tracer->End(span);
  if (!doc.ok()) Die("bad request body: " + body);
  read.text = doc->Find("query")->AsString();
  if (const JsonValue* k = doc->Find("k")) read.k = static_cast<int32_t>(k->AsInt());
  if (const JsonValue* b = doc->Find("bound")) read.bound = ParseBound(b->AsString());
  if (const JsonValue* m = doc->Find("matches")) {
    for (const JsonValue& list : m->items()) {
      std::vector<NodeId> ids;
      for (const JsonValue& id : list.items()) {
        ids.push_back(static_cast<NodeId>(id.AsInt()));
      }
      read.matches.push_back(std::move(ids));
    }
  }
  span = tracer->Begin("search.parse_query", parent, request);
  auto query = tgks::search::ParseQuery(read.text);
  tracer->End(span);
  if (!query.ok()) Die("bad query: " + read.text);
  read.query = *std::move(query);
  return read;
}

std::string CounterAttrs(const tgks::search::SearchResponse& r) {
  const tgks::search::SearchCounters& c = r.counters;
  std::ostringstream out;
  out.precision(9);
  out << "{\"pops\":" << c.pops << ",\"ntds_created\":" << c.ntds_created
      << ",\"edges_scanned\":" << c.edges_scanned
      << ",\"subsumption_ops\":"
      << c.subsumption_skips + c.subsumption_evictions
      << ",\"interval_ops\":" << r.stats.interval_ops
      << ",\"results\":" << r.results.size()
      << ",\"match_s\":" << c.seconds_match
      << ",\"filter_s\":" << c.seconds_filter
      << ",\"expand_s\":" << c.seconds_expand
      << ",\"generate_s\":" << c.seconds_generate << "}";
  return out.str();
}

// One read through SearchEngine on the calling thread.
void EngineRead(Tracer* tracer, const TemporalGraph& graph,
                const tgks::graph::InvertedIndex* index,
                const tgks::graph::DeltaOverlay* overlay,
                const std::string& body, int64_t request) {
  const int64_t root = tracer->Begin("server.request", -1, request);
  const Read read = ParseRead(tracer, body, root, request);
  tgks::search::SearchOptions options;
  options.k = read.k;
  options.bound = read.bound;
  options.overlay = overlay;
  const tgks::search::SearchEngine engine(graph, index);
  const int64_t span = tracer->Begin("search.engine", root, request);
  auto response = read.matches.empty()
                      ? engine.Search(read.query, options)
                      : engine.SearchWithMatches(read.query, read.matches,
                                                 options);
  if (!response.ok()) Die("search failed: " + read.text);
  tracer->End(span, CounterAttrs(*response));
  tracer->End(root);
}

// Closed loop of `in_flight` QueryExecutor::Submit calls over `reads`.
void ExecPass(Tracer* tracer, const TemporalGraph& graph,
              const tgks::graph::InvertedIndex& index,
              const std::vector<std::string>& bodies, int in_flight) {
  tgks::exec::ExecutorOptions options;
  options.threads = 2;
  tgks::exec::QueryExecutor executor(graph, &index, options);
  struct Done {
    int64_t submit_ns = 0, end_ns = 0;
    double seconds = 0;
    bool finished = false;
  };
  std::vector<Done> done(bodies.size());
  std::mutex mu;
  std::condition_variable cv;
  int outstanding = 0;
  Tracer parse_only(Clock::now());
  parse_only.set_enabled(false);
  for (size_t i = 0; i < bodies.size(); ++i) {
    const Read read = ParseRead(&parse_only, bodies[i], -1, -1);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < in_flight; });
      ++outstanding;
    }
    tgks::exec::SingleQuery single;
    single.query = tgks::exec::BatchQuery{read.query, read.matches};
    single.k = read.k;
    single.bound = read.bound;
    done[i].submit_ns = tracer->Now();
    executor.Submit(std::move(single),
                    [&, i](tgks::Result<tgks::search::SearchResponse> r,
                           double seconds) {
                      if (!r.ok()) Die("executor search failed");
                      std::lock_guard<std::mutex> lock(mu);
                      done[i].end_ns = tracer->Now();
                      done[i].seconds = seconds;
                      done[i].finished = true;
                      --outstanding;
                      cv.notify_all();
                    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  for (size_t i = 0; i < bodies.size(); ++i) {
    const int64_t id = tracer->Add("exec.submit", -1,
                                   static_cast<int64_t>(i), done[i].submit_ns,
                                   done[i].end_ns);
    tracer->Add("search.run", id, static_cast<int64_t>(i),
                done[i].end_ns - static_cast<int64_t>(done[i].seconds * 1e9),
                done[i].end_ns);
  }
}

// Serves every read once (misses), then the first `requests` scheduled
// requests, through RequestRouter::Handle with a result cache.
void RouterPass(Tracer* tracer, const TemporalGraph& graph,
                const tgks::graph::InvertedIndex& index,
                const std::vector<std::string>& bodies,
                const std::vector<int64_t>& schedule, std::ostream* summary) {
  tgks::exec::ExecutorOptions exec_options;
  exec_options.threads = 2;
  tgks::exec::QueryExecutor executor(graph, &index, exec_options);
  tgks::server::AdmissionController admission(
      tgks::server::AdmissionOptions{});
  tgks::cache::ResultCache result_cache(int64_t{64} << 20);
  std::atomic<bool> draining{false};
  tgks::server::RouterContext context;
  context.graph = &graph;
  context.executor = &executor;
  context.admission = &admission;
  context.draining = &draining;
  context.dataset_name = "perfbench";
  context.result_cache = &result_cache;
  tgks::server::RequestRouter router(context);

  std::vector<std::string> served(bodies.size());
  auto handle = [&](int64_t i, const char* span_name) {
    tgks::server::HttpRequest request;
    request.method = "POST";
    request.target = "/v1/search";
    request.body = bodies[static_cast<size_t>(i)];
    tgks::server::HttpResponse immediate;
    std::mutex mu;
    std::condition_variable cv;
    std::optional<tgks::server::HttpResponse> late;
    std::shared_ptr<tgks::server::PendingSearch> pending;
    const int64_t span = tracer->Begin(span_name, -1, i);
    const bool now = router.Handle(
        request, &immediate,
        [&](tgks::server::HttpResponse r) {
          std::lock_guard<std::mutex> lock(mu);
          late = std::move(r);
          cv.notify_all();
        },
        &pending);
    if (!now) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return late.has_value(); });
      immediate = std::move(*late);
    }
    bool hit = false;
    for (const auto& [name, value] : immediate.extra_headers) {
      hit |= name == "x-cache" && value == "hit";
    }
    tracer->End(span, hit ? "{\"hit\":1}" : "{\"hit\":0}");
    if (immediate.status != 200) Die("router answered " + immediate.body);
    served[static_cast<size_t>(i)] = immediate.body;
  };
  for (size_t i = 0; i < bodies.size(); ++i) {
    handle(static_cast<int64_t>(i), "server.router_fill");
  }
  for (const int64_t i : schedule) handle(i, "server.router");
  const tgks::cache::CacheStats stats = result_cache.stats();

  // ResultCache::Lookup on its own, keyed by request body.
  tgks::cache::ResultCache lookup_cache(int64_t{64} << 20);
  for (size_t i = 0; i < bodies.size(); ++i) {
    lookup_cache.Insert(bodies[i],
                        std::make_shared<const tgks::cache::CachedResult>(
                            tgks::cache::CachedResult{served[i]}),
                        lookup_cache.generation());
  }
  for (const int64_t i : schedule) {
    const int64_t span = tracer->Begin("cache.lookup", -1, i);
    const bool found =
        lookup_cache.Lookup(bodies[static_cast<size_t>(i)]) != nullptr;
    tracer->End(span);
    if (!found) Die("result cache lost an entry");
  }
  *summary << ",\"result_cache_hits\":" << stats.hits
           << ",\"result_cache_lookups\":" << stats.lookups()
           << ",\"result_cache_bytes\":" << stats.bytes;
}

int Usage() {
  std::cerr << "usage: perfbench_trace --graph G.tgf --reads FILE --out PREFIX"
               " [--rounds R] [--schedule FILE --hot-requests N] [--writes "
               "FILE --compact-every M]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_path, reads_path, out, schedule_path, writes_path;
  int rounds = 1;
  int64_t hot_requests = 0, compact_every = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--graph") {
      graph_path = value;
    } else if (arg == "--reads") {
      reads_path = value;
    } else if (arg == "--out") {
      out = value;
    } else if (arg == "--rounds") {
      rounds = std::atoi(value);
    } else if (arg == "--schedule") {
      schedule_path = value;
    } else if (arg == "--hot-requests") {
      hot_requests = std::atoll(value);
    } else if (arg == "--writes") {
      writes_path = value;
    } else if (arg == "--compact-every") {
      compact_every = std::atoll(value);
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || graph_path.empty() || reads_path.empty() ||
      out.empty() || rounds < 1) {
    return Usage();
  }
  const std::vector<std::string> reads = ReadLines(reads_path);
  Tracer tracer(Clock::now());
  std::ostringstream summary;
  summary.precision(9);
  summary << "{\"reads\":" << reads.size();

  // Graph layer.
  int64_t span = tracer.Begin("graph.load", -1, -1);
  auto loaded = tgks::graph::LoadGraphFromFile(graph_path);
  tracer.End(span);
  if (!loaded.ok()) Die("cannot load " + graph_path);
  TemporalGraph graph = *std::move(loaded);
  {
    tgks::graph::GraphBuilder builder(graph.timeline_length());
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      const auto& node = graph.node(n);
      builder.AddNode(node.label, node.validity, node.weight);
    }
    for (tgks::graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
      const auto& edge = graph.edge(e);
      builder.AddEdge(edge.src, edge.dst, edge.validity, edge.weight);
    }
    span = tracer.Begin("graph.build", -1, -1);
    auto rebuilt = builder.Build();
    tracer.End(span);
    if (!rebuilt.ok()) Die("rebuild failed");
  }
  span = tracer.Begin("graph.reach_build", -1, -1);
  const tgks::graph::ReachabilityIndex reach =
      tgks::graph::ReachabilityIndex::Build(graph);
  tracer.End(span, "{\"label_bytes\":" +
                       std::to_string(reach.stats().label_bytes) + "}");
  span = tracer.Begin("graph.inverted_index", -1, -1);
  const tgks::graph::InvertedIndex index(graph);
  tracer.End(span);

  // Exec and router passes run on the static graph before a live replay
  // takes it over.
  ExecPass(&tracer, graph, index, reads, /*in_flight=*/2);
  if (!schedule_path.empty()) {
    std::vector<int64_t> schedule;
    for (const std::string& line : ReadLines(schedule_path)) {
      std::istringstream in(line);
      int64_t i;
      while (static_cast<int64_t>(schedule.size()) < hot_requests && in >> i) {
        schedule.push_back(i);
      }
    }
    RouterPass(&tracer, graph, index, reads, schedule, &summary);
  }

  // What recording costs: the first kOverheadReads reads on the state the
  // replay ended with, without, with, with and without spans (ABBA, so a
  // steady drift cancels), recorded into a scratch tracer kept out of the
  // metrics.
  auto measure_overhead = [&](const TemporalGraph& g,
                              const tgks::graph::InvertedIndex* idx,
                              const tgks::graph::DeltaOverlay* overlay) {
    constexpr size_t kOverheadReads = 64;
    Tracer scratch(Clock::now());
    double seconds[2] = {0, 0};
    for (const bool record : {false, true, true, false}) {
      scratch.set_enabled(record);
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < std::min(kOverheadReads, reads.size()); ++i) {
        EngineRead(&scratch, g, idx, overlay, reads[i],
                   static_cast<int64_t>(i));
      }
      seconds[record] +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
    summary << ",\"traced_pass_s\":" << seconds[1]
            << ",\"untraced_pass_s\":" << seconds[0];
  };

  if (writes_path.empty()) {
    for (int r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < reads.size(); ++i) {
        EngineRead(&tracer, graph, &index, nullptr, reads[i],
                   static_cast<int64_t>(i));
      }
    }
    measure_overhead(graph, &index, nullptr);
  } else {
    // Live replay: every read pins the current snapshot; one write
    // follows it, with a compaction every compact_every writes.
    std::vector<std::string> writes;
    for (const std::string& line : ReadLines(writes_path)) {
      writes.push_back(line.substr(line.find('\t') + 1));
    }
    tgks::ingest::CompactionPolicy policy;
    policy.background = false;
    tgks::ingest::LiveGraph live(std::move(graph), policy);
    size_t next_write = 0;
    int64_t applied = 0;
    for (int r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < reads.size(); ++i) {
        const tgks::ingest::GraphSnapshotHandle snap = live.Acquire();
        EngineRead(&tracer, *snap->graph, snap->index.get(),
                   snap->overlay_or_null(), reads[i], static_cast<int64_t>(i));
        if (next_write < writes.size()) {
          const int64_t request = static_cast<int64_t>(next_write);
          const int64_t root = tracer.Begin("ingest.request", -1, request);
          span = tracer.Begin("server.ingest_json_parse", root, request);
          auto doc = JsonValue::Parse(writes[next_write++]);
          tracer.End(span);
          if (!doc.ok()) Die("bad write body");
          tgks::ingest::IngestErrorDetail detail;
          span = tracer.Begin("ingest.parse", root, request);
          auto batch = tgks::ingest::ParseIngestBatch(
              *doc, live.timeline_length(), &detail);
          tracer.End(span);
          if (!batch.has_value()) Die("write rejected: " + detail.message);
          span = tracer.Begin("ingest.apply", root, request);
          auto generation = live.Apply(*batch, &detail);
          tracer.End(span);
          tracer.End(root);
          if (!generation.ok()) Die("apply failed: " + detail.message);
          if (++applied % compact_every == 0) {
            span = tracer.Begin("ingest.compact", -1, request);
            auto compacted = live.Compact(/*manual=*/true);
            const tgks::ingest::CompactionStats stats = live.compaction_stats();
            std::ostringstream attrs;
            attrs.precision(9);
            attrs << "{\"rebuild_s\":" << stats.last_rebuild_seconds
                  << ",\"swap_s\":" << stats.last_swap_seconds << "}";
            tracer.End(span, attrs.str());
            if (!compacted.ok()) Die("compaction failed");
          }
        }
      }
    }
    const tgks::ingest::GraphSnapshotHandle snap = live.Acquire();
    measure_overhead(*snap->graph, snap->index.get(), snap->overlay_or_null());
    summary << ",\"writes_applied\":" << applied;
  }
  summary << "}\n";
  std::ofstream summary_file(out + ".summary.json");
  summary_file << summary.str();
  if (!tracer.Write(out + ".spans.tsv") || !summary_file.good()) {
    Die("cannot write " + out);
  }
  return 0;
}
