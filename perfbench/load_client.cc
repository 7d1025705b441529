// perfbench_client: the closed-loop HTTP driver of perfbench/run.py.
//
// One process, one blocking keep-alive connection per thread. Every
// connection sends its next request only after the previous reply arrived.
//
//   perfbench_client --port P --server-pid PID --seconds S --out PREFIX
//                    --reads FILE --schedule FILE [--connections N]
//                    [--reference FILE]
//                    [--writes FILE --compact-every M]
//
// reads:     one /v1/search JSON body per line (the query population),
//            each first sent once, untimed (the warm-up pass).
// schedule:  one round per line, space-separated indices into reads. The
//            timed phase starts a round only while S seconds have not yet
//            passed, and always finishes the round it started, so every run
//            sends whole rounds.
// reference: after the timed phase, send each line once (index-aligned
//            with reads) on one connection.
// writes:    "<word>\t<ingest body>" per line. A writer connection posts
//            them beside the readers, one per completed timed read (so the
//            read/write mix is the same in every round), and after every M
//            acknowledged writes probes the last write's word, posts
//            /v1/compact, and probes the same word again.
//
// Output: PREFIX.ops.tsv (one line per operation), PREFIX.bodies (every
// distinct response body once) and PREFIX.summary.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

struct Reply {
  int status = 0;  // 0 = transport failure
  std::string body;
  std::string x_cache;
  std::string generation;
};

class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection() { Close(); }

  Reply Send(const char* method, const std::string& target,
             const std::string& body) {
    Reply reply;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (fd_ < 0 && !Open()) return reply;
      std::string request = std::string(method) + " " + target +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Content-Type: application/json\r\n"
                            "Content-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body;
      if (WriteAll(request) && ReadReply(&reply)) return reply;
      // A keep-alive connection the server closed: retry once on a fresh
      // socket, but only before any reply byte was seen.
      Close();
      if (!buffer_.empty()) break;
    }
    reply.status = 0;
    return reply;
  }

 private:
  bool Open() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{60, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    buffer_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool WriteAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    char chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool ReadReply(Reply* reply) {
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const std::string head = buffer_.substr(0, head_end);
    if (head.compare(0, 9, "HTTP/1.1 ") != 0 &&
        head.compare(0, 9, "HTTP/1.0 ") != 0) {
      return false;
    }
    reply->status = std::atoi(head.c_str() + 9);
    size_t length = 0;
    bool close_after = false;
    std::istringstream lines(head);
    std::string line;
    std::getline(lines, line);
    while (std::getline(lines, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      if (name == "content-length") {
        length = static_cast<size_t>(std::atoll(value.c_str()));
      } else if (name == "x-cache") {
        reply->x_cache = value;
      } else if (name == "x-snapshot-generation") {
        reply->generation = value;
      } else if (name == "connection" && value == "close") {
        close_after = true;
      }
    }
    while (buffer_.size() < head_end + 4 + length) {
      if (!Fill()) return false;
    }
    reply->body = buffer_.substr(head_end + 4, length);
    buffer_.erase(0, head_end + 4 + length);
    if (close_after) Close();
    return true;
  }

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

struct Op {
  const char* kind;
  int64_t index;
  int64_t round;  // schedule round of a timed search; -1 otherwise
  int64_t start_ns;
  int64_t latency_ns;
  int status;
  std::string x_cache;
  std::string generation;
  int64_t body_id;
};

class Recorder {
 public:
  explicit Recorder(Clock::time_point epoch) : epoch_(epoch) {}

  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  void Add(const char* kind, int64_t index, int64_t round,
           Clock::time_point start, Clock::time_point end, Reply reply) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = body_ids_.try_emplace(
        std::move(reply.body), static_cast<int64_t>(body_ids_.size()));
    if (inserted) bodies_.push_back(&it->first);
    ops_.push_back(Op{kind, index, round, Nanos(start),
                      Nanos(end) - Nanos(start),
                      reply.status, reply.x_cache, reply.generation,
                      it->second});
  }

  bool Write(const std::string& prefix) const {
    std::ofstream ops(prefix + ".ops.tsv");
    for (const Op& op : ops_) {
      ops << op.kind << '\t' << op.index << '\t' << op.round << '\t'
          << op.start_ns << '\t'
          << op.latency_ns << '\t' << op.status << '\t'
          << (op.x_cache.empty() ? "-" : op.x_cache) << '\t'
          << (op.generation.empty() ? "-" : op.generation) << '\t'
          << op.body_id << '\n';
    }
    std::ofstream bodies(prefix + ".bodies", std::ios::binary);
    for (size_t i = 0; i < bodies_.size(); ++i) {
      bodies << i << ' ' << bodies_[i]->size() << '\n'
             << *bodies_[i] << '\n';
    }
    return ops.good() && bodies.good();
  }

 private:
  Clock::time_point epoch_;
  std::mutex mu_;
  std::vector<Op> ops_;
  std::unordered_map<std::string, int64_t> body_ids_;
  std::vector<const std::string*> bodies_;
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

// utime + stime of `pid`, in clock ticks (fields 14 and 15 of stat).
int64_t CpuTicks(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return -1;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  int64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) stime = std::atoll(field.c_str());
  }
  return utime + stime;
}

// VmHWM of `pid` in kB (its status file); -1 if unreadable.
int64_t VmHwmKb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

// Hands out schedule positions to the reader connections; a round starts
// only before the deadline and always runs to its end. The server's VmHWM
// is read as each round starts, so peak memory can be taken after a fixed
// amount of work whatever the speed.
class Cursor {
 public:
  Cursor(const std::vector<std::vector<int64_t>>* rounds,
         Clock::time_point deadline, int server_pid)
      : rounds_(rounds), deadline_(deadline), server_pid_(server_pid) {}

  bool Next(int64_t* index, int64_t* round) {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_) return false;
    if (pos_ == 0 && Clock::now() >= deadline_) {
      done_ = true;
      return false;
    }
    const std::vector<int64_t>& order =
        (*rounds_)[static_cast<size_t>(rounds_started_) % rounds_->size()];
    *index = order[pos_];
    if (pos_ == 0) {
      ++rounds_started_;
      hwm_kb_.push_back(VmHwmKb(server_pid_));
    }
    *round = rounds_started_ - 1;
    if (++pos_ == order.size()) pos_ = 0;
    return true;
  }

  /// Rounds begun so far; the schedule repeats once exhausted.
  int64_t rounds_started() const { return rounds_started_; }
  /// The server's VmHWM (kB) as each round started.
  const std::vector<int64_t>& hwm_kb() const { return hwm_kb_; }

 private:
  const std::vector<std::vector<int64_t>>* rounds_;
  Clock::time_point deadline_;
  int server_pid_;
  std::vector<int64_t> hwm_kb_;
  std::mutex mu_;
  bool done_ = false;
  size_t pos_ = 0;
  int64_t rounds_started_ = 0;
};

int Usage() {
  std::cerr << "usage: perfbench_client --port P --server-pid PID --seconds S "
               "--out PREFIX --reads FILE --schedule FILE [--connections N] "
               "[--reference FILE] [--writes FILE --compact-every M]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0, server_pid = 0, connections = 2;
  double seconds = 10;
  int64_t compact_every = 0;
  std::string out, reads_path, schedule_path, reference_path, writes_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    } else if (arg == "--port") {
      port = std::atoi(argv[++i]);
    } else if (arg == "--server-pid") {
      server_pid = std::atoi(argv[++i]);
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--connections") {
      connections = std::atoi(argv[++i]);
    } else if (arg == "--out") {
      out = argv[++i];
    } else if (arg == "--reads") {
      reads_path = argv[++i];
    } else if (arg == "--schedule") {
      schedule_path = argv[++i];
    } else if (arg == "--reference") {
      reference_path = argv[++i];
    } else if (arg == "--writes") {
      writes_path = argv[++i];
    } else if (arg == "--compact-every") {
      compact_every = std::atoll(argv[++i]);
    } else {
      return Usage();
    }
  }
  if (port <= 0 || server_pid <= 0 || out.empty() || reads_path.empty() ||
      schedule_path.empty() || connections < 1 || connections > 16) {
    return Usage();
  }
  const std::vector<std::string> reads = ReadLines(reads_path);
  std::vector<std::vector<int64_t>> rounds;
  for (const std::string& line : ReadLines(schedule_path)) {
    std::istringstream in(line);
    std::vector<int64_t> round;
    int64_t index;
    while (in >> index) {
      if (index < 0 || index >= static_cast<int64_t>(reads.size())) {
        std::cerr << "schedule index " << index << " out of range\n";
        return 2;
      }
      round.push_back(index);
    }
    if (!round.empty()) rounds.push_back(std::move(round));
  }
  std::vector<std::pair<std::string, std::string>> writes;
  if (!writes_path.empty()) {
    for (const std::string& line : ReadLines(writes_path)) {
      const size_t tab = line.find('\t');
      if (tab == std::string::npos) return Usage();
      writes.emplace_back(line.substr(0, tab), line.substr(tab + 1));
    }
    if (compact_every <= 0) return Usage();
  }
  if (reads.empty() || rounds.empty()) return Usage();

  Recorder recorder(Clock::now());
  std::atomic<bool> transport_failed{false};
  auto search = [&](Connection* conn, const char* kind, int64_t index,
                    int64_t round, const std::string& body) {
    const Clock::time_point start = Clock::now();
    Reply reply = conn->Send("POST", "/v1/search", body);
    if (reply.status == 0) transport_failed = true;
    recorder.Add(kind, index, round, start, Clock::now(), std::move(reply));
  };

  {  // Warm-up pass.
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&] {
        Connection conn(port);
        for (size_t i; (i = next++) < reads.size() && !transport_failed;) {
          search(&conn, "warmup", static_cast<int64_t>(i), -1, reads[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const Clock::time_point timed_start = Clock::now();
  const int64_t cpu_start = CpuTicks(server_pid);
  Cursor cursor(&rounds,
                timed_start + std::chrono::microseconds(
                                  static_cast<int64_t>(seconds * 1e6)),
                server_pid);
  // Reader progress, which paces the writer.
  std::mutex progress_mu;
  std::condition_variable progress;
  int readers_left = connections;
  int64_t reads_done = 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      Connection conn(port);
      int64_t index, round;
      while (!transport_failed && cursor.Next(&index, &round)) {
        search(&conn, "search", index, round,
               reads[static_cast<size_t>(index)]);
        std::lock_guard<std::mutex> lock(progress_mu);
        ++reads_done;
        progress.notify_all();
      }
      std::lock_guard<std::mutex> lock(progress_mu);
      --readers_left;
      progress.notify_all();
    });
  }
  int64_t writes_acked = 0;
  bool writes_exhausted = false;
  std::thread writer;
  if (!writes.empty()) {
    writer = std::thread([&] {
      Connection conn(port);
      auto post = [&](const char* kind, int64_t index, const char* target,
                      const std::string& body) {
        const Clock::time_point start = Clock::now();
        Reply reply = conn.Send("POST", target, body);
        const int status = reply.status;
        if (status == 0) transport_failed = true;
        recorder.Add(kind, index, -1, start, Clock::now(), std::move(reply));
        return status;
      };
      // Catches up with the readers' allowance even after they finish, so
      // every run sends exactly one write per timed read.
      for (size_t i = 0; !transport_failed; ++i) {
        {
          std::unique_lock<std::mutex> lock(progress_mu);
          progress.wait(lock, [&] {
            return static_cast<int64_t>(i) < reads_done ||
                   readers_left == 0;
          });
          if (static_cast<int64_t>(i) >= reads_done) break;
        }
        if (i >= writes.size()) {
          writes_exhausted = true;
          break;
        }
        if (post("ingest", static_cast<int64_t>(i), "/v1/ingest",
                 writes[i].second) != 200) {
          continue;
        }
        ++writes_acked;
        if (writes_acked % compact_every == 0) {
          const std::string probe = "{\"query\":\"" + writes[i].first +
                                    "\",\"k\":1,\"bound\":\"empirical\"}";
          search(&conn, "probe", static_cast<int64_t>(i), -1, probe);
          post("compact", static_cast<int64_t>(i), "/v1/compact", "");
          search(&conn, "probe", static_cast<int64_t>(i), -1, probe);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (writer.joinable()) writer.join();
  const Clock::time_point timed_end = Clock::now();
  const int64_t cpu_end = CpuTicks(server_pid);
  const int64_t hwm_end = VmHwmKb(server_pid);

  if (!reference_path.empty()) {
    const std::vector<std::string> reference = ReadLines(reference_path);
    Connection conn(port);
    for (size_t i = 0; i < reference.size() && !transport_failed; ++i) {
      search(&conn, "reference", static_cast<int64_t>(i), -1, reference[i]);
    }
  }

  if (!recorder.Write(out)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::ofstream summary(out + ".summary.json");
  summary << "{\"timed_start_ns\":" << recorder.Nanos(timed_start)
          << ",\"timed_end_ns\":" << recorder.Nanos(timed_end)
          << ",\"cpu_ticks_start\":" << cpu_start
          << ",\"cpu_ticks_end\":" << cpu_end
          << ",\"clock_ticks_per_s\":" << sysconf(_SC_CLK_TCK)
          << ",\"rounds\":" << cursor.rounds_started()
          << ",\"hwm_kb_at_round_start\":[";
  for (size_t i = 0; i < cursor.hwm_kb().size(); ++i) {
    summary << (i ? "," : "") << cursor.hwm_kb()[i];
  }
  summary << "],\"hwm_kb_end\":" << hwm_end
          << ",\"writes_acked\":" << writes_acked
          << ",\"writes_exhausted\":" << (writes_exhausted ? "true" : "false")
          << ",\"transport_failed\":"
          << (transport_failed ? "true" : "false") << "}\n";
  return summary.good() ? 0 : 1;
}
