// Workload `serve`: the front door. One client drives `hypertree_serve`
// in a closed loop over one persistent connection (ServeLoop serves one
// connection at a time, so more clients would only queue), using the
// repository's own WriteFrame/ReadFrame. The mix covers memory hits
// (half of them under a fresh renaming, which exercises the WL hashing),
// disk hits and fresh misses that solve and store under a disk cap below
// the key space.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/parser.h"
#include "io/ghd_format.h"
#include "portfolio/portfolio.h"
#include "serve/instance_hash.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

using hypertree::Hypergraph;
using hypertree::Json;

namespace {

// Per-request solve budget handed to the server; only a backstop.
constexpr double kBackstopSeconds = 30.0;

enum Kind { kMemory = 0, kMemoryRenamed = 1, kDisk = 2, kMiss = 3 };
// One pass of the mix: 6 memory, 6 renamed memory, 3 disk, 5 misses.
// p50 lands inside the hit classes and p90 inside the misses, each well
// away from a class boundary (hits end at 75 %).
constexpr int kMix[] = {kMemory, kMemory, kMemory, kMemory, kMemory, kMemory,
                        kMemoryRenamed, kMemoryRenamed, kMemoryRenamed,
                        kMemoryRenamed, kMemoryRenamed, kMemoryRenamed,
                        kDisk, kDisk, kDisk, kMiss, kMiss, kMiss, kMiss, kMiss};

struct Instance {
  Hypergraph h;
  int ghw = 0;
};

std::string ToText(const Hypergraph& h) {
  std::ostringstream out;
  hypertree::WriteHypergraph(h, out);
  return out.str();
}

Json DecomposeRequest(const Hypergraph& h) {
  Json req = Json::Object();
  req.Set("op", "decompose");
  req.Set("instance", ToText(h));
  return req;
}

// The hypertree_serve child process. The destructor stops it (SIGTERM,
// then SIGKILL) and reaps it, so no exit path leaves it running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::vector<std::string>& argv, const std::string& log,
             std::string* error) {
    int out[2];
    if (::pipe(out) != 0) {
      *error = "pipe failed";
      return false;
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      ::signal(SIGPIPE, SIG_DFL);  // the client ignores it; the server not
      ::dup2(out[1], STDOUT_FILENO);
      int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err >= 0) ::dup2(err, STDERR_FILENO);
      ::close(out[0]);
      std::vector<char*> args;
      for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
      }
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      _exit(127);
    }
    ::close(out[1]);
    stdout_fd_ = out[0];
    // Wait for "listening on 127.0.0.1:<port>".
    std::string line;
    double deadline = NowMs() + 10000;
    while (NowMs() < deadline) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char c;
      if (::read(stdout_fd_, &c, 1) != 1) break;
      if (c != '\n') {
        line += c;
        continue;
      }
      const char* kReady = "listening on 127.0.0.1:";
      size_t at = line.find(kReady);
      if (at != std::string::npos) {
        port_ = std::atoi(line.c_str() + at + std::strlen(kReady));
        return port_ > 0;
      }
      line.clear();
    }
    *error = "hypertree_serve did not report its port (see " + log + ")";
    return false;
  }

  int port() const { return port_; }

  /// Peak resident set of the server (VmHWM), in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::atof(line.c_str() + 6) / 1024.0;  // kB
      }
    }
    return 0;
  }

  /// Waits up to `ms` for the child to exit; kills it after that.
  void Stop(double ms = 5000) {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    double deadline = NowMs() + ms;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowMs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    stdout_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

// One request/response round trip on `fd`.
bool RoundTrip(int fd, const std::string& request, Json* response,
               std::string* error) {
  std::string body;
  if (!hypertree::serve::WriteFrame(fd, request, error)) return false;
  if (hypertree::serve::ReadFrame(fd, &body, error) != 1) return false;
  std::optional<Json> parsed = Json::Parse(body, error);
  if (!parsed.has_value()) return false;
  *response = std::move(*parsed);
  return true;
}

// A response is correct when it is ok and exact, reports the expected
// width, and its witness is a valid GHD of that width for the
// canonicalised instance it names.
bool ResponseOk(const Json& resp, const Hypergraph& sent, int ghw) {
  const Json* status = resp.Find("status");
  const Json* width = resp.Find("width");
  const Json* exact = resp.Find("exact");
  const Json* witness = resp.Find("witness");
  const Json* key = resp.Find("key");
  if (!status || status->AsString() != "ok" || !width ||
      width->AsInt() != ghw || !exact || !exact->AsBool() || !witness || !key) {
    return false;
  }
  hypertree::serve::NormalizedInstance norm =
      hypertree::serve::NormalizeInstance(sent);
  if (norm.key != key->AsString()) return false;
  auto ghd = hypertree::ReadGhdFromString(witness->AsString());
  return ghd.has_value() && ghd->IsValidFor(norm.hypergraph) &&
         ghd->Width() == ghw;
}

bool LoadPool(const Json& spec, const char* name, std::vector<Instance>* out,
              std::string* error) {
  out->clear();
  for (const Json& e : spec.Find(name)->items()) {
    Instance inst;
    if (!BuildFamilyInstance(e, &inst.h, error)) return false;
    inst.ghw = static_cast<int>(e.Find("ghw")->AsInt());
    out->push_back(std::move(inst));
  }
  return true;
}

// Sums over the traced ops.
struct Layers {
  double ops = 0, memory = 0, disk = 0, solved = 0;
  double rtt_ms = 0, handle_ms = 0, hash_ms = 0, solve_ms = 0;
};

}  // namespace

Result RunServe(const Options& options) {
  Result result;
  std::string error;
  std::vector<Instance> ballast, disk, memory, miss;
  ServerProcess server;
  int fd = -1;
  size_t next_disk = 0, next_miss = 0;
  std::vector<int> schedule;
  int setup_count = 0;
  hypertree::Rng rename_rng(options.seed * 7919 + 1);
  std::string cache_dir;

  auto close_conn = [&] {
    if (fd >= 0) ::close(fd);
    fd = -1;
  };
  auto teardown = [&] {
    close_conn();
    server.Stop();
    std::error_code ec;
    if (!cache_dir.empty()) std::filesystem::remove_all(cache_dir, ec);
  };
  auto setup = [&]() -> bool {
    Json spec;
    if (!LoadSpec(options, "serve", &spec, &error)) return false;
    if (!LoadPool(spec, "ballast", &ballast, &error) ||
        !LoadPool(spec, "disk", &disk, &error) ||
        !LoadPool(spec, "memory", &memory, &error) ||
        !LoadPool(spec, "miss", &miss, &error)) {
      return false;
    }
    hypertree::Rng rng(options.seed);
    for (std::vector<Instance>* pool : {&disk, &miss}) {
      for (Instance& inst : *pool) inst.h = Relabel(inst.h, &rng);
      for (int i = static_cast<int>(pool->size()) - 1; i > 0; --i) {
        std::swap((*pool)[i], (*pool)[rng.UniformInt(i + 1)]);
      }
    }
    next_disk = next_miss = 0;
    std::vector<int> strata(std::begin(kMix), std::end(kMix));
    schedule = Schedule(strata, 256, &rng);

    // Pre-populate a fresh cache dir with the library's own service (the
    // same store code the server runs): ballast first, so the LRU cap
    // evicts ballast, then the disk and memory sets.
    cache_dir = options.work_dir + "/serve-cache-" +
                std::to_string(options.seed) + "-" +
                std::to_string(setup_count++);
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
    std::filesystem::create_directories(cache_dir, ec);
    long long cap = 0;
    {
      hypertree::serve::ServerOptions so;
      so.cache_dir = cache_dir;
      so.threads = kProgramThreads;
      so.default_budget_seconds = kBackstopSeconds;
      hypertree::serve::DecompositionService service(so);
      for (const std::vector<Instance>* pool : {&ballast, &disk, &memory}) {
        for (const Instance& inst : *pool) {
          Json resp = service.Handle(DecomposeRequest(inst.h), {});
          if (!ResponseOk(resp, inst.h, inst.ghw)) {
            error = "pre-population returned a wrong answer";
            return false;
          }
        }
      }
      cap = service.store().DiskUsageBytes();
    }
    std::vector<std::string> argv = {
        options.serve_bin, "--port=0", "--cache-dir=" + cache_dir,
        "--cache-max-bytes=" + std::to_string(cap),
        "--threads=" + std::to_string(kProgramThreads),
        "--budget-seconds=" +
            std::to_string(static_cast<int>(kBackstopSeconds))};
    std::string log =
        options.work_dir + "/serve-" + std::to_string(options.seed) + ".log";
    if (!server.Start(argv, log, &error)) {
      return false;
    }
    fd = hypertree::serve::ConnectLoopback(server.port(), &error);
    if (fd < 0) return false;
    // Warm the memory level: these first requests are disk hits that the
    // server promotes into memory.
    for (const Instance& inst : memory) {
      Json resp;
      if (!RoundTrip(fd, DecomposeRequest(inst.h).Dump(), &resp, &error) ||
          !ResponseOk(resp, inst.h, inst.ghw)) {
        if (error.empty()) error = "warm-up returned a wrong answer";
        return false;
      }
    }
    return true;
  };

  Layers layers;
  auto op = [&](long i, Tracer* tracer, bool* ok) -> double {
    int kind = kMix[schedule[i % schedule.size()]];
    const Instance* inst = nullptr;
    Hypergraph renamed;
    switch (kind) {
      case kMemory:
        inst = &memory[static_cast<size_t>(i) % memory.size()];
        break;
      case kMemoryRenamed:
        inst = &memory[static_cast<size_t>(i) % memory.size()];
        renamed = Relabel(inst->h, &rename_rng);
        break;
      case kDisk:
        inst = &disk[next_disk++];
        break;
      default:
        inst = &miss[next_miss++];
        break;
    }
    const Hypergraph& sent = kind == kMemoryRenamed ? renamed : inst->h;
    std::string request = DecomposeRequest(sent).Dump();
    Json resp;
    std::string rt_error;
    bool delivered = false;
    double t0 = NowMs();
    {
      ScopedSpan span(tracer, "serve.op", i);
      ScopedSpan rtt(tracer, "serve.rtt", i);
      delivered = RoundTrip(fd, request, &resp, &rt_error);
    }
    double ms = NowMs() - t0;
    *ok = delivered && ResponseOk(resp, sent, inst->ghw);
    if (tracer != nullptr && delivered) {
      ++layers.ops;
      const Json* source = resp.Find("source");
      std::string src = source ? source->AsString() : "";
      if (src == "memory") ++layers.memory;
      if (src == "disk") ++layers.disk;
      if (src == "solved") {
        ++layers.solved;
        layers.solve_ms += resp.Find("solve_ms")->AsDouble();
      }
      layers.rtt_ms += ms;
      const Json* wall = resp.Find("wall_ms");
      layers.handle_ms += wall ? wall->AsDouble() : 0;
      ScopedSpan hash(tracer, "serve.hash", i);
      double h0 = NowMs();
      hypertree::serve::NormalizeInstance(sent);
      layers.hash_ms += NowMs() - h0;
    }
    return ms;
  };

  Tracer tracer;
  LoopSpec loop_spec;
  loop_spec.setup_repeats = 3;
  loop_spec.setup = setup;
  loop_spec.teardown = teardown;
  loop_spec.op = op;
  loop_spec.exhausted = [&] {
    return next_disk >= disk.size() || next_miss >= miss.size();
  };
  LoopOutcome loop =
      RunClosedLoop(options, loop_spec, options.trace ? &tracer : nullptr);
  if (!loop.setup_ok) {
    teardown();
    result.correct = false;
    result.notes.push_back("setup failed: " + error);
    return result;
  }
  double disk_bytes = 0;
  {
    Json stats_req = Json::Object();
    stats_req.Set("op", "stats");
    Json stats;
    if (RoundTrip(fd, stats_req.Dump(), &stats, &error) &&
        stats.Find("disk_bytes")) {
      disk_bytes = static_cast<double>(stats.Find("disk_bytes")->AsInt());
    }
  }
  double server_rss = server.PeakRssMb();
  {
    Json shutdown = Json::Object();
    shutdown.Set("op", "shutdown");
    Json ack;
    RoundTrip(fd, shutdown.Dump(), &ack, &error);
  }
  teardown();

  result.attempted = loop.attempted;
  result.failed = loop.failed;
  result.notes.push_back("disk hits used " + std::to_string(next_disk) + "/" +
                         std::to_string(disk.size()) + ", misses used " +
                         std::to_string(next_miss) + "/" +
                         std::to_string(miss.size()));
  if (!options.trace) {
    AddEndToEndMetrics(loop, server_rss, &result);
    return result;
  }
  const Layers& l = layers;
  result.metrics = {
      {"serve.rtt_ms", Ratio(l.rtt_ms, l.ops), "ms"},
      {"serve.handle_ms", Ratio(l.handle_ms, l.ops), "ms"},
      {"serve.transport_ms", Ratio(l.rtt_ms - l.handle_ms, l.ops), "ms"},
      {"serve.hash_ms", Ratio(l.hash_ms, l.ops), "ms"},
      {"serve.memory_hit_share", Ratio(l.memory, l.ops), "share"},
      {"serve.disk_hit_share", Ratio(l.disk, l.ops), "share"},
      {"serve.solve_ms", Ratio(l.solve_ms, l.solved), "ms"},
      {"serve.miss_share", Ratio(l.solved, l.ops), "share"},
      {"serve.disk_bytes", disk_bytes, "bytes"},
  };
  AddTraceMetrics(loop, tracer, "serve.op", &result);
  WriteTrace(options, tracer, &result);
  return result;
}

// Spec generation: random instances whose ghw PortfolioGhw proves within
// a node budget and A* (or branch and bound) confirms. Memory-set
// instances must also keep their cache key under 16 seeded renamings, so
// a renamed request is a memory hit.
int MakeServeSpec() {
  const long kNodeBudget = 100000;
  struct PoolSpec {
    const char* name;
    int count, n_lo, n_hi;
    uint64_t seed_base;
    bool rename_stable;
  };
  const PoolSpec pools[] = {{"ballast", 100, 18, 20, 100000, false},
                            {"disk", 70, 18, 20, 200000, false},
                            {"memory", 12, 18, 20, 300000, true},
                            {"miss", 110, 18, 20, 400000, false}};
  Json spec = Json::Object();
  spec.Set("workload", "serve");
  spec.Set("selection",
           "PortfolioGhw proves ghw within 100000 nodes and A* or branch and "
           "bound agrees; memory-set keys are stable under 16 renamings");
  for (const PoolSpec& p : pools) {
    Json list = Json::Array();
    int kept = 0;
    for (uint64_t s = p.seed_base; kept < p.count; ++s) {
      int span = p.n_hi - p.n_lo + 1;
      int n = p.n_lo + static_cast<int>(s % static_cast<uint64_t>(span));
      Json e = Json::Object();
      e.Set("name", std::string(p.name) + "_" + std::to_string(s));
      e.Set("family", "random");
      e.Set("n", n);
      e.Set("m", (n * 6 + 2) / 5);
      e.Set("seed", static_cast<long>(s));
      Hypergraph h;
      std::string error;
      if (!BuildFamilyInstance(e, &h, &error)) return 1;
      hypertree::PortfolioOptions po;
      po.threads = kProgramThreads;
      po.max_nodes = kNodeBudget;
      po.time_limit_seconds = kBackstopSeconds;
      hypertree::PortfolioResult pr = hypertree::PortfolioGhw(h, po);
      if (!pr.result.exact) continue;
      hypertree::WidthResult ref = ReferenceGhw(h);
      if (!ref.exact || ref.upper_bound != pr.result.upper_bound) {
        std::fprintf(stderr, "%s: portfolio %d vs reference %d%s\n",
                     e.Find("name")->AsString().c_str(), pr.result.upper_bound,
                     ref.upper_bound, ref.exact ? "" : "*");
        return 1;
      }
      if (p.rename_stable) {
        std::string key = hypertree::serve::NormalizeInstance(h).key;
        hypertree::Rng rng(s);
        bool stable = true;
        for (int r = 0; r < 16 && stable; ++r) {
          stable =
              hypertree::serve::NormalizeInstance(Relabel(h, &rng)).key == key;
        }
        if (!stable) continue;
      }
      e.Set("fingerprint", HypergraphFingerprint(h));
      e.Set("ghw", pr.result.upper_bound);
      e.Set("nodes", pr.result.nodes);
      list.Append(std::move(e));
      ++kept;
    }
    std::fprintf(stderr, "%s: %d instances\n", p.name, kept);
    spec.Set(p.name, std::move(list));
  }
  std::printf("%s\n", spec.Dump().c_str());
  return 0;
}

}  // namespace perfbench
