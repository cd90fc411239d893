#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "ghd/astar.h"
#include "ghd/branch_and_bound.h"
#include "hypergraph/generators.h"
#include "kernels/kernels.h"
#include "util/metrics.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using hypertree::Json;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

int Tracer::Begin(const std::string& name, long op_id) {
  Span s;
  s.name = name;
  s.op_id = op_id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ms = NowMs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end_ms = NowMs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::AddChild(const std::string& name, long op_id, double start_ms,
                      double dur_ms) {
  Span s;
  s.name = name;
  s.op_id = op_id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ms = start_ms;
  s.end_ms = start_ms + dur_ms;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::TotalMs() const {
  std::map<std::string, double> total;
  for (const Span& s : spans_) total[s.name] += s.end_ms - s.start_ms;
  return total;
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += std::max(0.0, s.end_ms - s.start_ms - child_ms[i]);
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const Json& metadata) const {
  double origin = spans_.empty() ? 0 : spans_.front().start_ms;
  Json events = Json::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json args = Json::Object();
    args.Set("op", s.op_id);
    args.Set("span", static_cast<long>(i));
    args.Set("parent", s.parent);
    Json e = Json::Object();
    e.Set("name", s.name);
    e.Set("cat", s.name.substr(0, s.name.find('.')));
    e.Set("ph", "X");
    e.Set("ts", (s.start_ms - origin) * 1000.0);
    e.Set("dur", (s.end_ms - s.start_ms) * 1000.0);
    e.Set("pid", 1);
    e.Set("tid", 1);
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  doc.Set("metadata", metadata);
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  return static_cast<bool>(out);
}

std::map<std::string, long> ReadCounters(
    const std::vector<std::string>& names) {
  std::map<std::string, long> values;
  for (const std::string& n : names) {
    values[n] = hypertree::metrics::GetCounter(n).Value();
  }
  return values;
}

long SumCountersWithPrefix(const std::string& prefix) {
  long sum = 0;
  for (const auto& [name, value] :
       hypertree::metrics::Registry::Global().Snapshot(true)) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += value;
  }
  return sum;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Json Fingerprint(const Options& options) {
  Json fp = Json::Object();
  fp.Set("nproc", static_cast<long>(sysconf(_SC_NPROCESSORS_ONLN)));
  fp.Set("cpu_model", CpuModel());
  fp.Set("kernel_backend",
         hypertree::kernels::BackendName(hypertree::kernels::ActiveBackend()));
  fp.Set("compiler", PERFBENCH_COMPILER);
  fp.Set("build_type", PERFBENCH_BUILD_TYPE);
  fp.Set("program_threads", kProgramThreads);
  fp.Set("commit", options.commit.empty() ? "unknown" : options.commit);
  fp.Set("workload", options.workload);
  fp.Set("seed", static_cast<long>(options.seed));
  return fp;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x_));
  return buf;
}

hypertree::WidthResult ReferenceGhw(const hypertree::Hypergraph& h) {
  hypertree::GhwSearchOptions options;
  options.time_limit_seconds = 120;
  options.threads = 1;
  hypertree::WidthResult ref = hypertree::AStarGhw(h, options);
  if (!ref.exact) ref = hypertree::BranchAndBoundGhw(h, options);
  return ref;
}

hypertree::Hypergraph Relabel(const hypertree::Hypergraph& h,
                              hypertree::Rng* rng) {
  int n = h.NumVertices();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng->UniformInt(i + 1)]);
  }
  std::vector<int> order(h.NumEdges());
  std::iota(order.begin(), order.end(), 0);
  for (int i = static_cast<int>(order.size()) - 1; i > 0; --i) {
    std::swap(order[i], order[rng->UniformInt(i + 1)]);
  }
  uint64_t tag = rng->Next() % 100000;
  hypertree::Hypergraph out(n);
  for (int v = 0; v < n; ++v) {
    out.SetVertexName(perm[v], "r" + std::to_string(tag) + "_" +
                                   std::to_string(perm[v]));
  }
  for (int e : order) {
    std::vector<int> vs;
    for (int v : h.EdgeVertices(e)) vs.push_back(perm[v]);
    std::sort(vs.begin(), vs.end());
    out.AddEdge(vs, "c" + std::to_string(tag) + "_" + std::to_string(e));
  }
  out.set_name(h.name());
  return out;
}

std::string HypergraphFingerprint(const hypertree::Hypergraph& h) {
  Digest d;
  d.Add(static_cast<uint64_t>(h.NumVertices()));
  for (int e = 0; e < h.NumEdges(); ++e) {
    d.Add(0xFFFFFFFFULL);
    for (int v : h.EdgeVertices(e)) d.Add(static_cast<uint64_t>(v));
  }
  return d.Hex();
}

bool BuildFamilyInstance(const Json& entry, hypertree::Hypergraph* out,
                         std::string* error) {
  const Json* family = entry.Find("family");
  auto get = [&entry](const char* key) {
    const Json* v = entry.Find(key);
    return v ? static_cast<int>(v->AsInt()) : 0;
  };
  std::string f = family ? family->AsString() : "";
  if (f == "random") {
    *out = hypertree::RandomHypergraph(get("n"), get("m"), 2, 4,
                                       static_cast<uint64_t>(get("seed")));
  } else if (f == "adder") {
    *out = hypertree::AdderHypergraph(get("size"));
  } else if (f == "bridge") {
    *out = hypertree::BridgeHypergraph(get("size"));
  } else if (f == "grid2d") {
    *out = hypertree::Grid2DHypergraph(get("size"));
  } else {
    *error = "unknown family \"" + f + "\"";
    return false;
  }
  const Json* fp = entry.Find("fingerprint");
  if (fp != nullptr && fp->AsString() != HypergraphFingerprint(*out)) {
    *error = "instance " + entry.Find("name")->AsString() +
             " no longer matches its spec fingerprint (regenerate the spec)";
    return false;
  }
  return true;
}

bool LoadSpec(const Options& options, const std::string& name, Json* spec,
              std::string* error) {
  std::string path = options.spec_dir + "/" + name + ".json";
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::optional<Json> parsed = Json::Parse(buf.str(), error);
  if (!parsed.has_value()) return false;
  *spec = std::move(*parsed);
  return true;
}

std::vector<int> Schedule(const std::vector<int>& stratum, int passes,
                          hypertree::Rng* rng) {
  std::map<int, std::vector<int>> members;
  for (int slot = 0; slot < static_cast<int>(stratum.size()); ++slot) {
    members[stratum[slot]].push_back(slot);
  }
  std::vector<int> out;
  for (int p = 0; p < passes; ++p) {
    std::vector<std::pair<double, int>> keyed;
    for (auto& [s, slots] : members) {
      for (int i = static_cast<int>(slots.size()) - 1; i > 0; --i) {
        std::swap(slots[i], slots[rng->UniformInt(i + 1)]);
      }
      double offset = static_cast<double>(rng->UniformInt(1000)) / 1000.0;
      for (size_t j = 0; j < slots.size(); ++j) {
        keyed.push_back({(static_cast<double>(j) + offset) /
                             static_cast<double>(slots.size()),
                         slots[j]});
      }
    }
    std::sort(keyed.begin(), keyed.end());
    for (const auto& kv : keyed) out.push_back(kv.second);
  }
  return out;
}

LoopOutcome RunClosedLoop(const Options& options, const LoopSpec& spec,
                          Tracer* tracer) {
  LoopOutcome out;
  std::vector<double> setups;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    if (r > 0 && spec.teardown) spec.teardown();
    double t0 = NowMs();
    if (!spec.setup()) {
      out.setup_ok = false;
      return out;
    }
    setups.push_back((NowMs() - t0) / 1000.0);
  }
  out.setup_s = Median(setups);

  // A traced run spends its first half untraced so the tracing overhead
  // can be read off the same process.
  double untraced_ms = options.seconds * 1000.0 * (tracer ? 0.5 : 1.0);
  double start = NowMs();
  long i = 0;
  auto more = [&spec] { return !spec.exhausted || !spec.exhausted(); };
  while (NowMs() - start < untraced_ms && more()) {
    bool ok = false;
    double ms = spec.op(i++, nullptr, &ok);
    out.op_ms.push_back(ms);
    ++out.attempted;
    if (!ok) ++out.failed;
  }
  if (tracer != nullptr) {
    double traced_start = NowMs();
    while (NowMs() - traced_start < untraced_ms && more()) {
      bool ok = false;
      double ms = spec.op(i++, tracer, &ok);
      out.traced_op_ms.push_back(ms);
      ++out.attempted;
      if (!ok) ++out.failed;
    }
  }
  return out;
}

// Throughput of the closed loop, robust to a transient slowdown: the
// untraced ops are cut into kWindows consecutive windows, each gives
// ops / (sum of its op times), and the median window is reported. The
// schedule is stratified, so every window holds the same op mix.
double WindowedThroughput(const std::vector<double>& op_ms) {
  constexpr size_t kWindows = 8;
  size_t per = op_ms.size() / kWindows;
  if (per == 0) {
    double total = std::accumulate(op_ms.begin(), op_ms.end(), 0.0);
    return total > 0 ? static_cast<double>(op_ms.size()) * 1000.0 / total : 0;
  }
  std::vector<double> rates;
  for (size_t w = 0; w < kWindows; ++w) {
    double total = std::accumulate(op_ms.begin() + w * per,
                                   op_ms.begin() + (w + 1) * per, 0.0);
    rates.push_back(static_cast<double>(per) * 1000.0 / total);
  }
  return Median(rates);
}

void AddEndToEndMetrics(const LoopOutcome& loop, double peak_rss_mb,
                        Result* result) {
  auto& m = result->metrics;
  m.push_back({"setup_s", loop.setup_s, "s"});
  m.push_back({"ops_per_s", WindowedThroughput(loop.op_ms), "1/s"});
  m.push_back({"op_ms_p50", Percentile(loop.op_ms, 50), "ms"});
  m.push_back({"op_ms_p90", Percentile(loop.op_ms, 90), "ms"});
  m.push_back({"ok_op_share",
               loop.attempted > 0
                   ? static_cast<double>(loop.attempted - loop.failed) /
                         static_cast<double>(loop.attempted)
                   : 0,
               "share"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  size_t n = loop.op_ms.size();
  result->notes.push_back("samples " + std::to_string(n) + ", beyond p90 " +
                          std::to_string(n / 10));
}

void AddTraceMetrics(const LoopOutcome& loop, const Tracer& tracer,
                     const std::string& op_span, Result* result) {
  std::map<std::string, double> total = tracer.TotalMs();
  std::map<std::string, double> self = tracer.SelfMs();
  double op_total = total.count(op_span) ? total[op_span] : 0;
  double op_self = self.count(op_span) ? self[op_span] : 0;
  result->metrics.push_back(
      {"trace.phase_coverage", op_total > 0 ? 1.0 - op_self / op_total : 0,
       "share"});
  result->metrics.push_back({"trace.overhead_ms",
                             Percentile(loop.traced_op_ms, 50) -
                                 Percentile(loop.op_ms, 50),
                             "ms"});
  std::string line = "self_ms_per_op";
  double ops = static_cast<double>(loop.traced_op_ms.size());
  for (const auto& [name, ms] : self) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%.4g", name.c_str(), Ratio(ms, ops));
    line += buf;
  }
  result->notes.push_back(line);
}

void WriteTrace(const Options& options, const Tracer& tracer,
                Result* result) {
  Json meta = Json::Object();
  meta.Set("fingerprint", Fingerprint(options));
  std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                     std::to_string(options.seed) + ".json";
  if (tracer.WriteChromeJson(path, meta)) {
    result->notes.push_back("trace " + path + " (" +
                            std::to_string(tracer.size()) + " spans)");
  } else {
    result->notes.push_back("trace: cannot write " + path);
    result->correct = false;
  }
}

}  // namespace perfbench
