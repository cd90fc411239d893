// perfbench: closed-loop load generator for the hypertree pipeline.
//
//   perfbench --workload=decompose|answer|serve --seed=N --seconds=S
//             --trace=0|1 --spec-dir=DIR --work-dir=DIR --serve-bin=PATH
//             [--commit=SHA]
//   perfbench --make-spec=decompose|answer|serve > spec/<name>.json
//
// Prints informational lines, then one JSON result line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace=0 the metrics are the six end-to-end ones; with --trace=1
// they are every per-layer metric (0 where the workload does not run
// that layer).

#include <cmath>
#include <csignal>
#include <cstdio>
#include <set>
#include <string>

#include "bench.h"
#include "util/flags.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, whichever workload exercises it.
constexpr LayerMetric kPerLayer[] = {
    {"portfolio.prologue_ms", "ms"},
    {"portfolio.race_ms", "ms"},
    {"portfolio.nodes", "count"},
    {"portfolio.wasted_node_share", "share"},
    {"portfolio.cancel_latency_ms", "ms"},
    {"bounds.ghw_lb_ms", "ms"},
    {"search.cache_hit_ratio", "share"},
    {"kernels.rows_per_op", "count"},
    {"hd.detk_ms", "ms"},
    {"hd.detk_nodes", "count"},
    {"answer.plan_ms", "ms"},
    {"csp.materialise_ms", "ms"},
    {"csp.reduce_ms", "ms"},
    {"csp.count_ms", "ms"},
    {"cq.answer_ms", "ms"},
    {"csp.bag_tuples", "count"},
    {"relation.rows_joined", "count"},
    {"relation.semijoin_drop_share", "share"},
    {"relation.probe_collisions_per_row", "count"},
    {"relation.morsels_skipped_share", "share"},
    {"relation.spill_bytes", "bytes"},
    {"csp.ghd_td_tuple_ratio", "ratio"},
    {"csp.bt_ms", "ms"},
    {"csp.bt_nodes", "count"},
    {"serve.rtt_ms", "ms"},
    {"serve.handle_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.hash_ms", "ms"},
    {"serve.memory_hit_share", "share"},
    {"serve.disk_hit_share", "share"},
    {"serve.solve_ms", "ms"},
    {"serve.miss_share", "share"},
    {"serve.disk_bytes", "bytes"},
    {"trace.phase_coverage", "share"},
    {"trace.overhead_ms", "ms"},
};

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Result& result, bool trace) {
  std::vector<Metric> metrics = result.metrics;
  // Any op that failed its oracle makes the run incorrect.
  bool correct = result.correct && result.attempted > 0 && result.failed == 0;
  if (trace) {
    std::set<std::string> known;
    for (const LayerMetric& lm : kPerLayer) known.insert(lm.name);
    std::vector<Metric> full;
    for (const LayerMetric& lm : kPerLayer) {
      Metric m{lm.name, 0.0, lm.unit};
      for (const Metric& got : metrics) {
        if (got.name == lm.name) m.value = got.value;
      }
      full.push_back(m);
    }
    for (const Metric& got : metrics) {
      if (known.count(got.name) == 0) {
        std::printf("error: unlisted per-layer metric %s\n", got.name.c_str());
        correct = false;
      }
    }
    metrics = std::move(full);
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  hypertree::Flags flags = hypertree::Flags::Parse(argc, argv);
  // A server that dies mid-run must show as failed ops, not kill the
  // client through SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  if (flags.Has("make-spec")) {
    std::string which = flags.GetString("make-spec");
    if (which == "decompose") return MakeDecomposeSpec();
    if (which == "answer") return MakeAnswerSpec();
    if (which == "serve") return MakeServeSpec();
    std::fprintf(stderr, "perfbench: unknown --make-spec \"%s\"\n",
                 which.c_str());
    return 2;
  }

  Options options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 10);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.spec_dir = flags.GetString("spec-dir");
  options.work_dir = flags.GetString("work-dir");
  options.serve_bin = flags.GetString("serve-bin");
  options.commit = flags.GetString("commit");
  if (options.spec_dir.empty() || options.work_dir.empty() ||
      options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --spec-dir, --work-dir and a positive "
                         "--seconds are required\n");
    return 2;
  }

  std::printf("{\"fingerprint\": %s}\n", Fingerprint(options).Dump().c_str());

  Result result;
  if (options.workload == "decompose") {
    result = RunDecompose(options);
  } else if (options.workload == "answer") {
    result = RunAnswer(options);
  } else if (options.workload == "serve") {
    result = RunServe(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload \"%s\"\n",
                 options.workload.c_str());
    return 2;
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  PrintResult(result, options.trace);
  std::fflush(stdout);
  return 0;
}
