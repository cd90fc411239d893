// hypertree_decompose: compute decompositions and widths of an instance.
//
//   hypertree_decompose [flags] <instance>
//
//   <instance>          HyperBench hypergraph (.hg), DIMACS coloring
//                       graph (.col) or PACE graph (.gr); graphs are
//                       treated as hypergraphs with binary edges.
//   --method=...        bb | astar | ga | saiga | ls | minfill | portfolio
//                       (default bb; --algorithm is an alias)
//   --measure=...       ghw | tw | hw | fhw                     (default ghw)
//   --time-limit=SEC    budget for the exact searches             (default 10)
//   --threads=N         worker threads for the parallel search phases
//                       (default: hardware concurrency)
//   --seed=N            RNG seed                                  (default 1)
//   --output=FILE       write the witness decomposition: .td (PACE, tw
//                       only) or .dot
//   --kernel-backend=.. auto | scalar | avx2: bitwise kernel
//                       backend for the search inner loops (default
//                       auto; see docs/KERNELS.md). The kernels.*
//                       metrics in --json report the traffic.
//   --quiet             print only the width
//   --json              print one machine-readable JSON record (the
//                       BENCH.json schema, see docs/BENCHMARKS.md) plus
//                       the metrics-registry snapshot instead of text
//   --portfolio-trace   (portfolio only) per-engine race trace on stderr
//   --portfolio-live    (portfolio only) live bound sharing: faster wall
//                       time, timing-dependent node counts

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "fhw/fractional_hypertree.h"
#include "ga/ga_ghw.h"
#include "ga/ga_tw.h"
#include "ga/saiga.h"
#include "ghd/astar.h"
#include "ghd/branch_and_bound.h"
#include "ghd/ghw_from_ordering.h"
#include "graph/dimacs.h"
#include "hd/det_k_decomp.h"
#include "hypergraph/parser.h"
#include "io/dot.h"
#include "io/ghd_format.h"
#include "kernels/kernels.h"
#include "ls/local_search.h"
#include "ordering/evaluator.h"
#include "portfolio/portfolio.h"
#include "ordering/heuristics.h"
#include "td/astar.h"
#include "td/branch_and_bound.h"
#include "td/pace.h"
#include "search/decomp_cache.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace hypertree;

namespace {

/// One BENCH.json-schema record (docs/BENCHMARKS.md) with the full
/// metrics-registry snapshot attached, printed to stdout.
void PrintJsonRecord(const std::string& instance, const std::string& algorithm,
                     int width, bool exact, int lower_bound, long nodes,
                     double wall_ms, const DecompCacheStats& cache_stats,
                     Json extra_counters = Json::Object()) {
  Json counters = Json::Object();
  counters.Set("cache_hits", cache_stats.hits)
      .Set("cache_misses", cache_stats.misses)
      .Set("cache_inserts", cache_stats.inserts);
  for (const auto& [key, value] : extra_counters.fields()) {
    counters.Set(key, value);
  }
  Json metrics_obj = Json::Object();
  for (const auto& [name, value] : metrics::Registry::Global().Snapshot()) {
    metrics_obj.Set(name, value);
  }
  Json rec = Json::Object();
  rec.Set("bench", "hypertree_decompose")
      .Set("instance", instance)
      .Set("algorithm", algorithm)
      .Set("width", width)
      .Set("exact", exact)
      .Set("lower_bound", lower_bound)
      .Set("nodes", nodes)
      .Set("wall_ms", wall_ms)
      .Set("deterministic", exact)
      .Set("counters", std::move(counters))
      .Set("metrics", std::move(metrics_obj));
  std::printf("%s\n", rec.Dump().c_str());
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::optional<Hypergraph> LoadInstance(const std::string& path,
                                       std::string* error) {
  if (EndsWith(path, ".col")) {
    auto g = ReadDimacsGraphFile(path, error);
    if (!g.has_value()) return std::nullopt;
    return HypergraphFromGraph(*g);
  }
  if (EndsWith(path, ".gr")) {
    std::ifstream in(path);
    if (!in) {
      *error = "cannot open " + path;
      return std::nullopt;
    }
    auto g = ReadPaceGraph(in, error);
    if (!g.has_value()) return std::nullopt;
    return HypergraphFromGraph(*g);
  }
  return ReadHypergraphFile(path, error);
}

int Usage() {
  std::fprintf(stderr,
               "usage: hypertree_decompose [--method=bb|astar|ga|saiga|ls|"
               "minfill|portfolio] [--measure=ghw|tw|hw|fhw]\n"
               "       [--time-limit=SEC] [--threads=N] [--seed=N] "
               "[--output=FILE] [--quiet] [--json]\n"
               "       [--kernel-backend=auto|scalar|avx2]\n"
               "       [--portfolio-trace] [--portfolio-live] <instance>\n"
               "       (--algorithm is an alias for --method)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.positional().size() != 1) return Usage();
  std::string error;
  auto h = LoadInstance(flags.positional()[0], &error);
  if (!h.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::string kernel_backend = flags.GetString("kernel-backend");
  if (!kernel_backend.empty()) {
    kernels::Backend kb;
    if (!kernels::ParseBackend(kernel_backend, &kb)) {
      std::fprintf(stderr,
                   "error: unknown --kernel-backend \"%s\" (expected auto, "
                   "scalar or avx2)\n",
                   kernel_backend.c_str());
      return 2;
    }
    kernels::SetBackend(kb);
  }
  std::string method = flags.GetString("algorithm");
  if (method.empty()) method = flags.GetString("method", "bb");
  std::string measure = flags.GetString("measure", "ghw");
  double budget = flags.GetDouble("time-limit", 10.0);
  int threads = static_cast<int>(
      flags.GetInt("threads", ThreadPool::HardwareThreads()));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  bool quiet = flags.GetBool("quiet");
  bool json = flags.GetBool("json");
  Timer wall;

  GhwEvaluator eval(*h);
  EliminationOrdering witness;
  int width = -1;
  bool exact = false;
  long nodes = 0;
  DecompCacheStats cache_stats;

  if (measure == "fhw") {
    double fhw = FhwUpperBound(*h, 5, seed);
    if (json) {
      // fhw is fractional: report the integer ceiling as the width and
      // the exact value as a counter-style field.
      PrintJsonRecord(h->name(), "fhw_upper",
                      static_cast<int>(std::ceil(fhw)), /*exact=*/false,
                      /*lower_bound=*/-1, /*nodes=*/0, wall.ElapsedMillis(),
                      DecompCacheStats{});
      return 0;
    }
    if (quiet) {
      std::printf("%.4f\n", fhw);
    } else {
      std::printf("instance  : %s\nfhw upper : %.4f\n", h->name().c_str(),
                  fhw);
    }
    return 0;
  }
  if (measure == "hw") {
    SearchOptions opts;
    opts.time_limit_seconds = budget;
    opts.seed = seed;
    opts.threads = threads;
    std::optional<HypertreeDecomposition> hd;
    WidthResult res = HypertreeWidth(*h, opts, &hd);
    if (json) {
      PrintJsonRecord(h->name(), "det_k_hw", res.upper_bound, res.exact,
                      res.lower_bound, res.nodes, res.seconds * 1000.0,
                      res.cache_stats);
    } else if (quiet) {
      std::printf("%d\n", res.upper_bound);
    } else {
      std::printf("instance : %s\nhw       : %d%s (lb %d)\n",
                  h->name().c_str(), res.upper_bound, res.exact ? "" : "*",
                  res.lower_bound);
      std::printf("cache    : %ld hits, %ld misses, %ld inserts\n",
                  res.cache_stats.hits, res.cache_stats.misses,
                  res.cache_stats.inserts);
    }
    std::string out_path = flags.GetString("output");
    if (!out_path.empty() && hd.has_value()) {
      std::ofstream out(out_path);
      WriteDot(*hd, *h, out);
    }
    return 0;
  }

  bool want_tw = measure == "tw";
  std::optional<PortfolioResult> portfolio;
  if (method == "portfolio") {
    if (want_tw) {
      std::fprintf(stderr, "error: --method=portfolio supports ghw only\n");
      return 2;
    }
    PortfolioOptions popts;
    popts.time_limit_seconds = budget;
    popts.threads = threads;
    popts.seed = seed;
    popts.trace = flags.GetBool("portfolio-trace");
    popts.live_sharing = flags.GetBool("portfolio-live");
    portfolio = PortfolioGhw(*h, popts);
    width = portfolio->result.upper_bound;
    exact = portfolio->result.exact;
    witness = portfolio->result.best_ordering;
    nodes = portfolio->result.nodes;
    cache_stats = portfolio->result.cache_stats;
  } else if (method == "bb") {
    if (want_tw) {
      SearchOptions opts;
      opts.time_limit_seconds = budget;
      opts.seed = seed;
      opts.threads = threads;
      WidthResult res = BranchAndBoundTreewidth(eval.primal(), opts);
      width = res.upper_bound;
      exact = res.exact;
      witness = res.best_ordering;
      nodes = res.nodes;
      cache_stats = res.cache_stats;
    } else {
      GhwSearchOptions opts;
      opts.time_limit_seconds = budget;
      opts.seed = seed;
      opts.threads = threads;
      WidthResult res = BranchAndBoundGhw(*h, opts);
      width = res.upper_bound;
      exact = res.exact;
      witness = res.best_ordering;
      nodes = res.nodes;
      cache_stats = res.cache_stats;
    }
  } else if (method == "astar") {
    if (want_tw) {
      SearchOptions opts;
      opts.time_limit_seconds = budget;
      opts.seed = seed;
      opts.threads = threads;
      WidthResult res = AStarTreewidth(eval.primal(), opts);
      width = res.upper_bound;
      exact = res.exact;
      witness = res.best_ordering;
      nodes = res.nodes;
      cache_stats = res.cache_stats;
    } else {
      GhwSearchOptions opts;
      opts.time_limit_seconds = budget;
      opts.seed = seed;
      opts.threads = threads;
      WidthResult res = AStarGhw(*h, opts);
      width = res.upper_bound;
      exact = res.exact;
      witness = res.best_ordering;
      nodes = res.nodes;
      cache_stats = res.cache_stats;
    }
  } else if (method == "ga" || method == "saiga") {
    if (method == "saiga" && !want_tw) {
      SaigaConfig cfg;
      cfg.seed = seed;
      cfg.time_limit_seconds = budget;
      SaigaResult res = SaigaGhw(*h, cfg);
      width = res.ga.best_fitness;
      witness = res.ga.best;
    } else {
      GaConfig cfg;
      cfg.seed = seed;
      cfg.time_limit_seconds = budget;
      GaResult res = want_tw ? GaTreewidth(eval.primal(), cfg) : GaGhw(*h, cfg);
      width = res.best_fitness;
      witness = res.best;
    }
  } else if (method == "ls") {
    LocalSearchConfig cfg;
    cfg.seed = seed;
    cfg.time_limit_seconds = budget;
    LocalSearchResult res =
        want_tw ? LsTreewidth(eval.primal(), cfg) : LsGhw(*h, cfg);
    width = res.best_fitness;
    witness = res.best;
  } else if (method == "minfill") {
    Rng rng(seed);
    witness = MinFillOrdering(eval.primal(), &rng);
    width = want_tw ? EvaluateOrderingWidth(eval.primal(), witness)
                    : eval.EvaluateOrdering(witness, CoverMode::kGreedy, &rng);
  } else {
    return Usage();
  }

  // Re-derive the exact-cover width of the witness ordering for ghw so
  // the reported width always matches the written decomposition.
  if (!want_tw) {
    width = eval.EvaluateOrdering(witness, CoverMode::kExact);
  }
  if (json) {
    std::string algorithm = method + (want_tw ? "_tw" : "_ghw");
    Json extra = Json::Object();
    int lower_bound = -1;
    if (portfolio.has_value()) {
      lower_bound = portfolio->result.lower_bound;
      extra.Set("portfolio_rule", portfolio->plan.rule)
          .Set("portfolio_winner", portfolio->winner)
          .Set("portfolio_winner_name", portfolio->winner_name)
          .Set("portfolio_prologue_ms", portfolio->prologue_seconds * 1000.0)
          .Set("portfolio_cancel_latency_ms",
               portfolio->cancel_latency_seconds * 1000.0);
      for (const auto& e : portfolio->engines) {
        extra.Set("portfolio_" + e.name + "_nodes", e.nodes)
            .Set("portfolio_" + e.name + "_wall_ms", e.seconds * 1000.0)
            .Set("portfolio_" + e.name + "_proved", e.proved)
            .Set("portfolio_" + e.name + "_cancelled", e.cancelled);
      }
    }
    PrintJsonRecord(h->name(), algorithm, width, exact, lower_bound, nodes,
                    wall.ElapsedMillis(), cache_stats, std::move(extra));
  } else if (quiet) {
    std::printf("%d\n", width);
  } else {
    std::printf("instance : %s (%d vertices, %d hyperedges)\n",
                h->name().c_str(), h->NumVertices(), h->NumEdges());
    std::printf("%-9s: %d%s  (method %s)\n", want_tw ? "treewidth" : "ghw",
                width, exact ? "" : "*", method.c_str());
    if (method == "bb" || method == "astar") {
      std::printf("cache    : %ld hits, %ld misses, %ld inserts\n",
                  cache_stats.hits, cache_stats.misses, cache_stats.inserts);
    }
    if (portfolio.has_value()) {
      std::printf("portfolio: rule %s, winner %s, %zu engines, prologue "
                  "%.1fms\n",
                  portfolio->plan.rule.c_str(),
                  portfolio->winner_name.empty() ? "none"
                                                 : portfolio->winner_name.c_str(),
                  portfolio->engines.size(),
                  portfolio->prologue_seconds * 1000.0);
      for (const auto& e : portfolio->engines) {
        std::printf("  %-9s %s  nodes %ld  wall %.1fms\n", e.name.c_str(),
                    e.proved ? "proved" : (e.cancelled ? "cancelled"
                                                       : (e.ran ? "done"
                                                                : "skipped")),
                    e.nodes, e.seconds * 1000.0);
      }
    }
  }

  std::string out_path = flags.GetString("output");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    TreeDecomposition td = TreeDecompositionFromOrdering(eval.primal(), witness);
    if (EndsWith(out_path, ".td")) {
      WritePaceTreeDecomposition(td, out);
    } else if (EndsWith(out_path, ".ghd")) {
      GeneralizedHypertreeDecomposition ghd =
          eval.BuildGhd(witness, CoverMode::kExact);
      WriteGhd(ghd, *h, out);
    } else if (want_tw) {
      WriteDot(td, out);
    } else {
      GeneralizedHypertreeDecomposition ghd =
          eval.BuildGhd(witness, CoverMode::kExact);
      WriteDot(ghd, *h, out);
    }
    if (!quiet) std::printf("decomposition written to %s\n", out_path.c_str());
  }
  return 0;
}
