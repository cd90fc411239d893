// hypertree_solve: solve (and count solutions of) a random CSP attached
// to a hypergraph instance, via decompositions and via backtracking.
//
//   hypertree_solve [flags] <instance.hg>
//
//   --domain=D        uniform domain size (default 2)
//   --tightness=T     fraction of allowed tuples (default 0.3)
//   --plant           plant a random solution (default off)
//   --seed=N          RNG seed (default 1)
//   --threads=N       worker threads for the hw search and the parallel
//                     td/ghd solving + counting routes (default: hardware
//                     concurrency; 1 runs sequentially — results and the
//                     relation counters are identical either way)
//   --hw              also compute hw via det-k-decomp (parallel) and
//                     report its decomposition cache statistics
//   --count           also count all solutions
//   --route=...       td | ghd | bt | all (default all)
//   --kernel-backend=  auto | scalar | avx2: bitwise kernel
//                     backend for the decomposition inner loops
//                     (default auto; see docs/KERNELS.md)
//   --memory-budget=B per-query memory budget for the join engine, with
//                     an optional k/m/g suffix ("256m", "4g").
//                     Semijoin tables above it spill to disk (bags stay
//                     resident); answers are bit-identical either way
//                     (docs/SOLVING.md).
//                     Overrides HYPERTREE_MEMORY_BUDGET; 0 = unlimited.
//   --json            print machine-readable JSON records (the BENCH.json
//                     schema, see docs/BENCHMARKS.md) instead of text

#include <cstdio>
#include <string>

#include "csp/backtracking.h"
#include "csp/counting.h"
#include "csp/decomposition_solving.h"
#include "csp/generators.h"
#include "csp/morsel.h"
#include "ghd/ghw_from_ordering.h"
#include "hd/det_k_decomp.h"
#include "hypergraph/parser.h"
#include "kernels/kernels.h"
#include "ordering/heuristics.h"
#include "td/tree_decomposition.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace hypertree;

namespace {

/// One BENCH.json-schema record (docs/BENCHMARKS.md) printed to stdout.
void PrintJsonRecord(const std::string& instance, const std::string& algorithm,
                     int width, bool exact, int lower_bound, long nodes,
                     double wall_ms, bool deterministic, Json counters) {
  Json rec = Json::Object();
  rec.Set("bench", "hypertree_solve")
      .Set("instance", instance)
      .Set("algorithm", algorithm)
      .Set("width", width)
      .Set("exact", exact)
      .Set("lower_bound", lower_bound)
      .Set("nodes", nodes)
      .Set("wall_ms", wall_ms)
      .Set("deterministic", deterministic)
      .Set("counters", std::move(counters));
  std::printf("%s\n", rec.Dump().c_str());
}

/// Snapshot of the relation kernel counters (docs/BENCHMARKS.md).
struct KernelCounters {
  long rows_joined;
  long rows_semijoin_dropped;
  long probe_collisions;
  long morsels_processed;
  long morsels_skipped;
  long spill_partitions;
  long spill_bytes;

  static KernelCounters Now() {
    return {metrics::GetCounter("relation.rows_joined").Value(),
            metrics::GetCounter("relation.rows_semijoin_dropped").Value(),
            metrics::GetCounter("relation.probe_collisions").Value(),
            MorselsProcessed().Value(),
            MorselsSkipped().Value(),
            SpillPartitions().Value(),
            SpillBytes().Value()};
  }

  /// Adds the delta since `before` to `counters`.
  static void AddDelta(const KernelCounters& before, Json* counters) {
    KernelCounters now = Now();
    counters->Set("rows_joined", now.rows_joined - before.rows_joined)
        .Set("rows_semijoin_dropped",
             now.rows_semijoin_dropped - before.rows_semijoin_dropped)
        .Set("probe_collisions",
             now.probe_collisions - before.probe_collisions)
        .Set("morsels_processed",
             now.morsels_processed - before.morsels_processed)
        .Set("morsels_skipped", now.morsels_skipped - before.morsels_skipped)
        .Set("spill_partitions",
             now.spill_partitions - before.spill_partitions)
        .Set("spill_bytes", now.spill_bytes - before.spill_bytes);
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: hypertree_solve [--domain=D] [--tightness=T] "
                 "[--plant] [--seed=N] [--threads=N] [--hw] [--count] "
                 "[--route=td|ghd|bt|all] "
                 "[--kernel-backend=auto|scalar|avx2] "
                 "[--memory-budget=BYTES[k|m|g]] [--json] "
                 "<instance.hg>\n");
    return 2;
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
  std::string budget_str = flags.GetString("memory-budget");
  if (!budget_str.empty()) {
    long long budget_bytes = 0;
    if (!ParseByteSize(budget_str, &budget_bytes)) {
      std::fprintf(stderr,
                   "error: bad --memory-budget \"%s\" (expected bytes with "
                   "an optional k/m/g suffix)\n",
                   budget_str.c_str());
      return 2;
    }
    SetMemoryBudget(budget_bytes);
  }
  std::string error;
  auto h = ReadHypergraphFile(flags.positional()[0], &error);
  if (!h.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  int domain = static_cast<int>(flags.GetInt("domain", 2));
  double tightness = flags.GetDouble("tightness", 0.3);
  bool plant = flags.GetBool("plant");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  bool count = flags.GetBool("count");
  int threads = static_cast<int>(
      flags.GetInt("threads", ThreadPool::HardwareThreads()));
  bool want_hw = flags.GetBool("hw");
  std::string route = flags.GetString("route", "all");
  bool json = flags.GetBool("json");

  Csp csp = RandomCspFromHypergraph(*h, domain, tightness, plant, seed);
  if (!json) {
    std::printf("instance : %s (%d vars, %d constraints, domain %d)\n",
                h->name().c_str(), csp.NumVariables(), csp.NumConstraints(),
                domain);
  }

  GhwEvaluator eval(*h);
  Rng rng(seed);
  EliminationOrdering sigma = MinFillOrdering(eval.primal(), &rng);
  TreeDecomposition td = TreeDecompositionFromOrdering(eval.primal(), sigma);
  GeneralizedHypertreeDecomposition ghd =
      eval.BuildGhd(sigma, CoverMode::kExact);
  if (!json) {
    std::printf("widths   : td %d, ghd %d\n", td.Width(), ghd.Width());
  }
  if (want_hw) {
    SearchOptions sopts;
    sopts.time_limit_seconds = 10.0;
    sopts.seed = seed;
    sopts.threads = threads;
    WidthResult hw = HypertreeWidth(*h, sopts, nullptr);
    if (json) {
      PrintJsonRecord(h->name(), "det_k_hw", hw.upper_bound, hw.exact,
                      hw.lower_bound, hw.nodes, hw.seconds * 1000.0,
                      /*deterministic=*/hw.exact,
                      Json::Object()
                          .Set("cache_hits", hw.cache_stats.hits)
                          .Set("cache_misses", hw.cache_stats.misses)
                          .Set("cache_inserts", hw.cache_stats.inserts));
    } else {
      std::printf("hw       : %d%s (lb %d)\n", hw.upper_bound,
                  hw.exact ? "" : "*", hw.lower_bound);
      std::printf("hw cache : %ld hits, %ld misses, %ld inserts\n",
                  hw.cache_stats.hits, hw.cache_stats.misses,
                  hw.cache_stats.inserts);
    }
  }

  // The solve/count routes share one pool; --threads=1 keeps them
  // sequential (same results, same counters — see csp/yannakakis.h).
  ThreadPool solve_pool(threads);
  ThreadPool* pool = threads > 1 ? &solve_pool : nullptr;

  if (route == "td" || route == "all") {
    KernelCounters before = KernelCounters::Now();
    Timer t;
    DecompositionSolveStats stats;
    auto solution = SolveViaTreeDecomposition(csp, td, &stats, pool);
    double ms = t.ElapsedMillis();
    Json counters = Json::Object()
                        .Set("sat", solution.has_value())
                        .Set("bag_tuples", stats.bag_tuples);
    if (count) {
      counters.Set("solutions",
                   static_cast<long>(CountViaTreeDecomposition(csp, td, pool)));
    }
    KernelCounters::AddDelta(before, &counters);
    if (json) {
      PrintJsonRecord(h->name(), "csp_td", td.Width(), /*exact=*/true,
                      /*lower_bound=*/-1, /*nodes=*/0, ms,
                      /*deterministic=*/true, std::move(counters));
    } else {
      std::printf("td  route: %s (%.1f ms, %ld bag tuples)\n",
                  solution.has_value() ? "SAT" : "UNSAT", ms,
                  stats.bag_tuples);
      if (const Json* n = counters.Find("solutions")) {
        std::printf("td  count: %ld solutions\n", n->AsInt());
      }
    }
  }
  if (route == "ghd" || route == "all") {
    KernelCounters before = KernelCounters::Now();
    Timer t;
    auto solution = SolveViaGhd(csp, ghd, nullptr, pool);
    double ms = t.ElapsedMillis();
    Json counters = Json::Object().Set("sat", solution.has_value());
    if (count) {
      counters.Set("solutions",
                   static_cast<long>(CountViaGhd(csp, ghd, pool)));
    }
    KernelCounters::AddDelta(before, &counters);
    if (json) {
      PrintJsonRecord(h->name(), "csp_ghd", ghd.Width(), /*exact=*/true,
                      /*lower_bound=*/-1, /*nodes=*/0, ms,
                      /*deterministic=*/true, std::move(counters));
    } else {
      std::printf("ghd route: %s (%.1f ms)\n",
                  solution.has_value() ? "SAT" : "UNSAT", ms);
      if (const Json* n = counters.Find("solutions")) {
        std::printf("ghd count: %ld solutions\n", n->AsInt());
      }
    }
  }
  if (route == "bt" || route == "all") {
    Timer t;
    BacktrackStats stats;
    auto solution = BacktrackingSolve(csp, 50000000, &stats);
    double ms = t.ElapsedMillis();
    Json counters = Json::Object()
                        .Set("sat", solution.has_value())
                        .Set("aborted", stats.aborted);
    if (count && !stats.aborted) {
      counters.Set("solutions", BacktrackingCountSolutions(csp, 50000000));
    }
    if (json) {
      PrintJsonRecord(h->name(), "csp_bt", /*width=*/-1, /*exact=*/false,
                      /*lower_bound=*/-1, stats.nodes, ms,
                      /*deterministic=*/!stats.aborted, std::move(counters));
    } else {
      std::printf("bt  route: %s (%.1f ms, %ld nodes%s)\n",
                  solution.has_value() ? "SAT" : "UNSAT", ms, stats.nodes,
                  stats.aborted ? ", aborted" : "");
      if (const Json* n = counters.Find("solutions")) {
        std::printf("bt  count: %ld solutions\n", n->AsInt());
      }
    }
  }
  return 0;
}
