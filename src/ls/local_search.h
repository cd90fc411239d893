// Local search metaheuristics over elimination orderings: hill climbing,
// simulated annealing, and iterated local search. These are the
// "alternative metaheuristics" direction the thesis' conclusion names as
// future work; they share the GA's search space (ch. 3) and neighborhood
// moves (the ISM/EM/DM mutation operators).

#ifndef HYPERTREE_LS_LOCAL_SEARCH_H_
#define HYPERTREE_LS_LOCAL_SEARCH_H_

#include <cstdint>
#include <functional>

#include "ga/ga.h"
#include "ghd/ghw_from_ordering.h"
#include "graph/graph.h"
#include "hypergraph/hypergraph.h"
#include "ordering/ordering.h"
#include "util/thread_pool.h"

namespace hypertree {

/// Which metaheuristic to run.
enum class LocalSearchMethod {
  kHillClimbing,        // first-improvement + sideways moves
  kSimulatedAnnealing,  // geometric cooling
  kIterated,            // hill climbing with DM perturbations on stagnation
};

/// Control knobs shared by the three methods.
struct LocalSearchConfig {
  LocalSearchMethod method = LocalSearchMethod::kIterated;
  long max_evaluations = 20000;
  uint64_t seed = 1;
  double time_limit_seconds = 0.0;
  /// Cooperative external cancellation, polled once per move (see
  /// GaConfig::cancel).
  CancellationToken cancel;
  // Simulated annealing schedule.
  double initial_temperature = 2.0;
  double cooling = 0.999;
  // Iterated local search: perturb after this many non-improving moves.
  int stagnation_limit = 200;
};

/// Result of a local search run (fields mirror GaResult).
struct LocalSearchResult {
  int best_fitness = 0;
  EliminationOrdering best;
  long evaluations = 0;
  double seconds = 0.0;
};

/// Runs local search over permutations of {0..num_genes-1} minimizing
/// `fitness` (starting from a random permutation).
LocalSearchResult RunLocalSearch(int num_genes, const FitnessFn& fitness,
                                 const LocalSearchConfig& config);

/// Treewidth upper bounds by local search.
LocalSearchResult LsTreewidth(const Graph& g,
                              const LocalSearchConfig& config = {});

/// ghw upper bounds by local search (greedy covers by default, matching
/// GA-ghw).
LocalSearchResult LsGhw(const Hypergraph& h,
                        const LocalSearchConfig& config = {},
                        CoverMode mode = CoverMode::kGreedy);

}  // namespace hypertree

#endif  // HYPERTREE_LS_LOCAL_SEARCH_H_
