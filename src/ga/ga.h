// Generic generational genetic algorithm over permutations with
// tournament selection (thesis Figure 4.4 / Figure 6.1).
//
// Fitness is *minimized* (widths). The GA is generational: tournament
// selection fills the next population, a crossover_rate fraction of it is
// recombined pairwise, each individual mutates with probability
// mutation_rate, and the best individual ever seen is recorded.

#ifndef HYPERTREE_GA_GA_H_
#define HYPERTREE_GA_GA_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ga/crossover.h"
#include "ga/mutation.h"
#include "ordering/ordering.h"
#include "util/thread_pool.h"

namespace hypertree {

/// Control parameters (thesis defaults from the ch. 6 tuning study:
/// POS crossover, ISM mutation, pc = 1.0, pm = 0.3, n = 2000, s = 3).
struct GaConfig {
  int population_size = 200;
  double crossover_rate = 1.0;
  double mutation_rate = 0.3;
  int tournament_size = 3;
  int max_iterations = 200;
  CrossoverOp crossover = CrossoverOp::kPos;
  MutationOp mutation = MutationOp::kIsm;
  uint64_t seed = 1;
  double time_limit_seconds = 0.0;  // <= 0: unlimited
  /// Cooperative external cancellation, polled once per generation;
  /// Cancel() makes the run return its best ordering so far as if the
  /// time limit had expired.
  CancellationToken cancel;
  /// Orderings injected into the initial population (the rest is random).
  /// The thesis GA starts fully random; seeding with greedy orderings is
  /// the standard fix for its weakness on chain-structured hypergraphs
  /// (adder/bridge families, Table 7.1) — see GaTreewidth/GaGhw's
  /// seed_with_heuristics convenience.
  std::vector<EliminationOrdering> initial;
};

/// Outcome of a GA run.
struct GaResult {
  int best_fitness = 0;
  EliminationOrdering best;
  long evaluations = 0;
  int iterations = 0;
  double seconds = 0.0;
};

/// Fitness of a permutation (lower is better).
using FitnessFn = std::function<int(const EliminationOrdering&)>;

/// Runs the GA on permutations of {0, ..., num_genes-1}.
GaResult RunPermutationGa(int num_genes, const FitnessFn& fitness,
                          const GaConfig& config);

}  // namespace hypertree

#endif  // HYPERTREE_GA_GA_H_
