// SAIGA-ghw: self-adaptive island genetic algorithm for ghw upper bounds
// (thesis ch. 7.2).
//
// Several GA islands run in a ring, each with its own control-parameter
// vector (crossover rate, mutation rate, tournament size). Every epoch the
// best individual migrates to the next island and each island re-orients
// its parameters: if the ring neighbor performed better, the island adopts
// the neighbor's parameters; either way the vector is perturbed by
// Gaussian noise (self-adaptation), removing the need for the external
// tuning study of ch. 6.

#ifndef HYPERTREE_GA_SAIGA_H_
#define HYPERTREE_GA_SAIGA_H_

#include <cstdint>

#include "ga/ga.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/hypergraph.h"
#include "util/thread_pool.h"

namespace hypertree {

/// SAIGA control knobs (islands adapt the per-island GA parameters
/// themselves).
struct SaigaConfig {
  int num_islands = 4;
  int island_population = 50;
  int epochs = 10;                  // migration/adaptation rounds
  int generations_per_epoch = 20;   // GA iterations between migrations
  uint64_t seed = 1;
  double time_limit_seconds = 0.0;
  /// Cooperative external cancellation, polled once per generation (see
  /// GaConfig::cancel).
  CancellationToken cancel;
};

/// Result of a SAIGA run, including the final adapted parameters of the
/// winning island.
struct SaigaResult {
  GaResult ga;               // best-of-all-islands outcome
  double final_crossover_rate = 0.0;
  double final_mutation_rate = 0.0;
  int final_tournament_size = 0;
};

/// Runs SAIGA-ghw on `h` (greedy bag covers, as in GA-ghw).
SaigaResult SaigaGhw(const Hypergraph& h, const SaigaConfig& config = {},
                     CoverMode mode = CoverMode::kGreedy);

}  // namespace hypertree

#endif  // HYPERTREE_GA_SAIGA_H_
