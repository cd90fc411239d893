#include "ga/saiga.h"

#include <gtest/gtest.h>

#include "ghd/branch_and_bound.h"
#include "hypergraph/generators.h"
#include "ordering/ordering.h"

namespace hypertree {
namespace {

SaigaConfig SmallConfig(uint64_t seed) {
  SaigaConfig cfg;
  cfg.num_islands = 3;
  cfg.island_population = 16;
  cfg.epochs = 4;
  cfg.generations_per_epoch = 8;
  cfg.seed = seed;
  return cfg;
}

TEST(SaigaTest, SolvesEasyInstances) {
  SaigaResult res = SaigaGhw(CycleHypergraph(8, 2), SmallConfig(1));
  EXPECT_EQ(res.ga.best_fitness, 2);
  EXPECT_TRUE(IsValidOrdering(res.ga.best, 8));
}

TEST(SaigaTest, AdaptedParametersInRange) {
  SaigaResult res =
      SaigaGhw(RandomHypergraph(12, 14, 2, 4, 5), SmallConfig(2));
  EXPECT_GE(res.final_crossover_rate, 0.1);
  EXPECT_LE(res.final_crossover_rate, 1.0);
  EXPECT_GE(res.final_mutation_rate, 0.01);
  EXPECT_LE(res.final_mutation_rate, 0.9);
  EXPECT_GE(res.final_tournament_size, 2);
  EXPECT_LE(res.final_tournament_size, 6);
}

TEST(SaigaTest, NeverBelowExactGhw) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Hypergraph h = RandomHypergraph(10, 10, 2, 4, seed * 41);
    WidthResult exact = BranchAndBoundGhw(h);
    ASSERT_TRUE(exact.exact);
    SaigaResult saiga = SaigaGhw(h, SmallConfig(seed));
    EXPECT_GE(saiga.ga.best_fitness, exact.upper_bound) << "seed " << seed;
  }
}

TEST(SaigaTest, DeterministicForFixedSeed) {
  Hypergraph h = RandomHypergraph(12, 13, 2, 4, 77);
  SaigaResult a = SaigaGhw(h, SmallConfig(9));
  SaigaResult b = SaigaGhw(h, SmallConfig(9));
  EXPECT_EQ(a.ga.best_fitness, b.ga.best_fitness);
}

TEST(SaigaTest, PreCancelledTokenStopsBeforeFirstGeneration) {
  SaigaConfig cfg = SmallConfig(10);
  cfg.epochs = 1000;
  cfg.cancel.Cancel();
  SaigaResult res = SaigaGhw(CycleHypergraph(8, 2), cfg);
  EXPECT_EQ(res.ga.iterations, 0);
  // Only the islands' initial populations were evaluated.
  EXPECT_EQ(res.ga.evaluations, cfg.num_islands * cfg.island_population);
  EXPECT_TRUE(IsValidOrdering(res.ga.best, 8));
}

}  // namespace
}  // namespace hypertree
