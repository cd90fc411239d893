#include "ga/ga.h"

#include <gtest/gtest.h>

#include "ga/ga_ghw.h"
#include "ga/ga_tw.h"
#include "graph/generators.h"
#include "hypergraph/generators.h"
#include "ordering/evaluator.h"
#include "ordering/heuristics.h"
#include "td/branch_and_bound.h"

namespace hypertree {
namespace {

GaConfig SmallConfig(uint64_t seed) {
  GaConfig cfg;
  cfg.population_size = 60;
  cfg.max_iterations = 150;
  cfg.tournament_size = 3;
  cfg.seed = seed;
  return cfg;
}

TEST(GaTest, FindsTreewidthOfEasyGraphs) {
  // Paths need a near-perfect leaf-elimination ordering (a needle for a
  // GA), so only near-optimality is asserted there.
  int path = GaTreewidth(PathGraph(12), SmallConfig(1)).best_fitness;
  EXPECT_GE(path, 1);
  EXPECT_LE(path, 2);
  EXPECT_EQ(GaTreewidth(CycleGraph(12), SmallConfig(2)).best_fitness, 2);
  EXPECT_EQ(GaTreewidth(CompleteGraph(7), SmallConfig(3)).best_fitness, 6);
}

TEST(GaTest, BestOrderingMatchesReportedFitness) {
  Graph g = GridGraph(4, 4);
  GaResult res = GaTreewidth(g, SmallConfig(4));
  ASSERT_TRUE(IsValidOrdering(res.best, 16));
  EXPECT_EQ(EvaluateOrderingWidth(g, res.best), res.best_fitness);
}

TEST(GaTest, NeverBelowExactTreewidth) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = RandomGraph(14, 30, seed);
    WidthResult exact = BranchAndBoundTreewidth(g);
    ASSERT_TRUE(exact.exact);
    GaResult ga = GaTreewidth(g, SmallConfig(seed));
    EXPECT_GE(ga.best_fitness, exact.upper_bound) << "seed " << seed;
  }
}

TEST(GaTest, DeterministicForFixedSeed) {
  Graph g = GridGraph(5, 5);
  GaResult a = GaTreewidth(g, SmallConfig(11));
  GaResult b = GaTreewidth(g, SmallConfig(11));
  EXPECT_EQ(a.best_fitness, b.best_fitness);
  EXPECT_EQ(a.best, b.best);
}

TEST(GaTest, AllOperatorCombinationsRun) {
  Graph g = GridGraph(3, 3);
  for (CrossoverOp cx : kAllCrossovers) {
    for (MutationOp mu : kAllMutations) {
      GaConfig cfg = SmallConfig(5);
      cfg.population_size = 10;
      cfg.max_iterations = 5;
      cfg.crossover = cx;
      cfg.mutation = mu;
      GaResult res = GaTreewidth(g, cfg);
      EXPECT_GE(res.best_fitness, 3);  // tw of 3x3 grid
      EXPECT_TRUE(IsValidOrdering(res.best, 9));
    }
  }
}

TEST(GaTest, EvaluationCountMatchesSchedule) {
  GaConfig cfg = SmallConfig(6);
  cfg.population_size = 10;
  cfg.max_iterations = 7;
  GaResult res = GaTreewidth(GridGraph(3, 3), cfg);
  EXPECT_EQ(res.evaluations, 10 + 10 * 7);
  EXPECT_EQ(res.iterations, 7);
}

TEST(GaGhwTest, FindsGhwOfEasyHypergraphs) {
  // Acyclic: ghw 1; cycle: 2; clique_6: 3.
  EXPECT_EQ(GaGhw(RandomAcyclicHypergraph(10, 3, 1), SmallConfig(7),
                  CoverMode::kExact)
                .best_fitness,
            1);
  EXPECT_EQ(GaGhw(CycleHypergraph(8, 2), SmallConfig(8)).best_fitness, 2);
  EXPECT_EQ(GaGhw(CliqueHypergraph(6), SmallConfig(9)).best_fitness, 3);
}

TEST(GaGhwTest, ExactCoversNeverWorseThanGreedy) {
  Hypergraph h = RandomHypergraph(14, 16, 2, 4, 33);
  int exact =
      GaGhw(h, SmallConfig(10), CoverMode::kExact).best_fitness;
  int greedy = GaGhw(h, SmallConfig(10), CoverMode::kGreedy).best_fitness;
  EXPECT_LE(exact, greedy + 1);  // greedy fitness noise can flip by one
  EXPECT_GE(exact, 1);
}

TEST(GaTest, HeuristicSeedingFixesChainFamilies) {
  // The unseeded GA loses to bucket elimination on the chain-structured
  // adder/bridge families (thesis Table 7.1); seeding the population with
  // greedy orderings recovers the known ghw of 2.
  GaConfig cfg = SmallConfig(13);
  cfg.max_iterations = 30;
  Hypergraph adder = AdderHypergraph(10);
  GaResult seeded = GaGhw(adder, cfg, CoverMode::kExact,
                          /*seed_with_heuristics=*/true);
  EXPECT_LE(seeded.best_fitness, 2);
  Hypergraph bridge = BridgeHypergraph(8);
  GaResult seeded2 = GaGhw(bridge, cfg, CoverMode::kExact,
                           /*seed_with_heuristics=*/true);
  EXPECT_LE(seeded2.best_fitness, 2);
}

TEST(GaTest, SeededNeverWorseThanItsSeeds) {
  Graph g = QueensGraph(5);
  int minfill = EvaluateOrderingWidth(g, MinFillOrdering(g, nullptr));
  GaConfig cfg = SmallConfig(14);
  cfg.max_iterations = 20;
  GaResult res = GaTreewidth(g, cfg, /*seed_with_heuristics=*/true);
  EXPECT_LE(res.best_fitness, minfill);
}

TEST(GaTest, TimeLimitRespected) {
  GaConfig cfg = SmallConfig(12);
  cfg.max_iterations = 1000000;
  cfg.time_limit_seconds = 0.2;
  GaResult res = GaTreewidth(GridGraph(6, 6), cfg);
  EXPECT_LT(res.seconds, 5.0);
  EXPECT_GE(res.best_fitness, 6);
}

TEST(GaTest, PreCancelledTokenStopsBeforeFirstGeneration) {
  GaConfig cfg = SmallConfig(13);
  cfg.population_size = 10;
  cfg.max_iterations = 1000;
  cfg.cancel.Cancel();
  GaResult res = GaTreewidth(GridGraph(4, 4), cfg);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_EQ(res.evaluations, 10);  // the initial population only
  EXPECT_TRUE(IsValidOrdering(res.best, 16));
}

TEST(GaTest, CancelMidRunStopsAtNextGeneration) {
  GaConfig cfg = SmallConfig(14);
  cfg.population_size = 10;
  cfg.max_iterations = 1000;
  Graph g = GridGraph(4, 4);
  long calls = 0;
  CancellationToken cancel = cfg.cancel;
  FitnessFn fitness = [&](const EliminationOrdering& sigma) {
    // Cancelled halfway through generation 1's evaluations.
    if (++calls == 15) cancel.Cancel();
    return EvaluateOrderingWidth(g, sigma);
  };
  GaResult res = RunPermutationGa(16, fitness, cfg);
  EXPECT_EQ(res.iterations, 1);
  EXPECT_EQ(res.evaluations, 20);
}

}  // namespace
}  // namespace hypertree
