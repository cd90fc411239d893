#include "ls/local_search.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "hypergraph/generators.h"
#include "ordering/evaluator.h"
#include "td/branch_and_bound.h"

namespace hypertree {
namespace {

LocalSearchConfig Config(LocalSearchMethod method, uint64_t seed) {
  LocalSearchConfig cfg;
  cfg.method = method;
  cfg.max_evaluations = 6000;
  cfg.seed = seed;
  return cfg;
}

class LsMethodTest : public ::testing::TestWithParam<int> {};

TEST_P(LsMethodTest, ReachesKnownWidths) {
  LocalSearchMethod method = static_cast<LocalSearchMethod>(GetParam());
  // Cycle: tw 2; complete graph: tw 6; both easy plateaus.
  EXPECT_EQ(LsTreewidth(CycleGraph(12), Config(method, 1)).best_fitness, 2);
  EXPECT_EQ(LsTreewidth(CompleteGraph(7), Config(method, 2)).best_fitness, 6);
}

TEST_P(LsMethodTest, WitnessMatchesFitness) {
  LocalSearchMethod method = static_cast<LocalSearchMethod>(GetParam());
  Graph g = GridGraph(5, 5);
  LocalSearchResult res = LsTreewidth(g, Config(method, 3));
  ASSERT_TRUE(IsValidOrdering(res.best, 25));
  EXPECT_EQ(EvaluateOrderingWidth(g, res.best), res.best_fitness);
}

TEST_P(LsMethodTest, NeverBelowExact) {
  LocalSearchMethod method = static_cast<LocalSearchMethod>(GetParam());
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = RandomGraph(14, 30, seed);
    WidthResult exact = BranchAndBoundTreewidth(g);
    ASSERT_TRUE(exact.exact);
    EXPECT_GE(LsTreewidth(g, Config(method, seed)).best_fitness,
              exact.upper_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, LsMethodTest, ::testing::Range(0, 3));

TEST(LocalSearchTest, GhwVariantWorks) {
  LocalSearchResult res =
      LsGhw(CycleHypergraph(10, 2),
            Config(LocalSearchMethod::kIterated, 5), CoverMode::kExact);
  EXPECT_EQ(res.best_fitness, 2);
}

TEST(LocalSearchTest, DeterministicForFixedSeed) {
  Graph g = GridGraph(5, 5);
  LocalSearchConfig cfg = Config(LocalSearchMethod::kSimulatedAnnealing, 9);
  EXPECT_EQ(LsTreewidth(g, cfg).best_fitness,
            LsTreewidth(g, cfg).best_fitness);
}

TEST(LocalSearchTest, EvaluationBudgetRespected) {
  LocalSearchConfig cfg = Config(LocalSearchMethod::kHillClimbing, 11);
  cfg.max_evaluations = 100;
  LocalSearchResult res = LsTreewidth(GridGraph(6, 6), cfg);
  EXPECT_LE(res.evaluations, 102);
}

TEST(LocalSearchTest, PreCancelledTokenStopsBeforeFirstMove) {
  for (LocalSearchMethod method :
       {LocalSearchMethod::kHillClimbing,
        LocalSearchMethod::kSimulatedAnnealing, LocalSearchMethod::kIterated}) {
    LocalSearchConfig cfg = Config(method, 12);
    cfg.cancel.Cancel();
    LocalSearchResult res = LsGhw(CycleHypergraph(10, 2), cfg);
    EXPECT_EQ(res.evaluations, 1);  // the starting permutation only
    EXPECT_TRUE(IsValidOrdering(res.best, 10));
  }
}

}  // namespace
}  // namespace hypertree
