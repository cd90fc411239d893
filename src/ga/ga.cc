#include "ga/ga.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hypertree {

namespace {

struct Individual {
  EliminationOrdering genes;
  int fitness = 0;
};

}  // namespace

GaResult RunPermutationGa(int num_genes, const FitnessFn& fitness,
                          const GaConfig& config) {
  HT_CHECK(num_genes >= 0);
  HT_CHECK(config.population_size >= 2);
  HT_CHECK(config.tournament_size >= 1);
  Rng rng(config.seed);
  Timer timer;
  Deadline deadline(config.time_limit_seconds);
  GaResult res;
  if (num_genes == 0) {
    res.best_fitness = fitness({});
    res.evaluations = 1;
    res.seconds = timer.ElapsedSeconds();
    return res;
  }

  int n = config.population_size;
  std::vector<Individual> pop(n);
  for (int i = 0; i < n; ++i) {
    if (i < static_cast<int>(config.initial.size())) {
      HT_CHECK(IsValidOrdering(config.initial[i], num_genes));
      pop[i].genes = config.initial[i];
    } else {
      pop[i].genes = rng.Permutation(num_genes);
    }
    pop[i].fitness = fitness(pop[i].genes);
    ++res.evaluations;
  }
  auto record_best = [&res](const Individual& ind) {
    if (res.best.empty() || ind.fitness < res.best_fitness) {
      res.best_fitness = ind.fitness;
      res.best = ind.genes;
    }
  };
  for (const Individual& ind : pop) record_best(ind);

  std::vector<Individual> next(n);
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    if (deadline.Expired() || config.cancel.Cancelled()) break;
    res.iterations = iter + 1;
    // Tournament selection.
    for (int i = 0; i < n; ++i) {
      int best = rng.UniformInt(n);
      for (int t = 1; t < config.tournament_size; ++t) {
        int challenger = rng.UniformInt(n);
        if (pop[challenger].fitness < pop[best].fitness) best = challenger;
      }
      next[i] = pop[best];
    }
    // Recombination: the first crossover_rate * n individuals (the
    // selection order is already random) are recombined pairwise.
    int recombined = static_cast<int>(config.crossover_rate * n);
    recombined -= recombined % 2;
    for (int i = 0; i + 1 < recombined; i += 2) {
      EliminationOrdering c1, c2;
      Crossover(config.crossover, next[i].genes, next[i + 1].genes, &rng, &c1,
                &c2);
      next[i].genes = std::move(c1);
      next[i + 1].genes = std::move(c2);
    }
    // Mutation.
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(config.mutation_rate)) {
        Mutate(config.mutation, &next[i].genes, &rng);
      }
    }
    // Evaluation.
    for (int i = 0; i < n; ++i) {
      next[i].fitness = fitness(next[i].genes);
      ++res.evaluations;
      record_best(next[i]);
    }
    pop.swap(next);
  }
  res.seconds = timer.ElapsedSeconds();
  return res;
}

}  // namespace hypertree
