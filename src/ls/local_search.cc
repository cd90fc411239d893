#include "ls/local_search.h"

#include <cmath>

#include "ga/mutation.h"
#include "ordering/evaluator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hypertree {

namespace {

// Applies one random neighborhood move (ISM or EM, equiprobable).
void RandomMove(EliminationOrdering* p, Rng* rng) {
  Mutate(rng->Bernoulli(0.5) ? MutationOp::kIsm : MutationOp::kEm, p, rng);
}

}  // namespace

LocalSearchResult RunLocalSearch(int num_genes, const FitnessFn& fitness,
                                 const LocalSearchConfig& config) {
  Rng rng(config.seed);
  Timer timer;
  Deadline deadline(config.time_limit_seconds);
  LocalSearchResult res;
  if (num_genes == 0) {
    res.best_fitness = fitness({});
    res.evaluations = 1;
    res.seconds = timer.ElapsedSeconds();
    return res;
  }

  EliminationOrdering current = rng.Permutation(num_genes);
  int current_fit = fitness(current);
  ++res.evaluations;
  res.best = current;
  res.best_fitness = current_fit;

  double temperature = config.initial_temperature;
  int stagnation = 0;
  while (res.evaluations < config.max_evaluations && !deadline.Expired() &&
         !config.cancel.Cancelled()) {
    EliminationOrdering candidate = current;
    RandomMove(&candidate, &rng);
    int fit = fitness(candidate);
    ++res.evaluations;

    bool accept = false;
    switch (config.method) {
      case LocalSearchMethod::kHillClimbing:
      case LocalSearchMethod::kIterated:
        accept = fit <= current_fit;  // sideways moves keep plateaus alive
        break;
      case LocalSearchMethod::kSimulatedAnnealing: {
        int delta = fit - current_fit;
        accept =
            delta <= 0 || rng.UniformDouble() < std::exp(-delta / temperature);
        temperature *= config.cooling;
        break;
      }
    }
    if (accept) {
      current = std::move(candidate);
      current_fit = fit;
    }
    if (fit < res.best_fitness) {
      res.best_fitness = fit;
      res.best = current;
      stagnation = 0;
    } else {
      ++stagnation;
    }
    if (config.method == LocalSearchMethod::kIterated &&
        stagnation >= config.stagnation_limit) {
      // Perturb the best-known solution with a displacement kick.
      current = res.best;
      Mutate(MutationOp::kDm, &current, &rng);
      current_fit = fitness(current);
      ++res.evaluations;
      stagnation = 0;
    }
  }
  res.seconds = timer.ElapsedSeconds();
  return res;
}

LocalSearchResult LsTreewidth(const Graph& g, const LocalSearchConfig& config) {
  return RunLocalSearch(
      g.NumVertices(),
      [&g](const EliminationOrdering& sigma) {
        return EvaluateOrderingWidth(g, sigma);
      },
      config);
}

LocalSearchResult LsGhw(const Hypergraph& h, const LocalSearchConfig& config,
                        CoverMode mode) {
  GhwEvaluator eval(h);
  Rng cover_rng(config.seed ^ 0xc0ffee);
  return RunLocalSearch(
      h.NumVertices(),
      [&eval, mode, &cover_rng](const EliminationOrdering& sigma) {
        return eval.EvaluateOrdering(sigma, mode, &cover_rng);
      },
      config);
}

}  // namespace hypertree
