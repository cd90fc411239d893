#include "ga/saiga.h"

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace hypertree {

namespace {

struct Individual {
  EliminationOrdering genes;
  int fitness = 0;
};

struct Island {
  std::vector<Individual> pop;
  double pc = 1.0;       // crossover rate
  double pm = 0.3;       // mutation rate
  int s = 2;             // tournament size
  int best_fitness = 0;  // best seen this epoch
};

// Clamps island parameters into sane ranges after noise.
void ClampParams(Island* isl) {
  isl->pc = std::clamp(isl->pc, 0.1, 1.0);
  isl->pm = std::clamp(isl->pm, 0.01, 0.9);
  isl->s = std::clamp(isl->s, 2, 6);
}

}  // namespace

SaigaResult SaigaGhw(const Hypergraph& h, const SaigaConfig& config,
                     CoverMode mode) {
  HT_CHECK(config.num_islands >= 1 && config.island_population >= 2);
  Rng rng(config.seed);
  Timer timer;
  Deadline deadline(config.time_limit_seconds);
  GhwEvaluator eval(h);
  auto fitness = [&eval, mode, &rng](const EliminationOrdering& sigma) {
    return eval.EvaluateOrdering(sigma, mode, &rng);
  };

  int num_genes = h.NumVertices();
  SaigaResult res;
  res.ga.best_fitness = 0;

  // Initialize islands with random parameter vectors and populations.
  std::vector<Island> islands(config.num_islands);
  for (Island& isl : islands) {
    isl.pc = 0.5 + 0.5 * rng.UniformDouble();
    isl.pm = 0.05 + 0.45 * rng.UniformDouble();
    isl.s = rng.UniformRange(2, 4);
    isl.pop.resize(config.island_population);
    for (Individual& ind : isl.pop) {
      ind.genes = rng.Permutation(num_genes);
      ind.fitness = fitness(ind.genes);
      ++res.ga.evaluations;
    }
  }
  auto record_best = [&res](const Individual& ind) {
    if (res.ga.best.empty() || ind.fitness < res.ga.best_fitness) {
      res.ga.best_fitness = ind.fitness;
      res.ga.best = ind.genes;
    }
  };
  for (const Island& isl : islands) {
    for (const Individual& ind : isl.pop) record_best(ind);
  }

  int n = config.island_population;
  std::vector<Individual> next(n);
  auto stopped = [&deadline, &config] {
    return deadline.Expired() || config.cancel.Cancelled();
  };
  for (int epoch = 0; epoch < config.epochs && !stopped(); ++epoch) {
    for (Island& isl : islands) {
      isl.best_fitness = isl.pop[0].fitness;
      for (int gen = 0; gen < config.generations_per_epoch; ++gen) {
        if (stopped()) break;
        ++res.ga.iterations;
        // Tournament selection.
        for (int i = 0; i < n; ++i) {
          int best = rng.UniformInt(n);
          for (int t = 1; t < isl.s; ++t) {
            int c = rng.UniformInt(n);
            if (isl.pop[c].fitness < isl.pop[best].fitness) best = c;
          }
          next[i] = isl.pop[best];
        }
        // Crossover.
        int recombined = static_cast<int>(isl.pc * n);
        recombined -= recombined % 2;
        for (int i = 0; i + 1 < recombined; i += 2) {
          EliminationOrdering c1, c2;
          Crossover(CrossoverOp::kPos, next[i].genes, next[i + 1].genes, &rng,
                    &c1, &c2);
          next[i].genes = std::move(c1);
          next[i + 1].genes = std::move(c2);
        }
        // Mutation + evaluation.
        for (int i = 0; i < n; ++i) {
          if (rng.Bernoulli(isl.pm)) Mutate(MutationOp::kIsm, &next[i].genes,
                                            &rng);
          next[i].fitness = fitness(next[i].genes);
          ++res.ga.evaluations;
          record_best(next[i]);
          isl.best_fitness = std::min(isl.best_fitness, next[i].fitness);
        }
        isl.pop.swap(next);
      }
    }
    // Ring migration: each island's best replaces the next island's worst.
    int k = config.num_islands;
    for (int i = 0; i < k; ++i) {
      const Island& src = islands[i];
      Island& dst = islands[(i + 1) % k];
      auto best_it =
          std::min_element(src.pop.begin(), src.pop.end(),
                           [](const Individual& a, const Individual& b) {
                             return a.fitness < b.fitness;
                           });
      auto worst_it =
          std::max_element(dst.pop.begin(), dst.pop.end(),
                           [](const Individual& a, const Individual& b) {
                             return a.fitness < b.fitness;
                           });
      *worst_it = *best_it;
    }
    // Neighbor orientation: adopt a better ring neighbor's parameters,
    // then perturb (self-adaptive mutation of the parameter vector).
    std::vector<Island> snapshot = islands;
    for (int i = 0; i < k; ++i) {
      const Island& nb = snapshot[(i + k - 1) % k];
      Island& isl = islands[i];
      if (nb.best_fitness < isl.best_fitness) {
        isl.pc = nb.pc;
        isl.pm = nb.pm;
        isl.s = nb.s;
      }
      isl.pc += 0.1 * rng.Gaussian();
      isl.pm += 0.05 * rng.Gaussian();
      if (rng.Bernoulli(0.3)) isl.s += rng.Bernoulli(0.5) ? 1 : -1;
      ClampParams(&isl);
    }
  }

  // Report the parameters of the island holding the best individual.
  int winner = 0;
  for (int i = 0; i < config.num_islands; ++i) {
    if (islands[i].best_fitness < islands[winner].best_fitness) winner = i;
  }
  res.final_crossover_rate = islands[winner].pc;
  res.final_mutation_rate = islands[winner].pm;
  res.final_tournament_size = islands[winner].s;
  res.ga.seconds = timer.ElapsedSeconds();
  DValidateOrderingWitness(h, res.ga.best);
  return res;
}

}  // namespace hypertree
