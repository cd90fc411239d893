// E15: google-benchmark microkernels for the hot paths — ordering width
// evaluation (the GA fitness), greedy/exact bag covers, bitset algebra.

#include <benchmark/benchmark.h>

#include <cstring>

#include "ghd/ghw_from_ordering.h"
#include "graph/generators.h"
#include "hypergraph/generators.h"
#include "hypergraph/incidence_index.h"
#include "kernels/kernels.h"
#include "ordering/evaluator.h"
#include "portfolio/features.h"
#include "setcover/exact.h"
#include "setcover/greedy.h"
#include "util/rng.h"

namespace hypertree {
namespace {

void BM_EvaluateOrderingWidth(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Graph g = RandomGraph(n, 4 * n, 1);
  Rng rng(2);
  EliminationOrdering sigma = rng.Permutation(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateOrderingWidth(g, sigma));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateOrderingWidth)->Arg(32)->Arg(128)->Arg(512);

void BM_GreedyCover(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 4, 3);
  std::vector<Bitset> sets;
  for (int e = 0; e < h.NumEdges(); ++e) sets.push_back(h.EdgeBits(e));
  Bitset target(n);
  for (int v = 0; v < n; v += 2) target.Set(v);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedySetCover(sets, target, &rng));
  }
}
BENCHMARK(BM_GreedyCover)->Arg(32)->Arg(128);

void BM_ExactCover(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 4, 3);
  std::vector<Bitset> sets;
  for (int e = 0; e < h.NumEdges(); ++e) sets.push_back(h.EdgeBits(e));
  Bitset target(n);
  for (int v = 0; v < n; v += 2) target.Set(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactSetCover(sets, target));
  }
}
BENCHMARK(BM_ExactCover)->Arg(16)->Arg(32);

void BM_GhwOrderingEvaluation(benchmark::State& state) {
  Hypergraph h = RandomHypergraph(64, 80, 2, 4, 5);
  GhwEvaluator eval(h);
  Rng rng(6);
  EliminationOrdering sigma = rng.Permutation(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval.EvaluateOrdering(sigma, CoverMode::kGreedy, &rng));
  }
}
BENCHMARK(BM_GhwOrderingEvaluation);

void BM_BitsetIntersectCount(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  Bitset a(n), b(n);
  for (int i = 0; i < n / 2; ++i) {
    a.Set(rng.UniformInt(n));
    b.Set(rng.UniformInt(n));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectCount(b));
  }
}
BENCHMARK(BM_BitsetIntersectCount)->Arg(64)->Arg(1024)->Arg(8192);

// Incidence-index construction (once per instance in the exact searches).
void BM_IncidenceBuild(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 5, 11);
  for (auto _ : state) {
    IncidenceIndex index(h);
    benchmark::DoNotOptimize(index.NumEdges());
  }
}
BENCHMARK(BM_IncidenceBuild)->Arg(32)->Arg(128)->Arg(512);

// Word-parallel component split (det-k's TrySeparator hot path) vs the
// quadratic fixed-point reference it replaced.
void BM_ComponentSplit(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 5, 13);
  IncidenceIndex index(h);
  ComponentSplitter splitter(&index);
  Rng rng(14);
  Bitset comp(h.NumEdges());
  comp.SetAll();
  Bitset sep_vars(n);
  for (int i = 0; i < n / 3; ++i) sep_vars.Set(rng.UniformInt(n));
  std::vector<Bitset> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitter.Split(comp, sep_vars, &out, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComponentSplit)->Arg(32)->Arg(128)->Arg(512);

void BM_NaiveComponentSplit(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 5, 13);
  Rng rng(14);
  Bitset comp(h.NumEdges());
  comp.SetAll();
  Bitset sep_vars(n);
  for (int i = 0; i < n / 3; ++i) sep_vars.Set(rng.UniformInt(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveComponents(h, comp, sep_vars));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveComponentSplit)->Arg(32)->Arg(128)->Arg(512);

// Portfolio feature extraction (the router's input, once per instance).
// Budget: the whole prologue must stay well under 1% of a typical exact
// solve, so extraction on table-8-sized instances (n <= 43, m <= 30)
// has to land in the microsecond range.
void BM_ExtractFeatures(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 5, 17);
  IncidenceIndex index(h);
  for (auto _ : state) {
    InstanceFeatures f = ExtractFeatures(index);
    benchmark::DoNotOptimize(f.max_intersection);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtractFeatures)->Arg(32)->Arg(128)->Arg(512);

// Same, including the IncidenceIndex build — the true cold-start cost the
// portfolio prologue pays before routing.
void BM_ExtractFeaturesColdStart(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 5, 17);
  for (auto _ : state) {
    IncidenceIndex index(h);
    InstanceFeatures f = ExtractFeatures(index);
    benchmark::DoNotOptimize(f.max_intersection);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtractFeaturesColdStart)->Arg(32)->Arg(128);

// Extraction (index build included) across the exact table-8/9 instance
// set, one full sweep per iteration: the per-instance cost is this time
// divided by 8, to compare against the table_8 median solve wall.
void BM_ExtractFeaturesTable8Set(benchmark::State& state) {
  std::vector<Hypergraph> instances;
  instances.push_back(RandomAcyclicHypergraph(25, 4, 2));
  instances.push_back(CycleHypergraph(12, 2));
  instances.push_back(CliqueHypergraph(8));
  instances.push_back(AdderHypergraph(6));
  instances.push_back(BridgeHypergraph(6));
  instances.push_back(Grid2DHypergraph(4));
  instances.push_back(CircuitHypergraph(6, 30, 5));
  instances.push_back(RandomHypergraph(20, 22, 2, 4, 8));
  for (auto _ : state) {
    for (const Hypergraph& h : instances) {
      IncidenceIndex index(h);
      InstanceFeatures f = ExtractFeatures(index);
      benchmark::DoNotOptimize(f.max_intersection);
    }
  }
  state.SetItemsProcessed(state.iterations() * instances.size());
}
BENCHMARK(BM_ExtractFeaturesTable8Set);

// A deterministic row-major arena for the kernel benchmarks: nrows
// rows of nbits bits at a PaddedWords stride, random fill, tail bits
// of the last logical word kept zero (padded-capacity contract).
struct KernelFixture {
  KernelFixture(int nrows, int nbits, uint64_t seed)
      : nrows(nrows),
        nwords((nbits + 63) / 64),
        stride(kernels::PaddedWords(nwords)),
        mask_words((nrows + 63) / 64),
        rows(static_cast<size_t>(nrows) * stride),
        mask(kernels::PaddedWords(mask_words)),
        filter(kernels::PaddedWords(nwords)) {
    Rng rng(seed);
    uint64_t tail = (nbits % 64 == 0) ? ~0ULL : ((1ULL << (nbits % 64)) - 1);
    for (int r = 0; r < nrows; ++r) {
      uint64_t* row = rows.data() + static_cast<size_t>(r) * stride;
      for (int w = 0; w < nwords; ++w) row[w] = rng.Next();
      row[nwords - 1] &= tail;
    }
    // Select roughly half the rows; keep the filter dense so filtered
    // reductions do real work instead of early-exiting.
    for (int r = 0; r < nrows; ++r) {
      if (rng.Bernoulli(0.5)) mask.data()[r / 64] |= 1ULL << (r % 64);
    }
    for (int w = 0; w < nwords; ++w) filter.data()[w] = rng.Next() | rng.Next();
    filter.data()[nwords - 1] &= tail;
  }

  int nrows, nwords;
  size_t stride;
  int mask_words;
  kernels::WordArena rows, mask, filter;
};

// N-way OR-reduce over a row arena, one call per iteration, per
// backend. The 64-bit shape shows the small-instance dispatch cost the
// inline call-site fast paths avoid (docs/KERNELS.md).
void BM_KernelOrReduce(benchmark::State& state, kernels::Backend backend) {
  const kernels::Ops& ops = kernels::GetOps(backend);
  KernelFixture fx(300, static_cast<int>(state.range(0)), 21);
  kernels::WordArena dst(kernels::PaddedWords(fx.nwords));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.OrReduceRows(dst.data(), fx.nwords,
                                              fx.rows.data(), fx.stride,
                                              fx.mask.data(), fx.mask_words));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(ops.name);
}
BENCHMARK_CAPTURE(BM_KernelOrReduce, scalar, kernels::Backend::kScalar)
    ->Arg(64)->Arg(4096)->Arg(262144)->Arg(1048576);
BENCHMARK_CAPTURE(BM_KernelOrReduce, avx2, kernels::Backend::kAvx2)
    ->Arg(64)->Arg(4096)->Arg(262144)->Arg(1048576);

// Candidate scoring: an nrows sweep at a fixed 4096-bit universe (64
// words).
void BM_KernelScoreRows(benchmark::State& state, kernels::Backend backend) {
  const kernels::Ops& ops = kernels::GetOps(backend);
  const int nrows = static_cast<int>(state.range(0));
  KernelFixture fx(nrows, 4096, 25);
  std::vector<int> idx(nrows);
  for (int i = 0; i < nrows; ++i) idx[i] = i;
  std::vector<int> counts(nrows);
  for (auto _ : state) {
    ops.ScoreRows(counts.data(), fx.rows.data(), fx.stride, idx.data(), nrows,
                  fx.filter.data(), fx.nwords);
    benchmark::DoNotOptimize(counts.data()[0]);
  }
  state.SetItemsProcessed(state.iterations() * nrows);
  state.SetLabel(ops.name);
}
BENCHMARK_CAPTURE(BM_KernelScoreRows, scalar, kernels::Backend::kScalar)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelScoreRows, avx2, kernels::Backend::kAvx2)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// Batched BFS: filtered frontier expansion + commit, the two-primitive
// round ComponentSplitter runs per component, per backend.
void BM_KernelBatchedBfs(benchmark::State& state, kernels::Backend backend) {
  const kernels::Ops& ops = kernels::GetOps(backend);
  KernelFixture fx(300, static_cast<int>(state.range(0)), 22);
  kernels::WordArena reach(kernels::PaddedWords(fx.nwords));
  kernels::WordArena acc(kernels::PaddedWords(fx.nwords));
  kernels::WordArena pending(kernels::PaddedWords(fx.nwords));
  for (auto _ : state) {
    std::memcpy(pending.data(), fx.filter.data(),
                sizeof(uint64_t) * fx.nwords);
    std::memset(acc.data(), 0, sizeof(uint64_t) * fx.nwords);
    bool any = true;
    for (int round = 0; round < 4 && any; ++round) {
      ops.OrReduceRowsFiltered(reach.data(), fx.nwords, fx.rows.data(),
                               fx.stride, fx.mask.data(), fx.mask_words,
                               pending.data(), &any);
      ops.FrontierCommit(acc.data(), pending.data(), reach.data(), fx.nwords);
    }
    benchmark::DoNotOptimize(acc.data()[0]);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(ops.name);
}
BENCHMARK_CAPTURE(BM_KernelBatchedBfs, scalar, kernels::Backend::kScalar)
    ->Arg(64)->Arg(4096);
BENCHMARK_CAPTURE(BM_KernelBatchedBfs, avx2, kernels::Backend::kAvx2)
    ->Arg(64)->Arg(4096);

// Key-pipeline kernels (morsel join engine): big-endian key packing and
// hash-table probing per backend, from one morsel (4096 rows) up.
void BM_KernelPackKeys(benchmark::State& state, kernels::Backend backend) {
  const kernels::Ops& ops = kernels::GetOps(backend);
  const int nrows = static_cast<int>(state.range(0));
  const int arity = 4;
  const int k = 3;
  const int bits = 16;
  Rng rng(23);
  std::vector<int> rows(static_cast<size_t>(nrows) * arity);
  for (int& v : rows) v = static_cast<int>(rng.UniformInt(1 << bits));
  const int pos[] = {0, 2, 3};
  std::vector<uint64_t> keys(nrows);
  for (auto _ : state) {
    uint64_t mn = 0;
    uint64_t mx = 0;
    ops.PackKeys(keys.data(), rows.data(), arity, pos, k, bits, nrows, &mn,
                 &mx);
    benchmark::DoNotOptimize(mn);
  }
  state.SetItemsProcessed(state.iterations() * nrows);
  state.SetLabel(ops.name);
}
BENCHMARK_CAPTURE(BM_KernelPackKeys, scalar, kernels::Backend::kScalar)
    ->Arg(4096)->Arg(16384)->Arg(65536)->Arg(262144);
BENCHMARK_CAPTURE(BM_KernelPackKeys, avx2, kernels::Backend::kAvx2)
    ->Arg(4096)->Arg(16384)->Arg(65536)->Arg(262144);

void BM_KernelProbeKeys(benchmark::State& state, kernels::Backend backend) {
  const kernels::Ops& ops = kernels::GetOps(backend);
  const int nrows = static_cast<int>(state.range(0));
  Rng rng(24);
  std::vector<uint64_t> keys(nrows);
  for (uint64_t& key : keys) key = rng.UniformInt(1 << 20);
  // Open-addressed table over every third key, ~50% load factor: probes
  // mix hits and misses the way a semijoin against a filtered build
  // side does.
  size_t cap = 2;
  while (cap < static_cast<size_t>(2) * nrows) cap <<= 1;
  std::vector<uint64_t> slot_keys(cap);
  std::vector<int32_t> slot_vals(cap, -1);
  const uint64_t mask = cap - 1;
  int32_t ordinal = 0;
  for (int i = 0; i < nrows; i += 3) {
    uint64_t s = kernels::SplitMix64(keys[i]) & mask;
    while (slot_vals[s] != -1 && slot_keys[s] != keys[i]) s = (s + 1) & mask;
    if (slot_vals[s] == -1) {
      slot_keys[s] = keys[i];
      slot_vals[s] = ordinal++;
    }
  }
  std::vector<int32_t> out(nrows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.ProbeKeys(out.data(), keys.data(), nrows,
                                           slot_keys.data(), slot_vals.data(),
                                           mask));
  }
  state.SetItemsProcessed(state.iterations() * nrows);
  state.SetLabel(ops.name);
}
BENCHMARK_CAPTURE(BM_KernelProbeKeys, scalar, kernels::Backend::kScalar)
    ->Arg(4096)->Arg(16384)->Arg(65536)->Arg(262144);
BENCHMARK_CAPTURE(BM_KernelProbeKeys, avx2, kernels::Backend::kAvx2)
    ->Arg(4096)->Arg(16384)->Arg(65536)->Arg(262144);

// Candidate-separator generation (one OR sweep + decorate-sort).
void BM_SortedCandidates(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Hypergraph h = RandomHypergraph(n, 2 * n, 2, 5, 15);
  IncidenceIndex index(h);
  CandidateGenerator gen(&index);
  Rng rng(16);
  Bitset conn(n), scope(n);
  for (int i = 0; i < n / 4; ++i) conn.Set(rng.UniformInt(n));
  for (int i = 0; i < n / 2; ++i) scope.Set(rng.UniformInt(n));
  scope |= conn;
  std::vector<int> out;
  for (auto _ : state) {
    gen.SortedCandidates(conn, scope, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SortedCandidates)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace hypertree

BENCHMARK_MAIN();
