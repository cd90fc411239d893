// Workload `decompose`: exact ghw (PortfolioGhw) and exact hw
// (HypertreeWidth) on a fixed corpus that the spec selected by a node
// budget. The join engine is bypassed entirely.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.h"
#include "bounds/ghw_lower_bounds.h"
#include "ghd/ghw_from_ordering.h"
#include "hd/det_k_decomp.h"
#include "portfolio/portfolio.h"
#include "util/metrics.h"

namespace perfbench {

using hypertree::Hypergraph;
using hypertree::Json;

namespace {

struct Instance {
  std::string name;
  Hypergraph base;
  Hypergraph presented;  // seeded relabelling of `base`
  int ghw = -1;
  int hw = -1;
};

constexpr int kMinHwWidth = 4;

struct Op {
  int instance = 0;
  bool hw = false;  // false: ghw
  long spec_nodes = 0;  // search nodes the spec recorded (work estimate)
};

// Strata for the schedule: op kind x quartile of the recorded work.
std::vector<int> WorkStrata(const std::vector<Op>& ops) {
  std::vector<int> stratum(ops.size());
  for (int kind = 0; kind < 2; ++kind) {
    std::vector<std::pair<long, int>> ranked;
    for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
      if (static_cast<int>(ops[i].hw) == kind) {
        ranked.push_back({ops[i].spec_nodes, i});
      }
    }
    std::sort(ranked.begin(), ranked.end());
    for (size_t r = 0; r < ranked.size(); ++r) {
      stratum[ranked[r].second] =
          kind * 4 + static_cast<int>(4 * r / ranked.size());
    }
  }
  return stratum;
}

// Sums over the traced ops.
struct Layers {
  double ghw_ops = 0, hw_ops = 0;
  double prologue_ms = 0, race_ms = 0, lb_ms = 0, detk_ms = 0;
  double cancel_ms = 0, cancel_n = 0;
  double nodes = 0, wasted_nodes = 0, detk_nodes = 0, kernel_rows = 0;
  double cache_hits = 0, cache_misses = 0;
};

hypertree::PortfolioOptions GhwOptions(long nodes, double backstop_s) {
  hypertree::PortfolioOptions o;
  o.threads = kProgramThreads;
  o.max_nodes = nodes;
  o.time_limit_seconds = backstop_s;
  return o;
}

hypertree::SearchOptions HwOptions(long nodes, double backstop_s) {
  hypertree::SearchOptions o;
  o.threads = kProgramThreads;
  o.max_nodes = nodes;
  o.time_limit_seconds = backstop_s;
  return o;
}

// The ghw witness ordering must rebuild into a valid GHD of that width.
bool GhwWitnessOk(const Hypergraph& h, const hypertree::WidthResult& r,
                  int expected) {
  if (!r.exact || r.upper_bound != expected || r.lower_bound != expected) {
    return false;
  }
  if (static_cast<int>(r.best_ordering.size()) != h.NumVertices()) {
    return false;
  }
  hypertree::GhwEvaluator eval(h);
  hypertree::GeneralizedHypertreeDecomposition ghd =
      eval.BuildGhd(r.best_ordering, hypertree::CoverMode::kExact);
  return ghd.IsValidFor(h) && ghd.Width() == expected;
}

bool HwWitnessOk(const Hypergraph& h, const hypertree::WidthResult& r,
                 const std::optional<hypertree::HypertreeDecomposition>& w,
                 int expected) {
  return r.exact && r.upper_bound == expected && w.has_value() &&
         w->IsValidFor(h) && w->Width() == expected;
}

}  // namespace

Result RunDecompose(const Options& options) {
  Result result;
  std::string error;
  long ghw_budget = 0, hw_budget = 0;
  double backstop_s = 0;
  std::vector<Instance> instances;
  std::vector<Op> ops;
  std::vector<int> schedule;
  auto setup = [&]() -> bool {
    instances.clear();
    ops.clear();
    Json spec;
    if (!LoadSpec(options, "decompose", &spec, &error)) return false;
    ghw_budget = spec.Find("ghw_node_budget")->AsInt();
    hw_budget = spec.Find("hw_node_budget")->AsInt();
    backstop_s = spec.Find("backstop_seconds")->AsDouble();
    for (const Json& entry : spec.Find("instances")->items()) {
      Instance inst;
      inst.name = entry.Find("name")->AsString();
      if (!BuildFamilyInstance(entry, &inst.base, &error)) return false;
      inst.ghw = static_cast<int>(entry.Find("ghw")->AsInt(-1));
      inst.hw = static_cast<int>(entry.Find("hw")->AsInt(-1));
      int idx = static_cast<int>(instances.size());
      if (inst.ghw > 0) {
        ops.push_back({idx, false, entry.Find("ghw_nodes")->AsInt()});
      }
      // hw ops run only where hw >= kMinHwWidth (below it det-k answers
      // in a few ms) and twice per pass: ghw ops spread from 0.3 to
      // 270 ms, so the slow class has to be large enough for p50 and p90
      // to sit well inside it rather than on its lower boundary.
      if (inst.hw >= kMinHwWidth) {
        for (int copy = 0; copy < 2; ++copy) {
          ops.push_back({idx, true, entry.Find("hw_nodes")->AsInt()});
        }
      }
      instances.push_back(std::move(inst));
    }
    hypertree::Rng rng(options.seed);
    schedule = Schedule(WorkStrata(ops), 64, &rng);
    return !ops.empty();
  };
  // Each pass over the op slots presents every instance under a fresh
  // seeded relabelling, so a run averages over several presentations
  // instead of resting on one.
  long presented_pass = -1;
  auto present = [&](long pass) {
    if (pass == presented_pass) return;
    presented_pass = pass;
    hypertree::Rng rng(options.seed * 1000003 + static_cast<uint64_t>(pass));
    for (Instance& inst : instances) inst.presented = Relabel(inst.base, &rng);
  };

  Layers layers;
  long backstops = 0;
  auto op = [&](long i, Tracer* tracer, bool* ok) -> double {
    present(i / static_cast<long>(ops.size()));
    const Op& o = ops[schedule[i % schedule.size()]];
    const Instance& inst = instances[o.instance];
    const Hypergraph& h = inst.presented;
    hypertree::metrics::Counter& attempts =
        hypertree::metrics::GetCounter("detk.separator_attempts");
    long rows_before = tracer ? SumCountersWithPrefix("kernels.rows.") : 0;
    long detk_before = attempts.Value();
    double ms = 0;
    hypertree::WidthResult r;
    std::optional<hypertree::HypertreeDecomposition> witness;
    std::optional<hypertree::PortfolioResult> pr;
    {
      ScopedSpan span(tracer, "decompose.op", i);
      if (!o.hw) {
        double t0 = NowMs();
        {
          ScopedSpan call(tracer, "portfolio.ghw", i);
          pr = hypertree::PortfolioGhw(h, GhwOptions(ghw_budget, backstop_s));
          ms = NowMs() - t0;
          if (tracer != nullptr) {
            double prologue = pr->prologue_seconds * 1000.0;
            tracer->AddChild("portfolio.prologue", i, t0, prologue);
            tracer->AddChild("portfolio.race", i, t0 + prologue,
                             std::max(0.0, ms - prologue));
          }
        }
        r = pr->result;
      } else {
        double t0 = NowMs();
        ScopedSpan call(tracer, "hd.detk", i);
        r = hypertree::HypertreeWidth(h, HwOptions(hw_budget, backstop_s),
                                      &witness);
        ms = NowMs() - t0;
      }
    }
    if (ms >= backstop_s * 1000.0) ++backstops;
    *ok = ms < backstop_s * 1000.0 &&
          (o.hw ? HwWitnessOk(h, r, witness, inst.hw)
                : GhwWitnessOk(h, r, inst.ghw));
    if (!*ok) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "failed op %ld: %s %s lb %d ub %d exact %d (expected %d) "
                    "%.1f ms",
                    i, o.hw ? "hw" : "ghw", inst.name.c_str(), r.lower_bound,
                    r.upper_bound, static_cast<int>(r.exact),
                    o.hw ? inst.hw : inst.ghw, ms);
      result.notes.push_back(buf);
    }
    if (tracer != nullptr) {
      layers.kernel_rows +=
          SumCountersWithPrefix("kernels.rows.") - rows_before;
      layers.cache_hits += r.cache_stats.hits;
      layers.cache_misses += r.cache_stats.misses;
      if (o.hw) {
        ++layers.hw_ops;
        layers.detk_ms += ms;
        layers.detk_nodes += attempts.Value() - detk_before;
      } else {
        ++layers.ghw_ops;
        double prologue = pr->prologue_seconds * 1000.0;
        layers.prologue_ms += prologue;
        layers.race_ms += std::max(0.0, ms - prologue);
        for (size_t e = 0; e < pr->engines.size(); ++e) {
          layers.nodes += pr->engines[e].nodes;
          if (static_cast<int>(e) != pr->winner) {
            layers.wasted_nodes += pr->engines[e].nodes;
          }
        }
        if (pr->cancel_latency_seconds >= 0) {
          layers.cancel_ms += pr->cancel_latency_seconds * 1000.0;
          ++layers.cancel_n;
        }
        // The static lower bound, timed alone outside the op.
        ScopedSpan lb(tracer, "bounds.ghw_lb", i);
        double t0 = NowMs();
        hypertree::Rng lb_rng(1);
        int bound = hypertree::GhwLowerBound(h, &lb_rng);
        layers.lb_ms += NowMs() - t0;
        if (bound > inst.ghw) *ok = false;
      }
    }
    return ms;
  };

  Tracer tracer;
  LoopSpec loop_spec;
  loop_spec.setup = setup;
  loop_spec.op = op;
  LoopOutcome loop =
      RunClosedLoop(options, loop_spec, options.trace ? &tracer : nullptr);
  if (!loop.setup_ok) {
    result.correct = false;
    result.notes.push_back("setup failed: " + error);
    return result;
  }
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  result.notes.push_back("backstop hits " + std::to_string(backstops) +
                         ", corpus " + std::to_string(instances.size()) +
                         " instances, " + std::to_string(ops.size()) +
                         " op slots");
  if (!options.trace) {
    AddEndToEndMetrics(loop, SelfPeakRssMb(), &result);
    return result;
  }
  const Layers& l = layers;
  double ghw = l.ghw_ops, hw = l.hw_ops;
  result.metrics = {
      {"portfolio.prologue_ms", Ratio(l.prologue_ms, ghw), "ms"},
      {"portfolio.race_ms", Ratio(l.race_ms, ghw), "ms"},
      {"portfolio.nodes", Ratio(l.nodes, ghw), "count"},
      {"portfolio.wasted_node_share", Ratio(l.wasted_nodes, l.nodes), "share"},
      {"portfolio.cancel_latency_ms", Ratio(l.cancel_ms, l.cancel_n), "ms"},
      {"bounds.ghw_lb_ms", Ratio(l.lb_ms, ghw), "ms"},
      {"search.cache_hit_ratio",
       Ratio(l.cache_hits, l.cache_hits + l.cache_misses), "share"},
      {"kernels.rows_per_op", Ratio(l.kernel_rows, ghw + hw), "count"},
      {"hd.detk_ms", Ratio(l.detk_ms, hw), "ms"},
      {"hd.detk_nodes", Ratio(l.detk_nodes, hw), "count"},
  };
  AddTraceMetrics(loop, tracer, "decompose.op", &result);
  WriteTrace(options, tracer, &result);
  return result;
}

// Spec generation: every candidate must prove exactness within the
// selection budget (a quarter of the op budget) as given and under 16
// seeded relabellings, and its ghw must agree with an independent exact
// route (A* or plain branch and bound) before it is kept.
int MakeDecomposeSpec() {
  const long kGhwBudget = 400000;
  const long kHwBudget = 400000;
  const long kSelect = 4;
  const double kBackstop = 30.0;
  const int kPresentations = 16;
  // Random instances are drawn until the width-4 and width-3 quotas are
  // full (width is a property of the instance, not of its timing), so
  // the reported percentiles sit inside the width-4 class rather than on
  // a class boundary.
  const int kWidth4 = 36, kWidth3 = 6;
  std::vector<Json> candidates;
  for (int size : {12, 16, 20}) {
    for (const char* fam : {"adder", "bridge"}) {
      Json e = Json::Object();
      e.Set("name", std::string(fam) + "_" + std::to_string(size));
      e.Set("family", fam);
      e.Set("size", size);
      candidates.push_back(std::move(e));
    }
  }
  for (int size : {4, 5}) {
    Json e = Json::Object();
    e.Set("name", "grid2d_" + std::to_string(size));
    e.Set("family", "grid2d");
    e.Set("size", size);
    candidates.push_back(std::move(e));
  }
  for (int s = 1; s <= 120; ++s) {
    int n = 21 + s % 4;
    Json e = Json::Object();
    e.Set("name", "random_" + std::to_string(n) + "_s" + std::to_string(s));
    e.Set("family", "random");
    e.Set("n", n);
    e.Set("m", (n * 6 + 2) / 5);
    e.Set("seed", 7000 + s);
    candidates.push_back(std::move(e));
  }
  int width4 = 0, width3 = 0;
  uint64_t candidate = 0;

  Json instances = Json::Array();
  for (Json& e : candidates) {
    if (width4 >= kWidth4 && width3 >= kWidth3) break;
    Hypergraph h;
    std::string error;
    if (!BuildFamilyInstance(e, &h, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    hypertree::PortfolioResult pr =
        hypertree::PortfolioGhw(h, GhwOptions(kGhwBudget / kSelect, kBackstop));
    std::optional<hypertree::HypertreeDecomposition> witness;
    hypertree::WidthResult hw = hypertree::HypertreeWidth(
        h, HwOptions(kHwBudget / kSelect, kBackstop), &witness);
    // The recorded work estimate comes from a single-threaded run: with
    // two threads the parallel root search makes the count vary.
    hypertree::metrics::Counter& attempts =
        hypertree::metrics::GetCounter("detk.separator_attempts");
    long detk_before = attempts.Value();
    hypertree::SearchOptions serial = HwOptions(kHwBudget / kSelect, kBackstop);
    serial.threads = 1;
    hypertree::HypertreeWidth(h, serial);
    long detk_nodes = attempts.Value() - detk_before;
    hypertree::WidthResult ref = ReferenceGhw(h);
    bool ghw_ok = pr.result.exact && ref.exact &&
                  ref.upper_bound == pr.result.upper_bound &&
                  GhwWitnessOk(h, pr.result, pr.result.upper_bound);
    bool hw_ok = ghw_ok && HwWitnessOk(h, hw, witness, hw.upper_bound) &&
                 hw.upper_bound >= pr.result.upper_bound &&
                 hw.upper_bound <= 3 * pr.result.upper_bound + 1;
    // Runs present every instance under seeded relabellings, which move
    // node counts, so the budget must also hold under kPresentations of
    // them.
    hypertree::Rng presentations(0x5eedULL + candidate++);
    for (int r = 0; r < kPresentations && ghw_ok; ++r) {
      Hypergraph p = Relabel(h, &presentations);
      hypertree::PortfolioResult pp = hypertree::PortfolioGhw(
          p, GhwOptions(kGhwBudget / kSelect, kBackstop));
      ghw_ok = GhwWitnessOk(p, pp.result, pr.result.upper_bound);
      if (hw_ok) {
        std::optional<hypertree::HypertreeDecomposition> w;
        hypertree::WidthResult ph = hypertree::HypertreeWidth(
            p, HwOptions(kHwBudget / kSelect, kBackstop), &w);
        hw_ok = HwWitnessOk(p, ph, w, hw.upper_bound);
      }
    }
    std::fprintf(stderr,
                 "%-16s ghw %d%s (%ld nodes, ref %d%s) hw %d%s (%ld nodes) "
                 "-> %s\n",
                 e.Find("name")->AsString().c_str(), pr.result.upper_bound,
                 pr.result.exact ? "" : "*", pr.result.nodes, ref.upper_bound,
                 ref.exact ? "" : "*", hw.upper_bound, hw.exact ? "" : "*",
                 detk_nodes, ghw_ok ? (hw_ok ? "ghw+hw" : "ghw") : "dropped");
    if (!ghw_ok) continue;
    if (e.Find("family")->AsString() == "random") {
      int& quota_used = pr.result.upper_bound >= 4 ? width4 : width3;
      int quota = pr.result.upper_bound >= 4 ? kWidth4 : kWidth3;
      if (quota_used >= quota) continue;
      ++quota_used;
    }
    e.Set("fingerprint", HypergraphFingerprint(h));
    e.Set("ghw", pr.result.upper_bound);
    e.Set("ghw_nodes", pr.result.nodes);
    e.Set("hw", hw_ok ? hw.upper_bound : -1);
    e.Set("hw_nodes", detk_nodes);
    instances.Append(std::move(e));
  }
  Json spec = Json::Object();
  spec.Set("workload", "decompose");
  spec.Set("ghw_node_budget", kGhwBudget);
  spec.Set("hw_node_budget", kHwBudget);
  spec.Set("selection",
           "kept when PortfolioGhw / HypertreeWidth prove exactness within a "
           "quarter of the op node budget, as given and under 16 seeded "
           "relabellings, and ghw matches A* (or branch and bound)");
  spec.Set("backstop_seconds", kBackstop);
  spec.Set("instances", std::move(instances));
  std::printf("%s\n", spec.Dump().c_str());
  return 0;
}

}  // namespace perfbench
