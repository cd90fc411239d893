#include "portfolio/portfolio.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "bounds/ghw_lower_bounds.h"
#include "ga/ga_ghw.h"
#include "ga/saiga.h"
#include "ghd/astar.h"
#include "ghd/branch_and_bound.h"
#include "ghd/ghw_from_ordering.h"
#include "hd/det_k_decomp.h"
#include "ls/local_search.h"
#include "ordering/heuristics.h"
#include "portfolio/shared_bounds.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hypertree {

namespace {

metrics::Counter& RacesMetric() {
  static metrics::Counter& c = metrics::GetCounter("portfolio.races");
  return c;
}
metrics::Counter& ProofsMetric() {
  static metrics::Counter& c = metrics::GetCounter("portfolio.proofs");
  return c;
}
metrics::Counter& EnginesRacedMetric() {
  static metrics::Counter& c = metrics::GetCounter("portfolio.engines_raced");
  return c;
}
metrics::Counter& EnginesCancelledMetric() {
  static metrics::Counter& c =
      metrics::GetCounter("portfolio.engines_cancelled");
  return c;
}
metrics::Counter& UbUpdatesMetric() {
  static metrics::Counter& c = metrics::GetCounter("portfolio.ub_updates");
  return c;
}
metrics::Counter& LbUpdatesMetric() {
  static metrics::Counter& c = metrics::GetCounter("portfolio.lb_updates");
  return c;
}

// Everything one engine task writes; read only after pool.Wait().
struct EngineOutcome {
  EngineStats stats;
  EliminationOrdering ordering;
  bool has_ordering = false;
  bool proved = false;
  int proved_width = -1;
  DecompCacheStats cache_stats;
};

// Elimination ordering from a hypertree decomposition, width-preserving:
// processing nodes children-before-parent (reverse of the parent-first
// node order) and eliminating each vertex at the highest node containing
// it keeps every elimination bag inside that node's chi, so the exact
// cover of each bag costs at most |lambda| <= k (the classic
// decomposition -> ordering direction of Theorem 3). First-eliminated
// vertices go to the back of sigma, matching the searches' convention.
EliminationOrdering OrderingFromHd(const HypertreeDecomposition& hd, int n) {
  std::vector<char> placed(n, 0);
  std::vector<int> elim;
  elim.reserve(n);
  for (int p = hd.NumNodes() - 1; p >= 0; --p) {
    int parent = hd.Parent(p);
    for (int v = hd.Chi(p).First(); v >= 0; v = hd.Chi(p).Next(v)) {
      if (placed[v]) continue;
      if (parent >= 0 && hd.Chi(parent).Test(v)) continue;  // lives higher up
      placed[v] = 1;
      elim.push_back(v);
    }
  }
  for (int v = 0; v < n; ++v) {
    if (!placed[v]) elim.push_back(v);  // vertices outside every chi
  }
  EliminationOrdering sigma(n);
  int pos = n - 1;
  for (int v : elim) sigma[pos--] = v;
  return sigma;
}

// Runs lineup slot `i` to completion (or cancellation) and fills `out`.
// Engines are single-threaded and node/iteration-budgeted, so `out` is a
// deterministic function of (h, spec, seed, prologue bounds) — never of
// scheduling — unless the wall-clock backstop fires first.
void RunEngine(const Hypergraph& h, const EngineSpec& spec,
               const PortfolioOptions& opts, int static_lb, int prologue_ub,
               CancellationToken token, BoundExchange* exchange,
               EngineOutcome* out) {
  Timer timer;
  long budget_nodes = spec.max_nodes > 0 ? spec.max_nodes : opts.max_nodes;
  switch (spec.kind) {
    case EngineKind::kDetK: {
      SearchOptions sub;
      sub.time_limit_seconds = opts.time_limit_seconds;
      sub.max_nodes = budget_nodes;
      sub.seed = opts.seed;
      sub.threads = 1;
      sub.cancel = token;
      // Proving hw <= k for k >= the incumbent cannot improve the race.
      sub.max_width = prologue_ub;
      sub.exchange = exchange;
      std::optional<HypertreeDecomposition> hd;
      WidthResult r = HypertreeWidth(h, sub, &hd);
      out->stats.nodes = r.nodes;
      out->cache_stats = r.cache_stats;
      if (r.exact) out->stats.width = r.upper_bound;
      if (hd.has_value()) {
        out->ordering = OrderingFromHd(*hd, h.NumVertices());
        out->has_ordering = true;
      }
      // A width-k hypertree decomposition is a width-k ghd, so success at
      // k == the static ghw lower bound proves ghw = k. det-k refutations
      // prove hw > k only — NOT ghw > k — so they contribute no ghw lower
      // bound here.
      out->proved = r.exact && r.upper_bound == static_lb;
      out->proved_width = static_lb;
      out->stats.lower_bound = static_lb;
      break;
    }
    case EngineKind::kBbGhw:
    case EngineKind::kAStarGhw: {
      GhwSearchOptions g;
      g.time_limit_seconds = opts.time_limit_seconds;
      g.max_nodes = budget_nodes;
      g.seed = opts.seed;
      g.threads = 1;
      g.cancel = token;
      g.initial_upper_bound = prologue_ub;
      g.exchange = exchange;
      WidthResult r = spec.kind == EngineKind::kBbGhw ? BranchAndBoundGhw(h, g)
                                                      : AStarGhw(h, g);
      out->stats.width = r.upper_bound;
      out->stats.nodes = r.nodes;
      out->cache_stats = r.cache_stats;
      out->ordering = r.best_ordering;
      out->has_ordering = true;
      out->proved = r.exact;
      out->proved_width = r.upper_bound;
      out->stats.lower_bound = r.lower_bound;
      break;
    }
    case EngineKind::kGaGhw: {
      GaConfig cfg;
      cfg.seed = opts.seed;
      cfg.time_limit_seconds = opts.time_limit_seconds;
      cfg.cancel = token;
      cfg.population_size = 64;
      cfg.max_iterations =
          budget_nodes > 0
              ? static_cast<int>(std::min<long>(64, budget_nodes / 64 + 1))
              : 64;
      GaResult r = GaGhw(h, cfg, CoverMode::kGreedy,
                         /*seed_with_heuristics=*/true);
      out->stats.nodes = r.evaluations;
      out->ordering = r.best;
      out->has_ordering = true;
      out->stats.lower_bound = static_lb;
      break;
    }
    case EngineKind::kSaiga: {
      SaigaConfig cfg;
      cfg.seed = opts.seed;
      cfg.time_limit_seconds = opts.time_limit_seconds;
      cfg.cancel = token;
      cfg.epochs = 4;
      cfg.generations_per_epoch = 10;
      SaigaResult r = SaigaGhw(h, cfg);
      out->stats.nodes = r.ga.evaluations;
      out->ordering = r.ga.best;
      out->has_ordering = true;
      out->stats.lower_bound = static_lb;
      break;
    }
    case EngineKind::kLocalSearch: {
      LocalSearchConfig cfg;
      cfg.seed = opts.seed;
      cfg.time_limit_seconds = opts.time_limit_seconds;
      cfg.cancel = token;
      if (budget_nodes > 0)
        cfg.max_evaluations = std::min<long>(cfg.max_evaluations, budget_nodes);
      LocalSearchResult r = LsGhw(h, cfg);
      out->stats.nodes = r.evaluations;
      out->ordering = r.best;
      out->has_ordering = true;
      out->stats.lower_bound = static_lb;
      break;
    }
  }
  // Heuristic engines prove optimality when their witness meets the
  // static lower bound under exact covers; evaluated in-task so a
  // heuristic prover cancels later engines promptly.
  if (!out->proved && out->has_ordering && spec.kind != EngineKind::kDetK &&
      spec.kind != EngineKind::kBbGhw && spec.kind != EngineKind::kAStarGhw) {
    GhwEvaluator eval(h);
    int w = eval.EvaluateOrdering(out->ordering, CoverMode::kExact);
    out->stats.width = w;
    if (w == static_lb) {
      out->proved = true;
      out->proved_width = w;
    }
  }
  out->stats.seconds = timer.ElapsedSeconds();
}

}  // namespace

PortfolioResult PortfolioGhw(const Hypergraph& h,
                             const PortfolioOptions& options) {
  PortfolioResult pr;
  Timer wall;
  RacesMetric().Increment();
  int n = h.NumVertices();

  // ---- Prologue (deterministic, single-threaded). ----
  Timer prologue_timer;
  IncidenceIndex index(h);
  pr.features = ExtractFeatures(index);
  pr.plan = RouteInstance(pr.features, options.max_nodes);
  if (h.NumEdges() == 0) {
    // Edgeless instances decompose trivially; match HypertreeWidth.
    pr.result.exact = true;
    pr.result.best_ordering.resize(n);
    for (int v = 0; v < n; ++v) pr.result.best_ordering[v] = v;
    pr.winner_name = "prologue";
    pr.prologue_seconds = prologue_timer.ElapsedSeconds();
    pr.result.seconds = wall.ElapsedSeconds();
    return pr;
  }
  Rng rng(options.seed);
  int static_lb = GhwLowerBound(h, &rng);
  GhwEvaluator eval(h, &index);
  EliminationOrdering w0 = MinFillOrdering(eval.primal(), &rng);
  int u0 = eval.EvaluateOrdering(w0, CoverMode::kExact);
  {
    EliminationOrdering md = MinDegreeOrdering(eval.primal(), &rng);
    int w = eval.EvaluateOrdering(md, CoverMode::kExact);
    if (w < u0) {
      u0 = w;
      w0 = std::move(md);
    }
  }
  pr.prologue_seconds = prologue_timer.ElapsedSeconds();

  pr.engines.resize(pr.plan.lineup.size());
  for (size_t i = 0; i < pr.plan.lineup.size(); ++i) {
    pr.engines[i].kind = pr.plan.lineup[i].kind;
    pr.engines[i].name = EngineName(pr.plan.lineup[i].kind);
  }

  if (static_lb >= u0) {
    // The prologue already closed the gap; no race needed.
    pr.result.lower_bound = pr.result.upper_bound = u0;
    pr.result.exact = true;
    pr.result.best_ordering = std::move(w0);
    pr.winner_name = "prologue";
    pr.result.seconds = wall.ElapsedSeconds();
    if (options.trace) {
      std::fprintf(stderr, "portfolio: rule=%s proved in prologue width=%d\n",
                   pr.plan.rule.c_str(), u0);
    }
    return pr;
  }

  // ---- Race. ----
  int threads = options.threads > 0 ? options.threads
                                    : ThreadPool::HardwareThreads();
  SharedBounds shared(static_cast<int>(pr.plan.lineup.size()), static_lb, u0);
  BoundExchange* exchange = options.live_sharing ? &shared : nullptr;
  std::vector<EngineOutcome> outcomes(pr.plan.lineup.size());
  EnginesRacedMetric().Add(static_cast<long>(pr.plan.lineup.size()));
  if (options.trace) {
    std::fprintf(stderr, "portfolio: rule=%s engines=%zu lb=%d u0=%d\n",
                 pr.plan.rule.c_str(), pr.plan.lineup.size(), static_lb, u0);
  }
  {
    ThreadPool pool(std::min<int>(
        threads, static_cast<int>(pr.plan.lineup.size())));
    for (size_t i = 0; i < pr.plan.lineup.size(); ++i) {
      pool.Submit([&outcomes, &pr, &shared, &options, &h, &exchange,
                   static_lb, u0, i] {
        EngineOutcome& out = outcomes[i];
        out.stats = pr.engines[i];
        // Supersede cancellation from lower-indexed provers, merged with
        // the caller's external token (request deadline / shutdown). Every
        // engine polls the combined token: the exact searches in their
        // inner loops, the heuristics once per generation or move.
        CancellationToken token = CancellationToken::AnyOf(
            shared.TokenFor(static_cast<int>(i)), options.cancel);
        if (token.Cancelled()) {
          out.stats.cancelled = true;
          return;
        }
        out.stats.ran = true;
        RunEngine(h, pr.plan.lineup[i], options, static_lb, u0, token,
                  exchange, &out);
        if (out.proved) {
          out.stats.proved = true;
          shared.Prove(static_cast<int>(i), out.proved_width);
        } else if (token.Cancelled()) {
          out.stats.cancelled = true;
        }
      });
    }
    pool.Wait();
  }

  double settled = shared.ElapsedSeconds();
  double first_prove = shared.FirstProveSeconds();
  if (first_prove >= 0) pr.cancel_latency_seconds = settled - first_prove;
  UbUpdatesMetric().Add(shared.ub_updates());
  LbUpdatesMetric().Add(shared.lb_updates());

  // ---- Verdict (main thread, lineup-index order: deterministic). ----
  long cancelled = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    pr.engines[i] = outcomes[i].stats;
    if (outcomes[i].stats.cancelled) ++cancelled;
  }
  EnginesCancelledMetric().Add(cancelled);

  int winner = -1;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].proved) {
      winner = static_cast<int>(i);
      break;
    }
  }

  if (winner >= 0) {
    ProofsMetric().Increment();
    const EngineOutcome& win = outcomes[winner];
    int w_star = win.proved_width;
    pr.winner = winner;
    pr.winner_name = pr.engines[winner].name;
    pr.result.lower_bound = pr.result.upper_bound = w_star;
    pr.result.exact = true;
    pr.result.nodes = win.stats.nodes;
    pr.result.cache_stats = win.cache_stats;
    // The winner's ordering witnesses w* unless its search only matched
    // the primed incumbent without improving it (the initial_upper_bound
    // hint convention) — in that case w* == u0 and the prologue ordering
    // is the witness.
    int witness_width =
        win.has_ordering
            ? eval.EvaluateOrdering(win.ordering, CoverMode::kExact)
            : u0 + 1;
    if (witness_width == w_star) {
      pr.result.best_ordering = win.ordering;
      pr.engines[winner].width = w_star;
    } else {
      HT_DCHECK(u0 == w_star);
      pr.result.best_ordering = std::move(w0);
    }
  } else {
    // No proof: best witnessed width wins, prologue incumbent included,
    // lowest lineup index breaking ties (no engine was cancelled — only
    // provers cancel — so this scan is schedule-invariant too).
    pr.result.upper_bound = u0;
    pr.result.best_ordering = w0;
    int lb = static_lb;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].has_ordering) continue;
      int w = eval.EvaluateOrdering(outcomes[i].ordering, CoverMode::kExact);
      pr.engines[i].width = w;
      if (w < pr.result.upper_bound) {
        pr.result.upper_bound = w;
        pr.result.best_ordering = outcomes[i].ordering;
        pr.winner = static_cast<int>(i);  // best incumbent, not a prover
      }
      lb = std::max(lb, outcomes[i].stats.lower_bound);
      pr.result.nodes += outcomes[i].stats.nodes;
    }
    pr.result.lower_bound = std::min(lb, pr.result.upper_bound);
    pr.result.exact = pr.result.lower_bound == pr.result.upper_bound;
    if (pr.winner >= 0) pr.winner_name = pr.engines[pr.winner].name;
  }
  if (options.trace) {
    for (size_t i = 0; i < pr.engines.size(); ++i) {
      std::fprintf(
          stderr,
          "portfolio: engine %zu %-9s %s nodes=%ld wall=%.1fms width=%d\n", i,
          pr.engines[i].name.c_str(),
          pr.engines[i].proved
              ? "proved"
              : (pr.engines[i].cancelled
                     ? "cancelled"
                     : (pr.engines[i].ran ? "done" : "skipped")),
          pr.engines[i].nodes, pr.engines[i].seconds * 1000.0,
          pr.engines[i].width);
    }
    std::fprintf(stderr,
                 "portfolio: winner=%d (%s) width=%d exact=%d "
                 "cancel_latency=%.1fms\n",
                 pr.winner, pr.winner_name.c_str(), pr.result.upper_bound,
                 pr.result.exact ? 1 : 0,
                 pr.cancel_latency_seconds * 1000.0);
  }
  pr.result.seconds = wall.ElapsedSeconds();
  return pr;
}

}  // namespace hypertree
