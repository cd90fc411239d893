// Workload `answer`: the relational layer. Random CSPs on grid
// hypergraphs are solved and counted through both the tree-decomposition
// and the GHD route, and cyclic conjunctive queries are answered with
// AnswerQuery. The only decomposition work per op is the min-fill
// heuristic (plus the exact bag covers of the GHD route); the memory
// budget is unlimited.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.h"
#include "cq/answer.h"
#include "cq/database.h"
#include "cq/query.h"
#include "csp/backtracking.h"
#include "csp/counting.h"
#include "csp/decomposition_solving.h"
#include "csp/generators.h"
#include "csp/yannakakis.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "ordering/heuristics.h"
#include "td/tree_decomposition.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

using hypertree::Csp;
using hypertree::Json;
using hypertree::Relation;

namespace {

enum Route { kTdSolve, kGhdSolve, kTdCount, kGhdCount, kCq };

// Solver comparator in the traced run only.
constexpr long kBacktrackNodeCap = 200000;

struct CspCase {
  Csp csp;
  uint64_t order_seed = 1;
  bool sat = false;
  long long count = 0;
};

struct CqCase {
  hypertree::ConjunctiveQuery query;
  hypertree::Database db;
  long answer_rows = 0;
  std::string answer_hash;
};

struct Op {
  Route route = kTdSolve;
  int index = 0;  // into csps or cqs
};

std::string CspFingerprint(const Csp& csp) {
  Digest d;
  for (const hypertree::Constraint& c : csp.constraints()) {
    d.Add(0xFFFFFFFFULL);
    for (int v : c.scope) d.Add(static_cast<uint64_t>(v));
    for (int r = 0; r < c.relation.Size(); ++r) {
      for (int k = 0; k < c.relation.Arity(); ++k) {
        d.Add(static_cast<uint64_t>(c.relation.Row(r)[k]));
      }
    }
  }
  return d.Hex();
}

// Order-independent digest of an answer relation (rows sorted first).
std::string RelationDigest(const Relation& r) {
  std::vector<std::vector<int>> rows;
  for (int i = 0; i < r.Size(); ++i) {
    rows.emplace_back(r.Row(i), r.Row(i) + r.Arity());
  }
  std::sort(rows.begin(), rows.end());
  Digest d;
  for (const auto& row : rows) {
    d.Add(0xFFFFFFFFULL);
    for (int v : row) d.Add(static_cast<uint64_t>(v));
  }
  return d.Hex();
}

Csp GenerateCsp(const Json& e) {
  Csp csp = hypertree::RandomCspFromHypergraph(
      hypertree::Grid2DHypergraph(static_cast<int>(e.Find("grid")->AsInt())),
      static_cast<int>(e.Find("domain")->AsInt()),
      e.Find("tightness")->AsDouble(), e.Find("plant")->AsBool(),
      static_cast<uint64_t>(e.Find("seed")->AsInt()));
  return csp;
}

// The same CSP with every constraint's tuples in a seeded order.
Csp ShuffleRows(const Csp& in, hypertree::Rng* rng) {
  Csp out(in.NumVariables(), 0);
  for (int v = 0; v < in.NumVariables(); ++v) {
    out.SetDomainSize(v, in.DomainSize(v));
  }
  for (const hypertree::Constraint& c : in.constraints()) {
    std::vector<int> order(c.relation.Size());
    for (int i = 0; i < c.relation.Size(); ++i) order[i] = i;
    for (int i = static_cast<int>(order.size()) - 1; i > 0; --i) {
      std::swap(order[i], order[rng->UniformInt(i + 1)]);
    }
    Relation r(c.scope);
    for (int i : order) r.AddRow(c.relation.Row(i));
    out.AddConstraint(c.scope, std::move(r), c.name);
  }
  return out;
}

// A cycle query ans(X0, X<k/2>) :- e0(X0,X1), ..., e<k-1>(X<k-1>,X0)
// over k random binary tables of `rows` distinct pairs in [0, domain).
// Row order is shuffled by `rng` when given.
CqCase GenerateCq(const Json& e, hypertree::Rng* shuffle) {
  CqCase c;
  int k = static_cast<int>(e.Find("cycle")->AsInt());
  int rows = static_cast<int>(e.Find("rows")->AsInt());
  int domain = static_cast<int>(e.Find("domain")->AsInt());
  hypertree::Rng rng(static_cast<uint64_t>(e.Find("seed")->AsInt()));
  c.query.head = {"X0", "X" + std::to_string(k / 2)};
  for (int i = 0; i < k; ++i) {
    std::string table = "e" + std::to_string(i);
    c.query.atoms.push_back(
        {table, {"X" + std::to_string(i), "X" + std::to_string((i + 1) % k)}});
    std::vector<std::vector<int>> tuples;
    std::vector<char> seen(static_cast<size_t>(domain) * domain, 0);
    while (static_cast<int>(tuples.size()) < rows) {
      int a = rng.UniformInt(domain), b = rng.UniformInt(domain);
      char& pair_seen = seen[static_cast<size_t>(a) * domain + b];
      if (pair_seen) continue;
      pair_seen = 1;
      tuples.push_back({a, b});
    }
    if (shuffle != nullptr) {
      for (int j = static_cast<int>(tuples.size()) - 1; j > 0; --j) {
        std::swap(tuples[j], tuples[shuffle->UniformInt(j + 1)]);
      }
    }
    c.db.AddRows(table, std::move(tuples));
  }
  return c;
}

struct Plan {
  std::optional<hypertree::TreeDecomposition> td;
  std::optional<hypertree::GeneralizedHypertreeDecomposition> ghd;
};

// min-fill on the primal graph, then the TD (TD routes) or the GHD with
// exact bag covers (GHD routes).
Plan MakePlan(const Csp& csp, uint64_t order_seed, bool ghd) {
  hypertree::Hypergraph h = csp.ConstraintHypergraph();
  hypertree::GhwEvaluator eval(h);
  hypertree::Rng rng(order_seed);
  hypertree::EliminationOrdering sigma =
      hypertree::MinFillOrdering(eval.primal(), &rng);
  Plan plan;
  if (ghd) {
    plan.ghd = eval.BuildGhd(sigma, hypertree::CoverMode::kExact);
  } else {
    plan.td = hypertree::TreeDecompositionFromOrdering(eval.primal(), sigma);
  }
  return plan;
}

bool SolutionOk(const CspCase& c, const std::optional<std::vector<int>>& s) {
  if (s.has_value() != c.sat) return false;
  return !s.has_value() ||
         (static_cast<int>(s->size()) == c.csp.NumVariables() &&
          c.csp.IsSolution(*s));
}

const std::vector<std::string>& RelationCounterNames() {
  static const std::vector<std::string> names = {
      "relation.rows_joined", "relation.rows_semijoin_dropped",
      "relation.probe_collisions", "relation.morsels.processed",
      "relation.morsels.skipped", "relation.spill.bytes"};
  return names;
}

// Sums over the traced ops.
struct Layers {
  double ops = 0, csp_ops = 0, td_ops = 0, ghd_ops = 0, bt_runs = 0;
  double plan_ms = 0, materialise_ms = 0, reduce_ms = 0, count_ms = 0,
         cq_ms = 0, bt_ms = 0;
  double bag_tuples = 0, td_tuples = 0, ghd_tuples = 0, bt_nodes = 0;
  std::map<std::string, double> counters;
};

}  // namespace

Result RunAnswer(const Options& options) {
  Result result;
  std::string error;
  hypertree::ThreadPool pool(kProgramThreads);
  std::vector<CspCase> csps;
  std::vector<CqCase> cqs;
  std::vector<Op> ops;
  std::vector<int> schedule;

  auto setup = [&]() -> bool {
    csps.clear();
    cqs.clear();
    ops.clear();
    Json spec;
    if (!LoadSpec(options, "answer", &spec, &error)) return false;
    hypertree::Rng rng(options.seed);
    std::vector<int> strata;
    for (const Json& e : spec.Find("csp")->items()) {
      Csp generated = GenerateCsp(e);
      if (CspFingerprint(generated) != e.Find("fingerprint")->AsString()) {
        error = e.Find("name")->AsString() +
                " no longer matches its spec fingerprint (regenerate the spec)";
        return false;
      }
      CspCase c;
      c.csp = ShuffleRows(generated, &rng);
      c.order_seed = static_cast<uint64_t>(e.Find("order_seed")->AsInt());
      c.sat = e.Find("sat")->AsBool();
      c.count = e.Find("count")->AsInt();
      int idx = static_cast<int>(csps.size());
      for (int r = kTdSolve; r <= kGhdCount; ++r) {
        ops.push_back({static_cast<Route>(r), idx});
        strata.push_back(r);
      }
      csps.push_back(std::move(c));
    }
    for (const Json& e : spec.Find("cq")->items()) {
      CqCase c = GenerateCq(e, &rng);
      c.answer_rows = e.Find("answer_rows")->AsInt();
      c.answer_hash = e.Find("answer_hash")->AsString();
      ops.push_back({kCq, static_cast<int>(cqs.size())});
      strata.push_back(kCq);
      cqs.push_back(std::move(c));
    }
    schedule = Schedule(strata, 64, &rng);
    return !ops.empty();
  };

  Layers layers;
  auto op = [&](long i, Tracer* tracer, bool* ok) -> double {
    const Op& o = ops[schedule[i % schedule.size()]];
    std::map<std::string, long> before;
    if (tracer != nullptr) before = ReadCounters(RelationCounterNames());
    double ms = 0;
    if (o.route == kCq) {
      const CqCase& c = cqs[o.index];
      std::optional<Relation> answer;
      double t0 = NowMs();
      {
        ScopedSpan span(tracer, "answer.op", i);
        ScopedSpan call(tracer, "cq.answer", i);
        answer = hypertree::AnswerQuery(c.query, c.db, &error, nullptr, &pool);
      }
      ms = NowMs() - t0;
      *ok = answer.has_value() && answer->Size() == c.answer_rows &&
            RelationDigest(*answer) == c.answer_hash;
      if (tracer != nullptr) layers.cq_ms += ms;
    } else {
      const CspCase& c = csps[o.index];
      bool ghd = o.route == kGhdSolve || o.route == kGhdCount;
      bool count = o.route == kTdCount || o.route == kGhdCount;
      std::optional<std::vector<int>> solution;
      long long counted = -1;
      long tuples = 0;
      if (tracer == nullptr) {
        // The user-level entry points.
        double t0 = NowMs();
        Plan plan = MakePlan(c.csp, c.order_seed, ghd);
        hypertree::DecompositionSolveStats stats;
        switch (o.route) {
          case kTdSolve:
            solution = hypertree::SolveViaTreeDecomposition(c.csp, *plan.td,
                                                            &stats, &pool);
            break;
          case kGhdSolve:
            solution = hypertree::SolveViaGhd(c.csp, *plan.ghd, &stats, &pool);
            break;
          case kTdCount:
            counted =
                hypertree::CountViaTreeDecomposition(c.csp, *plan.td, &pool);
            break;
          default:
            counted = hypertree::CountViaGhd(c.csp, *plan.ghd, &pool);
            break;
        }
        ms = NowMs() - t0;
      } else {
        // The public sub-steps, one span each.
        double t0 = NowMs();
        {
          ScopedSpan span(tracer, "answer.op", i);
          double s0 = NowMs();
          std::optional<Plan> plan;
          {
            ScopedSpan plan_span(tracer, "answer.plan", i);
            plan = MakePlan(c.csp, c.order_seed, ghd);
          }
          double s1 = NowMs();
          hypertree::RelationTree tree;
          {
            ScopedSpan mat(tracer, "csp.materialise", i);
            tree = ghd ? hypertree::BuildRelationTreeFromGhd(c.csp, *plan->ghd,
                                                             &pool)
                       : hypertree::BuildRelationTreeFromTd(c.csp, *plan->td,
                                                            &pool);
          }
          double s2 = NowMs();
          for (const Relation& r : tree.relations) tuples += r.Size();
          if (count) {
            ScopedSpan cnt(tracer, "csp.count", i);
            counted = hypertree::CountRelationTree(tree, &pool);
          } else {
            ScopedSpan red(tracer, "csp.reduce", i);
            auto assignment = hypertree::AcyclicSolve(std::move(tree), &pool);
            if (assignment.has_value()) {
              std::vector<int> full(c.csp.NumVariables(), 0);
              for (auto [var, val] : *assignment) full[var] = val;
              solution = std::move(full);
            }
          }
          double s3 = NowMs();
          layers.plan_ms += s1 - s0;
          layers.materialise_ms += s2 - s1;
          (count ? layers.count_ms : layers.reduce_ms) += s3 - s2;
        }
        ms = NowMs() - t0;
        layers.bag_tuples += tuples;
        ++layers.csp_ops;
        if (ghd) {
          layers.ghd_tuples += tuples;
          ++layers.ghd_ops;
        } else {
          layers.td_tuples += tuples;
          ++layers.td_ops;
        }
        if (!count) {
          ScopedSpan bt(tracer, "csp.bt", i);
          double b0 = NowMs();
          hypertree::BacktrackStats bt_stats;
          hypertree::BacktrackingSolve(c.csp, kBacktrackNodeCap, &bt_stats);
          layers.bt_ms += NowMs() - b0;
          layers.bt_nodes += bt_stats.nodes;
          ++layers.bt_runs;
        }
      }
      *ok = count ? counted == c.count : SolutionOk(c, solution);
    }
    if (tracer != nullptr) {
      ++layers.ops;
      for (const auto& [name, value] : ReadCounters(RelationCounterNames())) {
        layers.counters[name] += static_cast<double>(value - before[name]);
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
  result.notes.push_back("corpus " + std::to_string(csps.size()) +
                         " csps x 4 routes, " +
                         std::to_string(cqs.size()) + " queries");
  if (!options.trace) {
    AddEndToEndMetrics(loop, SelfPeakRssMb(), &result);
    return result;
  }
  Layers& l = layers;
  std::map<std::string, double>& k = l.counters;
  double joined = k["relation.rows_joined"];
  double skipped = k["relation.morsels.skipped"];
  result.metrics = {
      {"answer.plan_ms", Ratio(l.plan_ms, l.ops), "ms"},
      {"csp.materialise_ms", Ratio(l.materialise_ms, l.ops), "ms"},
      {"csp.reduce_ms", Ratio(l.reduce_ms, l.ops), "ms"},
      {"csp.count_ms", Ratio(l.count_ms, l.ops), "ms"},
      {"cq.answer_ms", Ratio(l.cq_ms, l.ops), "ms"},
      {"csp.bag_tuples", Ratio(l.bag_tuples, l.csp_ops), "count"},
      {"relation.rows_joined", Ratio(joined, l.ops), "count"},
      {"relation.semijoin_drop_share",
       Ratio(k["relation.rows_semijoin_dropped"], l.bag_tuples), "share"},
      {"relation.probe_collisions_per_row",
       Ratio(k["relation.probe_collisions"], joined), "count"},
      {"relation.morsels_skipped_share",
       Ratio(skipped, skipped + k["relation.morsels.processed"]), "share"},
      {"relation.spill_bytes", k["relation.spill.bytes"], "bytes"},
      {"csp.ghd_td_tuple_ratio",
       Ratio(Ratio(l.ghd_tuples, l.ghd_ops), Ratio(l.td_tuples, l.td_ops)),
       "ratio"},
      {"csp.bt_ms", Ratio(l.bt_ms, l.bt_runs), "ms"},
      {"csp.bt_nodes", Ratio(l.bt_nodes, l.bt_runs), "count"},
  };
  AddTraceMetrics(loop, tracer, "answer.op", &result);
  WriteTrace(options, tracer, &result);
  return result;
}

// Spec generation: SAT/UNSAT and counts must agree between the TD and
// the GHD route (and every solution must satisfy the CSP); query answers
// must agree with the brute-force join. Instances whose GHD
// materialisation joins more than kMaxGhdRowsJoined rows are left out (a
// work measure, not a time).
int MakeAnswerSpec() {
  const long kMaxGhdRowsJoined = 6000000;
  struct Candidate {
    int grid, domain;
    double tightness;
    bool plant;
    int seed;
  };
  std::vector<Candidate> candidates;
  for (int s = 1; s <= 4; ++s) {
    candidates.push_back({6, 4, 0.5, true, s});
    candidates.push_back({6, 5, 0.5, true, s});
    candidates.push_back({7, 3, 0.6, true, s});
    candidates.push_back({7, 4, 0.5, true, s});
    candidates.push_back({6, 6, 0.4, true, s});
    candidates.push_back({6, 8, 0.3, true, s});
    candidates.push_back({6, 5, 0.4, false, s});
    candidates.push_back({7, 5, 0.4, false, s});
    candidates.push_back({5, 8, 0.3, true, s});
    candidates.push_back({6, 7, 0.3, true, s});
    candidates.push_back({5, 8, 0.25, false, s});
  }
  hypertree::ThreadPool pool(kProgramThreads);
  Json csps = Json::Array();
  for (const Candidate& cand : candidates) {
    Json e = Json::Object();
    char name[64];
    std::snprintf(name, sizeof(name), "grid%d_d%d_t%.2f_%s_s%d", cand.grid,
                  cand.domain, cand.tightness, cand.plant ? "plant" : "free",
                  cand.seed);
    e.Set("name", name);
    e.Set("grid", cand.grid);
    e.Set("domain", cand.domain);
    e.Set("tightness", cand.tightness);
    e.Set("plant", cand.plant);
    e.Set("seed", cand.seed);
    e.Set("order_seed", cand.seed);
    Csp csp = GenerateCsp(e);
    Plan td_plan = MakePlan(csp, static_cast<uint64_t>(cand.seed), false);
    Plan ghd_plan = MakePlan(csp, static_cast<uint64_t>(cand.seed), true);
    hypertree::DecompositionSolveStats td_stats;
    double t0 = NowMs();
    auto td_sol = hypertree::SolveViaTreeDecomposition(csp, *td_plan.td,
                                                        &td_stats, &pool);
    double td_ms = NowMs() - t0;
    hypertree::metrics::Counter& joined =
        hypertree::metrics::GetCounter("relation.rows_joined");
    long joined_before = joined.Value();
    hypertree::RelationTree ghd_tree =
        hypertree::BuildRelationTreeFromGhd(csp, *ghd_plan.ghd, &pool);
    long ghd_joined = joined.Value() - joined_before;
    long ghd_tuples = 0;
    for (const Relation& r : ghd_tree.relations) ghd_tuples += r.Size();
    bool keep = ghd_joined <= kMaxGhdRowsJoined;
    double ghd_ms = 0;
    long long td_count = -1, ghd_count = -1;
    bool agree = false;
    if (keep) {
      t0 = NowMs();
      auto ghd_sol = hypertree::SolveViaGhd(csp, *ghd_plan.ghd, nullptr, &pool);
      ghd_ms = NowMs() - t0;
      td_count = hypertree::CountViaTreeDecomposition(csp, *td_plan.td, &pool);
      ghd_count = hypertree::CountViaGhd(csp, *ghd_plan.ghd, &pool);
      agree = td_sol.has_value() == ghd_sol.has_value() &&
              td_count == ghd_count &&
              (td_count > 0) == td_sol.has_value() &&
              (!td_sol.has_value() ||
               (csp.IsSolution(*td_sol) && csp.IsSolution(*ghd_sol)));
    }
    std::fprintf(stderr,
                 "%-28s td %.1fms (%ld tuples) ghd %.1fms (%ld tuples, %ld "
                 "joined) sat %d count %lld/%lld -> %s\n",
                 name, td_ms, td_stats.bag_tuples, ghd_ms, ghd_tuples,
                 ghd_joined,
                 static_cast<int>(td_sol.has_value()), td_count, ghd_count,
                 !keep ? "over join cap" : (agree ? "kept" : "DISAGREE"));
    if (keep && !agree) return 1;
    if (!keep) continue;
    e.Set("fingerprint", CspFingerprint(csp));
    e.Set("sat", td_sol.has_value());
    e.Set("count", static_cast<long>(td_count));
    e.Set("td_tuples", td_stats.bag_tuples);
    e.Set("ghd_tuples", ghd_tuples);
    e.Set("ghd_rows_joined", ghd_joined);
    csps.Append(std::move(e));
  }

  struct CqCandidate {
    int cycle, rows, domain, seed;
  };
  Json cqs = Json::Array();
  for (const CqCandidate& cand : std::vector<CqCandidate>{
           {4, 3000, 300, 1}, {4, 6000, 600, 2}, {5, 1500, 200, 3},
           {4, 12000, 1200, 4}}) {
    Json e = Json::Object();
    char name[64];
    std::snprintf(name, sizeof(name), "cycle%d_r%d_d%d_s%d", cand.cycle,
                  cand.rows, cand.domain, cand.seed);
    e.Set("name", name);
    e.Set("cycle", cand.cycle);
    e.Set("rows", cand.rows);
    e.Set("domain", cand.domain);
    e.Set("seed", cand.seed);
    CqCase c = GenerateCq(e, nullptr);
    std::string err;
    double t0 = NowMs();
    auto fast = hypertree::AnswerQuery(c.query, c.db, &err, nullptr, &pool);
    double fast_ms = NowMs() - t0;
    auto slow = hypertree::BruteForceAnswer(c.query, c.db, &err);
    bool agree = fast.has_value() && slow.has_value() &&
                 fast->Size() == slow->Size() &&
                 RelationDigest(*fast) == RelationDigest(*slow);
    std::fprintf(stderr, "%-28s answer %.1fms rows %d -> %s\n", name, fast_ms,
                 fast ? fast->Size() : -1, agree ? "kept" : "DISAGREE");
    if (!agree) return 1;
    e.Set("answer_rows", fast->Size());
    e.Set("answer_hash", RelationDigest(*fast));
    cqs.Append(std::move(e));
  }
  Json spec = Json::Object();
  spec.Set("workload", "answer");
  spec.Set("selection",
           "SAT/UNSAT and counts agree between the TD and GHD routes, query "
           "answers agree with the brute-force join; CSPs whose GHD route "
           "materialises more than 6M rows in joins are left out");
  spec.Set("csp", std::move(csps));
  spec.Set("cq", std::move(cqs));
  std::printf("%s\n", spec.Dump().c_str());
  return 0;
}

}  // namespace perfbench
