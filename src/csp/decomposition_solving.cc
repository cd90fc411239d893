#include "csp/decomposition_solving.h"

#include <algorithm>

#include "csp/bag_materialiser.h"
#include "csp/tree_schedule.h"
#include "csp/yannakakis.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

// True if every value of `r` lies inside its variable's domain.
bool InDomains(const Csp& csp, const Relation& r) {
  for (int t = 0; t < r.Size(); ++t) {
    for (int i = 0; i < r.Arity(); ++i) {
      const int val = r.Row(t)[i];
      if (val < 0 || val >= csp.DomainSize(r.schema()[i])) return false;
    }
  }
  return true;
}

// One MaterializeBag relation per node of `td`, rooted at node 0. The
// filters are the constraints plus a domain relation for each variable
// that no constraint confines to its domain (mentioned by none, or only
// by constraints holding out-of-domain values, which no solution takes).
// A domain filter on a confined variable removes nothing but still joins
// at every level; skipping it cut answer-workload op time by about 10%.
// The bags are independent: they run in parallel, each task writing only
// its own slot, so the tree is schedule-independent.
RelationTree BuildRelationTree(const Csp& csp, const TreeDecomposition& td,
                               ThreadPool* pool) {
  HT_CHECK(td.NumGraphVertices() == csp.NumVariables());
  std::vector<bool> confined(csp.NumVariables(), false);
  for (const Constraint& con : csp.constraints()) {
    if (!InDomains(csp, con.relation)) continue;
    for (int v : con.scope) confined[v] = true;
  }
  std::vector<Relation> domains;
  for (int v = 0; v < csp.NumVariables(); ++v) {
    if (!confined[v]) domains.push_back(csp.DomainRelation(v));
  }
  std::vector<const Relation*> filters;
  for (const Constraint& con : csp.constraints()) {
    filters.push_back(&con.relation);
  }
  for (const Relation& r : domains) filters.push_back(&r);

  RelationTree tree;
  tree.relations.resize(td.NumNodes());
  RunForAll(td.NumNodes(), pool, [&tree, &td, &filters, pool](int p) {
    tree.relations[p] = MaterializeBag(td.Bag(p).ToVector(), filters, pool);
  });
  RootTree(td.NumNodes(), td.TreeEdges(), &tree.parent, &tree.root);
  return tree;
}

std::optional<std::vector<int>> FinishSolve(const Csp& csp, RelationTree tree,
                                            DecompositionSolveStats* stats,
                                            ThreadPool* pool) {
  if (stats != nullptr) {
    for (const Relation& r : tree.relations) {
      stats->bag_tuples += r.Size();
      stats->max_bag_tuples = std::max(stats->max_bag_tuples, r.Size());
    }
  }
  auto assignment = AcyclicSolve(std::move(tree), pool);
  if (!assignment.has_value()) return std::nullopt;
  std::vector<int> out(csp.NumVariables(), 0);
  for (auto [var, val] : *assignment) out[var] = val;
  HT_CHECK_MSG(csp.IsSolution(out),
               "decomposition solve produced a non-solution");
  return out;
}

}  // namespace

RelationTree BuildRelationTreeFromTd(const Csp& csp,
                                     const TreeDecomposition& td,
                                     ThreadPool* pool) {
  return BuildRelationTree(csp, td, pool);
}

RelationTree BuildRelationTreeFromGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    ThreadPool* pool) {
  // Bag materialisation needs each constraint scope inside some bag, not
  // a completed lambda: the GHD's own tree serves as is.
  Hypergraph h = csp.ConstraintHypergraph();
  for (int e = 0; e < h.NumEdges(); ++e) {
    bool covered = false;
    for (int p = 0; p < ghd.NumNodes() && !covered; ++p) {
      covered = h.EdgeBits(e).IsSubsetOf(ghd.td().Bag(p));
    }
    HT_CHECK_MSG(covered, "not a GHD of the CSP: a constraint scope lies in "
                          "no bag");
  }
  return BuildRelationTree(csp, ghd.td(), pool);
}

std::optional<std::vector<int>> SolveViaTreeDecomposition(
    const Csp& csp, const TreeDecomposition& td,
    DecompositionSolveStats* stats, ThreadPool* pool) {
  return FinishSolve(csp, BuildRelationTreeFromTd(csp, td, pool), stats, pool);
}

std::optional<std::vector<int>> SolveViaGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    DecompositionSolveStats* stats, ThreadPool* pool) {
  return FinishSolve(csp, BuildRelationTreeFromGhd(csp, ghd, pool), stats,
                     pool);
}

}  // namespace hypertree
