#include "csp/yannakakis.h"

#include <algorithm>
#include <atomic>

#include "csp/morsel_engine.h"
#include "csp/tree_schedule.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

bool FullReduce(RelationTree* tree, ThreadPool* pool) {
  std::vector<Relation>& rel = tree->relations;
  const std::vector<int>& parent = tree->parent;
  const std::vector<std::vector<int>> children = ChildLists(parent);
  // Bottom-up semijoin pass: each node filters itself against its fully
  // reduced children (in-place, child-index order). Every visit runs to
  // completion even after a wipeout elsewhere: the filters are
  // deterministic, so the relation contents and the kernel's metrics
  // counters stay bit-identical for any thread count, SAT or UNSAT.
  std::atomic<bool> wiped{false};
  // Within-bag morsel parallelism composes with the across-bag tree
  // schedule: EngineSemijoinInPlace cuts the probe side into morsels and
  // ParallelFor lets idle pool threads steal them, so one huge bag no
  // longer serializes the whole pass. Counter totals and survivors are
  // schedule-independent (see morsel.h), keeping the pass deterministic.
  RunTreeBottomUp(parent, children, pool,
                  [&rel, &children, &wiped, pool](int node) {
    for (int c : children[node]) {
      EngineSemijoinInPlace(&rel[node], rel[c], pool);
    }
    if (rel[node].Empty()) wiped.store(true, std::memory_order_relaxed);
  });
  // Relaxed is sufficient on both ends: the traversal's Wait() already
  // orders every store before this load.
  if (wiped.load(std::memory_order_relaxed)) return false;
  // Top-down semijoin pass: each node filters itself against its
  // already reduced parent.
  RunTreeTopDown(parent, children, pool, [&rel, &parent, &wiped, pool](int node) {
    if (parent[node] == -1) return;
    EngineSemijoinInPlace(&rel[node], rel[parent[node]], pool);
    if (rel[node].Empty()) wiped.store(true, std::memory_order_relaxed);
  });
  return !wiped.load(std::memory_order_relaxed);
}

std::optional<std::unordered_map<int, int>> AcyclicSolve(RelationTree tree,
                                                         ThreadPool* pool) {
  int m = static_cast<int>(tree.relations.size());
  if (m == 0) return std::unordered_map<int, int>{};
  HT_CHECK(static_cast<int>(tree.parent.size()) == m);
  // Topological order: parents before children (BFS from the root).
  const std::vector<std::vector<int>> children = ChildLists(tree.parent);
  std::vector<int> order;
  order.push_back(tree.root);
  for (size_t i = 0; i < order.size(); ++i) {
    for (int c : children[order[i]]) order.push_back(c);
  }
  HT_CHECK_MSG(static_cast<int>(order.size()) == m,
               "relation tree is not a single tree");
  if (!FullReduce(&tree, pool)) return std::nullopt;
  // Extraction: pick any root tuple, then for each child a tuple agreeing
  // with the values fixed so far (guaranteed to exist after reduction).
  // Fixed values live in a dense array over variable ids: the scan below
  // touches every row element of every relation in the worst case, and a
  // hash lookup per element dominates the whole pass.
  int max_var = -1;
  for (const Relation& rel : tree.relations) {
    for (int v : rel.schema()) max_var = std::max(max_var, v);
  }
  std::vector<int> fixed_val(max_var + 1, 0);
  std::vector<char> is_fixed(max_var + 1, 0);
  std::unordered_map<int, int> assignment;
  for (int node : order) {
    const Relation& rel = tree.relations[node];
    const std::vector<int>& schema = rel.schema();
    const int arity = rel.Arity();
    const int* chosen = nullptr;
    for (int t = 0; t < rel.Size() && chosen == nullptr; ++t) {
      const int* row = rel.Row(t);
      bool ok = true;
      for (int i = 0; i < arity && ok; ++i) {
        const int v = schema[i];
        if (is_fixed[v] && fixed_val[v] != row[i]) ok = false;
      }
      if (ok) chosen = row;
    }
    HT_CHECK_MSG(chosen != nullptr,
                 "full reduction must leave a consistent tuple");
    for (int i = 0; i < arity; ++i) {
      const int v = schema[i];
      is_fixed[v] = 1;
      fixed_val[v] = chosen[i];
      assignment[v] = chosen[i];
    }
  }
  return assignment;
}

RelationTree AcyclicCspTree(const Csp& csp) {
  Hypergraph h = csp.ConstraintHypergraph();
  std::optional<JoinTree> jt = BuildJoinTree(h);
  HT_CHECK_MSG(jt.has_value(), "constraint hypergraph is not alpha-acyclic");
  // Edges of the hypergraph are the constraints first, then the unary
  // "free variable" edges.
  RelationTree tree;
  tree.parent = jt->parent;
  tree.root = jt->root;
  tree.relations.resize(h.NumEdges());
  for (int c = 0; c < csp.NumConstraints(); ++c) {
    tree.relations[c] = csp.GetConstraint(c).relation;
  }
  for (int e = csp.NumConstraints(); e < h.NumEdges(); ++e) {
    tree.relations[e] = csp.DomainRelation(h.EdgeVertices(e)[0]);
  }
  return tree;
}

std::optional<std::vector<int>> SolveAcyclicCsp(const Csp& csp,
                                                ThreadPool* pool) {
  auto assignment = AcyclicSolve(AcyclicCspTree(csp), pool);
  if (!assignment.has_value()) return std::nullopt;
  std::vector<int> out(csp.NumVariables(), 0);
  for (auto [var, val] : *assignment) out[var] = val;
  return out;
}

}  // namespace hypertree
