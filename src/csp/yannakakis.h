// Yannakakis' algorithm (Acyclic Solving, Figure 2.4): semijoin reduction
// over a tree of relations, then top-down extraction of one consistent
// assignment. Runs in O(m * n log n): the polynomial-time "answer" for
// acyclic queries that all decomposition methods reduce to.
//
// Both passes are in-place semijoins on the flat relation kernel, and both
// can run the independent subtrees in parallel over a ThreadPool: a node's
// bottom-up filter only reads its (already reduced) children, a node's
// top-down filter only reads its (already reduced) parent, so the result
// is bit-identical for any thread count (see src/csp/tree_schedule.h).

#ifndef HYPERTREE_CSP_YANNAKAKIS_H_
#define HYPERTREE_CSP_YANNAKAKIS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "csp/csp.h"
#include "csp/relation.h"
#include "hypergraph/acyclicity.h"

namespace hypertree {

class ThreadPool;

/// A tree of relations (e.g. a join tree with materialized constraint
/// relations, or decomposition bags with their subproblem solutions).
struct RelationTree {
  std::vector<Relation> relations;  // one per node
  std::vector<int> parent;          // -1 at the root
  int root = 0;
};

/// Full reduction, the two semijoin passes of Yannakakis: bottom-up (each
/// node filtered by its reduced children), then, unless a relation became
/// empty, top-down (each node filtered by its reduced parent). Returns
/// false when some relation is empty — no consistent tuple combination
/// exists. With a pool, independent subtrees run in parallel; the reduced
/// relations are bit-identical for any thread count.
bool FullReduce(RelationTree* tree, ThreadPool* pool = nullptr);

/// Full-reduction Yannakakis: bottom-up semijoins (emptiness detected),
/// top-down semijoins, then greedy top-down extraction. Returns an
/// assignment var -> value for every variable appearing in some schema, or
/// std::nullopt if the tree has no globally consistent tuple combination.
/// With a pool, independent subtrees are reduced in parallel; the result
/// is identical to the sequential one.
std::optional<std::unordered_map<int, int>> AcyclicSolve(
    RelationTree tree, ThreadPool* pool = nullptr);

/// The join tree of an alpha-acyclic CSP (via GYO): one node per
/// constraint, holding its relation, plus one domain relation per
/// variable in no constraint.
RelationTree AcyclicCspTree(const Csp& csp);

/// Convenience for acyclic CSPs: builds the join tree via GYO, attaches
/// the constraint relations, and runs AcyclicSolve. The CSP's constraint
/// hypergraph must be alpha-acyclic. Variables outside all constraints
/// are assigned 0. Returns a full assignment or std::nullopt.
std::optional<std::vector<int>> SolveAcyclicCsp(const Csp& csp,
                                                ThreadPool* pool = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_YANNAKAKIS_H_
