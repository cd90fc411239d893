// Solving CSPs from tree decompositions and from complete generalized
// hypertree decompositions (thesis §2.4): materialize one subproblem
// relation per decomposition node (MaterializeBag, csp/bag_materialiser.h),
// then run Yannakakis on the resulting join tree. Each bag costs at most
// its AGM bound: O(n d^{w+1}) for a width-w tree decomposition and
// |I|^{k+1} log |I| for a width-k GHD (|I|^{fhw} with fractional covers).
//
// All entry points take an optional ThreadPool: the per-node bag joins are
// independent and run in parallel, and the Yannakakis passes parallelize
// across subtrees (deterministic results for any thread count).

#ifndef HYPERTREE_CSP_DECOMPOSITION_SOLVING_H_
#define HYPERTREE_CSP_DECOMPOSITION_SOLVING_H_

#include <optional>
#include <vector>

#include "csp/csp.h"
#include "csp/yannakakis.h"
#include "ghd/ghd.h"
#include "td/tree_decomposition.h"

namespace hypertree {

class ThreadPool;

/// Work counters for the decomposition-based solvers.
struct DecompositionSolveStats {
  long bag_tuples = 0;      // tuples materialized across all bags
  int max_bag_tuples = 0;   // largest single bag relation
};

/// Join-tree-clustering solve: every decomposition bag becomes the
/// relation of all in-domain bag assignments consistent with every
/// constraint meeting the bag (projected onto the bag). `td` must be a
/// valid tree decomposition of the CSP's constraint hypergraph.
std::optional<std::vector<int>> SolveViaTreeDecomposition(
    const Csp& csp, const TreeDecomposition& td,
    DecompositionSolveStats* stats = nullptr, ThreadPool* pool = nullptr);

/// GHD solve: every node's relation is materialized over chi exactly as
/// in the TD route (lambda is not read), and Yannakakis finishes the job. `ghd` must be valid for the CSP's
/// constraint hypergraph (every scope inside some bag; checked).
std::optional<std::vector<int>> SolveViaGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    DecompositionSolveStats* stats = nullptr, ThreadPool* pool = nullptr);

/// Materializes the per-bag subproblem relations of `td` as a relation
/// tree (the join tree of the solution-equivalent acyclic CSP). Shared by
/// the solving and counting front ends. With a pool the bags are solved
/// in parallel.
RelationTree BuildRelationTreeFromTd(const Csp& csp,
                                     const TreeDecomposition& td,
                                     ThreadPool* pool = nullptr);

/// Materializes the per-node relations of `ghd`, in parallel when a pool
/// is given.
RelationTree BuildRelationTreeFromGhd(
    const Csp& csp, const GeneralizedHypertreeDecomposition& ghd,
    ThreadPool* pool = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_DECOMPOSITION_SOLVING_H_
