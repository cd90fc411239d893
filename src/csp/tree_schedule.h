// Deterministic parallel traversal of rooted trees/forests over the shared
// ThreadPool. The Yannakakis passes, per-node bag joins and weighted
// counting all reduce to "visit every node, children before parents" (or
// the reverse): independent subtrees can run concurrently as long as the
// parent/child ordering is respected, and the result is schedule-
// independent because each visit only reads relations owned by already-
// visited nodes and writes its own.

#ifndef HYPERTREE_CSP_TREE_SCHEDULE_H_
#define HYPERTREE_CSP_TREE_SCHEDULE_H_

#include <functional>
#include <utility>
#include <vector>

namespace hypertree {

class ThreadPool;

/// Roots the tree on `num_nodes` nodes with undirected `edges` at node 0:
/// fills *parent (-1 at the root) and *root. Every node must be reachable.
void RootTree(int num_nodes, const std::vector<std::pair<int, int>>& edges,
              std::vector<int>* parent, int* root);

/// Child lists of a rooted forest given by parent pointers (-1 at roots),
/// each in ascending node order.
std::vector<std::vector<int>> ChildLists(const std::vector<int>& parent);

/// Calls visit(node) once per node with every child visited before its
/// parent. With a pool (> 1 thread) independent subtrees run in parallel;
/// `visit` must only touch node-owned state plus already-visited children.
/// pool == nullptr (or a 1-thread pool) runs sequentially in reverse
/// BFS-from-the-roots order.
void RunTreeBottomUp(const std::vector<int>& parent,
                     const std::vector<std::vector<int>>& children,
                     ThreadPool* pool, const std::function<void(int)>& visit);

/// Calls visit(node) once per node with every parent visited before its
/// children (parallel across subtrees with a pool, BFS order otherwise).
void RunTreeTopDown(const std::vector<int>& parent,
                    const std::vector<std::vector<int>>& children,
                    ThreadPool* pool, const std::function<void(int)>& visit);

/// Calls visit(i) for i in [0, count) with no ordering constraint
/// (parallel with a pool, ascending order otherwise).
void RunForAll(int count, ThreadPool* pool,
               const std::function<void(int)>& visit);

/// Nestable data-parallel loop: calls visit(i) for i in [0, count) with
/// no ordering constraint, safe to call from *inside* a pool task
/// (unlike RunForAll, which drains the run with pool->Wait() and would
/// deadlock when the calling task itself counts as pending work). The
/// caller participates: it claims indices from a shared cursor alongside
/// helper tasks, so the loop always progresses even when every other
/// pool worker is busy. Helpers that wake after the cursor is exhausted
/// exit without touching visit. The morsel-engine within-bag
/// parallelism primitive.
void ParallelFor(int count, ThreadPool* pool,
                 const std::function<void(int)>& visit);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_TREE_SCHEDULE_H_
