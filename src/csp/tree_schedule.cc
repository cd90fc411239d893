#include "csp/tree_schedule.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

// BFS order from the roots (nodes with parent == -1): parents before
// children. Shared by both sequential fallbacks.
std::vector<int> TopDownOrder(const std::vector<int>& parent,
                              const std::vector<std::vector<int>>& children) {
  std::vector<int> order;
  order.reserve(parent.size());
  for (size_t i = 0; i < parent.size(); ++i) {
    if (parent[i] == -1) order.push_back(static_cast<int>(i));
  }
  for (size_t i = 0; i < order.size(); ++i) {
    for (int c : children[order[i]]) order.push_back(c);
  }
  HT_CHECK_MSG(order.size() == parent.size(),
               "tree_schedule: parent/children describe no rooted forest");
  return order;
}

bool Sequential(const std::vector<int>& parent, ThreadPool* pool) {
  return pool == nullptr || pool->NumThreads() <= 1 || parent.size() <= 1;
}

// Debug-only precondition: parent/children must describe the same rooted
// forest — parents in range, no self-loops, every parent/child edge
// mirrored, child counts adding up. The traversals' own countdown logic
// (and the post-condition visited == m) relies on all of this; a
// malformed forest would otherwise hang the pool or skip nodes.
void DCheckForest(const std::vector<int>& parent,
                  const std::vector<std::vector<int>>& children) {
  if (!ht_internal::kDCheckEnabled) return;
  const int m = static_cast<int>(parent.size());
  HT_DCHECK_EQ(children.size(), parent.size())
      << "tree_schedule: parent/children size mismatch";
  size_t edges = 0;
  for (int i = 0; i < m; ++i) {
    const int p = parent[i];
    HT_DCHECK_GE(p, -1) << "tree_schedule: parent id out of range";
    HT_DCHECK_LT(p, m) << "tree_schedule: parent id out of range";
    HT_DCHECK_NE(p, i) << "tree_schedule: node is its own parent";
    for (int c : children[i]) {
      HT_DCHECK_GE(c, 0) << "tree_schedule: child id out of range";
      HT_DCHECK_LT(c, m) << "tree_schedule: child id out of range";
      HT_DCHECK_EQ(parent[c], i)
          << "tree_schedule: child's parent back-pointer disagrees";
    }
    edges += children[i].size();
    if (p >= 0) ++edges;  // counted from both endpoints below
  }
  // Every non-root contributes its parent edge exactly once from each
  // side, so the totals must agree (roots contribute nothing).
  size_t non_roots = 0;
  for (int i = 0; i < m; ++i) {
    if (parent[i] >= 0) ++non_roots;
  }
  HT_DCHECK_EQ(edges, non_roots * 2)
      << "tree_schedule: children lists disagree with parent pointers";
}

}  // namespace

void RootTree(int num_nodes, const std::vector<std::pair<int, int>>& edges,
              std::vector<int>* parent, int* root) {
  std::vector<std::vector<int>> adj(num_nodes);
  for (auto [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  parent->assign(num_nodes, -1);
  *root = 0;
  if (num_nodes == 0) return;
  std::vector<bool> seen(num_nodes, false);
  std::vector<int> stack = {0};
  seen[0] = true;
  int reached = 1;
  while (!stack.empty()) {
    int p = stack.back();
    stack.pop_back();
    for (int q : adj[p]) {
      if (!seen[q]) {
        seen[q] = true;
        (*parent)[q] = p;
        stack.push_back(q);
        ++reached;
      }
    }
  }
  HT_CHECK_EQ(reached, num_nodes) << "decomposition tree is not connected";
}

std::vector<std::vector<int>> ChildLists(const std::vector<int>& parent) {
  std::vector<std::vector<int>> children(parent.size());
  for (size_t p = 0; p < parent.size(); ++p) {
    if (parent[p] != -1) children[parent[p]].push_back(static_cast<int>(p));
  }
  return children;
}

void RunTreeBottomUp(const std::vector<int>& parent,
                     const std::vector<std::vector<int>>& children,
                     ThreadPool* pool,
                     const std::function<void(int)>& visit) {
  int m = static_cast<int>(parent.size());
  if (m == 0) return;
  DCheckForest(parent, children);
  if (Sequential(parent, pool)) {
    std::vector<int> order = TopDownOrder(parent, children);
    for (size_t i = order.size(); i-- > 0;) visit(order[i]);
    return;
  }
  // One countdown per node; a node is ready once all children finished.
  // Tasks submit their parent when they complete its last dependency, so
  // the pool's Wait() (which tracks nested submissions) covers the run.
  std::vector<std::atomic<int>> pending(m);
  for (int i = 0; i < m; ++i) {
    pending[i].store(static_cast<int>(children[i].size()),
                     std::memory_order_relaxed);
  }
  std::atomic<int> visited{0};
  std::function<void(int)> run = [&](int node) {
    visit(node);
    visited.fetch_add(1, std::memory_order_relaxed);
    int p = parent[node];
    if (p >= 0 &&
        pending[p].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pool->Submit([&run, p] { run(p); });
    }
  };
  for (int i = 0; i < m; ++i) {
    if (children[i].empty()) pool->Submit([&run, i] { run(i); });
  }
  pool->Wait();
  // Relaxed: Wait() orders every worker's fetch_add before this load.
  HT_CHECK_MSG(visited.load(std::memory_order_relaxed) == m,
               "tree_schedule: parent/children describe no rooted forest");
}

void RunTreeTopDown(const std::vector<int>& parent,
                    const std::vector<std::vector<int>>& children,
                    ThreadPool* pool,
                    const std::function<void(int)>& visit) {
  int m = static_cast<int>(parent.size());
  if (m == 0) return;
  DCheckForest(parent, children);
  if (Sequential(parent, pool)) {
    for (int node : TopDownOrder(parent, children)) visit(node);
    return;
  }
  std::atomic<int> visited{0};
  std::function<void(int)> run = [&](int node) {
    visit(node);
    visited.fetch_add(1, std::memory_order_relaxed);
    for (int c : children[node]) pool->Submit([&run, c] { run(c); });
  };
  for (int i = 0; i < m; ++i) {
    if (parent[i] == -1) pool->Submit([&run, i] { run(i); });
  }
  pool->Wait();
  // Relaxed: Wait() orders every worker's fetch_add before this load.
  HT_CHECK_MSG(visited.load(std::memory_order_relaxed) == m,
               "tree_schedule: parent/children describe no rooted forest");
}

void RunForAll(int count, ThreadPool* pool,
               const std::function<void(int)>& visit) {
  if (count <= 0) return;
  if (pool == nullptr || pool->NumThreads() <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) visit(i);
    return;
  }
  for (int i = 0; i < count; ++i) {
    pool->Submit([&visit, i] { visit(i); });
  }
  pool->Wait();
}

void ParallelFor(int count, ThreadPool* pool,
                 const std::function<void(int)>& visit) {
  if (count <= 0) return;
  if (pool == nullptr || pool->NumThreads() <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) visit(i);
    return;
  }
  // Shared by the caller and the helper tasks; shared_ptr ownership so a
  // helper that wakes after the caller returned still finds live state
  // (it sees the exhausted cursor and exits without calling visit).
  struct State {
    std::function<void(int)> fn;
    int count = 0;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->fn = visit;
  state->count = count;
  auto worker = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const int i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->count) return;
      s->fn(i);
      // acq_rel: the caller's predicate load must observe every fn(i)'s
      // writes once done reaches count.
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->count) {
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };
  const int helpers = std::min(pool->NumThreads(), count - 1);
  for (int h = 0; h < helpers; ++h) {
    pool->Submit([state, worker] { worker(state); });
  }
  // The caller claims indices too: progress never depends on a pool
  // worker being free (the loop may itself be running inside one).
  worker(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] {
    return state->done.load(std::memory_order_acquire) == state->count;
  });
}

}  // namespace hypertree
