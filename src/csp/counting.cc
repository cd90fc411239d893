#include "csp/counting.h"

#include <algorithm>
#include <vector>

#include "csp/decomposition_solving.h"
#include "csp/morsel.h"
#include "csp/tree_schedule.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

size_t NextPow2AtLeast(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

// Open-addressing aggregation of child weights by join key, hashed in
// place from the child's rows (no key materialization). Slots store a
// representative child row id; sums_ accumulates the group weight.
class KeyWeightTable {
 public:
  KeyWeightTable(const Relation& rel, const std::vector<int>& pos)
      : rel_(rel), pos_(pos) {
    size_t cap = NextPow2AtLeast(static_cast<size_t>(rel.Size()) * 2);
    mask_ = cap - 1;
    slots_.assign(cap, -1);
    sums_.assign(cap, 0);
  }

  void Add(int row, long long weight) {
    size_t slot = Find(rel_.Row(row), pos_);
    if (slots_[slot] == -1) slots_[slot] = row;
    sums_[slot] += weight;
  }

  // Aggregated weight of the key read from `row` at `probe_pos` (another
  // relation's positions for the same variables), or 0.
  long long Lookup(const int* row, const std::vector<int>& probe_pos) const {
    size_t slot = Find(row, probe_pos);
    return slots_[slot] == -1 ? 0 : sums_[slot];
  }

 private:
  size_t Find(const int* row, const std::vector<int>& probe_pos) const {
    const int k = static_cast<int>(pos_.size());
    size_t slot = HashRowKey(row, probe_pos.data(), k) & mask_;
    while (slots_[slot] != -1) {
      const int* rep = rel_.Row(slots_[slot]);
      bool equal = true;
      for (int i = 0; i < k && equal; ++i) {
        equal = row[probe_pos[i]] == rep[pos_[i]];
      }
      if (equal) break;
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  const Relation& rel_;
  const std::vector<int>& pos_;
  size_t mask_ = 0;
  std::vector<int32_t> slots_;
  std::vector<long long> sums_;
};

}  // namespace

long long CountRelationTree(const RelationTree& tree, ThreadPool* pool) {
  int m = static_cast<int>(tree.relations.size());
  if (m == 0) return 1;  // the empty join has exactly one (empty) answer
  const std::vector<std::vector<int>> children = ChildLists(tree.parent);

  // weight[p][t] = number of consistent completions of tuple t within the
  // subtree of p. Children are aggregated before their parent runs, so
  // independent subtrees can be processed in parallel.
  std::vector<std::vector<long long>> weight(m);
  RunTreeBottomUp(tree.parent, children, pool,
                  [&tree, &children, &weight, pool](int p) {
    const Relation& rel = tree.relations[p];
    weight[p].assign(rel.Size(), 1);
    for (int c : children[p]) {
      const Relation& crel = tree.relations[c];
      // Aggregate child weights by the shared-variable key.
      std::vector<int> pp, pc;
      for (int pi = 0; pi < rel.Arity(); ++pi) {
        int ci = crel.IndexOf(rel.schema()[pi]);
        if (ci >= 0) {
          pp.push_back(pi);
          pc.push_back(ci);
        }
      }
      KeyWeightTable agg(crel, pc);
      for (int t = 0; t < crel.Size(); ++t) agg.Add(t, weight[c][t]);
      // The per-row multiplies are independent and the table is only
      // read, so the parent's rows fan out by morsel; each index is
      // written exactly once, keeping the products schedule-independent.
      const int rows = rel.Size();
      const int nm = (rows + kMorselRows - 1) / kMorselRows;
      ParallelFor(nm, pool, [&rel, &weight, &agg, &pp, p, rows](int mi) {
        const int lo = mi * kMorselRows;
        const int hi = std::min(lo + kMorselRows, rows);
        for (int t = lo; t < hi; ++t) {
          weight[p][t] *= agg.Lookup(rel.Row(t), pp);
        }
      });
    }
  });
  long long total = 0;
  for (long long w : weight[tree.root]) total += w;
  return total;
}

long long CountViaTreeDecomposition(const Csp& csp,
                                    const TreeDecomposition& td,
                                    ThreadPool* pool) {
  return CountRelationTree(BuildRelationTreeFromTd(csp, td, pool), pool);
}

long long CountViaGhd(const Csp& csp,
                      const GeneralizedHypertreeDecomposition& ghd,
                      ThreadPool* pool) {
  return CountRelationTree(BuildRelationTreeFromGhd(csp, ghd, pool), pool);
}

long long CountAcyclicCsp(const Csp& csp, ThreadPool* pool) {
  return CountRelationTree(AcyclicCspTree(csp), pool);
}

}  // namespace hypertree
