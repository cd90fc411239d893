#include "csp/bag_materialiser.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "csp/relation_internal.h"
#include "csp/tree_schedule.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

// Most first-variable value ranges per bag: the unit of within-bag
// parallelism. A fixed cap, not the thread count, so the split is the
// same at any pool size.
constexpr int kMaxRanges = 16;

// One filter as a sorted trie. Trie level j holds the filter's variable
// at join level level[j] (levels ascending). A trie node is a range of
// vals[j] — the distinct values under one prefix, ascending — and
// [first_child[j][t], first_child[j][t + 1]) is the range of level j + 1
// under vals[j][t].
struct Trie {
  std::vector<int> level;
  std::vector<std::vector<int>> vals;
  std::vector<std::vector<int32_t>> first_child;
};

// The trie of `r` over the columns `cols` (ordered by join level): the
// projection of r onto those columns, deduplicated by the sort.
Trie BuildTrie(const Relation& r, const std::vector<int>& cols,
               std::vector<int> level) {
  const int depth = static_cast<int>(cols.size());
  Trie t;
  t.level = std::move(level);
  t.vals.resize(depth);
  t.first_child.resize(depth - 1);
  std::vector<int> ids(r.Size());
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&r, &cols, depth](int a, int b) {
    const int* ra = r.Row(a);
    const int* rb = r.Row(b);
    for (int j = 0; j < depth; ++j) {
      if (ra[cols[j]] != rb[cols[j]]) return ra[cols[j]] < rb[cols[j]];
    }
    return false;
  });
  const int* prev = nullptr;
  for (int id : ids) {
    const int* row = r.Row(id);
    int d = 0;  // first column where this row leaves the previous prefix
    if (prev != nullptr) {
      while (d < depth && row[cols[d]] == prev[cols[d]]) ++d;
      if (d == depth) continue;  // duplicate after projection
    }
    for (int j = d; j < depth; ++j) {
      if (j + 1 < depth) {
        t.first_child[j].push_back(static_cast<int32_t>(t.vals[j + 1].size()));
      }
      t.vals[j].push_back(row[cols[j]]);
    }
    prev = row;
  }
  for (int j = 0; j + 1 < depth; ++j) {
    t.first_child[j].push_back(static_cast<int32_t>(t.vals[j + 1].size()));
  }
  return t;
}

// One trie at one join level: the values at that trie depth, the child
// offsets (null at the trie's last depth), and the slots of the current
// range at this depth and the next in Search's range arrays.
struct Part {
  const int* vals = nullptr;
  const int32_t* first_child = nullptr;
  int slot = 0;
  int next_slot = -1;
};

struct Plan {
  std::vector<Trie> tries;
  std::vector<std::vector<Part>> parts;  // per join level
  std::vector<int> out_col;              // per join level: column in chi
  int num_slots = 0;                     // total trie depth
  std::vector<int32_t> root_hi;          // per slot: vals size at depth 0
};

// Depth-first generic join; one instance per parallel range. Complete
// rows are counted and, unless `out` is null, written consecutively from
// `out` in chi column order.
class Search {
 public:
  Search(const Plan& plan, int* out)
      : plan_(plan),
        out_(out),
        lo_(plan.num_slots, 0),
        hi_(plan.root_hi),
        row_(plan.out_col.size(), 0),
        cursor_(plan.parts.size()) {
    for (size_t l = 0; l < plan.parts.size(); ++l) {
      cursor_[l].resize(plan.parts[l].size());
    }
  }

  // Calls fn(value, idx) for each value common to every trie range at
  // `level`, ascending; idx[i] is the value's index in part i. Leapfrog
  // style: the smallest range leads, the others seek forward.
  template <typename Fn>
  void ForEachMatch(int level, Fn&& fn) {
    const std::vector<Part>& parts = plan_.parts[level];
    const int n = static_cast<int>(parts.size());
    int32_t* cur = cursor_[level].data();
    int lead = 0;
    for (int i = 0; i < n; ++i) {
      cur[i] = lo_[parts[i].slot];
      if (hi_[parts[i].slot] - cur[i] <
          hi_[parts[lead].slot] - lo_[parts[lead].slot]) {
        lead = i;
      }
    }
    const Part& d = parts[lead];
    const int32_t dhi = hi_[d.slot];
    for (int32_t t = lo_[d.slot]; t < dhi; ++t) {
      const int v = d.vals[t];
      cur[lead] = t;
      bool match = true;
      for (int i = 0; i < n && match; ++i) {
        if (i == lead) continue;
        const Part& p = parts[i];
        const int32_t h = hi_[p.slot];
        const int32_t c = static_cast<int32_t>(
            std::lower_bound(p.vals + cur[i], p.vals + h, v) - p.vals);
        if (c == h) return;  // no larger lead value can match either
        cur[i] = c;
        match = p.vals[c] == v;
      }
      if (match) fn(v, cur);
    }
  }

  // Fixes the variable of `level` to `v` (idx as from ForEachMatch) and
  // narrows every trie that continues below it.
  void Bind(int level, int v, const int32_t* idx) {
    row_[plan_.out_col[level]] = v;
    const std::vector<Part>& parts = plan_.parts[level];
    for (size_t i = 0; i < parts.size(); ++i) {
      const Part& p = parts[i];
      if (p.first_child == nullptr) continue;
      lo_[p.next_slot] = p.first_child[idx[i]];
      hi_[p.next_slot] = p.first_child[idx[i] + 1];
    }
  }

  size_t rows() const { return rows_; }

  void Descend(int level) {
    if (level == static_cast<int>(row_.size())) {
      if (out_ != nullptr) {
        std::copy(row_.begin(), row_.end(), out_ + rows_ * row_.size());
      }
      ++rows_;
      return;
    }
    ForEachMatch(level, [this, level](int v, const int32_t* idx) {
      Bind(level, v, idx);
      Descend(level + 1);
    });
  }

 private:
  const Plan& plan_;
  int* out_;
  size_t rows_ = 0;
  std::vector<int32_t> lo_;
  std::vector<int32_t> hi_;
  std::vector<int> row_;
  std::vector<std::vector<int32_t>> cursor_;  // per level, per part
};

// A relation restricted to its columns inside chi.
struct Filter {
  const Relation* rel = nullptr;
  std::vector<int> cols;  // schema positions whose variable is in chi
  std::vector<int> vars;  // their chi positions
};

// Join order over chi positions: most constrained first — the variable
// sharing the most filters with the variables already chosen, then the
// one in the most filters, then the smallest variable id.
std::vector<int> VariableOrder(const std::vector<int>& chi,
                               const std::vector<Filter>& filters) {
  const int k = static_cast<int>(chi.size());
  std::vector<int> degree(k, 0);
  std::vector<std::vector<int>> filters_of(k);
  for (size_t f = 0; f < filters.size(); ++f) {
    for (int v : filters[f].vars) {
      ++degree[v];
      filters_of[v].push_back(static_cast<int>(f));
    }
  }
  for (int v = 0; v < k; ++v) {
    HT_CHECK_GT(degree[v], 0) << "bag variable " << chi[v]
                              << " occurs in no filter relation";
  }
  std::vector<int> links(k, 0);
  std::vector<char> chosen(k, 0);
  std::vector<char> active(filters.size(), 0);
  std::vector<int> order;
  order.reserve(k);
  for (int step = 0; step < k; ++step) {
    int best = -1;
    for (int v = 0; v < k; ++v) {
      if (chosen[v]) continue;
      if (best == -1 || links[v] > links[best] ||
          (links[v] == links[best] &&
           (degree[v] > degree[best] ||
            (degree[v] == degree[best] && chi[v] < chi[best])))) {
        best = v;
      }
    }
    chosen[best] = 1;
    order.push_back(best);
    for (int f : filters_of[best]) {
      if (active[f]) continue;
      active[f] = 1;
      for (int v : filters[f].vars) ++links[v];
    }
  }
  return order;
}

}  // namespace

Relation MaterializeBag(const std::vector<int>& chi,
                        const std::vector<const Relation*>& relations,
                        ThreadPool* pool) {
  const int k = static_cast<int>(chi.size());
  Relation out(chi);
  int max_var = -1;
  for (int v : chi) max_var = std::max(max_var, v);
  std::vector<int> chi_pos(max_var + 1, -1);
  for (int i = 0; i < k; ++i) chi_pos[chi[i]] = i;

  std::vector<Filter> filters;
  for (const Relation* r : relations) {
    Filter f;
    f.rel = r;
    for (int c = 0; c < r->Arity(); ++c) {
      const int v = r->schema()[c];
      if (v <= max_var && chi_pos[v] >= 0) {
        f.cols.push_back(c);
        f.vars.push_back(chi_pos[v]);
      }
    }
    if (r->Arity() > 0 && f.cols.empty()) continue;
    if (r->Empty()) return out;  // a filter with no tuples empties the bag
    if (r->Arity() > 0) filters.push_back(std::move(f));
  }
  if (k == 0) {
    out.AddTuple({});
    return out;
  }

  const std::vector<int> order = VariableOrder(chi, filters);
  std::vector<int> level_of(k);
  for (int l = 0; l < k; ++l) level_of[order[l]] = l;
  Plan plan;
  plan.out_col = order;
  plan.parts.resize(k);
  plan.tries.reserve(filters.size());
  for (Filter& f : filters) {
    std::vector<int> by_level(f.cols.size());
    std::iota(by_level.begin(), by_level.end(), 0);
    std::sort(by_level.begin(), by_level.end(), [&f, &level_of](int a, int b) {
      return level_of[f.vars[a]] < level_of[f.vars[b]];
    });
    std::vector<int> cols;
    std::vector<int> level;
    for (int i : by_level) {
      cols.push_back(f.cols[i]);
      level.push_back(level_of[f.vars[i]]);
    }
    plan.tries.push_back(BuildTrie(*f.rel, cols, std::move(level)));
  }
  for (const Trie& t : plan.tries) {
    const int depth = static_cast<int>(t.level.size());
    for (int j = 0; j < depth; ++j) {
      Part p;
      p.vals = t.vals[j].data();
      p.slot = plan.num_slots + j;
      if (j + 1 < depth) {
        p.first_child = t.first_child[j].data();
        p.next_slot = p.slot + 1;
      }
      plan.parts[t.level[j]].push_back(p);
      plan.root_hi.push_back(
          j == 0 ? static_cast<int32_t>(t.vals[0].size()) : 0);
    }
    plan.num_slots += depth;
  }

  // The first variable's values, split into contiguous ranges that run
  // as independent searches. A count pass sizes each range's output, so
  // the emit pass writes every range straight into its own slice of one
  // exactly sized buffer, in range order: the bag equals the sequential
  // output whatever the split or the thread count.
  std::vector<int> first_vals;
  std::vector<int32_t> first_idx;
  const size_t n0 = plan.parts[0].size();
  Search(plan, nullptr)
      .ForEachMatch(0, [&first_vals, &first_idx, n0](int v,
                                                      const int32_t* idx) {
        first_vals.push_back(v);
        first_idx.insert(first_idx.end(), idx, idx + n0);
      });
  const int nvals = static_cast<int>(first_vals.size());
  const int ranges = std::max(1, std::min(nvals, kMaxRanges));
  auto run_range = [&plan, &first_vals, &first_idx, n0, nvals, ranges](
                       int g, int* dst) {
    Search search(plan, dst);
    const int lo = static_cast<int>(static_cast<long>(nvals) * g / ranges);
    const int hi =
        static_cast<int>(static_cast<long>(nvals) * (g + 1) / ranges);
    for (int i = lo; i < hi; ++i) {
      search.Bind(0, first_vals[i], first_idx.data() + i * n0);
      search.Descend(1);
    }
    return search.rows();
  };
  std::vector<size_t> start(ranges + 1, 0);  // range g's first row
  ParallelFor(ranges, pool, [&start, &run_range](int g) {
    start[g + 1] = run_range(g, nullptr);
  });
  for (int g = 0; g < ranges; ++g) start[g + 1] += start[g];
  const size_t total = start[ranges];
  HT_CHECK_LE(total, static_cast<size_t>(INT32_MAX))
      << "bag relation exceeds the row-count limit";
  std::vector<int>& data = RelationInternal::Data(out);
  data.resize(total * k);
  int* base = data.data();
  ParallelFor(ranges, pool, [&start, &run_range, base, k](int g) {
    run_range(g, base + start[g] * k);
  });
  RelationInternal::Rows(out) = static_cast<int>(total);
  BytesAllocated().Add(static_cast<long>(data.capacity() * sizeof(int)));
  RelationInternal::CheckRep(out);
  return out;
}

}  // namespace hypertree
