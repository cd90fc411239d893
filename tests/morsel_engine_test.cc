// Randomized equivalence and determinism tests for the morsel-driven
// join engine (src/csp/morsel_engine.h): every engine mode — dense,
// hash, generic-fallback, pooled and grace-partitioned — must produce
// the exact output (values AND row order) of a naive reference, and the
// same bytes whatever the thread count or memory budget. The spill
// byte-identity case here is the one scripts/run_asan_checks.sh and the
// CI low-memory job lean on (docs/SOLVING.md).

#include "csp/morsel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "csp/morsel.h"
#include "csp/relation.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

Relation RandomRelation(const std::vector<int>& schema, int rows, int lo,
                        int hi, Rng* rng) {
  Relation r(schema);
  std::vector<int> row(schema.size());
  for (int t = 0; t < rows; ++t) {
    for (int& v : row) {
      v = lo + static_cast<int>(rng->UniformInt(hi - lo + 1));
    }
    r.AddRow(row.data());
  }
  return r;
}

// Naive reference join: probe-row order, build ties in ascending build
// row order — the documented Relation::Join contract.
Relation NaiveJoin(const Relation& a, const Relation& b) {
  std::vector<std::pair<int, int>> shared;  // (pos in a, pos in b)
  std::vector<int> out_schema = a.schema();
  std::vector<int> extra;
  for (size_t j = 0; j < b.schema().size(); ++j) {
    const int pa = a.IndexOf(b.schema()[j]);
    if (pa >= 0) {
      shared.emplace_back(pa, static_cast<int>(j));
    } else {
      out_schema.push_back(b.schema()[j]);
      extra.push_back(static_cast<int>(j));
    }
  }
  Relation out(out_schema);
  std::vector<int> row(out_schema.size());
  for (int t = 0; t < a.Size(); ++t) {
    const int* ra = a.Row(t);
    for (int u = 0; u < b.Size(); ++u) {
      const int* rb = b.Row(u);
      bool match = true;
      for (const auto& [pa, pb] : shared) {
        if (ra[pa] != rb[pb]) match = false;
      }
      if (!match) continue;
      std::copy(ra, ra + a.Arity(), row.begin());
      for (size_t i = 0; i < extra.size(); ++i) {
        row[a.Arity() + i] = rb[extra[i]];
      }
      out.AddRow(row.data());
    }
  }
  return out;
}

Relation NaiveSemijoin(const Relation& a, const Relation& b) {
  std::vector<std::pair<int, int>> shared;
  for (size_t j = 0; j < b.schema().size(); ++j) {
    const int pa = a.IndexOf(b.schema()[j]);
    if (pa >= 0) shared.emplace_back(pa, static_cast<int>(j));
  }
  Relation out(a.schema());
  if (shared.empty()) {
    // No shared variables: keep everything iff b is non-empty.
    return b.Empty() ? out : a;
  }
  for (int t = 0; t < a.Size(); ++t) {
    const int* ra = a.Row(t);
    bool keep = false;
    for (int u = 0; u < b.Size() && !keep; ++u) {
      const int* rb = b.Row(u);
      keep = true;
      for (const auto& [pa, pb] : shared) {
        if (ra[pa] != rb[pb]) keep = false;
      }
    }
    if (keep) out.AddRow(ra);
  }
  return out;
}

// Naive reference project: first occurrence wins the output order.
Relation NaiveProject(const Relation& a, const std::vector<int>& vars) {
  std::vector<int> pos;
  for (int v : vars) pos.push_back(a.IndexOf(v));
  Relation out(vars);
  std::vector<int> row(vars.size());
  for (int t = 0; t < a.Size(); ++t) {
    const int* ra = a.Row(t);
    for (size_t i = 0; i < pos.size(); ++i) row[i] = ra[pos[i]];
    out.InsertIfAbsent(row.data());
  }
  return out;
}

void ExpectSame(const Relation& want, const Relation& got) {
  ASSERT_EQ(want.schema(), got.schema());
  ASSERT_EQ(want.Size(), got.Size());
  EXPECT_EQ(want.data(), got.data());  // values AND row order
}

// Value ranges that steer the engine through each mode: tiny domains
// (dense tables), wide values (hash tables), negatives (generic
// fallback — keys do not pack).
struct Mode {
  int lo;
  int hi;
  const char* name;
};
const Mode kModes[] = {
    {0, 2, "dense"}, {0, 4000000, "hash"}, {-3, 3, "generic"}};

class MorselEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { SetMemoryBudget(0); }
};

TEST_F(MorselEngineTest, JoinMatchesNaiveAllModes) {
  Rng rng(1);
  ThreadPool pool(4);
  for (const Mode& m : kModes) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(std::string(m.name) + " trial=" + std::to_string(trial));
      const int ra = 1 + static_cast<int>(rng.UniformInt(3));
      const int rb = 1 + static_cast<int>(rng.UniformInt(3));
      // Schemas share a random prefix of variable ids.
      std::vector<int> sa, sb;
      for (int i = 0; i < ra; ++i) sa.push_back(i);
      const int shared = static_cast<int>(rng.UniformInt(ra + 1));
      for (int i = 0; i < shared; ++i) sb.push_back(i);
      for (int i = 0; i < rb; ++i) sb.push_back(100 + i);
      Relation a = RandomRelation(
          sa, static_cast<int>(rng.UniformInt(9000)), m.lo, m.hi, &rng);
      Relation b = RandomRelation(
          sb, static_cast<int>(rng.UniformInt(300)), m.lo, m.hi, &rng);
      const Relation want = NaiveJoin(a, b);
      ExpectSame(want, EngineJoin(a, b, nullptr));
      ExpectSame(want, EngineJoin(a, b, &pool));
      ExpectSame(want, a.Join(b));
    }
  }
}

TEST_F(MorselEngineTest, SemijoinMatchesNaiveAllModes) {
  Rng rng(2);
  ThreadPool pool(4);
  for (const Mode& m : kModes) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(std::string(m.name) + " trial=" + std::to_string(trial));
      const int ra = 1 + static_cast<int>(rng.UniformInt(3));
      std::vector<int> sa, sb;
      for (int i = 0; i < ra; ++i) sa.push_back(i);
      const int shared = 1 + static_cast<int>(rng.UniformInt(ra));
      for (int i = 0; i < shared; ++i) sb.push_back(i);
      sb.push_back(100);
      Relation a = RandomRelation(
          sa, static_cast<int>(rng.UniformInt(9000)), m.lo, m.hi, &rng);
      Relation b = RandomRelation(
          sb, static_cast<int>(rng.UniformInt(400)), m.lo, m.hi, &rng);
      const Relation want = NaiveSemijoin(a, b);
      Relation serial = a;
      EngineSemijoinInPlace(&serial, b, nullptr);
      ExpectSame(want, serial);
      Relation pooled = a;
      EngineSemijoinInPlace(&pooled, b, &pool);
      ExpectSame(want, pooled);
      Relation member = a;
      member.SemijoinInPlace(b);
      ExpectSame(want, member);
    }
  }
}

TEST_F(MorselEngineTest, SemijoinEdgeCases) {
  // No shared variables / empty sides route through the generic path
  // with its documented drop-everything / keep-everything semantics.
  Relation a(std::vector<int>{0, 1});
  a.AddTuple({1, 2});
  a.AddTuple({3, 4});
  Relation empty_b(std::vector<int>{5});
  Relation full_b(std::vector<int>{5});
  full_b.AddTuple({7});
  Relation x = a;
  EngineSemijoinInPlace(&x, empty_b, nullptr);
  EXPECT_TRUE(x.Empty());
  Relation y = a;
  EngineSemijoinInPlace(&y, full_b, nullptr);
  EXPECT_EQ(2, y.Size());
  Relation z(std::vector<int>{0, 1});
  EngineSemijoinInPlace(&z, full_b, nullptr);
  EXPECT_TRUE(z.Empty());
}

TEST_F(MorselEngineTest, ProjectMatchesNaiveAllModes) {
  Rng rng(3);
  ThreadPool pool(4);
  for (const Mode& m : kModes) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(std::string(m.name) + " trial=" + std::to_string(trial));
      const int ra = 1 + static_cast<int>(rng.UniformInt(4));
      std::vector<int> sa;
      for (int i = 0; i < ra; ++i) sa.push_back(i);
      std::vector<int> vars;
      for (int i = 0; i < ra; ++i) {
        if (rng.UniformInt(2) == 0) vars.push_back(i);
      }
      if (vars.empty()) vars.push_back(0);
      // Project first-occurrence order is part of the contract: shuffle
      // which variables are kept, not the row order.
      Relation a = RandomRelation(
          sa, static_cast<int>(rng.UniformInt(9000)), m.lo, m.hi, &rng);
      const Relation want = NaiveProject(a, vars);
      ExpectSame(want, EngineProject(a, vars, nullptr));
      ExpectSame(want, EngineProject(a, vars, &pool));
      ExpectSame(want, a.Project(vars));
    }
  }
}

TEST_F(MorselEngineTest, PartitionedSemijoinMatchesUnlimited) {
  Rng rng(6);
  ThreadPool pool(4);
  Relation left = RandomRelation({0, 1}, 20000, 0, 3000000, &rng);
  Relation right = RandomRelation({1, 2}, 20000, 0, 3000000, &rng);
  SetMemoryBudget(0);
  Relation want = left;
  EngineSemijoinInPlace(&want, right, nullptr);
  // A budget far below the hash-table footprint forces the grace
  // partitioning path (the dense bitmap is also over budget).
  SetMemoryBudget(16 << 10);
  const long spills_before = SpillPartitions().Value();
  Relation got = left;
  EngineSemijoinInPlace(&got, right, nullptr);
  EXPECT_GT(SpillPartitions().Value(), spills_before)
      << "budgeted semijoin never partitioned — the test lost its point";
  ExpectSame(want, got);
  Relation pooled = left;
  EngineSemijoinInPlace(&pooled, right, &pool);
  ExpectSame(want, pooled);
}

TEST_F(MorselEngineTest, ParseByteSize) {
  long long v = -1;
  EXPECT_TRUE(ParseByteSize("0", &v));
  EXPECT_EQ(0, v);
  EXPECT_TRUE(ParseByteSize("12345", &v));
  EXPECT_EQ(12345, v);
  EXPECT_TRUE(ParseByteSize("4k", &v));
  EXPECT_EQ(4096, v);
  EXPECT_TRUE(ParseByteSize("256M", &v));
  EXPECT_EQ(256LL << 20, v);
  EXPECT_TRUE(ParseByteSize("2g", &v));
  EXPECT_EQ(2LL << 30, v);
  EXPECT_FALSE(ParseByteSize("", &v));
  EXPECT_FALSE(ParseByteSize("k", &v));
  EXPECT_FALSE(ParseByteSize("12x", &v));
  EXPECT_FALSE(ParseByteSize("-5", &v));
  EXPECT_FALSE(ParseByteSize("12 34", &v));
}

}  // namespace
}  // namespace hypertree
