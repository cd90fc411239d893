// Differential tests for MaterializeBag (src/csp/bag_materialiser.h): on
// random relations — negative values, unary domains, atoms that stick
// out of the bag — the bag equals a nested-loop join-then-project
// oracle, is bit-identical at every pool size, and stays within the AGM
// bound (largest filter)^rho*(chi). A route test checks the TD and GHD
// routes agree on a grid CSP whose old GHD join chain blew up.

#include "csp/bag_materialiser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "csp/counting.h"
#include "csp/decomposition_solving.h"
#include "csp/generators.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "ordering/heuristics.h"
#include "setcover/fractional.h"
#include "td/tree_decomposition.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {
namespace {

using Tuple = std::vector<int>;
// A relation as the oracle sees it: a schema and a set of tuples.
struct Table {
  std::vector<int> schema;
  std::set<Tuple> rows;
};

Table ToTable(const Relation& r) {
  Table t{r.schema(), {}};
  for (int i = 0; i < r.Size(); ++i) {
    t.rows.insert(Tuple(r.Row(i), r.Row(i) + r.Arity()));
  }
  return t;
}

// Projection onto the schema variables listed in `keep` (schema order).
Table NaiveProject(const Table& t, const std::set<int>& keep) {
  Table out;
  std::vector<int> pos;
  for (size_t i = 0; i < t.schema.size(); ++i) {
    if (keep.count(t.schema[i]) > 0) {
      out.schema.push_back(t.schema[i]);
      pos.push_back(static_cast<int>(i));
    }
  }
  for (const Tuple& row : t.rows) {
    Tuple p;
    for (int i : pos) p.push_back(row[i]);
    out.rows.insert(p);
  }
  return out;
}

// Nested-loop natural join.
Table NaiveJoin(const Table& a, const Table& b) {
  Table out{a.schema, {}};
  std::vector<std::pair<int, int>> shared;
  std::vector<int> extra;
  for (size_t j = 0; j < b.schema.size(); ++j) {
    auto it = std::find(a.schema.begin(), a.schema.end(), b.schema[j]);
    if (it == a.schema.end()) {
      out.schema.push_back(b.schema[j]);
      extra.push_back(static_cast<int>(j));
    } else {
      shared.emplace_back(static_cast<int>(it - a.schema.begin()),
                          static_cast<int>(j));
    }
  }
  for (const Tuple& ra : a.rows) {
    for (const Tuple& rb : b.rows) {
      bool ok = true;
      for (auto [i, j] : shared) ok = ok && ra[i] == rb[j];
      if (!ok) continue;
      Tuple row = ra;
      for (int j : extra) row.push_back(rb[j]);
      out.rows.insert(row);
    }
  }
  return out;
}

// The oracle: project every relation meeting chi onto chi, join them
// with nested loops, reorder the columns to chi.
std::set<Tuple> Oracle(const std::vector<int>& chi,
                       const std::vector<const Relation*>& relations) {
  const std::set<int> chi_set(chi.begin(), chi.end());
  Table acc{{}, {Tuple{}}};
  for (const Relation* r : relations) {
    Table p = NaiveProject(ToTable(*r), chi_set);
    if (p.schema.empty() && r->Arity() > 0) continue;  // disjoint from chi
    acc = NaiveJoin(acc, p);
  }
  std::vector<int> pos;
  for (int v : chi) {
    pos.push_back(static_cast<int>(
        std::find(acc.schema.begin(), acc.schema.end(), v) -
        acc.schema.begin()));
  }
  std::set<Tuple> out;
  for (const Tuple& row : acc.rows) {
    Tuple t;
    for (int i : pos) t.push_back(row[i]);
    out.insert(t);
  }
  return out;
}

Relation RandomRelation(const std::vector<int>& schema, int rows, int lo,
                        int hi, Rng* rng) {
  Relation r(schema);
  Tuple row(schema.size());
  for (int t = 0; t < rows; ++t) {
    for (int& v : row) v = lo + static_cast<int>(rng->UniformInt(hi - lo + 1));
    r.AddRow(row.data());
  }
  return r;
}

Relation Domain(int var, int lo, int hi) {
  Relation r({var});
  for (int v = lo; v <= hi; ++v) r.AddRow(&v);
  return r;
}

// rho*(chi) over the filters' chi-variable sets.
double Rho(const std::vector<int>& chi,
           const std::vector<const Relation*>& relations) {
  const int k = static_cast<int>(chi.size());
  std::vector<Bitset> sets;
  for (const Relation* r : relations) {
    Bitset b(k);
    for (int i = 0; i < k; ++i) {
      if (r->IndexOf(chi[i]) >= 0) b.Set(i);
    }
    if (b.Any()) sets.push_back(b);
  }
  Bitset all(k);
  for (int i = 0; i < k; ++i) all.Set(i);
  return FractionalSetCover(sets, all);
}

void ExpectBitIdentical(const Relation& a, const Relation& b) {
  EXPECT_EQ(a.schema(), b.schema());
  EXPECT_EQ(a.Size(), b.Size());
  EXPECT_EQ(a.data(), b.data());
}

TEST(BagMaterialiserTest, RandomBagsMatchOracleAndAgmBound) {
  Rng rng(13);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Variables 0..7; chi a random non-empty subset.
    std::vector<int> chi;
    for (int v = 0; v < 8; ++v) {
      if (rng.UniformInt(2) == 0) chi.push_back(v);
    }
    if (chi.empty()) chi.push_back(static_cast<int>(rng.UniformInt(8)));
    const int lo = trial % 3 == 0 ? -3 : 0;
    const int hi = lo + 2 + static_cast<int>(rng.UniformInt(4));
    std::vector<Relation> owned;
    const int nrel = 2 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < nrel; ++i) {
      // Random schema of 1-3 distinct variables over 0..9: some inside
      // chi, some overlapping it partially, some disjoint.
      std::vector<int> schema;
      const int arity = 1 + static_cast<int>(rng.UniformInt(3));
      while (static_cast<int>(schema.size()) < arity) {
        const int v = static_cast<int>(rng.UniformInt(10));
        if (std::find(schema.begin(), schema.end(), v) == schema.end()) {
          schema.push_back(v);
        }
      }
      const int rows = static_cast<int>(rng.UniformInt(40));
      owned.push_back(RandomRelation(schema, rows, lo, hi, &rng));
    }
    // Unary domains for chi variables no relation mentions.
    for (int v : chi) {
      bool covered = false;
      for (const Relation& r : owned) covered = covered || r.IndexOf(v) >= 0;
      if (!covered) owned.push_back(Domain(v, lo, hi));
    }
    std::vector<const Relation*> relations;
    for (const Relation& r : owned) relations.push_back(&r);

    const Relation bag = MaterializeBag(chi, relations, nullptr);
    ASSERT_EQ(bag.schema(), chi);
    const Table got = ToTable(bag);
    EXPECT_EQ(static_cast<int>(got.rows.size()), bag.Size())
        << "duplicate bag rows";
    EXPECT_EQ(got.rows, Oracle(chi, relations));
    EXPECT_EQ(bag.data().capacity(), bag.data().size());

    ExpectBitIdentical(bag, MaterializeBag(chi, relations, &pool1));
    ExpectBitIdentical(bag, MaterializeBag(chi, relations, &pool4));

    // AGM: |bag| <= N^rho*, N the largest filter (projected onto chi).
    const std::set<int> chi_set(chi.begin(), chi.end());
    double largest = 0;
    for (const Relation* r : relations) {
      Table p = NaiveProject(ToTable(*r), chi_set);
      if (!p.schema.empty()) {
        largest = std::max(largest, static_cast<double>(p.rows.size()));
      }
    }
    EXPECT_LE(bag.Size(), std::pow(largest, Rho(chi, relations)) + 1e-6);
  }
}

TEST(BagMaterialiserTest, CycleQueryAtomsWithPartialOverlap) {
  // Bag {0, 1, 2} of the 4-cycle e0(0,1) e1(1,2) e2(2,3) e3(3,0): two
  // atoms inside, two that stick out and filter through projections.
  Rng rng(7);
  ThreadPool pool(4);
  std::vector<Relation> atoms;
  for (int i = 0; i < 4; ++i) {
    atoms.push_back(
        RandomRelation({i, (i + 1) % 4}, 3000, -50, 300, &rng));
  }
  std::vector<const Relation*> relations;
  for (const Relation& r : atoms) relations.push_back(&r);
  const std::vector<int> chi = {0, 1, 2};
  const Relation bag = MaterializeBag(chi, relations, &pool);
  EXPECT_EQ(ToTable(bag).rows, Oracle(chi, relations));
  ExpectBitIdentical(bag, MaterializeBag(chi, relations, nullptr));
}

TEST(BagMaterialiserTest, LargeBagIsExactlySizedAtEveryPoolSize) {
  Rng rng(11);
  ThreadPool pool(4);
  std::vector<Relation> atoms;
  for (int i = 0; i < 3; ++i) {
    atoms.push_back(RandomRelation({i, i + 1}, 2000, 0, 60, &rng));
  }
  std::vector<const Relation*> relations;
  for (const Relation& r : atoms) relations.push_back(&r);
  const std::vector<int> chi = {0, 1, 2, 3};
  const Relation bag = MaterializeBag(chi, relations, &pool);
  ASSERT_GT(bag.Size(), 10000) << "the bag should span every value range";
  EXPECT_EQ(bag.data().capacity(), bag.data().size());
  ExpectBitIdentical(bag, MaterializeBag(chi, relations, nullptr));
}

TEST(BagMaterialiserTest, EmptyChiEmptyFilterAndNullaryRelations) {
  Relation r({0, 1});
  r.AddTuple({1, 2});
  Relation empty({1});
  Relation yes(std::vector<int>{});
  yes.AddTuple({});
  Relation no(std::vector<int>{});

  // Empty chi: the identity (one empty tuple) unless a nullary filter
  // is false.
  EXPECT_EQ(MaterializeBag({}, {&r}, nullptr).Size(), 1);
  EXPECT_EQ(MaterializeBag({}, {&r, &yes}, nullptr).Size(), 1);
  EXPECT_EQ(MaterializeBag({}, {&r, &no}, nullptr).Size(), 0);
  // An empty filter meeting chi empties the bag; a disjoint one does not.
  EXPECT_EQ(MaterializeBag({0, 1}, {&r, &empty}, nullptr).Size(), 0);
  EXPECT_EQ(MaterializeBag({0}, {&r, &empty}, nullptr).Size(), 1);
  EXPECT_EQ(MaterializeBag({0, 1}, {&r, &yes}, nullptr).Size(), 1);
}

TEST(BagMaterialiserTest, GridCspGhdBagsStayNearTdBags) {
  // grid6_d5_t0.50_plant_s2: the GHD route's left-deep lambda join
  // chain used to join 10.3 M rows here.
  Csp csp = RandomCspFromHypergraph(Grid2DHypergraph(6), 5, 0.5, true, 2);
  Hypergraph h = csp.ConstraintHypergraph();
  GhwEvaluator eval(h);
  Rng rng(2);
  EliminationOrdering sigma = MinFillOrdering(eval.primal(), &rng);
  TreeDecomposition td = TreeDecompositionFromOrdering(eval.primal(), sigma);
  GeneralizedHypertreeDecomposition ghd =
      eval.BuildGhd(sigma, CoverMode::kExact);
  ThreadPool pool(2);

  auto tuples = [](const RelationTree& tree) {
    long n = 0;
    for (const Relation& r : tree.relations) n += r.Size();
    return n;
  };
  const RelationTree td_tree = BuildRelationTreeFromTd(csp, td, &pool);
  const RelationTree ghd_tree = BuildRelationTreeFromGhd(csp, ghd, &pool);
  EXPECT_LE(tuples(ghd_tree), 2 * tuples(td_tree));
  const long long count = CountRelationTree(td_tree, &pool);
  EXPECT_GT(count, 0);  // planted
  EXPECT_EQ(count, CountRelationTree(ghd_tree, &pool));
  auto solution = SolveViaGhd(csp, ghd, nullptr, &pool);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
}

}  // namespace
}  // namespace hypertree
