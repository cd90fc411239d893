#include "cq/answer.h"

#include <algorithm>
#include <map>

#include "csp/bag_materialiser.h"
#include "csp/morsel_engine.h"
#include "csp/tree_schedule.h"
#include "csp/yannakakis.h"
#include "ghd/ghw_from_ordering.h"
#include "ordering/heuristics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

// Binds atom `a` of `q` to its table: schema = distinct variable ids (in
// first-occurrence order), rows filtered for repeated-variable equality.
bool BindAtom(const Atom& atom, const std::map<std::string, int>& var_id,
              const Database& db, Relation* out, std::string* error) {
  const Table* table = db.GetTable(atom.relation);
  if (table == nullptr) {
    SetError(error, "unknown relation: " + atom.relation);
    return false;
  }
  if (table->arity != static_cast<int>(atom.vars.size())) {
    SetError(error, "arity mismatch for " + atom.relation);
    return false;
  }
  // Distinct variables and the column positions they bind.
  std::vector<int> schema;
  std::vector<int> rep;  // rep[i] = first column with the same variable
  std::vector<int> keep_cols;
  {
    std::map<int, int> first_col;
    rep.resize(atom.vars.size());
    for (size_t i = 0; i < atom.vars.size(); ++i) {
      int v = var_id.at(atom.vars[i]);
      auto it = first_col.find(v);
      if (it == first_col.end()) {
        first_col[v] = static_cast<int>(i);
        rep[i] = static_cast<int>(i);
        schema.push_back(v);
        keep_cols.push_back(static_cast<int>(i));
      } else {
        rep[i] = it->second;
      }
    }
  }
  Relation r(schema);
  std::vector<int> tuple;
  for (const auto& row : table->rows) {
    bool ok = true;
    for (size_t i = 0; i < row.size() && ok; ++i) {
      if (rep[i] != static_cast<int>(i) && row[i] != row[rep[i]]) ok = false;
    }
    if (!ok) continue;
    tuple.clear();
    for (int c : keep_cols) tuple.push_back(row[c]);
    // Deduplicate: repeated rows in the table must not duplicate answers
    // beyond set semantics. InsertIfAbsent keeps this linear via the
    // relation's row index (the old Contains scan was quadratic).
    r.InsertIfAbsent(tuple.data());
  }
  *out = std::move(r);
  return true;
}

}  // namespace

std::optional<Relation> AnswerQuery(const ConjunctiveQuery& q,
                                    const Database& db, std::string* error,
                                    AnswerStats* stats, ThreadPool* pool) {
  std::vector<std::string> vars = q.Variables();
  std::map<std::string, int> var_id;
  for (size_t i = 0; i < vars.size(); ++i) var_id[vars[i]] = static_cast<int>(i);
  std::vector<int> head_ids;
  for (const std::string& v : q.head) head_ids.push_back(var_id[v]);
  {
    std::vector<int> sorted = head_ids;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      SetError(error, "repeated head variables are not supported");
      return std::nullopt;
    }
  }

  // Bind every atom.
  std::vector<Relation> bound(q.atoms.size());
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    if (!BindAtom(q.atoms[a], var_id, db, &bound[a], error)) {
      return std::nullopt;
    }
  }

  // Decompose the query hypergraph (min-fill + exact covers). Every atom
  // lies inside some bag, which is all bag materialisation needs.
  Hypergraph h = q.QueryHypergraph();
  GhwEvaluator eval(h);
  Rng rng(7);
  EliminationOrdering sigma = MinFillOrdering(eval.primal(), &rng);
  GeneralizedHypertreeDecomposition ghd =
      eval.BuildGhd(sigma, CoverMode::kExact);
  if (stats != nullptr) stats->decomposition_width = ghd.Width();
  const TreeDecomposition& td = ghd.td();
  const int m = td.NumNodes();

  // Node relations: one MaterializeBag per bag, every atom meeting the bag
  // a filter. Independent per node, so the bags fan out over the pool.
  RelationTree tree;
  tree.relations.resize(m);
  RootTree(m, td.TreeEdges(), &tree.parent, &tree.root);
  std::vector<const Relation*> atoms;
  for (const Relation& r : bound) atoms.push_back(&r);
  RunForAll(m, pool, [&tree, &td, &atoms, pool](int p) {
    tree.relations[p] = MaterializeBag(td.Bag(p).ToVector(), atoms, pool);
  });
  long node_tuples = 0;
  for (const Relation& r : tree.relations) node_tuples += r.Size();
  const bool consistent = FullReduce(&tree, pool);
  if (stats != nullptr) stats->intermediate_tuples += node_tuples;
  if (!consistent) return Relation(head_ids);
  const std::vector<std::vector<int>> children = ChildLists(tree.parent);

  // Bottom-up join with projection onto connector + subtree-head vars
  // (children finish before their parent joins them, so subtrees run
  // concurrently).
  Bitset head_bits(h.NumVertices());
  for (int v : head_ids) head_bits.Set(v);
  std::vector<Bitset> sub_head(m);
  std::vector<Relation> answers(m);
  std::vector<long> join_tuples(m, 0);
  RunTreeBottomUp(tree.parent, children, pool,
                  [&tree, &children, &answers, &join_tuples, &sub_head, &td,
                   &head_bits, pool](int node) {
    sub_head[node] = td.Bag(node) & head_bits;
    Relation acc = tree.relations[node];
    for (int c : children[node]) {
      sub_head[node] |= sub_head[c];
      acc = EngineJoin(acc, answers[c], pool);
      join_tuples[node] += acc.Size();
    }
    Bitset keep = sub_head[node];
    const int parent = tree.parent[node];
    if (parent != -1) keep |= td.Bag(node) & td.Bag(parent);
    std::vector<int> proj;
    for (int v : acc.schema()) {
      if (keep.Test(v)) proj.push_back(v);
    }
    answers[node] = acc.Project(proj);
  });
  if (stats != nullptr) {
    for (long t : join_tuples) stats->intermediate_tuples += t;
  }
  // A Boolean query has an empty schema: "true" is one empty tuple.
  return answers[tree.root].Project(head_ids);
}

std::optional<Relation> BruteForceAnswer(const ConjunctiveQuery& q,
                                         const Database& db,
                                         std::string* error) {
  std::vector<std::string> vars = q.Variables();
  std::map<std::string, int> var_id;
  for (size_t i = 0; i < vars.size(); ++i) var_id[vars[i]] = static_cast<int>(i);
  Relation acc;
  bool first = true;
  for (const Atom& atom : q.atoms) {
    Relation r;
    if (!BindAtom(atom, var_id, db, &r, error)) return std::nullopt;
    acc = first ? std::move(r) : acc.Join(r);
    first = false;
  }
  std::vector<int> head_ids;
  for (const std::string& v : q.head) head_ids.push_back(var_id[v]);
  if (head_ids.empty()) {
    Relation boolean(std::vector<int>{});
    if (!acc.Empty()) boolean.AddTuple({});
    return boolean;
  }
  return acc.Project(head_ids);
}

}  // namespace hypertree
