// The one bag materialiser behind the TD, GHD and conjunctive-query
// routes: a variable-at-a-time generic join over a decomposition bag's
// variables chi (Ngo–Porat–Ré–Rudra, "Worst-case optimal join
// algorithms"; Veldhuizen, "Leapfrog Triejoin").
//
// Every relation whose schema meets chi is a filter: used as-is when its
// schema lies inside chi, through its projection onto the shared
// variables otherwise. A filter only removes bag tuples that cannot
// extend to a global solution, and every constraint or atom is still
// enforced whole in some bag (any tree decomposition or GHD covers each
// scope), so the join of all bag relations — hence every answer and
// count — equals the join of the original relations.
//
// Each filter becomes a sorted trie over its variables in the join's
// variable order (built once per bag); each join level intersects the
// tries that mention its variable. The work is bounded by the AGM bound
// of chi — at most (largest filter)^rho*(chi), rho* the fractional edge
// cover number — so fractional hypertree width bounds solve cost, not
// only reported width (docs/SOLVING.md, "Bag materialisation").

#ifndef HYPERTREE_CSP_BAG_MATERIALISER_H_
#define HYPERTREE_CSP_BAG_MATERIALISER_H_

#include <vector>

#include "csp/relation.h"

namespace hypertree {

class ThreadPool;

/// The relation of bag `chi`: every assignment of the (distinct) variables
/// in `chi` that agrees with each filter of `relations` on the shared
/// variables. Filters are the relations whose schema meets chi, plus those
/// with an empty schema (an empty one empties the bag); the rest are
/// ignored. Every chi variable must occur in some filter — callers add a
/// unary domain relation for variables nothing else mentions.
///
/// The output has schema `chi`, distinct rows, and a buffer sized
/// exactly. Rows come in lexicographic order of the join's variable order
/// (most-constrained first, ties by variable id). With a pool, ranges of
/// the first variable's values run in parallel and are concatenated in
/// range order, so the output is bit-identical for any thread count.
Relation MaterializeBag(const std::vector<int>& chi,
                        const std::vector<const Relation*>& relations,
                        ThreadPool* pool = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_BAG_MATERIALISER_H_
