// Conjunctive-query answering through generalized hypertree
// decompositions: the end-to-end pipeline of the paper. The query's
// hypergraph is decomposed, node relations are materialized over chi
// from every atom meeting the bag (MaterializeBag, within the bag's AGM
// bound), Yannakakis reduces the tree, and answers
// are assembled bottom-up with projections onto connector + head
// variables — output-polynomial for bounded-width queries.

#ifndef HYPERTREE_CQ_ANSWER_H_
#define HYPERTREE_CQ_ANSWER_H_

#include <optional>
#include <string>

#include "cq/database.h"
#include "cq/query.h"
#include "csp/relation.h"

namespace hypertree {

class ThreadPool;

/// Work counters for query evaluation.
struct AnswerStats {
  int decomposition_width = 0;
  long intermediate_tuples = 0;  // rows materialized across all nodes
};

/// Evaluates `q` over `db` via a GHD of the query hypergraph. The answer
/// relation's schema lists the head variables by their ids in
/// q.Variables() order; a Boolean query yields an empty-schema relation
/// with one tuple (true) or none (false). Fails (nullopt + error) on
/// missing tables or arity mismatches. With a pool, the per-node bag
/// joins and the Yannakakis passes run in parallel across independent
/// subtrees; the answer relation (schema, tuples and tuple order) is
/// bit-identical for any thread count.
std::optional<Relation> AnswerQuery(const ConjunctiveQuery& q,
                                    const Database& db,
                                    std::string* error = nullptr,
                                    AnswerStats* stats = nullptr,
                                    ThreadPool* pool = nullptr);

/// Reference evaluation: join all atoms directly, project the head
/// (exponential; for tests and tiny queries).
std::optional<Relation> BruteForceAnswer(const ConjunctiveQuery& q,
                                         const Database& db,
                                         std::string* error = nullptr);

}  // namespace hypertree

#endif  // HYPERTREE_CQ_ANSWER_H_
