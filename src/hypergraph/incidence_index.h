// Precomputed incidence structure of a hypergraph, shared read-only by
// the exact decomposition searches.
//
// The inner loops of det-k-decomp, BB-ghw and A*-ghw all reduce to two
// questions about a hypergraph (PAPER.md §5):
//
//   * which edges does this vertex set touch?   (candidate separators,
//     bag-cover candidate generation)
//   * how do a component's edges split against a separator?  (edge
//     components w.r.t. separator vertices)
//
// Both are answered word-parallel from two families of bitset rows built
// once per instance: per-vertex incident-edge sets (rows of the incidence
// matrix, edge-indexed) and per-edge adjacency sets (rows of the
// intersection graph). The index is immutable after construction, so any
// number of search workers can share one instance without synchronization.
//
// ComponentSplitter and CandidateGenerator bundle the reusable scratch
// those queries need; each search worker owns one of each, and in steady
// state neither performs any heap allocation. NaiveComponents /
// NaiveCandidates are the quadratic reference implementations the
// word-parallel versions are randomized-tested against
// (tests/incidence_index_test.cc); they double as the specification of
// the deterministic output order.

#ifndef HYPERTREE_HYPERGRAPH_INCIDENCE_INDEX_H_
#define HYPERTREE_HYPERGRAPH_INCIDENCE_INDEX_H_

#include <utility>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "kernels/kernels.h"
#include "util/bitset.h"

namespace hypertree {

/// Immutable per-instance incidence index: vertex -> incident edges and
/// edge -> intersecting edges, both as edge-universe bitsets.
///
/// Besides the per-row Bitset views, the index keeps the two hot row
/// families in flat row-major word arenas (row r at Rows() + r * Stride())
/// shaped for the kernel layer (src/kernels/kernels.h): single-word rows
/// pack at stride 1 so vector backends process four rows per 256-bit
/// lane, multi-word rows at a whole-lane stride. The arenas are built
/// once and immutable, so any number of search workers share them
/// without synchronization.
class IncidenceIndex {
 public:
  explicit IncidenceIndex(const Hypergraph& h);

  int NumVertices() const { return n_; }
  int NumEdges() const { return m_; }
  const Hypergraph& hypergraph() const { return h_; }

  /// Edges containing vertex `v` (an m-bit set; row v of the incidence
  /// matrix).
  const Bitset& VertexEdges(int v) const { return vertex_edges_[v]; }

  /// Edges sharing at least one vertex with edge `e`, including `e`
  /// itself (row e of the intersection graph, reflexively closed).
  const Bitset& EdgeNeighbors(int e) const { return edge_neighbors_[e]; }

  /// out := union of VertexEdges(v) over the vertices of `vars` — the
  /// edges touching `vars`. `out` must be an m-bit set; overwritten.
  /// One kernel OR-reduce over the vertex->edges arena.
  void EdgesTouching(const Bitset& vars, Bitset* out) const;

  /// Flat vertex->edges rows: n rows of EdgeWords() words at
  /// VertexEdgeStride() (row v = VertexEdges(v)).
  const uint64_t* VertexEdgeRows() const { return vertex_edge_rows_.data(); }
  size_t VertexEdgeStride() const { return ve_stride_; }

  /// Flat edge->vertices rows: m rows of VertWords() words at
  /// EdgeVarStride() (row e = hypergraph().EdgeBits(e)).
  const uint64_t* EdgeVarRows() const { return edge_var_rows_.data(); }
  size_t EdgeVarStride() const { return ev_stride_; }

  /// Words per edge-universe (m-bit) row / vertex-universe (n-bit) row.
  int EdgeWords() const { return edge_words_; }
  int VertWords() const { return vert_words_; }

 private:
  const Hypergraph& h_;
  int n_;
  int m_;
  int edge_words_;
  int vert_words_;
  size_t ve_stride_;
  size_t ev_stride_;
  std::vector<Bitset> vertex_edges_;
  std::vector<Bitset> edge_neighbors_;
  kernels::WordArena vertex_edge_rows_;
  kernels::WordArena edge_var_rows_;
};

/// Word-parallel edge-component splitting: the edges of `comp` not fully
/// inside the separator, grouped by connectivity through non-separator
/// vertices. One splitter per search worker; Split() reuses the
/// splitter's internal scratch and performs no heap allocation once the
/// output slots exist (slot construction is counted in
/// detk.scratch_bytes_allocated).
class ComponentSplitter {
 public:
  explicit ComponentSplitter(const IncidenceIndex* index = nullptr) {
    if (index != nullptr) Attach(index);
  }

  /// Re-targets the splitter (also sizes the internal scratch).
  void Attach(const IncidenceIndex* index);

  /// Splits the edges of `comp` (an m-bit edge set) against separator
  /// vertices `sep_vars` (an n-bit vertex set). The components are
  /// written into (*out)[out_base], (*out)[out_base+1], ... reusing
  /// existing slots (growing `out` only when needed); the return value
  /// is the component count. Components appear in ascending order of
  /// their lowest edge id, and each component is the same edge set the
  /// naive fixed-point computation produces.
  int Split(const Bitset& comp, const Bitset& sep_vars,
            std::vector<Bitset>* out, size_t out_base = 0);

 private:
  const IncidenceIndex* index_ = nullptr;
  Bitset pending_;        // m: not-yet-assigned component edges
  Bitset reach_edges_;    // m: edges reached by the current frontier
  Bitset frontier_vars_;  // n: vertices discovered last round
  Bitset next_vars_;      // n: vertices discovered this round
  Bitset seen_vars_;      // n: all non-separator vertices of the component
};

/// Sorted candidate-separator generation: edges intersecting `scope`,
/// ordered by |edge ∩ conn| descending, edge id ascending — the exact
/// order det-k-decomp's naive rescan + stable_sort produced. One
/// generator per search worker (owns the decorate-sort scratch).
class CandidateGenerator {
 public:
  explicit CandidateGenerator(const IncidenceIndex* index = nullptr) {
    if (index != nullptr) Attach(index);
  }

  /// Re-targets the generator (also sizes the internal scratch).
  void Attach(const IncidenceIndex* index);

  /// Fills `*out` (cleared first) with the sorted candidate edges.
  void SortedCandidates(const Bitset& conn, const Bitset& scope,
                        std::vector<int>* out);

 private:
  const IncidenceIndex* index_ = nullptr;
  Bitset touched_;  // m: edges intersecting scope
  std::vector<int> cand_ids_;  // touched edge ids, ascending
  std::vector<int> counts_;    // kernel-scored |edge ∩ conn| per candidate
  std::vector<std::pair<int, int>> decorated_;  // (connector count, edge)
};

/// Reference implementation of Split(): the original quadratic
/// fixed-point loop over materialized per-edge outside-vars. Kept as the
/// specification for the randomized equivalence tests.
std::vector<Bitset> NaiveComponents(const Hypergraph& h, const Bitset& comp,
                                    const Bitset& sep_vars);

/// Reference implementation of SortedCandidates(): full edge rescan with
/// connector counts precomputed once (not inside the sort comparator)
/// and a decorate-sort-undecorate. Kept as the specification for the
/// randomized equivalence tests.
std::vector<int> NaiveCandidates(const Hypergraph& h, const Bitset& conn,
                                 const Bitset& scope);

}  // namespace hypertree

#endif  // HYPERTREE_HYPERGRAPH_INCIDENCE_INDEX_H_
