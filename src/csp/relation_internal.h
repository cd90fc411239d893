// Raw-buffer access seam between Relation and the morsel engine
// (morsel_engine.cc): the engine emits join/project output directly into
// the flat buffer and compacts semijoin survivors in place, which needs
// the private representation. It also owns the relation.* counter
// accessors both sides bump. Nothing outside src/csp/ may include this.

#ifndef HYPERTREE_CSP_RELATION_INTERNAL_H_
#define HYPERTREE_CSP_RELATION_INTERNAL_H_

#include <vector>

#include "csp/relation.h"
#include "util/metrics.h"

namespace hypertree {

// The relation.* hot-path counters (docs/BENCHMARKS.md), resolved once
// and shared by the Relation operators and the morsel engine.
inline metrics::Counter& RowsJoined() {
  static metrics::Counter& c = metrics::GetCounter("relation.rows_joined");
  return c;
}
inline metrics::Counter& RowsSemijoinDropped() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.rows_semijoin_dropped");
  return c;
}
inline metrics::Counter& ProbeCollisions() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.probe_collisions");
  return c;
}
inline metrics::Counter& BytesAllocated() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.bytes_allocated");
  return c;
}

struct RelationInternal {
  static std::vector<int>& Data(Relation& r) { return r.data_; }
  static const std::vector<int>& Data(const Relation& r) { return r.data_; }
  static int& Rows(Relation& r) { return r.rows_; }
  static void DropIndex(Relation& r) { r.DropIndex(); }
  static void CheckRep(const Relation& r) { r.DCheckRep(); }
  /// The pre-engine generic operator bodies (row-hash JoinKeyTable path);
  /// the engine delegates here when keys do not pack into single words.
  static Relation JoinGeneric(const Relation& a, const Relation& b) {
    return a.JoinGeneric(b);
  }
  static void SemijoinGeneric(Relation& left, const Relation& right) {
    left.SemijoinInPlaceGeneric(right);
  }
  static Relation ProjectGeneric(const Relation& r,
                                 const std::vector<int>& vars) {
    return r.ProjectGeneric(vars);
  }
};

}  // namespace hypertree

#endif  // HYPERTREE_CSP_RELATION_INTERNAL_H_
