// The morsel-driven relational engine behind Relation's join / semijoin /
// project operators and the solver layers' pool-aware entry points.
//
// Execution model: the probe side of every operator is cut into fixed
// kMorselRows-row morsels (chunks); each morsel packs its key columns
// into single words through the kernel dispatch table (kernels::Ops
// PackKeys), carries min/max packed-key zone-map metadata, and is
// processed as one work item on the caller's ThreadPool (ParallelFor —
// nestable, so within-bag parallelism composes with the across-bag tree
// schedules). Output concatenation is morsel-index-ordered, so results
// are bit-identical for any thread count.
//
// Key-table modes, chosen per operator from the data:
//   dense   packed-key span small: direct-indexed arrays (bitmap /
//           head+count), no hashing at all — the dominant CSP-bag shape.
//   hash    open-addressed table over distinct packed keys, probed via
//           kernels::Ops ProbeKeys (SIMD splitmix64).
//   generic the pre-engine row-hash path (relation.cc), for keys that
//           do not pack (negative values, > 64 bits total).
//
// Larger-than-core: when a semijoin build table exceeds the per-query
// MemoryBudget(), the build side grace-partitions (radix on the
// packed-key hash) to disk, each partition processed independently.
// Spill decisions are pure functions of exact sizes, so answers stay
// bit-identical spill-on and spill-off (docs/SOLVING.md). Bags are
// materialised at their output size (csp/bag_materialiser.h), so no
// join intermediate needs to spill.

#ifndef HYPERTREE_CSP_MORSEL_ENGINE_H_
#define HYPERTREE_CSP_MORSEL_ENGINE_H_

#include <vector>

#include "csp/morsel.h"
#include "csp/relation.h"

namespace hypertree {

class ThreadPool;

/// Natural join (probe side a, build side b); same contract as
/// Relation::Join plus morsel parallelism over `pool` (nullptr: the
/// calling thread processes every morsel).
Relation EngineJoin(const Relation& a, const Relation& b, ThreadPool* pool);

/// In-place semijoin; same contract as Relation::SemijoinInPlace plus
/// morsel parallelism and the grace-partitioned spill path when the
/// build table exceeds MemoryBudget().
void EngineSemijoinInPlace(Relation* left, const Relation& right,
                           ThreadPool* pool);

/// Projection with dedup; same contract as Relation::Project plus
/// morsel-parallel key packing.
Relation EngineProject(const Relation& r, const std::vector<int>& vars,
                       ThreadPool* pool);

}  // namespace hypertree

#endif  // HYPERTREE_CSP_MORSEL_ENGINE_H_
