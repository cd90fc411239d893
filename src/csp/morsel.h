// Morsel infrastructure for the larger-than-core engine: the morsel size,
// the per-query memory budget and the spill-file abstraction.
//
// Determinism contract (docs/SOLVING.md): every spill decision is a pure
// function of the input sizes and the configured budget — never of
// runtime residency, thread count, or schedule — and spilled data is
// identical whether it lives in RAM or on disk. Answers are therefore
// bit-identical for any --threads N, spill-on and spill-off.
//
// The engine feeds the metrics registry: relation.morsels.processed,
// relation.morsels.skipped (zone-map skips), relation.spill.partitions
// and relation.spill.bytes.

#ifndef HYPERTREE_CSP_MORSEL_H_
#define HYPERTREE_CSP_MORSEL_H_

#include <atomic>
#include <cstddef>
#include <string>

#include "util/metrics.h"

namespace hypertree {

/// Rows per morsel (one work item of the within-bag parallel loops).
/// Fixed — never derived from the thread count — so the morsel
/// decomposition, the per-morsel zone-map decisions and every counter
/// total are schedule-independent.
inline constexpr int kMorselRows = 4096;

/// Per-query memory budget in bytes (0 = unlimited). Two engine
/// decisions read it: a semijoin whose key bitmap would exceed it falls
/// back to a hash table, and one whose hash table would exceed it too
/// grace-partitions its build side (radix) on disk; a projection whose
/// packed keys would exceed half of it packs them chunk by chunk rather
/// than all at once in parallel. First use resolves
/// HYPERTREE_MEMORY_BUDGET ("268435456", "256m", "4g", ... — suffixes
/// k/m/g) unless a tool already called SetMemoryBudget (--memory-budget
/// beats the env var, like the kernel backend selection).
long long MemoryBudget();

/// Overrides the budget (bytes; 0 = unlimited). Thread-safe; intended
/// for tool startup and tests.
void SetMemoryBudget(long long bytes);

/// Parses a byte size with an optional k/m/g suffix (case-insensitive).
/// Returns false on malformed input or a negative size.
bool ParseByteSize(const std::string& s, long long* out);

/// Directory for spill files: HYPERTREE_SPILL_DIR, else TMPDIR, else
/// /tmp. The engine creates unlinked temp files there, so nothing
/// survives the process whatever the exit path.
std::string SpillDir();

// Engine counters (process-wide, see docs/BENCHMARKS.md).
metrics::Counter& MorselsProcessed();
metrics::Counter& MorselsSkipped();
metrics::Counter& SpillPartitions();
metrics::Counter& SpillBytes();

/// An unlinked temp file with positioned, thread-safe chunk IO: writers
/// reserve disjoint ranges with Allocate() and pwrite them concurrently;
/// readers pread by recorded offset. Interrupted calls (EINTR) are
/// retried; other IO failures are fatal (HT_CHECK) — a partial spill
/// could silently corrupt answers.
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Creates (and immediately unlinks) the temp file. Idempotent.
  void Open();
  bool IsOpen() const { return fd_ != -1; }

  /// Reserves `bytes` bytes of file range; returns its start offset.
  long long Allocate(long long bytes);

  void WriteAt(long long offset, const void* data, size_t bytes);
  void ReadAt(long long offset, void* data, size_t bytes) const;

 private:
  int fd_ = -1;
  std::atomic<long long> cursor_{0};
};

}  // namespace hypertree

#endif  // HYPERTREE_CSP_MORSEL_H_
