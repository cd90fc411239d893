#include "csp/morsel_engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <utility>

#include "csp/relation_internal.h"
#include "csp/tree_schedule.h"
#include "kernels/kernels.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace hypertree {

namespace {

// Dense-table span caps: above these the direct-indexed arrays stop
// paying for their footprint (join keeps two int32 arrays per key slot,
// semijoin one bit). Fixed constants so the dense/hash decision — and
// every downstream counter — is deterministic.
constexpr uint64_t kJoinDenseSpanMax = (uint64_t{1} << 20) - 1;
constexpr uint64_t kSemiDenseSpanMax = (uint64_t{1} << 22) - 1;
// Project goes dense when the whole packed-key universe is small
// (k * bits <= kProjectDenseKeyBits): the seen-bitmap is then at most
// 2^22 bits = 512 KiB and needs no key-range pre-pass.
constexpr int kProjectDenseKeyBits = 22;
constexpr int kMaxSpillPartitions = 256;

size_t NextPow2AtLeast(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

// Positions of the shared variables in each schema.
void SharedPositions(const std::vector<int>& a, const std::vector<int>& b,
                     std::vector<int>* pa, std::vector<int>* pb) {
  pa->clear();
  pb->clear();
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (a[i] == b[j]) {
        pa->push_back(static_cast<int>(i));
        pb->push_back(static_cast<int>(j));
      }
    }
  }
}

int PosOf(const std::vector<int>& schema, int var) {
  for (size_t i = 0; i < schema.size(); ++i) {
    if (schema[i] == var) return static_cast<int>(i);
  }
  return -1;
}

// Full-buffer value range (empty buffer: {0, 0} — the same neutral
// start the pre-engine JoinKeyTable range scan used). The contiguous
// scan vectorizes and at most over-estimates the needed bits.
struct ValueRange {
  int mn = 0;
  int mx = 0;
};

ValueRange ScanValues(const int* p, size_t n) {
  ValueRange v;
  for (size_t i = 0; i < n; ++i) {
    v.mn = std::min(v.mn, p[i]);
    v.mx = std::max(v.mx, p[i]);
  }
  return v;
}

// Bits per packed key element, or 0 when the pair does not pack
// (no shared variables, negative values, > 64 bits total).
int PlanBits(size_t k, ValueRange a, ValueRange b) {
  if (k == 0) return 0;
  if (a.mn < 0 || b.mn < 0) return 0;
  const uint64_t mx = static_cast<uint64_t>(std::max(a.mx, b.mx));
  int bits = 1;
  while ((mx >> bits) != 0) ++bits;
  return static_cast<int>(k) * bits <= 64 ? bits : 0;
}

// Packs every row of `r` (morsel-parallel; each morsel writes a
// disjoint key range and its own min/max slot, combined in morsel
// order, so the result is schedule-independent).
void PackRelationKeys(const Relation& r, const std::vector<int>& pos,
                      int bits, ThreadPool* pool, std::vector<uint64_t>* keys,
                      uint64_t* out_min, uint64_t* out_max) {
  const int rows = r.Size();
  keys->resize(static_cast<size_t>(rows));
  const int k = static_cast<int>(pos.size());
  const int arity = r.Arity();
  const int nm = (rows + kMorselRows - 1) / kMorselRows;
  std::vector<uint64_t> mns(static_cast<size_t>(nm), ~uint64_t{0});
  std::vector<uint64_t> mxs(static_cast<size_t>(nm), 0);
  const kernels::Ops& ops = kernels::Active();
  const int* base = r.data().data();
  uint64_t* kb = keys->data();
  ParallelFor(nm, pool, [&](int m) {
    const int lo = m * kMorselRows;
    const int hi = std::min(lo + kMorselRows, rows);
    ops.PackKeys(kb + lo, base + static_cast<size_t>(lo) * arity, arity,
                 pos.data(), k, bits, hi - lo, &mns[m], &mxs[m]);
  });
  uint64_t mn = ~uint64_t{0};
  uint64_t mx = 0;
  for (int m = 0; m < nm; ++m) {
    mn = std::min(mn, mns[m]);
    mx = std::max(mx, mxs[m]);
  }
  *out_min = mn;
  *out_max = mx;
}

// Per-morsel probe scratch (local to one ParallelFor iteration).
struct ChunkBufs {
  std::vector<uint64_t> keys;
  std::vector<int32_t> vals;
};

// ---------------------------------------------------------------------------
// Join: build table over the build side's packed keys — dense
// (direct-indexed head/count arrays over the key span) or hash (open
// addressing over distinct keys, ProbeKeys kernel) — with ascending
// per-key row chains via reverse insertion, exactly the pre-engine
// output-order contract (probe row order, build ties ascending).
// ---------------------------------------------------------------------------

struct JoinTable {
  int k = 0;
  int bits = 0;
  uint64_t bmin = ~uint64_t{0};
  uint64_t bmax = 0;
  bool dense = false;
  std::vector<int32_t> next;  // ascending per-key chains
  std::vector<int32_t> dense_head;
  std::vector<int32_t> dense_cnt;
  std::vector<uint64_t> slot_keys;
  std::vector<int32_t> slot_vals;  // distinct-key ordinal, -1 empty
  std::vector<int32_t> first;      // first row per distinct key
  std::vector<int32_t> cnt;        // rows per distinct key
  uint64_t mask = 0;
};

JoinTable BuildJoinTable(const Relation& b, const std::vector<int>& pb,
                         int bits, ThreadPool* pool) {
  JoinTable t;
  t.k = static_cast<int>(pb.size());
  t.bits = bits;
  const int rows = b.Size();
  std::vector<uint64_t> keys;
  PackRelationKeys(b, pb, bits, pool, &keys, &t.bmin, &t.bmax);
  const uint64_t span = t.bmax - t.bmin;
  t.next.assign(static_cast<size_t>(rows), -1);
  t.dense = span <= kJoinDenseSpanMax;
  if (t.dense) {
    t.dense_head.assign(static_cast<size_t>(span) + 1, -1);
    t.dense_cnt.assign(static_cast<size_t>(span) + 1, 0);
    for (int r = rows - 1; r >= 0; --r) {
      const size_t idx = static_cast<size_t>(keys[r] - t.bmin);
      t.next[r] = t.dense_head[idx];
      t.dense_head[idx] = r;
      ++t.dense_cnt[idx];
    }
  } else {
    const size_t cap = NextPow2AtLeast(static_cast<size_t>(rows) * 2);
    t.mask = cap - 1;
    t.slot_keys.assign(cap, 0);
    t.slot_vals.assign(cap, -1);
    for (int r = rows - 1; r >= 0; --r) {
      const uint64_t key = keys[r];
      size_t slot = kernels::SplitMix64(key) & t.mask;
      while (t.slot_vals[slot] != -1 && t.slot_keys[slot] != key) {
        slot = (slot + 1) & t.mask;
      }
      if (t.slot_vals[slot] == -1) {
        t.slot_vals[slot] = static_cast<int32_t>(t.first.size());
        t.slot_keys[slot] = key;
        t.first.push_back(r);
        t.cnt.push_back(1);
      } else {
        const int32_t ord = t.slot_vals[slot];
        t.next[r] = t.first[ord];
        t.first[ord] = r;
        ++t.cnt[ord];
      }
    }
  }
  BytesAllocated().Add(static_cast<long>(
      (t.next.capacity() + t.dense_head.capacity() + t.dense_cnt.capacity() +
       t.slot_vals.capacity() + t.first.capacity() + t.cnt.capacity()) *
          sizeof(int32_t) +
      t.slot_keys.capacity() * sizeof(uint64_t)));
  return t;
}

// Exact-size count for one probe chunk. Zone map: a morsel whose packed
// key range misses [bmin, bmax] entirely is skipped without probing.
long CountJoinChunk(const int* data, int rows, int arity, const int* pa,
                    const JoinTable& t, ChunkBufs* bufs) {
  if (rows == 0) return 0;
  bufs->keys.resize(static_cast<size_t>(rows));
  uint64_t mn = 0;
  uint64_t mx = 0;
  const kernels::Ops& ops = kernels::Active();
  ops.PackKeys(bufs->keys.data(), data, static_cast<size_t>(arity), pa, t.k,
               t.bits, rows, &mn, &mx);
  if (mn > t.bmax || mx < t.bmin) {
    MorselsSkipped().Increment();
    return 0;
  }
  MorselsProcessed().Increment();
  long total = 0;
  if (t.dense) {
    for (int r = 0; r < rows; ++r) {
      const uint64_t key = bufs->keys[r];
      if (key < t.bmin || key > t.bmax) continue;
      total += t.dense_cnt[static_cast<size_t>(key - t.bmin)];
    }
  } else {
    bufs->vals.resize(static_cast<size_t>(rows));
    // Count-pass collisions are not charged to relation.probe_collisions
    // (mirrors the pre-engine exact-size pre-pass, which counted probes
    // only when emitting).
    ops.ProbeKeys(bufs->vals.data(), bufs->keys.data(), rows,
                  t.slot_keys.data(), t.slot_vals.data(), t.mask);
    for (int r = 0; r < rows; ++r) {
      const int32_t v = bufs->vals[r];
      if (v >= 0) total += t.cnt[v];
    }
  }
  return total;
}

// Emits one probe chunk's join rows at `out` (row-major, out_arity
// columns). Returns the probe-collision count; *out_emitted gets the
// emitted row count (must equal the chunk's count pre-pass).
long EmitJoinChunk(const int* data, int rows, int arity, const int* pa,
                   const JoinTable& t, const Relation& b,
                   const std::vector<int>& extra, int* out,
                   long* out_emitted, ChunkBufs* bufs) {
  bufs->keys.resize(static_cast<size_t>(rows));
  uint64_t mn = 0;
  uint64_t mx = 0;
  const kernels::Ops& ops = kernels::Active();
  ops.PackKeys(bufs->keys.data(), data, static_cast<size_t>(arity), pa, t.k,
               t.bits, rows, &mn, &mx);
  const size_t nextra = extra.size();
  const size_t out_arity = static_cast<size_t>(arity) + nextra;
  long emitted = 0;
  long collisions = 0;
  auto emit_chain = [&](const int* row, int u) {
    for (; u != -1; u = t.next[u]) {
      std::memcpy(out, row, static_cast<size_t>(arity) * sizeof(int));
      const int* urow = b.Row(u);
      for (size_t j = 0; j < nextra; ++j) out[arity + j] = urow[extra[j]];
      out += out_arity;
      ++emitted;
    }
  };
  if (t.dense) {
    for (int r = 0; r < rows; ++r) {
      const uint64_t key = bufs->keys[r];
      if (key < t.bmin || key > t.bmax) continue;
      emit_chain(data + static_cast<size_t>(r) * arity,
                 t.dense_head[static_cast<size_t>(key - t.bmin)]);
    }
  } else {
    bufs->vals.resize(static_cast<size_t>(rows));
    collisions =
        ops.ProbeKeys(bufs->vals.data(), bufs->keys.data(), rows,
                      t.slot_keys.data(), t.slot_vals.data(), t.mask);
    for (int r = 0; r < rows; ++r) {
      const int32_t v = bufs->vals[r];
      if (v < 0) continue;
      emit_chain(data + static_cast<size_t>(r) * arity, t.first[v]);
    }
  }
  *out_emitted = emitted;
  return collisions;
}

Relation JoinImpl(const Relation& a, const Relation& b, ThreadPool* pool) {
  const std::vector<int>& sa = a.schema();
  std::vector<int> pa;
  std::vector<int> pb;
  SharedPositions(sa, b.schema(), &pa, &pb);
  std::vector<int> out_schema = sa;
  std::vector<int> extra;
  for (size_t j = 0; j < b.schema().size(); ++j) {
    if (PosOf(sa, b.schema()[j]) == -1) {
      out_schema.push_back(b.schema()[j]);
      extra.push_back(static_cast<int>(j));
    }
  }
  if (a.Empty() || b.Empty()) return Relation(std::move(out_schema));
  const int bits = PlanBits(pa.size(),
                            ScanValues(a.data().data(), a.data().size()),
                            ScanValues(b.data().data(), b.data().size()));
  if (bits == 0) {
    // Generic fallback: the pre-engine row-hash join.
    return RelationInternal::JoinGeneric(a, b);
  }

  const JoinTable t = BuildJoinTable(b, pb, bits, pool);
  const int rows_a = a.Size();
  const int nchunks = (rows_a + kMorselRows - 1) / kMorselRows;
  const int arity = a.Arity();
  auto chunk = [&a](int i) { return a.Row(i * kMorselRows); };
  auto chunk_rows = [rows_a](int i) {
    return std::min(kMorselRows, rows_a - i * kMorselRows);
  };
  std::vector<long> counts(static_cast<size_t>(nchunks), 0);
  ParallelFor(nchunks, pool, [&](int i) {
    ChunkBufs bufs;
    counts[i] = CountJoinChunk(chunk(i), chunk_rows(i), arity, pa.data(), t,
                               &bufs);
  });
  std::vector<long> offs(static_cast<size_t>(nchunks) + 1, 0);
  for (int i = 0; i < nchunks; ++i) offs[i + 1] = offs[i] + counts[i];
  const long total = offs[nchunks];
  const size_t out_arity = out_schema.size();
  std::atomic<long> collisions{0};

  Relation out(out_schema);
  std::vector<int>& data = RelationInternal::Data(out);
  HT_CHECK_LE(total, static_cast<long>(INT32_MAX))
      << "join output exceeds the row-count limit";
  data.resize(static_cast<size_t>(total) * out_arity);
  RelationInternal::Rows(out) = static_cast<int>(total);
  ParallelFor(nchunks, pool, [&](int i) {
    if (counts[i] == 0) return;
    ChunkBufs bufs;
    long emitted = 0;
    const long c = EmitJoinChunk(
        chunk(i), chunk_rows(i), arity, pa.data(), t, b, extra,
        data.data() + static_cast<size_t>(offs[i]) * out_arity, &emitted,
        &bufs);
    collisions.fetch_add(c, std::memory_order_relaxed);
    HT_CHECK_EQ(emitted, counts[i])
        << "join emitted a different row count than its exact-size pre-pass";
  });
  RowsJoined().Add(total);
  BytesAllocated().Add(static_cast<long>(data.capacity() * sizeof(int)));
  const long coll = collisions.load(std::memory_order_relaxed);
  if (coll > 0) ProbeCollisions().Add(coll);
  RelationInternal::CheckRep(out);
  return out;
}

// ---------------------------------------------------------------------------
// Semijoin.
// ---------------------------------------------------------------------------

// Grace (radix) partitioned build side: partitions the build keys to a
// spill file by the top hash bits, then builds one small key set per
// partition and probes every left morsel against it. keep[] bits are
// only ever set, so the union over partitions is order-independent.
void PartitionedSemijoin(const Relation& left, const std::vector<int>& pa,
                         int bits, const std::vector<uint64_t>& rkeys,
                         uint64_t bmin, uint64_t bmax, long long budget,
                         ThreadPool* pool, std::vector<uint8_t>* keep,
                         std::atomic<long>* collisions) {
  const size_t full_cap = NextPow2AtLeast(rkeys.size() * 2);
  const long long table_bytes = static_cast<long long>(full_cap) * 12;
  int parts = 2;
  while (parts < kMaxSpillPartitions &&
         table_bytes / parts > std::max<long long>(budget / 2, 1)) {
    parts <<= 1;
  }
  int log2p = 0;
  while ((1 << log2p) < parts) ++log2p;
  const int shift = 64 - log2p;

  SpillFile file;
  file.Open();
  constexpr size_t kStageKeys = 1024;
  std::vector<std::vector<uint64_t>> stage(static_cast<size_t>(parts));
  std::vector<std::vector<std::pair<long long, int>>> extents(
      static_cast<size_t>(parts));
  auto flush = [&](int p) {
    std::vector<uint64_t>& s = stage[p];
    if (s.empty()) return;
    const long long bytes =
        static_cast<long long>(s.size()) * sizeof(uint64_t);
    const long long off = file.Allocate(bytes);
    file.WriteAt(off, s.data(), static_cast<size_t>(bytes));
    extents[p].emplace_back(off, static_cast<int>(s.size()));
    s.clear();
  };
  for (const uint64_t key : rkeys) {
    const int p = static_cast<int>(kernels::SplitMix64(key) >> shift);
    stage[p].push_back(key);
    if (stage[p].size() >= kStageKeys) flush(p);
  }
  for (int p = 0; p < parts; ++p) flush(p);
  SpillPartitions().Add(parts);
  SpillBytes().Add(static_cast<long>(rkeys.size() * sizeof(uint64_t)));

  const int rows_l = left.Size();
  const int arity = left.Arity();
  const int nm = (rows_l + kMorselRows - 1) / kMorselRows;
  const int* base = left.data().data();
  const kernels::Ops& ops = kernels::Active();
  std::vector<uint64_t> pkeys;
  for (int p = 0; p < parts; ++p) {
    long nkeys = 0;
    for (const auto& e : extents[p]) nkeys += e.second;
    if (nkeys == 0) continue;
    pkeys.resize(static_cast<size_t>(nkeys));
    long at = 0;
    for (const auto& e : extents[p]) {
      file.ReadAt(e.first, pkeys.data() + at,
                  static_cast<size_t>(e.second) * sizeof(uint64_t));
      at += e.second;
    }
    // Per-partition key set (duplicates skipped).
    const size_t cap = NextPow2AtLeast(static_cast<size_t>(nkeys) * 2);
    const uint64_t mask = cap - 1;
    std::vector<uint64_t> slot_keys(cap, 0);
    std::vector<int32_t> slot_vals(cap, -1);
    for (const uint64_t key : pkeys) {
      size_t slot = kernels::SplitMix64(key) & mask;
      while (slot_vals[slot] != -1 && slot_keys[slot] != key) {
        slot = (slot + 1) & mask;
      }
      if (slot_vals[slot] == -1) {
        slot_vals[slot] = 1;
        slot_keys[slot] = key;
      }
    }
    uint8_t* keepp = keep->data();
    ParallelFor(nm, pool, [&](int m) {
      const int lo = m * kMorselRows;
      const int hi = std::min(lo + kMorselRows, rows_l);
      ChunkBufs bufs;
      bufs.keys.resize(static_cast<size_t>(hi - lo));
      uint64_t mn = 0;
      uint64_t mx = 0;
      ops.PackKeys(bufs.keys.data(), base + static_cast<size_t>(lo) * arity,
                   static_cast<size_t>(arity), pa.data(),
                   static_cast<int>(pa.size()), bits, hi - lo, &mn, &mx);
      if (mn > bmax || mx < bmin) {
        MorselsSkipped().Increment();
        return;
      }
      MorselsProcessed().Increment();
      bufs.vals.resize(static_cast<size_t>(hi - lo));
      const long c =
          ops.ProbeKeys(bufs.vals.data(), bufs.keys.data(), hi - lo,
                        slot_keys.data(), slot_vals.data(), mask);
      collisions->fetch_add(c, std::memory_order_relaxed);
      for (int r = lo; r < hi; ++r) {
        if (bufs.vals[r - lo] >= 0) keepp[r] = 1;
      }
    });
  }
}

void PackedSemijoin(Relation* left, const Relation& right,
                    const std::vector<int>& pa, const std::vector<int>& pb,
                    int bits, ThreadPool* pool) {
  RelationInternal::DropIndex(*left);
  const int rows_l = left->Size();
  const int arity = left->Arity();
  std::vector<uint64_t> rkeys;
  uint64_t bmin = ~uint64_t{0};
  uint64_t bmax = 0;
  PackRelationKeys(right, pb, bits, pool, &rkeys, &bmin, &bmax);
  const uint64_t span = bmax - bmin;
  const long long budget = MemoryBudget();
  const long long dense_bytes =
      static_cast<long long>(span / 64 + 1) * sizeof(uint64_t);
  const bool dense =
      span <= kSemiDenseSpanMax && (budget == 0 || dense_bytes <= budget);
  std::vector<uint8_t> keep(static_cast<size_t>(rows_l), 0);
  std::atomic<long> collisions{0};
  const kernels::Ops& ops = kernels::Active();
  const int* base = left->data().data();
  const int nm = (rows_l + kMorselRows - 1) / kMorselRows;

  if (dense) {
    std::vector<uint64_t> bitmap(static_cast<size_t>(span / 64 + 1), 0);
    for (const uint64_t key : rkeys) {
      const uint64_t idx = key - bmin;
      bitmap[idx >> 6] |= uint64_t{1} << (idx & 63);
    }
    BytesAllocated().Add(
        static_cast<long>(bitmap.capacity() * sizeof(uint64_t)));
    uint8_t* keepp = keep.data();
    ParallelFor(nm, pool, [&](int m) {
      const int lo = m * kMorselRows;
      const int hi = std::min(lo + kMorselRows, rows_l);
      ChunkBufs bufs;
      bufs.keys.resize(static_cast<size_t>(hi - lo));
      uint64_t mn = 0;
      uint64_t mx = 0;
      ops.PackKeys(bufs.keys.data(), base + static_cast<size_t>(lo) * arity,
                   static_cast<size_t>(arity), pa.data(),
                   static_cast<int>(pa.size()), bits, hi - lo, &mn, &mx);
      if (mn > bmax || mx < bmin) {
        MorselsSkipped().Increment();
        return;
      }
      MorselsProcessed().Increment();
      for (int r = lo; r < hi; ++r) {
        const uint64_t key = bufs.keys[r - lo];
        if (key < bmin || key > bmax) continue;
        const uint64_t idx = key - bmin;
        if ((bitmap[idx >> 6] >> (idx & 63)) & 1) keepp[r] = 1;
      }
    });
  } else {
    const size_t cap = NextPow2AtLeast(rkeys.size() * 2);
    const long long hash_bytes = static_cast<long long>(cap) * 12;
    if (budget > 0 && hash_bytes > budget) {
      PartitionedSemijoin(*left, pa, bits, rkeys, bmin, bmax, budget, pool,
                          &keep, &collisions);
    } else {
      const uint64_t mask = cap - 1;
      std::vector<uint64_t> slot_keys(cap, 0);
      std::vector<int32_t> slot_vals(cap, -1);
      for (const uint64_t key : rkeys) {
        size_t slot = kernels::SplitMix64(key) & mask;
        while (slot_vals[slot] != -1 && slot_keys[slot] != key) {
          slot = (slot + 1) & mask;
        }
        if (slot_vals[slot] == -1) {
          slot_vals[slot] = 1;
          slot_keys[slot] = key;
        }
      }
      BytesAllocated().Add(static_cast<long>(
          slot_keys.capacity() * sizeof(uint64_t) +
          slot_vals.capacity() * sizeof(int32_t)));
      uint8_t* keepp = keep.data();
      ParallelFor(nm, pool, [&](int m) {
        const int lo = m * kMorselRows;
        const int hi = std::min(lo + kMorselRows, rows_l);
        ChunkBufs bufs;
        bufs.keys.resize(static_cast<size_t>(hi - lo));
        uint64_t mn = 0;
        uint64_t mx = 0;
        ops.PackKeys(bufs.keys.data(),
                     base + static_cast<size_t>(lo) * arity,
                     static_cast<size_t>(arity), pa.data(),
                     static_cast<int>(pa.size()), bits, hi - lo, &mn, &mx);
        if (mn > bmax || mx < bmin) {
          MorselsSkipped().Increment();
          return;
        }
        MorselsProcessed().Increment();
        bufs.vals.resize(static_cast<size_t>(hi - lo));
        const long c =
            ops.ProbeKeys(bufs.vals.data(), bufs.keys.data(), hi - lo,
                          slot_keys.data(), slot_vals.data(), mask);
        collisions.fetch_add(c, std::memory_order_relaxed);
        for (int r = lo; r < hi; ++r) {
          if (bufs.vals[r - lo] >= 0) keepp[r] = 1;
        }
      });
    }
  }

  // In-order swap compaction (row order preserved), as before.
  std::vector<int>& data = RelationInternal::Data(*left);
  int write = 0;
  for (int t = 0; t < rows_l; ++t) {
    if (keep[t] == 0) continue;
    if (write != t) {
      std::memmove(data.data() + static_cast<size_t>(write) * arity,
                   data.data() + static_cast<size_t>(t) * arity,
                   static_cast<size_t>(arity) * sizeof(int));
    }
    ++write;
  }
  RowsSemijoinDropped().Add(rows_l - write);
  HT_CHECK_LE(write, rows_l)
      << "semijoin compaction produced more survivors than input rows";
  RelationInternal::Rows(*left) = write;
  data.resize(static_cast<size_t>(write) * arity);
  const long coll = collisions.load(std::memory_order_relaxed);
  if (coll > 0) ProbeCollisions().Add(coll);
  RelationInternal::CheckRep(*left);
}

// ---------------------------------------------------------------------------
// Project.
// ---------------------------------------------------------------------------

Relation ProjectImpl(const Relation& a, const std::vector<int>& vars,
                     ThreadPool* pool) {
  const std::vector<int>& sa = a.schema();
  std::vector<int> positions;
  positions.reserve(vars.size());
  for (int v : vars) {
    const int idx = PosOf(sa, v);
    HT_CHECK_MSG(idx >= 0, "projection variable not in schema");
    positions.push_back(idx);
  }
  const int k = static_cast<int>(positions.size());
  const long rows = a.Size();
  if (rows == 0) return Relation(vars);
  const int bits =
      PlanBits(positions.size(), ScanValues(a.data().data(), a.data().size()),
               ValueRange{});
  if (bits == 0) return RelationInternal::ProjectGeneric(a, vars);

  Relation out(vars);
  std::vector<int>& out_data = RelationInternal::Data(out);
  int& out_rows = RelationInternal::Rows(out);
  const bool dense = k * bits <= kProjectDenseKeyBits;
  const uint64_t vmask =
      bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;

  // Dedup state: seen-bitmap over the whole packed-key universe (dense)
  // or an open-addressed key set (hash). Output values are decoded from
  // the packed key by shifts — no gathered compares, no second read of
  // the input row.
  std::vector<uint64_t> bitmap;
  std::vector<uint64_t> slot_keys;
  std::vector<int32_t> slot_vals;
  uint64_t mask = 0;
  long reserve_rows = rows;
  if (dense) {
    const size_t universe = size_t{1} << (k * bits);
    bitmap.assign((universe + 63) / 64, 0);
    reserve_rows = std::min<long>(rows, static_cast<long>(universe));
  } else {
    const size_t cap = NextPow2AtLeast(static_cast<size_t>(
        std::min<long>(rows, static_cast<long>(INT32_MAX) / 2)) * 2);
    mask = cap - 1;
    slot_keys.assign(cap, 0);
    slot_vals.assign(cap, -1);
  }
  out_data.reserve(static_cast<size_t>(reserve_rows) * k);

  const int nchunks = static_cast<int>((rows + kMorselRows - 1) / kMorselRows);
  const int arity = a.Arity();
  auto chunk = [&a](int i) { return a.Row(i * kMorselRows); };
  auto chunk_rows = [rows](int i) {
    return static_cast<int>(std::min<long>(kMorselRows, rows - i * kMorselRows));
  };
  const kernels::Ops& ops = kernels::Active();
  const long long budget = MemoryBudget();
  // Pre-packing every chunk in parallel keeps the pool busy but holds
  // 8 bytes per input row; stream chunk-by-chunk when the budget (or a
  // missing pool) says no. Both modes insert in global row order, so
  // outputs and counters are identical.
  const long long keys_bytes =
      static_cast<long long>(rows) * static_cast<long long>(sizeof(uint64_t));
  const bool prepack = pool != nullptr && pool->NumThreads() > 1 &&
                       (budget == 0 || keys_bytes <= budget / 2);

  std::vector<std::vector<uint64_t>> chunk_keys;
  if (prepack) {
    chunk_keys.resize(static_cast<size_t>(nchunks));
    ParallelFor(nchunks, pool, [&](int i) {
      const int n = chunk_rows(i);
      chunk_keys[i].resize(static_cast<size_t>(n));
      uint64_t mn = 0;
      uint64_t mx = 0;
      ops.PackKeys(chunk_keys[i].data(), chunk(i),
                   static_cast<size_t>(arity), positions.data(), k, bits, n,
                   &mn, &mx);
    });
  }

  long collisions = 0;
  std::vector<uint64_t> keybuf;
  std::vector<int> decoded(static_cast<size_t>(k));
  for (int i = 0; i < nchunks; ++i) {
    const int n = chunk_rows(i);
    const uint64_t* keys;
    if (prepack) {
      keys = chunk_keys[i].data();
    } else {
      keybuf.resize(static_cast<size_t>(n));
      uint64_t mn = 0;
      uint64_t mx = 0;
      ops.PackKeys(keybuf.data(), chunk(i),
                   static_cast<size_t>(arity), positions.data(), k, bits, n,
                   &mn, &mx);
      keys = keybuf.data();
    }
    MorselsProcessed().Increment();
    for (int r = 0; r < n; ++r) {
      const uint64_t key = keys[r];
      bool fresh;
      if (dense) {
        uint64_t& word = bitmap[key >> 6];
        const uint64_t bit = uint64_t{1} << (key & 63);
        fresh = (word & bit) == 0;
        word |= bit;
      } else {
        size_t slot = kernels::SplitMix64(key) & mask;
        while (slot_vals[slot] != -1 && slot_keys[slot] != key) {
          ++collisions;
          slot = (slot + 1) & mask;
        }
        fresh = slot_vals[slot] == -1;
        if (fresh) {
          slot_vals[slot] = 1;
          slot_keys[slot] = key;
        }
      }
      if (!fresh) continue;
      for (int c = 0; c < k; ++c) {
        decoded[c] =
            static_cast<int>((key >> ((k - 1 - c) * bits)) & vmask);
      }
      out_data.insert(out_data.end(), decoded.begin(), decoded.end());
      ++out_rows;
    }
    if (prepack) {
      chunk_keys[i].clear();
      chunk_keys[i].shrink_to_fit();
    }
  }
  if (collisions > 0) ProbeCollisions().Add(collisions);
  BytesAllocated().Add(static_cast<long>(
      (out_data.capacity() + slot_vals.capacity()) * sizeof(int) +
      (bitmap.capacity() + slot_keys.capacity()) * sizeof(uint64_t)));
  HT_CHECK_LE(static_cast<long>(out_rows), rows)
      << "projection emitted more distinct rows than its input has";
  RelationInternal::CheckRep(out);
  return out;
}

}  // namespace

Relation EngineJoin(const Relation& a, const Relation& b, ThreadPool* pool) {
  return JoinImpl(a, b, pool);
}

void EngineSemijoinInPlace(Relation* left, const Relation& right,
                           ThreadPool* pool) {
  HT_CHECK(left != &right) << "SemijoinInPlace must not alias its argument";
  std::vector<int> pa;
  std::vector<int> pb;
  SharedPositions(left->schema(), right.schema(), &pa, &pb);
  if (!pa.empty() && left->Size() > 0 && right.Size() > 0) {
    const int bits = PlanBits(
        pa.size(),
        ScanValues(left->data().data(), left->data().size()),
        ScanValues(right.data().data(), right.data().size()));
    if (bits > 0) {
      PackedSemijoin(left, right, pa, pb, bits, pool);
      return;
    }
  }
  // Generic fallback (also the empty / no-shared-variable edge cases,
  // which it already handles with the documented counter semantics).
  RelationInternal::SemijoinGeneric(*left, right);
}

Relation EngineProject(const Relation& r, const std::vector<int>& vars,
                       ThreadPool* pool) {
  return ProjectImpl(r, vars, pool);
}

}  // namespace hypertree
