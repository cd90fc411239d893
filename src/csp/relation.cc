#include "csp/relation.h"

#include <cstring>
#include <utility>

#include "csp/morsel_engine.h"
#include "csp/relation_internal.h"
#include "util/check.h"

namespace hypertree {

namespace {

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

bool KeysEqual(const int* ra, const int* pa, const int* rb, const int* pb,
               int k) {
  for (int i = 0; i < k; ++i) {
    if (ra[pa[i]] != rb[pb[i]]) return false;
  }
  return true;
}

// A two-level hash table over the rows of a build-side relation, keyed by
// `pos` positions hashed in place: open addressing over *distinct* keys
// (slots hold the first row of a key), with all further rows of the same
// key chained through next_row_. Keeping duplicate keys off the probe
// path matters — decomposition bags routinely hold millions of rows over
// a few thousand connector keys, and a per-row chain would make every
// non-matching probe walk the whole multiplicity class. Rows are inserted
// in reverse so each key's chain lists rows in ascending order
// (deterministic output order).
struct JoinKeyTable {
  // `keys_only` builds a pure key-membership set (semijoins): duplicate
  // keys are skipped and no chains or per-key counts are kept.
  JoinKeyTable(const Relation& rel, const std::vector<int>& pos,
               bool keys_only = false)
      : rel_(rel), pos_(pos) {
    const int rows = rel.Size();
    const int k = static_cast<int>(pos_.size());
    size_t cap = NextPow2AtLeast(static_cast<size_t>(rows) * 2);
    // Load-factor contract: open addressing stays O(1) only while at most
    // half the slots are occupied, and the probe loops terminate only
    // while at least one slot is empty.
    HT_CHECK_GE(cap, static_cast<size_t>(rows) * 2)
        << "JoinKeyTable capacity violates the 0.5 load-factor bound";
    mask_ = cap - 1;
    slot_row_.assign(cap, -1);
    if (!keys_only) {
      next_row_.assign(rows, -1);
      count_.assign(cap, 0);
    }
    // Packed mode: when every key value fits in 64/k bits (small CSP
    // domains over wide connectors — the dominant case), each key packs
    // into one word. Hashing is then a single splitmix round and key
    // equality one integer compare, instead of k gathered loads each.
    // The range check scans the whole flat buffer rather than gathering
    // the key columns: it is contiguous (vectorizable) and at most
    // over-estimates the needed bits.
    uint64_t max_val = 0;
    bool packable = k > 0 && k <= 64 && rows > 0;
    if (packable) {
      const int* p = rel.Row(0);
      const int* end = p + static_cast<size_t>(rows) * rel.Arity();
      int min_val = 0, max_seen = 0;
      for (; p != end; ++p) {
        min_val = std::min(min_val, *p);
        max_seen = std::max(max_seen, *p);
      }
      packable = min_val >= 0;
      max_val = static_cast<uint64_t>(max_seen);
    }
    if (packable) {
      bits_ = 1;
      while ((max_val >> bits_) != 0) ++bits_;
      if (k * bits_ > 64) bits_ = 0;  // does not fit: generic mode
    }
    if (bits_ > 0) {
      slot_key_.assign(cap, 0);
      // Reverse insertion prepends, so each key's chain lists rows in
      // ascending order (keys_only iterates forward; order is moot).
      for (int r = keys_only ? 0 : rows - 1;
           keys_only ? r < rows : r >= 0; keys_only ? ++r : --r) {
        const int* row = rel.Row(r);
        uint64_t key = 0;
        for (int i = 0; i < k; ++i) {
          key = (key << bits_) | static_cast<uint64_t>(row[pos_[i]]);
        }
        size_t slot = SplitMix64(key) & mask_;
        while (slot_row_[slot] != -1 && slot_key_[slot] != key) {
          slot = (slot + 1) & mask_;
        }
        if (keys_only) {
          if (slot_row_[slot] == -1) {
            slot_row_[slot] = r;
            slot_key_[slot] = key;
          }
        } else {
          next_row_[r] = slot_row_[slot];  // -1 for a fresh key
          slot_row_[slot] = r;
          slot_key_[slot] = key;
          ++count_[slot];
        }
      }
    } else {
      for (int r = keys_only ? 0 : rows - 1;
           keys_only ? r < rows : r >= 0; keys_only ? ++r : --r) {
        const int* row = rel.Row(r);
        size_t slot = HashRowKey(row, pos_.data(), k) & mask_;
        while (slot_row_[slot] != -1 &&
               !KeysEqual(rel.Row(slot_row_[slot]), pos_.data(), row,
                          pos_.data(), k)) {
          slot = (slot + 1) & mask_;
        }
        if (keys_only) {
          if (slot_row_[slot] == -1) slot_row_[slot] = r;
        } else {
          next_row_[r] = slot_row_[slot];
          slot_row_[slot] = r;
          ++count_[slot];
        }
      }
    }
    BytesAllocated().Add(static_cast<long>(
        (slot_row_.capacity() + next_row_.capacity() + count_.capacity()) *
            sizeof(int32_t) +
        slot_key_.capacity() * sizeof(uint64_t)));
  }

  // Number of build-side rows whose key equals `row`'s key at `probe_pos`
  // (0 when absent). Does not touch the collision counter: Join uses this
  // for an exact-size pre-pass and counts its probes once, when emitting.
  long Matches(const int* row, const std::vector<int>& probe_pos) const {
    const int k = static_cast<int>(pos_.size());
    if (bits_ > 0) {
      const uint64_t limit = uint64_t{1} << bits_;
      uint64_t key = 0;
      for (int i = 0; i < k; ++i) {
        const int v = row[probe_pos[i]];
        if (v < 0 || static_cast<uint64_t>(v) >= limit) return 0;
        key = (key << bits_) | static_cast<uint64_t>(v);
      }
      size_t slot = SplitMix64(key) & mask_;
      size_t probes = 0;
      while (slot_row_[slot] != -1) {
        if (slot_key_[slot] == key) return count_[slot];
        slot = (slot + 1) & mask_;
        // The increment must stay outside the HT_DCHECK operand: DCHECK
        // operands are not evaluated under NDEBUG, which would freeze the
        // wrap counter. The gate keeps Release codegen free of it.
        if (ht_internal::kDCheckEnabled) ++probes;
        HT_DCHECK_LE(probes, mask_) << "JoinKeyTable probe loop wrapped";
      }
    } else {
      size_t slot = HashRowKey(row, probe_pos.data(), k) & mask_;
      size_t probes = 0;
      while (slot_row_[slot] != -1) {
        if (KeysEqual(row, probe_pos.data(), rel_.Row(slot_row_[slot]),
                      pos_.data(), k)) {
          return count_[slot];
        }
        slot = (slot + 1) & mask_;
        // The increment must stay outside the HT_DCHECK operand: DCHECK
        // operands are not evaluated under NDEBUG, which would freeze the
        // wrap counter. The gate keeps Release codegen free of it.
        if (ht_internal::kDCheckEnabled) ++probes;
        HT_DCHECK_LE(probes, mask_) << "JoinKeyTable probe loop wrapped";
      }
    }
    return 0;
  }

  // First build-side row whose key equals `row`'s key at `probe_pos`, or -1.
  int FindFirst(const int* row, const std::vector<int>& probe_pos) const {
    const int k = static_cast<int>(pos_.size());
    long collisions = 0;
    int found = -1;
    if (bits_ > 0) {
      const uint64_t limit = uint64_t{1} << bits_;
      uint64_t key = 0;
      for (int i = 0; i < k; ++i) {
        const int v = row[probe_pos[i]];
        // A value outside the packed range cannot equal any build-side key.
        if (v < 0 || static_cast<uint64_t>(v) >= limit) return -1;
        key = (key << bits_) | static_cast<uint64_t>(v);
      }
      size_t slot = SplitMix64(key) & mask_;
      while (slot_row_[slot] != -1) {
        if (slot_key_[slot] == key) {
          found = slot_row_[slot];
          break;
        }
        ++collisions;
        HT_DCHECK_LE(collisions, static_cast<long>(mask_))
            << "JoinKeyTable probe loop wrapped";
        slot = (slot + 1) & mask_;
      }
    } else {
      size_t slot = HashRowKey(row, probe_pos.data(), k) & mask_;
      while (slot_row_[slot] != -1) {
        if (KeysEqual(row, probe_pos.data(), rel_.Row(slot_row_[slot]),
                      pos_.data(), k)) {
          found = slot_row_[slot];
          break;
        }
        ++collisions;
        HT_DCHECK_LE(collisions, static_cast<long>(mask_))
            << "JoinKeyTable probe loop wrapped";
        slot = (slot + 1) & mask_;
      }
    }
    if (collisions > 0) ProbeCollisions().Add(collisions);
    return found;
  }

  // Next build-side row with the same key (no comparison needed: chains
  // are per-key by construction).
  int FindNext(int r) const { return next_row_[r]; }

 private:
  const Relation& rel_;
  const std::vector<int>& pos_;
  size_t mask_ = 0;
  int bits_ = 0;  // > 0: packed mode with this many bits per key element
  std::vector<int32_t> slot_row_;
  std::vector<int32_t> next_row_;   // per-key chains (not keys_only)
  std::vector<int32_t> count_;      // rows per distinct key (not keys_only)
  std::vector<uint64_t> slot_key_;  // packed key per slot (packed mode)
};

}  // namespace

// Open-addressing index over whole rows: slots hold row ids (-1 empty),
// probed linearly with splitmix64-mixed row hashes. Immutable once
// published for concurrent readers; mutators keep it fresh in place
// (exclusive access) or drop it.
struct Relation::RowIndex {
  std::vector<int32_t> slots;
  size_t mask = 0;
  size_t size = 0;
};

Relation::~Relation() { DropIndex(); }

Relation::Relation(const Relation& other)
    : schema_(other.schema_), data_(other.data_), rows_(other.rows_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  DropIndex();
  schema_ = other.schema_;
  data_ = other.data_;
  rows_ = other.rows_;
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      data_(std::move(other.data_)),
      rows_(other.rows_),
      index_(other.index_.load(std::memory_order_relaxed)) {
  other.index_.store(nullptr, std::memory_order_relaxed);
  other.rows_ = 0;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  DropIndex();
  schema_ = std::move(other.schema_);
  data_ = std::move(other.data_);
  rows_ = other.rows_;
  index_.store(other.index_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  other.index_.store(nullptr, std::memory_order_relaxed);
  other.rows_ = 0;
  return *this;
}

std::vector<std::vector<int>> Relation::ToTuples() const {
  std::vector<std::vector<int>> out;
  out.reserve(rows_);
  for (int r = 0; r < rows_; ++r) {
    out.emplace_back(Row(r), Row(r) + Arity());
  }
  return out;
}

void Relation::AddTuple(const std::vector<int>& tuple) {
  HT_CHECK_EQ(tuple.size(), schema_.size())
      << "tuple arity does not match the relation schema";
  AddRow(tuple.data());
}

void Relation::AddRowToIndex() {
  RowIndex* idx = index_.load(std::memory_order_relaxed);
  // Mutation is exclusive by contract, so the index can be kept fresh
  // in place instead of being rebuilt on the next Contains().
  MaybeGrowIndex(idx);
  InsertIntoIndex(idx, rows_ - 1, /*check_duplicate=*/false);
}

bool Relation::InsertIfAbsent(const int* row) {
  if (ContainsRow(row)) return false;
  AddRow(row);
  return true;
}

void Relation::Reserve(int num_rows) {
  data_.reserve(static_cast<size_t>(num_rows) * schema_.size());
}

int Relation::IndexOf(int var) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i] == var) return static_cast<int>(i);
  }
  return -1;
}

Relation Relation::Join(const Relation& other) const {
  // Single code path for serial and pooled execution: the engine with a
  // null pool runs every morsel on the calling thread.
  return EngineJoin(*this, other, /*pool=*/nullptr);
}

Relation Relation::JoinGeneric(const Relation& other) const {
  DCheckRep();
  other.DCheckRep();
  std::vector<int> pa, pb;
  SharedPositions(schema_, other.schema_, &pa, &pb);
  // Output schema: this schema plus other's non-shared variables.
  std::vector<int> out_schema = schema_;
  std::vector<int> extra_positions;
  for (size_t j = 0; j < other.schema_.size(); ++j) {
    if (IndexOf(other.schema_[j]) == -1) {
      out_schema.push_back(other.schema_[j]);
      extra_positions.push_back(static_cast<int>(j));
    }
  }
  Relation out(std::move(out_schema));
  if (rows_ == 0 || other.rows_ == 0) return out;
  JoinKeyTable table(other, pb);
  // Exact-size pre-pass: join outputs run to gigabytes, where growth by
  // doubling would copy (and page-fault) the whole buffer repeatedly.
  long total = 0;
  for (int t = 0; t < rows_; ++t) total += table.Matches(Row(t), pa);
  out.data_.reserve(static_cast<size_t>(total) * out.schema_.size());
  long emitted = 0;
  for (int t = 0; t < rows_; ++t) {
    const int* row = Row(t);
    for (int u = table.FindFirst(row, pa); u != -1; u = table.FindNext(u)) {
      out.data_.insert(out.data_.end(), row, row + schema_.size());
      const int* urow = other.Row(u);
      for (int p : extra_positions) out.data_.push_back(urow[p]);
      ++out.rows_;
      ++emitted;
    }
  }
  RowsJoined().Add(emitted);
  BytesAllocated().Add(
      static_cast<long>(out.data_.capacity() * sizeof(int)));
  HT_CHECK_EQ(emitted, total)
      << "join emitted a different row count than its exact-size pre-pass";
  out.DCheckRep();
  return out;
}

Relation Relation::Semijoin(const Relation& other) const {
  Relation out(*this);
  out.SemijoinInPlace(other);
  return out;
}

void Relation::SemijoinInPlace(const Relation& other) {
  EngineSemijoinInPlace(this, other, /*pool=*/nullptr);
}

void Relation::SemijoinInPlaceGeneric(const Relation& other) {
  HT_CHECK(this != &other) << "SemijoinInPlace must not alias its argument";
  DCheckRep();
  other.DCheckRep();
  std::vector<int> pa, pb;
  SharedPositions(schema_, other.schema_, &pa, &pb);
  if (pa.empty()) {
    // No shared variables: keep everything iff other is non-empty.
    if (other.Empty() && rows_ > 0) {
      RowsSemijoinDropped().Add(rows_);
      data_.clear();
      rows_ = 0;
      DropIndex();
    }
    return;
  }
  if (rows_ == 0) return;
  DropIndex();
  if (other.rows_ == 0) {
    RowsSemijoinDropped().Add(rows_);
    data_.clear();
    rows_ = 0;
    return;
  }
  JoinKeyTable table(other, pb, /*keys_only=*/true);
  const size_t arity = schema_.size();
  int write = 0;
  for (int t = 0; t < rows_; ++t) {
    const int* row = Row(t);
    if (table.FindFirst(row, pa) == -1) continue;
    if (write != t) {
      std::memmove(data_.data() + static_cast<size_t>(write) * arity, row,
                   arity * sizeof(int));
    }
    ++write;
  }
  RowsSemijoinDropped().Add(rows_ - write);
  HT_CHECK_LE(write, rows_)
      << "semijoin compaction produced more survivors than input rows";
  rows_ = write;
  data_.resize(static_cast<size_t>(write) * arity);
  DCheckRep();
}

Relation Relation::Project(const std::vector<int>& vars) const {
  return EngineProject(*this, vars, /*pool=*/nullptr);
}

Relation Relation::ProjectGeneric(const std::vector<int>& vars) const {
  std::vector<int> positions;
  positions.reserve(vars.size());
  for (int v : vars) {
    int idx = IndexOf(v);
    HT_CHECK_MSG(idx >= 0, "projection variable not in schema");
    positions.push_back(idx);
  }
  Relation out(vars);
  if (rows_ == 0) return out;
  const int k = static_cast<int>(positions.size());
  // Upper-bound reservation: avoids growth reallocation; the unwritten
  // tail is never touched, so it costs address space, not pages.
  out.data_.reserve(static_cast<size_t>(rows_) * k);
  // Open-addressing dedup over the rows already emitted into `out`:
  // candidate keys are hashed straight from this relation's rows.
  size_t cap = NextPow2AtLeast(static_cast<size_t>(rows_) * 2);
  size_t mask = cap - 1;
  std::vector<int32_t> slots(cap, -1);
  std::vector<int> identity(k);
  for (int i = 0; i < k; ++i) identity[i] = i;
  for (int t = 0; t < rows_; ++t) {
    const int* row = Row(t);
    size_t slot = HashRowKey(row, positions.data(), k) & mask;
    bool present = false;
    long collisions = 0;
    while (slots[slot] != -1) {
      if (KeysEqual(out.Row(slots[slot]), identity.data(), row,
                    positions.data(), k)) {
        present = true;
        break;
      }
      ++collisions;
      slot = (slot + 1) & mask;
    }
    if (collisions > 0) ProbeCollisions().Add(collisions);
    if (present) continue;
    slots[slot] = out.rows_;
    for (int i = 0; i < k; ++i) out.data_.push_back(row[positions[i]]);
    ++out.rows_;
  }
  BytesAllocated().Add(static_cast<long>(
      (out.data_.capacity() + slots.capacity()) * sizeof(int)));
  HT_CHECK_LE(out.rows_, rows_)
      << "projection emitted more distinct rows than its input has";
  out.DCheckRep();
  return out;
}

bool Relation::Contains(const std::vector<int>& tuple) const {
  HT_CHECK(tuple.size() == schema_.size());
  return ContainsRow(tuple.data());
}

bool Relation::ContainsRow(const int* row) const {
  if (rows_ == 0) return false;
  // Arity 0: the only possible tuple is the empty one, and `row` may be
  // null (vector<int>{}.data()) — never hand it to memcmp/hash.
  if (schema_.empty()) return true;
  // Tiny relations (typical CSP constraint tables) are cheaper to scan in
  // the flat buffer than to hash-probe; skip the index while none exists.
  // Never building an index for them also keeps bytes_allocated
  // deterministic regardless of lookup pattern.
  const RowIndex* idx = index_.load(std::memory_order_acquire);
  if (idx == nullptr && rows_ <= kScanThreshold) {
    const size_t arity = schema_.size();
    const size_t bytes = arity * sizeof(int);
    for (int r = 0; r < rows_; ++r) {
      if (std::memcmp(Row(r), row, bytes) == 0) return true;
    }
    return false;
  }
  if (idx == nullptr) idx = EnsureIndex();
  return ProbeIndex(*idx, row);
}

const Relation::RowIndex* Relation::EnsureIndex() const {
  RowIndex* idx = index_.load(std::memory_order_acquire);
  if (idx != nullptr) return idx;
  auto* built = new RowIndex;
  size_t cap = NextPow2AtLeast(static_cast<size_t>(rows_) * 2);
  built->mask = cap - 1;
  built->slots.assign(cap, -1);
  for (int r = 0; r < rows_; ++r) {
    InsertIntoIndex(built, r, /*check_duplicate=*/false);
  }
  RowIndex* expected = nullptr;
  if (index_.compare_exchange_strong(expected, built,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    // Count allocation only for the published winner so the counter stays
    // deterministic when concurrent readers race on the first build.
    BytesAllocated().Add(
        static_cast<long>(built->slots.capacity() * sizeof(int32_t)));
    return built;
  }
  delete built;
  return expected;
}

void Relation::DropIndex() {
  RowIndex* idx = index_.load(std::memory_order_relaxed);
  if (idx != nullptr) {
    delete idx;
    index_.store(nullptr, std::memory_order_relaxed);
  }
}

bool Relation::ProbeIndex(const RowIndex& idx, const int* row) const {
  const int arity = Arity();
  size_t slot = HashRowValues(row, arity) & idx.mask;
  long collisions = 0;
  bool found = false;
  while (idx.slots[slot] != -1) {
    const int* cand = Row(idx.slots[slot]);
    if (std::memcmp(cand, row, static_cast<size_t>(arity) * sizeof(int)) ==
        0) {
      found = true;
      break;
    }
    ++collisions;
    slot = (slot + 1) & idx.mask;
  }
  if (collisions > 0) ProbeCollisions().Add(collisions);
  return found;
}

bool Relation::InsertIntoIndex(RowIndex* idx, int r,
                               bool check_duplicate) const {
  const int arity = Arity();
  const int* row = Row(r);
  size_t slot = HashRowValues(row, arity) & idx->mask;
  while (idx->slots[slot] != -1) {
    if (check_duplicate &&
        std::memcmp(Row(idx->slots[slot]), row,
                    static_cast<size_t>(arity) * sizeof(int)) == 0) {
      return false;
    }
    slot = (slot + 1) & idx->mask;
  }
  idx->slots[slot] = r;
  ++idx->size;
  return true;
}

void Relation::MaybeGrowIndex(RowIndex* idx) const {
  if ((idx->size + 1) * 10 <= idx->slots.size() * 7) return;
  RowIndex grown;
  size_t cap = NextPow2AtLeast(idx->slots.size() * 2);
  grown.mask = cap - 1;
  grown.slots.assign(cap, -1);
  for (int32_t r : idx->slots) {
    if (r == -1) continue;
    const int* row = Row(r);
    size_t slot = HashRowValues(row, Arity()) & grown.mask;
    while (grown.slots[slot] != -1) slot = (slot + 1) & grown.mask;
    grown.slots[slot] = r;
  }
  grown.size = idx->size;
  BytesAllocated().Add(
      static_cast<long>(grown.slots.capacity() * sizeof(int32_t)));
  *idx = std::move(grown);
}

}  // namespace hypertree
