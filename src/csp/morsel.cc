#include "csp/morsel.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <mutex>

#include "util/check.h"

namespace hypertree {

namespace {

// Budget state mirrors the kernel-backend dispatch pattern: an explicit
// SetMemoryBudget consumes the once-flag, so the environment variable
// never overrides a tool's --memory-budget choice.
std::atomic<long long> g_budget{0};
std::once_flag g_budget_once;

void InitBudgetFromEnvOnce() {
  std::call_once(g_budget_once, [] {
    const char* env = std::getenv("HYPERTREE_MEMORY_BUDGET");
    if (env == nullptr || env[0] == '\0') return;
    long long bytes = 0;
    if (ParseByteSize(env, &bytes)) {
      g_budget.store(bytes, std::memory_order_relaxed);
    } else {
      metrics::GetCounter("relation.spill.bad_env_budget").Increment();
    }
  });
}

}  // namespace

long long MemoryBudget() {
  InitBudgetFromEnvOnce();
  return g_budget.load(std::memory_order_relaxed);
}

void SetMemoryBudget(long long bytes) {
  std::call_once(g_budget_once, [] {});  // explicit choice beats the env
  g_budget.store(bytes < 0 ? 0 : bytes, std::memory_order_relaxed);
}

bool ParseByteSize(const std::string& s, long long* out) {
  if (s.empty()) return false;
  size_t end = s.size();
  long long mult = 1;
  const char last = s[end - 1];
  if (last == 'k' || last == 'K') {
    mult = 1LL << 10;
    --end;
  } else if (last == 'm' || last == 'M') {
    mult = 1LL << 20;
    --end;
  } else if (last == 'g' || last == 'G') {
    mult = 1LL << 30;
    --end;
  }
  if (end == 0) return false;
  long long value = 0;
  for (size_t i = 0; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    if (value > (1LL << 53)) return false;  // refuse absurd sizes
    value = value * 10 + (s[i] - '0');
  }
  *out = value * mult;
  return true;
}

std::string SpillDir() {
  const char* dir = std::getenv("HYPERTREE_SPILL_DIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  dir = std::getenv("TMPDIR");
  if (dir != nullptr && dir[0] != '\0') return dir;
  return "/tmp";
}

metrics::Counter& MorselsProcessed() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.morsels.processed");
  return c;
}
metrics::Counter& MorselsSkipped() {
  static metrics::Counter& c = metrics::GetCounter("relation.morsels.skipped");
  return c;
}
metrics::Counter& SpillPartitions() {
  static metrics::Counter& c =
      metrics::GetCounter("relation.spill.partitions");
  return c;
}
metrics::Counter& SpillBytes() {
  static metrics::Counter& c = metrics::GetCounter("relation.spill.bytes");
  return c;
}

SpillFile::~SpillFile() {
  if (fd_ != -1) ::close(fd_);
}

void SpillFile::Open() {
  if (fd_ != -1) return;
  std::string path = SpillDir() + "/ht-spill-XXXXXX";
  // mkstemp wants a mutable template; the string buffer is one.
  fd_ = ::mkstemp(path.data());
  HT_CHECK_MSG(fd_ != -1, "morsel engine: cannot create a spill file");
  // Unlink immediately: the kernel reclaims the blocks when the fd
  // closes, whatever the process exit path.
  ::unlink(path.c_str());
}

long long SpillFile::Allocate(long long bytes) {
  HT_DCHECK_GE(bytes, 0);
  return cursor_.fetch_add(bytes, std::memory_order_relaxed);
}

void SpillFile::WriteAt(long long offset, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  size_t left = bytes;
  long long off = offset;
  while (left > 0) {
    const ssize_t n = ::pwrite(fd_, p, left, off);
    if (n < 0 && errno == EINTR) continue;
    HT_CHECK_MSG(n > 0, "morsel engine: spill write failed");
    p += n;
    off += n;
    left -= static_cast<size_t>(n);
  }
}

void SpillFile::ReadAt(long long offset, void* data, size_t bytes) const {
  char* p = static_cast<char*>(data);
  size_t left = bytes;
  long long off = offset;
  while (left > 0) {
    const ssize_t n = ::pread(fd_, p, left, off);
    if (n < 0 && errno == EINTR) continue;
    HT_CHECK_MSG(n > 0, "morsel engine: spill read failed");
    p += n;
    off += n;
    left -= static_cast<size_t>(n);
  }
}

}  // namespace hypertree
