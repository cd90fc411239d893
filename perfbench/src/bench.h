// Shared plumbing of the perfbench load generator: options, the
// closed-loop runner, latency statistics, span tracing in Chrome
// trace-event JSON, counter deltas, input relabelling and the result
// line.
//
// Every workload follows one shape:
//   setup (repeated, median reported as setup_s)
//   -> closed loop of timed ops, each checked by an oracle outside its
//      timed region
//   -> one result line with the end-to-end metrics (untraced run) or the
//      per-layer metrics (traced run).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "td/exact.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

/// Thread count every workload hands the program (fixed, never the
/// hardware concurrency, so results do not depend on the machine).
inline constexpr int kProgramThreads = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spec_dir;    // perfbench/spec
  std::string work_dir;    // working files, inside the checkout
  std::string serve_bin;   // hypertree_serve built next to this binary
  std::string commit;      // commit or source digest, for the fingerprint
};

/// Milliseconds on the steady clock since an arbitrary epoch.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// num / den, or 0 when den is 0 (layer metrics of an unused layer).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Linear-interpolation percentile (p in [0, 100]) of unsorted values.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed as informational lines
};

/// Span recorder. Spans are kept in memory and written once at the end;
/// a span's parent is the innermost span open when it began. Spans of
/// one op share its op id.
class Tracer {
 public:
  /// Opens a span; returns its index for End().
  int Begin(const std::string& name, long op_id);
  void End(int span);
  /// Records a finished child span [start_ms, start_ms + dur_ms) under
  /// the innermost open span (for phases the program reports itself).
  void AddChild(const std::string& name, long op_id, double start_ms,
                double dur_ms);
  /// Self time per span name (duration minus the time children cover),
  /// in ms, summed over all spans.
  std::map<std::string, double> SelfMs() const;
  /// Total duration per span name, in ms.
  std::map<std::string, double> TotalMs() const;
  /// Writes {"traceEvents": [...], "metadata": ...} (Perfetto opens it).
  bool WriteChromeJson(const std::string& path,
                       const hypertree::Json& metadata) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    long op_id = 0;
    int parent = -1;
    double start_ms = 0;
    double end_ms = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, long op_id)
      : tracer_(tracer), span_(tracer ? tracer->Begin(name, op_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Values of the named process-global counters. Deltas are taken around
/// a single op, since the registry is shared by everything in the
/// process.
std::map<std::string, long> ReadCounters(
    const std::vector<std::string>& names);
/// Sum of every counter whose name starts with `prefix`.
long SumCountersWithPrefix(const std::string& prefix);

/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();

/// Machine and build fingerprint (nproc, CPU model, kernel backend,
/// compiler, build type, commit) plus the run's workload and seed.
hypertree::Json Fingerprint(const Options& options);

/// FNV-1a digest of a sequence of integers (instance and answer
/// fingerprints in the specs).
class Digest {
 public:
  void Add(uint64_t v) { x_ = (x_ ^ v) * 1099511628211ULL; }
  std::string Hex() const;

 private:
  uint64_t x_ = 1469598103934665603ULL;
};

/// ghw by an exact route independent of the portfolio: A*, falling back
/// to plain branch and bound (spec generation only).
hypertree::WidthResult ReferenceGhw(const hypertree::Hypergraph& h);

/// A copy of `h` with vertices renamed by a seeded permutation (new
/// names too) and edges in a seeded order: the same structure, a
/// different presentation.
hypertree::Hypergraph Relabel(const hypertree::Hypergraph& h,
                              hypertree::Rng* rng);

/// Digest of the edge lists of `h` in edge order (the spec stores it to
/// detect a generator that no longer yields the recorded instance).
std::string HypergraphFingerprint(const hypertree::Hypergraph& h);

/// Builds a hypergraph from a spec entry: {"family": "random", "n",
/// "m", "seed"} (arity 2-4), {"family": "adder", "size"}, {"family":
/// "bridge", "size"} or {"family": "grid2d", "size"}. Checks the
/// entry's "fingerprint" when present.
bool BuildFamilyInstance(const hypertree::Json& entry,
                         hypertree::Hypergraph* out, std::string* error);

/// Reads and parses perfbench/spec/<name>.json.
bool LoadSpec(const Options& options, const std::string& name,
              hypertree::Json* spec, std::string* error);

/// Seeded op schedule over slots 0..stratum.size()-1: every slot appears
/// once per pass. Within a pass each stratum is shuffled and the strata
/// are interleaved in proportion to their size, so any prefix of a pass
/// (the loop stops mid-pass) holds the same mix as the whole pass.
std::vector<int> Schedule(const std::vector<int>& stratum, int passes,
                          hypertree::Rng* rng);

/// The closed-loop runner shared by the workloads.
///
/// `setup` builds the workload state; it runs `setup_repeats` times and
/// the median is setup_s (the last state is kept; a failed setup ends
/// the run with no ops). `op(i, tracer, ok)` runs op number i: it
/// returns the op's timed duration in ms and sets *ok from its oracle.
/// In a traced run the first half of the time runs untraced (for the
/// overhead figure) and the second half traced.
struct LoopSpec {
  int setup_repeats = 5;
  std::function<bool()> setup;   // (re)builds the state; false: failed
  std::function<void()> teardown;  // untimed, between setup repeats
  std::function<double(long i, Tracer* tracer, bool* ok)> op;
  std::function<bool()> exhausted;  // true: inputs used up, stop early
};

struct LoopOutcome {
  bool setup_ok = true;
  double setup_s = 0;
  std::vector<double> op_ms;          // untraced ops
  std::vector<double> traced_op_ms;   // traced ops
  long attempted = 0;
  long failed = 0;
};

LoopOutcome RunClosedLoop(const Options& options, const LoopSpec& spec,
                          Tracer* tracer);

/// Appends the six end-to-end metrics of an untraced run.
void AddEndToEndMetrics(const LoopOutcome& loop, double peak_rss_mb,
                        Result* result);

/// Appends trace.* metrics: phase coverage (children of `op_span` over
/// its duration) and overhead (traced minus untraced p50).
void AddTraceMetrics(const LoopOutcome& loop, const Tracer& tracer,
                     const std::string& op_span, Result* result);

/// Writes the trace file for a traced run into the work dir and notes
/// its path.
void WriteTrace(const Options& options, const Tracer& tracer,
                Result* result);

Result RunDecompose(const Options& options);
Result RunAnswer(const Options& options);
Result RunServe(const Options& options);

/// Spec generation (`perfbench --make-spec=<workload>`): derives every
/// expected value from independent routes and prints the spec JSON.
int MakeDecomposeSpec();
int MakeAnswerSpec();
int MakeServeSpec();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
