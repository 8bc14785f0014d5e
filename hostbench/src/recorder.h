// Host-time recording for the benchmark's traced runs. Every span is taken
// from outside the program: the benchmark's own decorators and timers
// wrap calls into a layer's public functions, and nothing inside BridgeCL
// is instrumented. One lane per boundary; spans stay in memory and are
// written as Chrome trace_event JSON when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The boundaries the benchmark times. `kCl2cu`/`kCu2cl` sit above a
/// wrapper binding (the application's calls); `kMocl`/`kMcuda` sit between
/// a wrapper and the native runtime it drives.
enum class Lane { kOp, kCl2cu, kCu2cl, kMocl, kMcuda, kLang, kTranslator };
inline constexpr int kLaneCount = 7;
const char* LaneName(Lane lane);

/// What a timed call does; the per-lane aggregation key.
enum class Cat { kLaunch, kCopy, kAlloc, kBuild, kSync, kOther };
inline constexpr int kCatCount = 6;

/// Totals of the calls with one name on one lane. `bytes` is what the
/// calls moved (copies) or read (front end and translator input).
struct NameTotals {
  int64_t ns = 0;
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

struct LaneTotals {
  std::array<int64_t, kCatCount> ns{};
  std::array<uint64_t, kCatCount> calls{};
  uint64_t copy_bytes = 0;

  int64_t total_ns() const;
  uint64_t total_calls() const;
  int64_t ns_of(Cat c) const { return ns[static_cast<int>(c)]; }
};

class Recorder {
 public:
  /// Spans beyond this many are aggregated but left out of the trace file.
  static constexpr size_t kMaxSpans = 500000;

  /// Records one call. Launches on the native lanes also accumulate into
  /// the per-kernel table.
  void Record(Lane lane, Cat cat, const char* name, int64_t start_ns,
              int64_t end_ns, const std::string& kernel = {},
              uint64_t items = 0, uint64_t bytes = 0);

  /// Tags later spans with the operation they belong to.
  void set_op(uint64_t op) { op_ = op; }

  const LaneTotals& lane(Lane l) const {
    return lanes_[static_cast<int>(l)];
  }
  /// Native launch host time per kernel name.
  const std::map<std::string, int64_t>& kernel_ns() const {
    return kernel_ns_;
  }
  /// Totals of the calls named `name` on `lane`.
  NameTotals named(Lane lane, const std::string& name) const;

  /// Clears the aggregates; kept spans stay for the trace file.
  void ResetTotals();

  /// Appends this recorder's spans to a Chrome trace under process `pid`
  /// (one thread lane per boundary).
  void AppendChromeEvents(int pid, const std::string& process_name,
                          std::string* out, bool* first) const;

 private:
  struct Span {
    Lane lane;
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    std::string kernel;
    uint64_t items;
    uint64_t op;
  };

  std::array<LaneTotals, kLaneCount> lanes_{};
  std::map<std::string, int64_t> kernel_ns_;
  std::array<std::map<std::string, NameTotals>, kLaneCount> named_;
  std::vector<Span> spans_;
  uint64_t op_ = 0;
};

/// Writes the given recorders' spans as one Chrome trace_event file.
using NamedRecorders = std::vector<std::pair<std::string, const Recorder*>>;
bool WriteChromeTrace(const std::string& path,
                      const NamedRecorders& recorders);

/// Process counters from getrusage(RUSAGE_SELF).
struct ProcCounters {
  double utime_s = 0;
  double stime_s = 0;
  uint64_t minflt = 0;
  uint64_t maxrss_kb = 0;

  static ProcCounters Now();
};

}  // namespace hostbench
