// The simulated compute device: virtual memory, a deterministic simulated
// clock, an execution-cost accountant implementing the timing model, and
// run statistics. Both mini-runtimes (mocl, mcuda) own a Device each (or
// share one) and advance its clock through every API call, so "measured"
// times in the benchmarks are reproducible simulation outputs.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "simgpu/device_profile.h"
#include "simgpu/dim3.h"
#include "simgpu/fault_injector.h"
#include "simgpu/virtual_memory.h"
#include "support/status.h"

namespace bridgecl::trace {
class TraceRecorder;  // trace/trace.h — the per-command tracing subsystem
}

namespace bridgecl::simgpu {

/// Counters accumulated across kernel launches; benchmarks and tests read
/// these to verify modeled effects (bank conflicts, transfer counts).
struct DeviceStats {
  uint64_t kernels_launched = 0;
  uint64_t work_items_executed = 0;
  uint64_t global_accesses = 0;
  uint64_t shared_accesses = 0;
  uint64_t shared_bank_words = 0;  // words after bank-mode expansion
  uint64_t constant_accesses = 0;
  uint64_t image_accesses = 0;
  uint64_t atomics = 0;
  uint64_t barriers = 0;
  uint64_t host_to_device_bytes = 0;
  uint64_t device_to_host_bytes = 0;
  uint64_t device_to_device_bytes = 0;
  uint64_t api_calls = 0;
  uint64_t ops_executed = 0;
};

/// The two hardware engines of the dual-engine timing model
/// (docs/CONCURRENCY.md): one DMA engine serializes all copies, one
/// compute engine serializes all kernel launches. Commands on *different*
/// engines with no dependency between them overlap in simulated time —
/// the copy/compute overlap the paper's §3 queue semantics exist for.
enum class EngineId { kCopy = 0, kCompute = 1 };
inline constexpr int kEngineCount = 2;

class Device {
 public:
  explicit Device(const DeviceProfile& profile)
      : profile_(profile), vm_(profile.global_mem_size) {
    vm_.set_fault_injector(&faults_);
    // BRIDGECL_GUARDED=1 turns on guarded device memory everywhere (the
    // ctest `guarded` label runs the suite this way).
    if (const char* env = std::getenv("BRIDGECL_GUARDED");
        env != nullptr && env[0] != '\0' && env[0] != '0')
      vm_.set_guarded(true);
  }

  const DeviceProfile& profile() const { return profile_; }
  VirtualMemory& vm() { return vm_; }
  const VirtualMemory& vm() const { return vm_; }
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }
  DeviceStats& stats() { return stats_; }
  const DeviceStats& stats() const { return stats_; }

  /// Active shared-memory bank mode. Runtimes set this when they attach
  /// (mocl → profile.opencl_bank_mode, mcuda → profile.cuda_bank_mode).
  BankMode bank_mode() const { return bank_mode_; }
  void set_bank_mode(BankMode m) { bank_mode_ = m; }

  // -- simulated time -----------------------------------------------------
  double now_us() const { return clock_us_; }
  void AdvanceUs(double us) {
    if (capturing_)
      captured_us_ += us;
    else
      clock_us_ += us;
  }

  /// Charge one host API call (the paper's wrapper-overhead unit).
  void ChargeApiCall(double multiplier = 1.0) {
    ++stats_.api_calls;
    AdvanceUs(profile_.api_overhead_us * multiplier);
  }
  /// Charge a host<->device or device<->device copy of `bytes`.
  void ChargeCopy(size_t bytes);
  /// Charge a kernel launch: fixed overhead plus compute time derived from
  /// the accumulated work-cycles and the kernel's occupancy.
  /// `total_cycles` is the sum over all work-items of their op costs;
  /// `regs_per_thread` feeds the occupancy model (§6.3).
  void ChargeKernel(double total_cycles, int regs_per_thread,
                    uint64_t work_items);

  /// Occupancy for a register count, as CUDA's occupancy calculator would
  /// report it: active threads per CU over the maximum.
  double OccupancyFor(int regs_per_thread) const;

  /// Cost in "bank words" of a shared-memory access of `bytes` at `va`
  /// under the active bank mode: the number of bank words the access
  /// spans (32-bit mode: 4-byte words; 64-bit mode: 8-byte words). An
  /// 8-byte access costs 2 words in 32-bit mode (two-way conflict for a
  /// warp of doubles) but 1 word in 64-bit mode — the FT effect (§6.2).
  int SharedAccessBankWords(uint64_t va, size_t bytes) const;

  // -- duration capture (command scheduler support) -----------------------
  // While capturing, AdvanceUs accumulates into a side counter instead of
  // the host clock: the scheduler runs a command's side effects eagerly,
  // measures what the command *would* have cost, and then places that
  // duration on an engine timeline. Stats updates are never captured —
  // only time. Captures do not nest (the exec closures touch device
  // primitives only, never other API entry points).
  void BeginCapture() {
    capturing_ = true;
    captured_us_ = 0;
  }
  double EndCapture() {
    capturing_ = false;
    return captured_us_;
  }
  bool capturing() const { return capturing_; }

  /// Reserve `dur_us` on engine `e`, starting no earlier than `ready_us`
  /// (the command's dependency horizon, never before the clock) nor
  /// before the engine is free. Returns the start time; the engine
  /// busy/overlap accounting updates incrementally, and only intervals a
  /// later reservation could overlap are kept. Deterministic: reservations
  /// are made in enqueue order.
  double ReserveEngine(EngineId e, double ready_us, double dur_us);

  /// Total busy time reserved on an engine since the last ResetClock.
  double EngineBusyUs(EngineId e) const {
    return engine_busy_us_[static_cast<int>(e)];
  }
  /// Time during which both engines were simultaneously busy — the
  /// overlap the dual-engine model buys (bench_ablation_overlap's ratio).
  double EngineOverlapUs() const { return engine_overlap_us_; }
  /// Reservations on an engine that a later one could still overlap.
  size_t EngineIntervalsHeld(EngineId e) const {
    return engine_intervals_[static_cast<int>(e)].size();
  }

  void ResetStats() { stats_ = DeviceStats{}; }
  void ResetClock() {
    clock_us_ = 0;
    captured_us_ = 0;
    capturing_ = false;
    engine_overlap_us_ = 0;
    for (int e = 0; e < kEngineCount; ++e) {
      engine_free_us_[e] = 0;
      engine_busy_us_[e] = 0;
      engine_intervals_[e].clear();
    }
  }

  /// The trace recorder attached to this device, or null. Owned by a
  /// trace::TraceSession (or equivalent), never by the device; recording
  /// only *reads* the clock and stats, so attaching a recorder cannot
  /// change any simulated value (docs/OBSERVABILITY.md).
  trace::TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(trace::TraceRecorder* t) { tracer_ = t; }

 private:
  DeviceProfile profile_;
  FaultInjector faults_;  // must outlive vm_'s pointer to it
  VirtualMemory vm_;
  DeviceStats stats_;
  BankMode bank_mode_ = BankMode::k32Bit;
  double clock_us_ = 0;
  bool capturing_ = false;
  double captured_us_ = 0;
  // Per-engine timeline state. Intervals are naturally sorted and
  // non-overlapping: each reservation starts at max(ready, engine free),
  // which is never before the previous reservation's end on that engine.
  // ReserveEngine drops the front ones no later reservation can reach.
  double engine_free_us_[kEngineCount] = {0, 0};
  double engine_busy_us_[kEngineCount] = {0, 0};
  double engine_overlap_us_ = 0;
  std::deque<std::pair<double, double>> engine_intervals_[kEngineCount];
  trace::TraceRecorder* tracer_ = nullptr;
};

}  // namespace bridgecl::simgpu
