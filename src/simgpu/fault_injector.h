// Deterministic fault injection for the simulated device. A FaultPlan
// names injection points by (site, ordinal): "fail the 3rd global
// allocation", "truncate the 1st host<->device transfer after 64 bytes",
// "trap the interpreter at instruction 1000", "lose the device at the 2nd
// transfer". The FaultInjector is owned by simgpu::Device and consulted
// from VirtualMemory (alloc/free/resolve), the executor (per-statement
// traps, shared-memory mapping) and the native API layers (transfers), so
// every error path of the two wrapper stacks can be driven on purpose and
// reproduced exactly — the runtime counterpart of the paper's Table 3
// failure classification.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "support/status.h"

namespace bridgecl::simgpu {

/// Operation classes with independent deterministic counters.
enum class FaultSite : uint8_t {
  kGlobalAlloc,   // VirtualMemory::AllocGlobal
  kGlobalFree,    // VirtualMemory::FreeGlobal
  kSharedAlloc,   // per-block shared-memory mapping at kernel launch
  kTransfer,      // host<->device and device<->device copies (API layers)
  kMemoryAccess,  // VirtualMemory::Resolve (kernel + host accesses)
  kInstruction,   // one interpreted kernel statement
};

const char* FaultSiteName(FaultSite site);

enum class FaultKind : uint8_t {
  kError,       // the operation fails with a resource/internal error
  kTruncate,    // transfers only: move `truncate_to` bytes, then fail
  kDeviceLost,  // asynchronous device loss; sticky for the whole context
};

/// One injection point: fires when the site's counter reaches `nth`
/// (0-based over the lifetime of the plan).
struct FaultPoint {
  FaultSite site = FaultSite::kGlobalAlloc;
  uint64_t nth = 0;
  FaultKind kind = FaultKind::kError;
  /// Transient faults clear once they fire; a bounded retry of the same
  /// operation succeeds (the API layers retry up to kMaxTransientRetries).
  bool transient = false;
  /// kTruncate: bytes actually transferred before the failure.
  size_t truncate_to = 0;
};

struct FaultPlan {
  std::vector<FaultPoint> points;
  bool empty() const { return points.empty(); }
};

class FaultInjector {
 public:
  /// API layers retry an operation this many extra times when the fault
  /// that failed it was marked transient.
  static constexpr int kMaxTransientRetries = 3;

  /// Install a plan; resets all counters and the transient flag (but not
  /// a sticky device-lost state — that requires ResetContext()).
  void set_plan(FaultPlan plan) {
    plan_ = std::move(plan);
    counters_ = {};
    last_fault_transient_ = false;
  }
  const FaultPlan& plan() const { return plan_; }

  /// Cheap gate: callers on hot paths skip the consult entirely when no
  /// plan is armed and the device is healthy.
  bool armed() const { return !plan_.empty() || lost_; }

  bool device_lost() const { return lost_; }
  /// Models releasing the lost context and acquiring a fresh one.
  void ResetContext() {
    lost_ = false;
    plan_ = {};
    counters_ = {};
    last_fault_transient_ = false;
  }

  /// True when the most recent injected fault was marked transient (and
  /// has therefore been consumed); the API layers key their retry on it.
  bool last_fault_transient() const { return last_fault_transient_; }

  /// Lifetime count of operations seen at `site`; sweeps read this from a
  /// fault-free run to learn how many ordinals to inject over.
  uint64_t count(FaultSite site) const {
    return counters_[static_cast<size_t>(site)];
  }

  // -- consult hooks (one per site) -----------------------------------------
  Status OnGlobalAlloc(size_t bytes);
  Status OnGlobalFree();
  Status OnSharedAlloc(size_t bytes);
  /// `*granted` is set to the bytes the transfer may move: `requested`
  /// normally, less when a kTruncate point fires (the fault Status is
  /// still returned — partial DMA followed by failure).
  Status OnTransfer(size_t requested, size_t* granted);
  Status OnMemoryAccess(uint64_t va, size_t len);
  Status OnInstruction();

 private:
  Status Consult(FaultSite site, size_t bytes, size_t* granted);

  FaultPlan plan_;
  std::array<uint64_t, 6> counters_ = {};
  bool lost_ = false;
  bool last_fault_transient_ = false;
};

/// Run `op` (returning Status or StatusOr<T>), retrying up to
/// kMaxTransientRetries extra times while it fails with a fault the
/// injector marked transient. The API layers use this to model drivers
/// that retry recoverable DMA/allocation errors before reporting them.
template <typename Op>
auto RetryTransient(FaultInjector& injector, Op&& op) {
  auto result = op();
  for (int attempt = 0;
       !result.ok() && injector.last_fault_transient() &&
       attempt < FaultInjector::kMaxTransientRetries;
       ++attempt)
    result = op();
  return result;
}

/// Consult the injector as a DMA engine would before moving `size` bytes:
/// transient faults are retried, kTruncate points move a prefix and then
/// fail, device loss moves nothing. `move(n)` performs the actual copy of
/// the first n bytes and is invoked exactly once unless the fault moved
/// zero bytes.
Status TransferWithFaults(FaultInjector& injector, size_t size,
                          const std::function<void(size_t)>& move);

}  // namespace bridgecl::simgpu
