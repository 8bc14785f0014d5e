// Per-command tracing for the simulated runtimes (docs/OBSERVABILITY.md).
//
// A TraceRecorder attaches to one simgpu::Device and records a structured
// TraceEvent per instrumented API command: kind (api-call / h2d / d2h /
// d2d / kernel-launch), begin/end simulated timestamps from
// Device::now_us(), the DeviceStats *delta* accumulated inside the span,
// and the nesting depth + parent index. Wrapper entry points (cl2cu,
// cu2cl) open a parent span before forwarding to the native runtime, so a
// translated app's trace shows wrapper overhead as the gap between a
// wrapper span and the native spans nested under it — the paper's §6
// "wrapper overhead ≈ 0" claim as a queryable number (see
// exporters.h: WrapperOverheadOf).
//
// Recording is strictly read-only with respect to the device: it never
// advances the simulated clock nor touches DeviceStats, so every clock
// value and counter is bit-identical with tracing on or off (trace_test
// proves this). All instrumentation goes through TraceSpan, which is a
// no-op when no recorder is attached.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simgpu/device.h"

namespace bridgecl::trace {

/// Command taxonomy. Transfers get their own kinds so a trace can be
/// sliced into compute vs. data movement without parsing entry names.
enum class TraceKind {
  kApiCall,        // any host API entry point
  kH2D,            // host → device transfer
  kD2H,            // device → host transfer
  kD2D,            // device → device copy
  kKernelLaunch,   // kernel execution command
  kDeviceCopy,     // scheduler: copy-engine execution window
  kDeviceCompute,  // scheduler: compute-engine execution window
};

const char* TraceKindName(TraceKind kind);

/// One recorded command span. `layer` and `name` are static strings owned
/// by the instrumentation sites ("mocl" / "mcuda" for the native runtimes,
/// "cl2cu" / "cu2cl" for the wrapper libraries).
struct TraceEvent {
  TraceKind kind = TraceKind::kApiCall;
  const char* layer = "";
  const char* name = "";
  std::string kernel;      // kernel-launch spans: the kernel's name
  double begin_us = 0;
  double end_us = 0;
  int depth = 0;           // 0 = top level; wrapper spans enclose depth+1
  int64_t parent = -1;     // index of the enclosing span, -1 at top level
  uint64_t bytes = 0;      // transfer kinds: payload size
  int regs_per_thread = 0; // kernel-launch spans (occupancy input, §6.3)
  double occupancy = 0;    // kernel-launch spans
  bool failed = false;     // the command returned a non-ok Status
  int lane = 0;            // display lane: 0 host, 1 copy engine, 2 compute
  uint64_t stream = 0;     // device spans: owning queue/stream handle
  // Build spans: module-cache outcome (-1 n/a, 0 miss,
  // 1 hit).
  int8_t module_cache = -1;
  simgpu::DeviceStats delta;  // device counters accumulated inside the span

  double duration_us() const { return end_us - begin_us; }
};

/// Field-wise `after - before`; the per-span counter attribution.
simgpu::DeviceStats StatsDelta(const simgpu::DeviceStats& after,
                               const simgpu::DeviceStats& before);

class TraceRecorder {
 public:
  explicit TraceRecorder(simgpu::Device& device) : device_(device) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  simgpu::Device& device() { return device_; }
  const simgpu::Device& device() const { return device_; }

  /// Opens a span: stamps begin_us, snapshots DeviceStats, assigns
  /// depth/parent from the currently open spans. Returns the event index.
  size_t OpenSpan(TraceKind kind, const char* layer, const char* name);
  /// Closes the span opened last (LIFO; enforced): stamps end_us and the
  /// stats delta.
  void CloseSpan(size_t index, bool failed);

  /// Appends an already-completed span (the scheduler's device-side
  /// execution windows: engine placement is known only after the command
  /// is timed, so these cannot use Open/Close). The span is parented
  /// under the innermost currently-open span — the native API span of
  /// the enqueue — preserving the wrapper-encloses-native invariant.
  /// `lane` is 1 + the engine index; `stream` the owning queue handle.
  void AppendCompleted(TraceKind kind, const char* layer, const char* name,
                       double begin_us, double end_us, int lane,
                       uint64_t stream, uint64_t bytes,
                       const std::string& kernel, bool failed);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent>& mutable_events() { return events_; }

  /// Direct children of `index` (same-order indices with parent == index).
  std::vector<size_t> ChildrenOf(size_t index) const;

 private:
  simgpu::Device& device_;
  std::vector<TraceEvent> events_;
  std::vector<size_t> open_;                      // indices of open spans
  std::vector<simgpu::DeviceStats> snapshots_;    // parallel to open_
};

/// RAII span used at every instrumented entry point. A null recorder makes
/// every method a no-op, so instrumentation costs one branch when tracing
/// is off. The span closes in the destructor; mark failure with Fail() (or
/// use the Sealed() helper that inspects a Status).
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, TraceKind kind, const char* layer,
            const char* name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) index_ = recorder_->OpenSpan(kind, layer, name);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (recorder_ != nullptr) recorder_->CloseSpan(index_, failed_);
  }

  bool active() const { return recorder_ != nullptr; }

  /// Transfer spans: record the payload size.
  void SetBytes(uint64_t bytes) {
    if (recorder_ != nullptr)
      recorder_->mutable_events()[index_].bytes = bytes;
  }
  /// Kernel-launch spans: name + occupancy inputs/outputs.
  void SetKernel(std::string_view kernel, int regs_per_thread,
                 double occupancy) {
    if (recorder_ == nullptr) return;
    TraceEvent& e = recorder_->mutable_events()[index_];
    e.kernel.assign(kernel);
    e.regs_per_thread = regs_per_thread;
    e.occupancy = occupancy;
  }
  /// Build spans: whether the module cache satisfied this compile
  /// (docs/PERFORMANCE.md).
  void SetModuleCache(bool hit) {
    if (recorder_ == nullptr) return;
    recorder_->mutable_events()[index_].module_cache = hit ? 1 : 0;
  }
  void Fail() { failed_ = true; }
  /// Pass-through status observer: `return span.Sealed(SomeCall());`.
  Status Sealed(Status st) {
    if (!st.ok()) failed_ = true;
    return st;
  }
  template <typename T>
  StatusOr<T> Sealed(StatusOr<T> v) {
    if (!v.ok()) failed_ = true;
    return v;
  }

 private:
  TraceRecorder* recorder_;
  size_t index_ = 0;
  bool failed_ = false;
};

}  // namespace bridgecl::trace
