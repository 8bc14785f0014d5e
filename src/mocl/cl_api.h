// OpenCL 1.2-subset host API, shaped after the real entry points the paper
// wraps (§3.3-§3.5): buffers, images, samplers, programs built from source
// at run time, kernel-argument binding with clSetKernelArg semantics, and
// NDRange launches. Exposed as an abstract interface with two bindings:
//
//   * mocl::NativeClApi — the "vendor OpenCL framework": runs on a
//     simulated device directly (this header's companion).
//   * cl2cu::ClOnCudaApi — the paper's OpenCL→CUDA wrapper library: the
//     same interface implemented over the mini-CUDA driver API (§3.4,
//     Figure 2).
//
// Host application code is written once against OpenClApi and re-linked
// against either binding — exactly the paper's "host code is untouched,
// wrappers are linked" design.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "lang/type.h"
#include "simgpu/device.h"
#include "simgpu/dim3.h"
#include "support/status.h"

namespace bridgecl::mocl {

/// Opaque handles. In real OpenCL these are pointers (cl_mem is
/// struct _cl_mem*); the paper's wrappers rely on being able to cast them
/// to void* and back (§4), which these 64-bit payloads preserve.
struct ClMem {
  uint64_t handle = 0;
  bool ok() const { return handle != 0; }
};
struct ClProgram {
  uint64_t handle = 0;
};
struct ClKernel {
  uint64_t handle = 0;
};
/// Event handle for profiling (cl_event with CL_QUEUE_PROFILING_ENABLE).
struct ClEvent {
  uint64_t handle = 0;
};
/// Command-queue handle (cl_command_queue). Default-constructed it names
/// the context's default in-order queue, which always exists — the legacy
/// single-queue entry points below enqueue there.
struct ClQueue {
  uint64_t handle = 0;
};

/// clCreateCommandQueue property bits (docs/CONCURRENCY.md).
inline constexpr uint64_t CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE = 1u << 0;

enum class MemFlags {
  kReadWrite,  // CL_MEM_READ_WRITE
  kReadOnly,   // CL_MEM_READ_ONLY  (dynamic constant-memory objects, §4.2)
  kWriteOnly,  // CL_MEM_WRITE_ONLY
};

struct ClImageFormat {
  lang::ScalarKind elem = lang::ScalarKind::kFloat;
  int channels = 4;  // CL_R=1 ... CL_RGBA=4
};

/// Sampler properties; mirrors clCreateSampler's three parameters.
struct ClSamplerDesc {
  bool normalized_coords = false;
  bool address_clamp = true;
  bool filter_linear = false;
};

/// Subset of clGetDeviceInfo attributes the benchmarks query. The real
/// call is per-attribute; QueryDeviceInfo below mimics that cost model by
/// charging one query per requested attribute (the deviceQuery wrapper
/// overhead of §6.3 is measured through this).
enum class ClDeviceAttr {
  kName,
  kVendor,
  kMaxComputeUnits,
  kMaxWorkGroupSize,
  kLocalMemSize,
  kGlobalMemSize,
  kMaxConstantBufferSize,
  kImage2dMaxWidth,
  kImage2dMaxHeight,
  kImage1dMaxBufferWidth,
  kMaxClockFrequency,
};

class OpenClApi {
 public:
  virtual ~OpenClApi() = default;

  virtual std::string PlatformName() const = 0;

  /// clGetDeviceInfo: one attribute per call.
  virtual StatusOr<std::string> QueryDeviceInfoString(ClDeviceAttr attr) = 0;
  virtual StatusOr<uint64_t> QueryDeviceInfoUint(ClDeviceAttr attr) = 0;

  /// clCreateSubDevices: partition into `n` sub-devices; returns how many
  /// were created. OpenCL-only feature — the wrapper binding reports it
  /// unimplemented (§3.7).
  virtual StatusOr<int> CreateSubDevices(int n) = 0;

  // -- memory objects -------------------------------------------------------
  virtual StatusOr<ClMem> CreateBuffer(MemFlags flags, size_t size,
                                       const void* host_ptr) = 0;
  virtual Status ReleaseMemObject(ClMem mem) = 0;
  virtual Status EnqueueWriteBuffer(ClMem mem, size_t offset, size_t size,
                                    const void* src) = 0;
  virtual Status EnqueueReadBuffer(ClMem mem, size_t offset, size_t size,
                                   void* dst) = 0;
  virtual Status EnqueueCopyBuffer(ClMem src, ClMem dst, size_t src_offset,
                                   size_t dst_offset, size_t size) = 0;

  // -- images & samplers (§5) ----------------------------------------------
  virtual StatusOr<ClMem> CreateImage2D(MemFlags flags,
                                        const ClImageFormat& format,
                                        size_t width, size_t height,
                                        const void* host_ptr) = 0;
  virtual StatusOr<ClMem> CreateImage1D(MemFlags flags,
                                        const ClImageFormat& format,
                                        size_t width,
                                        const void* host_ptr) = 0;
  /// CL_MEM_OBJECT_IMAGE1D_BUFFER: a 1D image viewing an existing buffer.
  virtual StatusOr<ClMem> CreateImage1DFromBuffer(const ClImageFormat& format,
                                                  size_t width,
                                                  ClMem buffer) = 0;
  virtual Status EnqueueWriteImage(ClMem image, const void* src) = 0;
  virtual Status EnqueueReadImage(ClMem image, void* dst) = 0;
  /// Returns a sampler value for clSetKernelArg (sampler_t kernel params).
  virtual StatusOr<uint64_t> CreateSampler(const ClSamplerDesc& desc) = 0;

  // -- programs & kernels -----------------------------------------------------
  virtual StatusOr<ClProgram> CreateProgramWithSource(
      const std::string& source) = 0;
  /// clBuildProgram: run-time compilation. Under the wrapper binding this
  /// is where the OpenCL→CUDA source translator runs (Figure 2).
  virtual Status BuildProgram(ClProgram program) = 0;
  virtual StatusOr<std::string> GetProgramBuildLog(ClProgram program) = 0;
  virtual StatusOr<ClKernel> CreateKernel(ClProgram program,
                                          const std::string& name) = 0;
  /// clSetKernelArg semantics: `value` is null for dynamic __local
  /// allocations (size = allocation size); for memory objects it points
  /// at a ClMem; for samplers at the uint64 sampler value; otherwise at
  /// `size` bytes of plain data.
  virtual Status SetKernelArg(ClKernel kernel, int index, size_t size,
                              const void* value) = 0;
  virtual Status EnqueueNDRangeKernel(ClKernel kernel, int work_dim,
                                      const size_t* gws,
                                      const size_t* lws) = 0;
  /// clFinish on the default queue. With multiple queues this acts as a
  /// device-wide barrier (every queue drains) — the strongest reading,
  /// kept for single-queue legacy apps.
  virtual Status Finish() = 0;

  // -- command queues & asynchronous enqueues (§3, docs/CONCURRENCY.md) ----
  /// clCreateCommandQueue. `properties` is a bit-or of the CL_QUEUE_*
  /// constants above; out-of-order queues order commands only by event
  /// wait lists and barriers.
  virtual StatusOr<ClQueue> CreateCommandQueue(uint64_t properties) = 0;
  /// clReleaseCommandQueue: implicit clFinish, then teardown. Releasing a
  /// queue does not invalidate its events (they outlive the queue).
  virtual Status ReleaseCommandQueue(ClQueue queue) = 0;
  /// clEnqueueWriteBuffer / clEnqueueReadBuffer with the full signature:
  /// target queue, blocking flag, event wait list, optional out event.
  /// Non-blocking transfer failures are deferred: the enqueue reports
  /// success and the error surfaces at the next synchronization point on
  /// the queue (docs/ROBUSTNESS.md).
  virtual Status EnqueueWriteBufferOn(ClQueue queue, ClMem mem, size_t offset,
                                      size_t size, const void* src,
                                      bool blocking,
                                      std::span<const ClEvent> wait_events,
                                      ClEvent* out_event) = 0;
  virtual Status EnqueueReadBufferOn(ClQueue queue, ClMem mem, size_t offset,
                                     size_t size, void* dst, bool blocking,
                                     std::span<const ClEvent> wait_events,
                                     ClEvent* out_event) = 0;
  virtual Status EnqueueCopyBufferOn(ClQueue queue, ClMem src, ClMem dst,
                                     size_t src_offset, size_t dst_offset,
                                     size_t size,
                                     std::span<const ClEvent> wait_events,
                                     ClEvent* out_event) = 0;
  virtual Status EnqueueNDRangeKernelOn(ClQueue queue, ClKernel kernel,
                                        int work_dim, const size_t* gws,
                                        const size_t* lws,
                                        std::span<const ClEvent> wait_events,
                                        ClEvent* out_event) = 0;
  /// clEnqueueMarkerWithWaitList: an event that completes when the wait
  /// list completes (empty list: when everything already enqueued on the
  /// queue completes).
  virtual StatusOr<ClEvent> EnqueueMarkerWithWaitList(
      ClQueue queue, std::span<const ClEvent> wait_events) = 0;
  /// clEnqueueBarrierWithWaitList (empty list): orders every later command
  /// on the queue after everything enqueued so far.
  virtual StatusOr<ClEvent> EnqueueBarrier(ClQueue queue) = 0;
  /// clFlush: submission hint; completion is only guaranteed by Finish.
  virtual Status Flush(ClQueue queue) = 0;
  /// clFinish on one queue; surfaces the queue's deferred errors.
  virtual Status Finish(ClQueue queue) = 0;
  /// clWaitForEvents: blocks until all listed events complete; returns the
  /// execution status of a failed event, if any.
  virtual Status WaitForEvents(std::span<const ClEvent> events) = 0;
  /// clReleaseEvent.
  virtual Status ReleaseEvent(ClEvent event) = 0;

  /// clEnqueueNDRangeKernel with an event for profiling
  /// (clGetEventProfilingInfo's COMMAND_QUEUED/COMMAND_END pair).
  virtual StatusOr<ClEvent> EnqueueNDRangeKernelWithEvent(
      ClKernel kernel, int work_dim, const size_t* gws,
      const size_t* lws) = 0;
  virtual Status GetEventProfiling(ClEvent event, double* queued_us,
                                   double* end_us) = 0;

  /// Modeling knob, not a real OpenCL entry point: sets the register
  /// count the (simulated) native compiler allocated for a kernel, which
  /// drives occupancy (§6.3 cfd). Benchmarks use it to reproduce
  /// toolchain differences between the CUDA and OpenCL compilers.
  virtual Status SetProgramKernelRegisters(ClProgram program,
                                           const std::string& kernel,
                                           int regs) = 0;

  /// Simulated host-visible clock; benchmarks time API activity with this.
  virtual double NowUs() const = 0;
  /// Simulated device-time spent inside program builds; the paper excludes
  /// OpenCL build time from its measurements (§6.2), benches subtract this.
  virtual double BuildTimeUs() const = 0;

  /// The trace recorder attached to the underlying device, or null when
  /// tracing is off (docs/OBSERVABILITY.md). The native binding returns
  /// Device::tracer(); wrapper bindings forward to the inner runtime so a
  /// wrapped stack records into one shared trace.
  virtual trace::TraceRecorder* Tracer() const { return nullptr; }

  // No binding implements these; they remain only because the host
  // benchmark's timing decorators (hostbench/src/timed_api.h) override
  // them. Drop both once those overrides are gone.
  virtual Status Snapshot(const std::string&) {
    return UnimplementedError("Snapshot");
  }
  virtual Status Restore(const std::string&) {
    return UnimplementedError("Restore");
  }
};

/// The native binding ("vendor OpenCL framework") over a simulated device.
std::unique_ptr<OpenClApi> CreateNativeClApi(simgpu::Device& device);

}  // namespace bridgecl::mocl
