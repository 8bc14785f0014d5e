// CUDA runtime-API subset (compute-capability 3.5 era), shaped after the
// entry points the paper's CUDA→OpenCL wrappers implement (§2-§5):
// cudaMalloc/cudaMemcpy with void* device handles, cudaMemcpyTo/FromSymbol,
// kernel launches (the <<<...>>> configuration appears here as explicit
// grid/block/shared-bytes parameters — the static host rewriter in
// translator/ produces calls of this shape), texture binding, and the
// model-specific cudaMemGetInfo / cudaGetDeviceProperties (§3.7, §6.3).
//
// Two bindings:
//   * mcuda::CreateNativeCudaApi — the "vendor CUDA framework" over a
//     simulated device.
//   * cu2cl::CreateCudaOnClApi   — the paper's CUDA-on-OpenCL wrapper
//     library (§3.4, Figure 3), implemented over any OpenClApi.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lang/type.h"
#include "simgpu/device.h"
#include "simgpu/dim3.h"
#include "support/status.h"

namespace bridgecl::mcuda {

enum class MemcpyKind {
  kHostToDevice,
  kDeviceToHost,
  kDeviceToDevice,
  kHostToHost,
};

/// cudaCreateChannelDesc equivalent.
struct ChannelDesc {
  lang::ScalarKind elem = lang::ScalarKind::kFloat;
  int channels = 1;
};

/// Subset of cudaDeviceProp the benchmarks consume.
struct CudaDeviceProps {
  std::string name;
  size_t total_global_mem = 0;
  size_t shared_mem_per_block = 0;
  size_t total_const_mem = 0;
  int regs_per_block = 0;
  int warp_size = 0;
  int max_threads_per_block = 0;
  int multi_processor_count = 0;
  int clock_rate_khz = 0;
  int major = 3, minor = 5;
  size_t max_texture1d_linear = 0;
};

/// One kernel-launch argument: raw bytes exactly as CUDA's runtime API
/// marshals them. Device pointers travel as their 8-byte void* value.
struct LaunchArg {
  std::vector<std::byte> bytes;

  static LaunchArg Ptr(const void* device_ptr) {
    LaunchArg a;
    a.bytes.resize(sizeof(device_ptr));
    std::memcpy(a.bytes.data(), &device_ptr, sizeof(device_ptr));
    return a;
  }
  template <typename T>
  static LaunchArg Value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    LaunchArg a;
    a.bytes.resize(sizeof(T));
    std::memcpy(a.bytes.data(), &v, sizeof(T));
    return a;
  }
};

class CudaApi {
 public:
  virtual ~CudaApi() = default;

  /// Stand-in for nvcc static compilation + fatbinary registration: in
  /// real CUDA the device code is embedded in the executable; here the
  /// application registers its .cu device source once at startup. Under
  /// the wrapper binding this is where CUDA→OpenCL device translation
  /// runs; following §3.4 the translated device code is *built* lazily on
  /// the first API call that needs it.
  virtual Status RegisterModule(const std::string& cuda_source) = 0;

  // -- memory ---------------------------------------------------------------
  virtual StatusOr<void*> Malloc(size_t size) = 0;
  virtual Status Free(void* ptr) = 0;
  virtual Status Memcpy(void* dst, const void* src, size_t size,
                        MemcpyKind kind) = 0;
  virtual Status MemcpyToSymbol(const std::string& symbol, const void* src,
                                size_t size, size_t offset = 0) = 0;
  virtual Status MemcpyFromSymbol(void* dst, const std::string& symbol,
                                  size_t size, size_t offset = 0) = 0;
  /// cudaMemGetInfo — no OpenCL counterpart exists (§3.7); the wrapper
  /// binding must report it unimplementable.
  virtual StatusOr<std::pair<size_t, size_t>> MemGetInfo() = 0;

  // -- kernel launch ----------------------------------------------------------
  /// k<<<grid, block, shared_bytes>>>(args...) after host rewriting.
  virtual Status LaunchKernel(const std::string& kernel, simgpu::Dim3 grid,
                              simgpu::Dim3 block, size_t shared_bytes,
                              std::span<const LaunchArg> args) = 0;
  virtual Status DeviceSynchronize() = 0;

  // -- streams (cudaStream_t, docs/CONCURRENCY.md) ---------------------------
  /// cudaStreamCreate. Streams are in-order; the null stream is the
  /// default (legacy) stream every stream-less entry point targets.
  virtual StatusOr<void*> StreamCreate() = 0;
  /// cudaStreamDestroy: implicit synchronize, then teardown; surfaces the
  /// stream's deferred async errors.
  virtual Status StreamDestroy(void* stream) = 0;
  /// cudaStreamSynchronize: blocks until the stream drains; deferred
  /// async-command errors surface here (docs/ROBUSTNESS.md).
  virtual Status StreamSynchronize(void* stream) = 0;
  /// cudaMemcpyAsync: returns immediately; failures are deferred to the
  /// next synchronization point on `stream`.
  virtual Status MemcpyAsync(void* dst, const void* src, size_t size,
                             MemcpyKind kind, void* stream) = 0;
  /// k<<<grid, block, shared, stream>>>(args...): asynchronous launch.
  virtual Status LaunchKernelOnStream(const std::string& kernel,
                                      simgpu::Dim3 grid, simgpu::Dim3 block,
                                      size_t shared_bytes,
                                      std::span<const LaunchArg> args,
                                      void* stream) = 0;
  /// cudaEventRecord(event, stream): the event completes when everything
  /// enqueued on `stream` so far completes.
  virtual Status EventRecordOnStream(void* event, void* stream) = 0;
  /// cudaStreamWaitEvent: later commands on `stream` wait for `event`.
  /// Waiting on a never-recorded event is a no-op (CUDA semantics).
  virtual Status StreamWaitEvent(void* stream, void* event) = 0;
  /// cudaEventSynchronize; a never-recorded event is already "complete".
  virtual Status EventSynchronize(void* event) = 0;

  // -- device queries -----------------------------------------------------------
  virtual StatusOr<CudaDeviceProps> GetDeviceProperties() = 0;

  // -- textures (§5) -----------------------------------------------------------
  /// cudaBindTexture: bind linear device memory to a 1D texture reference.
  virtual Status BindTexture(const std::string& texref, void* device_ptr,
                             size_t bytes, const ChannelDesc& desc,
                             bool normalized = false) = 0;
  /// cudaBindTexture2D.
  virtual Status BindTexture2D(const std::string& texref, void* device_ptr,
                               size_t width, size_t height, size_t pitch,
                               const ChannelDesc& desc) = 0;
  /// cudaMallocArray / cudaMemcpyToArray / cudaBindTextureToArray.
  virtual StatusOr<void*> MallocArray(const ChannelDesc& desc, size_t width,
                                      size_t height) = 0;
  virtual Status MemcpyToArray(void* array, const void* src,
                               size_t bytes) = 0;
  virtual Status BindTextureToArray(const std::string& texref, void* array,
                                    bool filter_linear = false,
                                    bool normalized = false) = 0;
  virtual Status UnbindTexture(const std::string& texref) = 0;

  // -- events (cudaEvent_t) --------------------------------------------------
  virtual StatusOr<void*> EventCreate() = 0;
  virtual Status EventRecord(void* event) = 0;
  /// cudaEventElapsedTime (in microseconds rather than ms).
  virtual StatusOr<double> EventElapsedUs(void* start, void* end) = 0;
  virtual Status EventDestroy(void* event) = 0;

  /// Models the native compiler's register allocation for one kernel
  /// (occupancy input, §6.3). Applications call this to reproduce
  /// toolchain differences; default comes from the front end's estimate.
  virtual Status SetKernelRegisters(const std::string& kernel, int regs) = 0;

  /// Simulated host-visible clock.
  virtual double NowUs() const = 0;

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

/// Native binding over a simulated device.
std::unique_ptr<CudaApi> CreateNativeCudaApi(simgpu::Device& device);

}  // namespace bridgecl::mcuda
