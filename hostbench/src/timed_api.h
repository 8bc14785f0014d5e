// Forwarding decorators over BridgeCL's two host-API interfaces. Each one
// forwards every virtual call to the object it wraps and records the
// call's host wall time into a Recorder lane. The benchmark stacks them
// above a wrapper binding (the application's calls into cl2cu/cu2cl) and
// between the wrapper and the native runtime (the wrapper's calls into
// mcuda/mocl), so a wrapper's own cost is the difference of the two lanes.
#pragma once

#include <map>
#include <string>

#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "recorder.h"

namespace hostbench {

class TimedClApi final : public bridgecl::mocl::OpenClApi {
 public:
  /// `rec` receives every call; it may be swapped between operations.
  TimedClApi(bridgecl::mocl::OpenClApi& inner, Recorder* rec, Lane lane)
      : in_(inner), rec_(rec), lane_(lane) {}
  void set_recorder(Recorder* rec) { rec_ = rec; }

  std::string PlatformName() const override;
  bridgecl::StatusOr<std::string> QueryDeviceInfoString(
      bridgecl::mocl::ClDeviceAttr attr) override;
  bridgecl::StatusOr<uint64_t> QueryDeviceInfoUint(
      bridgecl::mocl::ClDeviceAttr attr) override;
  bridgecl::StatusOr<int> CreateSubDevices(int n) override;

  bridgecl::StatusOr<bridgecl::mocl::ClMem> CreateBuffer(
      bridgecl::mocl::MemFlags flags, size_t size,
      const void* host_ptr) override;
  bridgecl::Status ReleaseMemObject(bridgecl::mocl::ClMem mem) override;
  bridgecl::Status EnqueueWriteBuffer(bridgecl::mocl::ClMem mem,
                                      size_t offset, size_t size,
                                      const void* src) override;
  bridgecl::Status EnqueueReadBuffer(bridgecl::mocl::ClMem mem, size_t offset,
                                     size_t size, void* dst) override;
  bridgecl::Status EnqueueCopyBuffer(bridgecl::mocl::ClMem src,
                                     bridgecl::mocl::ClMem dst,
                                     size_t src_offset, size_t dst_offset,
                                     size_t size) override;

  bridgecl::StatusOr<bridgecl::mocl::ClMem> CreateImage2D(
      bridgecl::mocl::MemFlags flags,
      const bridgecl::mocl::ClImageFormat& format, size_t width,
      size_t height, const void* host_ptr) override;
  bridgecl::StatusOr<bridgecl::mocl::ClMem> CreateImage1D(
      bridgecl::mocl::MemFlags flags,
      const bridgecl::mocl::ClImageFormat& format, size_t width,
      const void* host_ptr) override;
  bridgecl::StatusOr<bridgecl::mocl::ClMem> CreateImage1DFromBuffer(
      const bridgecl::mocl::ClImageFormat& format, size_t width,
      bridgecl::mocl::ClMem buffer) override;
  bridgecl::Status EnqueueWriteImage(bridgecl::mocl::ClMem image,
                                     const void* src) override;
  bridgecl::Status EnqueueReadImage(bridgecl::mocl::ClMem image,
                                    void* dst) override;
  bridgecl::StatusOr<uint64_t> CreateSampler(
      const bridgecl::mocl::ClSamplerDesc& desc) override;

  bridgecl::StatusOr<bridgecl::mocl::ClProgram> CreateProgramWithSource(
      const std::string& source) override;
  bridgecl::Status BuildProgram(bridgecl::mocl::ClProgram program) override;
  bridgecl::StatusOr<std::string> GetProgramBuildLog(
      bridgecl::mocl::ClProgram program) override;
  bridgecl::StatusOr<bridgecl::mocl::ClKernel> CreateKernel(
      bridgecl::mocl::ClProgram program, const std::string& name) override;
  bridgecl::Status SetKernelArg(bridgecl::mocl::ClKernel kernel, int index,
                                size_t size, const void* value) override;
  bridgecl::Status EnqueueNDRangeKernel(bridgecl::mocl::ClKernel kernel,
                                        int work_dim, const size_t* gws,
                                        const size_t* lws) override;
  bridgecl::Status Finish() override;

  bridgecl::StatusOr<bridgecl::mocl::ClQueue> CreateCommandQueue(
      uint64_t properties) override;
  bridgecl::Status ReleaseCommandQueue(bridgecl::mocl::ClQueue queue) override;
  bridgecl::Status EnqueueWriteBufferOn(
      bridgecl::mocl::ClQueue queue, bridgecl::mocl::ClMem mem, size_t offset,
      size_t size, const void* src, bool blocking,
      std::span<const bridgecl::mocl::ClEvent> wait_events,
      bridgecl::mocl::ClEvent* out_event) override;
  bridgecl::Status EnqueueReadBufferOn(
      bridgecl::mocl::ClQueue queue, bridgecl::mocl::ClMem mem, size_t offset,
      size_t size, void* dst, bool blocking,
      std::span<const bridgecl::mocl::ClEvent> wait_events,
      bridgecl::mocl::ClEvent* out_event) override;
  bridgecl::Status EnqueueCopyBufferOn(
      bridgecl::mocl::ClQueue queue, bridgecl::mocl::ClMem src,
      bridgecl::mocl::ClMem dst, size_t src_offset, size_t dst_offset,
      size_t size, std::span<const bridgecl::mocl::ClEvent> wait_events,
      bridgecl::mocl::ClEvent* out_event) override;
  bridgecl::Status EnqueueNDRangeKernelOn(
      bridgecl::mocl::ClQueue queue, bridgecl::mocl::ClKernel kernel,
      int work_dim, const size_t* gws, const size_t* lws,
      std::span<const bridgecl::mocl::ClEvent> wait_events,
      bridgecl::mocl::ClEvent* out_event) override;
  bridgecl::StatusOr<bridgecl::mocl::ClEvent> EnqueueMarkerWithWaitList(
      bridgecl::mocl::ClQueue queue,
      std::span<const bridgecl::mocl::ClEvent> wait_events) override;
  bridgecl::StatusOr<bridgecl::mocl::ClEvent> EnqueueBarrier(
      bridgecl::mocl::ClQueue queue) override;
  bridgecl::Status Flush(bridgecl::mocl::ClQueue queue) override;
  bridgecl::Status Finish(bridgecl::mocl::ClQueue queue) override;
  bridgecl::Status WaitForEvents(
      std::span<const bridgecl::mocl::ClEvent> events) override;
  bridgecl::Status ReleaseEvent(bridgecl::mocl::ClEvent event) override;

  bridgecl::StatusOr<bridgecl::mocl::ClEvent> EnqueueNDRangeKernelWithEvent(
      bridgecl::mocl::ClKernel kernel, int work_dim, const size_t* gws,
      const size_t* lws) override;
  bridgecl::Status GetEventProfiling(bridgecl::mocl::ClEvent event,
                                     double* queued_us,
                                     double* end_us) override;
  bridgecl::Status SetProgramKernelRegisters(bridgecl::mocl::ClProgram program,
                                             const std::string& kernel,
                                             int regs) override;

  double NowUs() const override { return in_.NowUs(); }
  double BuildTimeUs() const override { return in_.BuildTimeUs(); }
  bridgecl::trace::TraceRecorder* Tracer() const override {
    return in_.Tracer();
  }
  bridgecl::Status Snapshot(const std::string& path) override;
  bridgecl::Status Restore(const std::string& path) override;

 private:
  template <typename F>
  auto Timed(Cat cat, const char* name, F&& call, uint64_t bytes = 0) const;
  template <typename F>
  auto TimedLaunch(const char* name, bridgecl::mocl::ClKernel kernel,
                   int work_dim, const size_t* gws, F&& call);

  bridgecl::mocl::OpenClApi& in_;
  Recorder* rec_;
  Lane lane_;
  std::map<uint64_t, std::string> kernel_names_;  // ClKernel handle -> name
};

class TimedCudaApi final : public bridgecl::mcuda::CudaApi {
 public:
  TimedCudaApi(bridgecl::mcuda::CudaApi& inner, Recorder* rec, Lane lane)
      : in_(inner), rec_(rec), lane_(lane) {}
  void set_recorder(Recorder* rec) { rec_ = rec; }

  bridgecl::Status RegisterModule(const std::string& cuda_source) override;
  bridgecl::StatusOr<void*> Malloc(size_t size) override;
  bridgecl::Status Free(void* ptr) override;
  bridgecl::Status Memcpy(void* dst, const void* src, size_t size,
                          bridgecl::mcuda::MemcpyKind kind) override;
  bridgecl::Status MemcpyToSymbol(const std::string& symbol, const void* src,
                                  size_t size, size_t offset) override;
  bridgecl::Status MemcpyFromSymbol(void* dst, const std::string& symbol,
                                    size_t size, size_t offset) override;
  bridgecl::StatusOr<std::pair<size_t, size_t>> MemGetInfo() override;

  bridgecl::Status LaunchKernel(
      const std::string& kernel, bridgecl::simgpu::Dim3 grid,
      bridgecl::simgpu::Dim3 block, size_t shared_bytes,
      std::span<const bridgecl::mcuda::LaunchArg> args) override;
  bridgecl::Status DeviceSynchronize() override;

  bridgecl::StatusOr<void*> StreamCreate() override;
  bridgecl::Status StreamDestroy(void* stream) override;
  bridgecl::Status StreamSynchronize(void* stream) override;
  bridgecl::Status MemcpyAsync(void* dst, const void* src, size_t size,
                               bridgecl::mcuda::MemcpyKind kind,
                               void* stream) override;
  bridgecl::Status LaunchKernelOnStream(
      const std::string& kernel, bridgecl::simgpu::Dim3 grid,
      bridgecl::simgpu::Dim3 block, size_t shared_bytes,
      std::span<const bridgecl::mcuda::LaunchArg> args,
      void* stream) override;
  bridgecl::Status EventRecordOnStream(void* event, void* stream) override;
  bridgecl::Status StreamWaitEvent(void* stream, void* event) override;
  bridgecl::Status EventSynchronize(void* event) override;

  bridgecl::StatusOr<bridgecl::mcuda::CudaDeviceProps> GetDeviceProperties()
      override;

  bridgecl::Status BindTexture(const std::string& texref, void* device_ptr,
                               size_t bytes,
                               const bridgecl::mcuda::ChannelDesc& desc,
                               bool normalized) override;
  bridgecl::Status BindTexture2D(const std::string& texref, void* device_ptr,
                                 size_t width, size_t height, size_t pitch,
                                 const bridgecl::mcuda::ChannelDesc& desc)
      override;
  bridgecl::StatusOr<void*> MallocArray(
      const bridgecl::mcuda::ChannelDesc& desc, size_t width,
      size_t height) override;
  bridgecl::Status MemcpyToArray(void* array, const void* src,
                                 size_t bytes) override;
  bridgecl::Status BindTextureToArray(const std::string& texref, void* array,
                                      bool filter_linear,
                                      bool normalized) override;
  bridgecl::Status UnbindTexture(const std::string& texref) override;

  bridgecl::StatusOr<void*> EventCreate() override;
  bridgecl::Status EventRecord(void* event) override;
  bridgecl::StatusOr<double> EventElapsedUs(void* start, void* end) override;
  bridgecl::Status EventDestroy(void* event) override;

  bridgecl::Status SetKernelRegisters(const std::string& kernel,
                                      int regs) override;

  double NowUs() const override { return in_.NowUs(); }
  bridgecl::trace::TraceRecorder* Tracer() const override {
    return in_.Tracer();
  }
  bridgecl::Status Snapshot(const std::string& path) override;
  bridgecl::Status Restore(const std::string& path) override;

 private:
  template <typename F>
  auto Timed(Cat cat, const char* name, F&& call, uint64_t bytes = 0);

  bridgecl::mcuda::CudaApi& in_;
  Recorder* rec_;
  Lane lane_;
};

}  // namespace hostbench
