#include "timed_api.h"

#include <utility>

namespace hostbench {

using bridgecl::Status;
using bridgecl::StatusOr;
namespace mocl = bridgecl::mocl;
namespace mcuda = bridgecl::mcuda;
using bridgecl::simgpu::Dim3;

// ---------------------------------------------------------------------------
// TimedClApi

template <typename F>
auto TimedClApi::Timed(Cat cat, const char* name, F&& call,
                       uint64_t bytes) const {
  const int64_t t0 = NowNs();
  auto result = std::forward<F>(call)();
  if (rec_ != nullptr)
    rec_->Record(lane_, cat, name, t0, NowNs(), {}, 0, bytes);
  return result;
}

template <typename F>
auto TimedClApi::TimedLaunch(const char* name, mocl::ClKernel kernel,
                             int work_dim, const size_t* gws, F&& call) {
  uint64_t items = 1;
  for (int d = 0; d < work_dim; ++d) items *= gws[d];
  const int64_t t0 = NowNs();
  auto result = std::forward<F>(call)();
  const int64_t t1 = NowNs();
  auto it = kernel_names_.find(kernel.handle);
  if (rec_ != nullptr)
    rec_->Record(lane_, Cat::kLaunch, name, t0, t1,
              it == kernel_names_.end() ? std::string("?") : it->second,
              items);
  return result;
}

std::string TimedClApi::PlatformName() const {
  return Timed(Cat::kOther, "clGetPlatformInfo",
               [&] { return in_.PlatformName(); });
}
StatusOr<std::string> TimedClApi::QueryDeviceInfoString(
    mocl::ClDeviceAttr attr) {
  return Timed(Cat::kOther, "clGetDeviceInfo",
               [&] { return in_.QueryDeviceInfoString(attr); });
}
StatusOr<uint64_t> TimedClApi::QueryDeviceInfoUint(mocl::ClDeviceAttr attr) {
  return Timed(Cat::kOther, "clGetDeviceInfo",
               [&] { return in_.QueryDeviceInfoUint(attr); });
}
StatusOr<int> TimedClApi::CreateSubDevices(int n) {
  return Timed(Cat::kOther, "clCreateSubDevices",
               [&] { return in_.CreateSubDevices(n); });
}

StatusOr<mocl::ClMem> TimedClApi::CreateBuffer(mocl::MemFlags flags,
                                               size_t size,
                                               const void* host_ptr) {
  return Timed(Cat::kAlloc, "clCreateBuffer",
               [&] { return in_.CreateBuffer(flags, size, host_ptr); });
}
Status TimedClApi::ReleaseMemObject(mocl::ClMem mem) {
  return Timed(Cat::kAlloc, "clReleaseMemObject",
               [&] { return in_.ReleaseMemObject(mem); });
}
Status TimedClApi::EnqueueWriteBuffer(mocl::ClMem mem, size_t offset,
                                      size_t size, const void* src) {
  return Timed(
      Cat::kCopy, "clEnqueueWriteBuffer",
      [&] { return in_.EnqueueWriteBuffer(mem, offset, size, src); }, size);
}
Status TimedClApi::EnqueueReadBuffer(mocl::ClMem mem, size_t offset,
                                     size_t size, void* dst) {
  return Timed(
      Cat::kCopy, "clEnqueueReadBuffer",
      [&] { return in_.EnqueueReadBuffer(mem, offset, size, dst); }, size);
}
Status TimedClApi::EnqueueCopyBuffer(mocl::ClMem src, mocl::ClMem dst,
                                     size_t src_offset, size_t dst_offset,
                                     size_t size) {
  return Timed(
      Cat::kCopy, "clEnqueueCopyBuffer",
      [&] {
        return in_.EnqueueCopyBuffer(src, dst, src_offset, dst_offset, size);
      },
      size);
}

StatusOr<mocl::ClMem> TimedClApi::CreateImage2D(
    mocl::MemFlags flags, const mocl::ClImageFormat& format, size_t width,
    size_t height, const void* host_ptr) {
  return Timed(Cat::kAlloc, "clCreateImage2D", [&] {
    return in_.CreateImage2D(flags, format, width, height, host_ptr);
  });
}
StatusOr<mocl::ClMem> TimedClApi::CreateImage1D(
    mocl::MemFlags flags, const mocl::ClImageFormat& format, size_t width,
    const void* host_ptr) {
  return Timed(Cat::kAlloc, "clCreateImage1D", [&] {
    return in_.CreateImage1D(flags, format, width, host_ptr);
  });
}
StatusOr<mocl::ClMem> TimedClApi::CreateImage1DFromBuffer(
    const mocl::ClImageFormat& format, size_t width, mocl::ClMem buffer) {
  return Timed(Cat::kAlloc, "clCreateImage1DFromBuffer", [&] {
    return in_.CreateImage1DFromBuffer(format, width, buffer);
  });
}
Status TimedClApi::EnqueueWriteImage(mocl::ClMem image, const void* src) {
  return Timed(Cat::kCopy, "clEnqueueWriteImage",
               [&] { return in_.EnqueueWriteImage(image, src); });
}
Status TimedClApi::EnqueueReadImage(mocl::ClMem image, void* dst) {
  return Timed(Cat::kCopy, "clEnqueueReadImage",
               [&] { return in_.EnqueueReadImage(image, dst); });
}
StatusOr<uint64_t> TimedClApi::CreateSampler(
    const mocl::ClSamplerDesc& desc) {
  return Timed(Cat::kOther, "clCreateSampler",
               [&] { return in_.CreateSampler(desc); });
}

StatusOr<mocl::ClProgram> TimedClApi::CreateProgramWithSource(
    const std::string& source) {
  return Timed(Cat::kBuild, "clCreateProgramWithSource",
               [&] { return in_.CreateProgramWithSource(source); });
}
Status TimedClApi::BuildProgram(mocl::ClProgram program) {
  return Timed(Cat::kBuild, "clBuildProgram",
               [&] { return in_.BuildProgram(program); });
}
StatusOr<std::string> TimedClApi::GetProgramBuildLog(
    mocl::ClProgram program) {
  return Timed(Cat::kOther, "clGetProgramBuildInfo",
               [&] { return in_.GetProgramBuildLog(program); });
}
StatusOr<mocl::ClKernel> TimedClApi::CreateKernel(mocl::ClProgram program,
                                                  const std::string& name) {
  StatusOr<mocl::ClKernel> k = Timed(
      Cat::kOther, "clCreateKernel",
      [&] { return in_.CreateKernel(program, name); });
  if (k.ok()) kernel_names_[k->handle] = name;
  return k;
}
Status TimedClApi::SetKernelArg(mocl::ClKernel kernel, int index, size_t size,
                                const void* value) {
  return Timed(Cat::kOther, "clSetKernelArg", [&] {
    return in_.SetKernelArg(kernel, index, size, value);
  });
}
Status TimedClApi::EnqueueNDRangeKernel(mocl::ClKernel kernel, int work_dim,
                                        const size_t* gws,
                                        const size_t* lws) {
  return TimedLaunch("clEnqueueNDRangeKernel", kernel, work_dim, gws, [&] {
    return in_.EnqueueNDRangeKernel(kernel, work_dim, gws, lws);
  });
}
Status TimedClApi::Finish() {
  return Timed(Cat::kSync, "clFinish", [&] { return in_.Finish(); });
}

StatusOr<mocl::ClQueue> TimedClApi::CreateCommandQueue(uint64_t properties) {
  return Timed(Cat::kOther, "clCreateCommandQueue",
               [&] { return in_.CreateCommandQueue(properties); });
}
Status TimedClApi::ReleaseCommandQueue(mocl::ClQueue queue) {
  return Timed(Cat::kOther, "clReleaseCommandQueue",
               [&] { return in_.ReleaseCommandQueue(queue); });
}
Status TimedClApi::EnqueueWriteBufferOn(
    mocl::ClQueue queue, mocl::ClMem mem, size_t offset, size_t size,
    const void* src, bool blocking, std::span<const mocl::ClEvent> wait_events,
    mocl::ClEvent* out_event) {
  return Timed(
      Cat::kCopy, "clEnqueueWriteBuffer",
      [&] {
        return in_.EnqueueWriteBufferOn(queue, mem, offset, size, src,
                                        blocking, wait_events, out_event);
      },
      size);
}
Status TimedClApi::EnqueueReadBufferOn(
    mocl::ClQueue queue, mocl::ClMem mem, size_t offset, size_t size,
    void* dst, bool blocking, std::span<const mocl::ClEvent> wait_events,
    mocl::ClEvent* out_event) {
  return Timed(
      Cat::kCopy, "clEnqueueReadBuffer",
      [&] {
        return in_.EnqueueReadBufferOn(queue, mem, offset, size, dst,
                                       blocking, wait_events, out_event);
      },
      size);
}
Status TimedClApi::EnqueueCopyBufferOn(
    mocl::ClQueue queue, mocl::ClMem src, mocl::ClMem dst, size_t src_offset,
    size_t dst_offset, size_t size,
    std::span<const mocl::ClEvent> wait_events, mocl::ClEvent* out_event) {
  return Timed(
      Cat::kCopy, "clEnqueueCopyBuffer",
      [&] {
        return in_.EnqueueCopyBufferOn(queue, src, dst, src_offset,
                                       dst_offset, size, wait_events,
                                       out_event);
      },
      size);
}
Status TimedClApi::EnqueueNDRangeKernelOn(
    mocl::ClQueue queue, mocl::ClKernel kernel, int work_dim,
    const size_t* gws, const size_t* lws,
    std::span<const mocl::ClEvent> wait_events, mocl::ClEvent* out_event) {
  return TimedLaunch("clEnqueueNDRangeKernel", kernel, work_dim, gws, [&] {
    return in_.EnqueueNDRangeKernelOn(queue, kernel, work_dim, gws, lws,
                                      wait_events, out_event);
  });
}
StatusOr<mocl::ClEvent> TimedClApi::EnqueueMarkerWithWaitList(
    mocl::ClQueue queue, std::span<const mocl::ClEvent> wait_events) {
  return Timed(Cat::kOther, "clEnqueueMarkerWithWaitList", [&] {
    return in_.EnqueueMarkerWithWaitList(queue, wait_events);
  });
}
StatusOr<mocl::ClEvent> TimedClApi::EnqueueBarrier(mocl::ClQueue queue) {
  return Timed(Cat::kOther, "clEnqueueBarrierWithWaitList",
               [&] { return in_.EnqueueBarrier(queue); });
}
Status TimedClApi::Flush(mocl::ClQueue queue) {
  return Timed(Cat::kOther, "clFlush", [&] { return in_.Flush(queue); });
}
Status TimedClApi::Finish(mocl::ClQueue queue) {
  return Timed(Cat::kSync, "clFinish", [&] { return in_.Finish(queue); });
}
Status TimedClApi::WaitForEvents(std::span<const mocl::ClEvent> events) {
  return Timed(Cat::kSync, "clWaitForEvents",
               [&] { return in_.WaitForEvents(events); });
}
Status TimedClApi::ReleaseEvent(mocl::ClEvent event) {
  return Timed(Cat::kOther, "clReleaseEvent",
               [&] { return in_.ReleaseEvent(event); });
}

StatusOr<mocl::ClEvent> TimedClApi::EnqueueNDRangeKernelWithEvent(
    mocl::ClKernel kernel, int work_dim, const size_t* gws,
    const size_t* lws) {
  return TimedLaunch("clEnqueueNDRangeKernel", kernel, work_dim, gws, [&] {
    return in_.EnqueueNDRangeKernelWithEvent(kernel, work_dim, gws, lws);
  });
}
Status TimedClApi::GetEventProfiling(mocl::ClEvent event, double* queued_us,
                                     double* end_us) {
  return Timed(Cat::kOther, "clGetEventProfilingInfo", [&] {
    return in_.GetEventProfiling(event, queued_us, end_us);
  });
}
Status TimedClApi::SetProgramKernelRegisters(mocl::ClProgram program,
                                             const std::string& kernel,
                                             int regs) {
  return Timed(Cat::kOther, "setKernelRegisters", [&] {
    return in_.SetProgramKernelRegisters(program, kernel, regs);
  });
}
Status TimedClApi::Snapshot(const std::string& path) {
  return Timed(Cat::kOther, "bridgeclSnapshot",
               [&] { return in_.Snapshot(path); });
}
Status TimedClApi::Restore(const std::string& path) {
  return Timed(Cat::kOther, "bridgeclRestore",
               [&] { return in_.Restore(path); });
}

// ---------------------------------------------------------------------------
// TimedCudaApi

template <typename F>
auto TimedCudaApi::Timed(Cat cat, const char* name, F&& call,
                         uint64_t bytes) {
  const int64_t t0 = NowNs();
  auto result = std::forward<F>(call)();
  if (rec_ != nullptr)
    rec_->Record(lane_, cat, name, t0, NowNs(), {}, 0, bytes);
  return result;
}

Status TimedCudaApi::RegisterModule(const std::string& cuda_source) {
  return Timed(Cat::kBuild, "registerModule",
               [&] { return in_.RegisterModule(cuda_source); });
}
StatusOr<void*> TimedCudaApi::Malloc(size_t size) {
  return Timed(Cat::kAlloc, "cudaMalloc", [&] { return in_.Malloc(size); });
}
Status TimedCudaApi::Free(void* ptr) {
  return Timed(Cat::kAlloc, "cudaFree", [&] { return in_.Free(ptr); });
}
Status TimedCudaApi::Memcpy(void* dst, const void* src, size_t size,
                            mcuda::MemcpyKind kind) {
  return Timed(
      Cat::kCopy, "cudaMemcpy",
      [&] { return in_.Memcpy(dst, src, size, kind); }, size);
}
Status TimedCudaApi::MemcpyToSymbol(const std::string& symbol,
                                    const void* src, size_t size,
                                    size_t offset) {
  return Timed(
      Cat::kCopy, "cudaMemcpyToSymbol",
      [&] { return in_.MemcpyToSymbol(symbol, src, size, offset); }, size);
}
Status TimedCudaApi::MemcpyFromSymbol(void* dst, const std::string& symbol,
                                      size_t size, size_t offset) {
  return Timed(
      Cat::kCopy, "cudaMemcpyFromSymbol",
      [&] { return in_.MemcpyFromSymbol(dst, symbol, size, offset); }, size);
}
StatusOr<std::pair<size_t, size_t>> TimedCudaApi::MemGetInfo() {
  return Timed(Cat::kOther, "cudaMemGetInfo",
               [&] { return in_.MemGetInfo(); });
}

Status TimedCudaApi::LaunchKernel(const std::string& kernel, Dim3 grid,
                                  Dim3 block, size_t shared_bytes,
                                  std::span<const mcuda::LaunchArg> args) {
  const int64_t t0 = NowNs();
  Status st = in_.LaunchKernel(kernel, grid, block, shared_bytes, args);
  if (rec_ != nullptr)
    rec_->Record(lane_, Cat::kLaunch, "cudaLaunchKernel", t0, NowNs(), kernel,
              grid.Count() * block.Count());
  return st;
}
Status TimedCudaApi::DeviceSynchronize() {
  return Timed(Cat::kSync, "cudaDeviceSynchronize",
               [&] { return in_.DeviceSynchronize(); });
}

StatusOr<void*> TimedCudaApi::StreamCreate() {
  return Timed(Cat::kOther, "cudaStreamCreate",
               [&] { return in_.StreamCreate(); });
}
Status TimedCudaApi::StreamDestroy(void* stream) {
  return Timed(Cat::kOther, "cudaStreamDestroy",
               [&] { return in_.StreamDestroy(stream); });
}
Status TimedCudaApi::StreamSynchronize(void* stream) {
  return Timed(Cat::kSync, "cudaStreamSynchronize",
               [&] { return in_.StreamSynchronize(stream); });
}
Status TimedCudaApi::MemcpyAsync(void* dst, const void* src, size_t size,
                                 mcuda::MemcpyKind kind, void* stream) {
  return Timed(
      Cat::kCopy, "cudaMemcpyAsync",
      [&] { return in_.MemcpyAsync(dst, src, size, kind, stream); }, size);
}
Status TimedCudaApi::LaunchKernelOnStream(
    const std::string& kernel, Dim3 grid, Dim3 block, size_t shared_bytes,
    std::span<const mcuda::LaunchArg> args, void* stream) {
  const int64_t t0 = NowNs();
  Status st = in_.LaunchKernelOnStream(kernel, grid, block, shared_bytes,
                                       args, stream);
  if (rec_ != nullptr)
    rec_->Record(lane_, Cat::kLaunch, "cudaLaunchKernel", t0, NowNs(), kernel,
              grid.Count() * block.Count());
  return st;
}
Status TimedCudaApi::EventRecordOnStream(void* event, void* stream) {
  return Timed(Cat::kOther, "cudaEventRecord",
               [&] { return in_.EventRecordOnStream(event, stream); });
}
Status TimedCudaApi::StreamWaitEvent(void* stream, void* event) {
  return Timed(Cat::kOther, "cudaStreamWaitEvent",
               [&] { return in_.StreamWaitEvent(stream, event); });
}
Status TimedCudaApi::EventSynchronize(void* event) {
  return Timed(Cat::kSync, "cudaEventSynchronize",
               [&] { return in_.EventSynchronize(event); });
}

StatusOr<mcuda::CudaDeviceProps> TimedCudaApi::GetDeviceProperties() {
  return Timed(Cat::kOther, "cudaGetDeviceProperties",
               [&] { return in_.GetDeviceProperties(); });
}

Status TimedCudaApi::BindTexture(const std::string& texref, void* device_ptr,
                                 size_t bytes, const mcuda::ChannelDesc& desc,
                                 bool normalized) {
  return Timed(Cat::kOther, "cudaBindTexture", [&] {
    return in_.BindTexture(texref, device_ptr, bytes, desc, normalized);
  });
}
Status TimedCudaApi::BindTexture2D(const std::string& texref,
                                   void* device_ptr, size_t width,
                                   size_t height, size_t pitch,
                                   const mcuda::ChannelDesc& desc) {
  return Timed(Cat::kOther, "cudaBindTexture2D", [&] {
    return in_.BindTexture2D(texref, device_ptr, width, height, pitch, desc);
  });
}
StatusOr<void*> TimedCudaApi::MallocArray(const mcuda::ChannelDesc& desc,
                                          size_t width, size_t height) {
  return Timed(Cat::kAlloc, "cudaMallocArray",
               [&] { return in_.MallocArray(desc, width, height); });
}
Status TimedCudaApi::MemcpyToArray(void* array, const void* src,
                                   size_t bytes) {
  return Timed(
      Cat::kCopy, "cudaMemcpyToArray",
      [&] { return in_.MemcpyToArray(array, src, bytes); }, bytes);
}
Status TimedCudaApi::BindTextureToArray(const std::string& texref,
                                        void* array, bool filter_linear,
                                        bool normalized) {
  return Timed(Cat::kOther, "cudaBindTextureToArray", [&] {
    return in_.BindTextureToArray(texref, array, filter_linear, normalized);
  });
}
Status TimedCudaApi::UnbindTexture(const std::string& texref) {
  return Timed(Cat::kOther, "cudaUnbindTexture",
               [&] { return in_.UnbindTexture(texref); });
}

StatusOr<void*> TimedCudaApi::EventCreate() {
  return Timed(Cat::kOther, "cudaEventCreate",
               [&] { return in_.EventCreate(); });
}
Status TimedCudaApi::EventRecord(void* event) {
  return Timed(Cat::kOther, "cudaEventRecord",
               [&] { return in_.EventRecord(event); });
}
StatusOr<double> TimedCudaApi::EventElapsedUs(void* start, void* end) {
  return Timed(Cat::kOther, "cudaEventElapsedTime",
               [&] { return in_.EventElapsedUs(start, end); });
}
Status TimedCudaApi::EventDestroy(void* event) {
  return Timed(Cat::kOther, "cudaEventDestroy",
               [&] { return in_.EventDestroy(event); });
}
Status TimedCudaApi::SetKernelRegisters(const std::string& kernel, int regs) {
  return Timed(Cat::kOther, "setKernelRegisters",
               [&] { return in_.SetKernelRegisters(kernel, regs); });
}
Status TimedCudaApi::Snapshot(const std::string& path) {
  return Timed(Cat::kOther, "bridgeclSnapshot",
               [&] { return in_.Snapshot(path); });
}
Status TimedCudaApi::Restore(const std::string& path) {
  return Timed(Cat::kOther, "bridgeclRestore",
               [&] { return in_.Restore(path); });
}

}  // namespace hostbench
