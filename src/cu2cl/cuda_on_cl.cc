#include "cu2cl/cuda_on_cl.h"

#include <cstring>
#include <unordered_map>

#include "mcuda/cuda_errors.h"
#include "mocl/cl_errors.h"
#include "support/strings.h"
#include "trace/trace.h"

namespace bridgecl::cu2cl {
namespace {

using mcuda::AsCuda;
using mcuda::ChannelDesc;
using mcuda::CudaApi;
using mcuda::CudaDeviceProps;
using mcuda::LaunchArg;
using mcuda::MemcpyKind;
using mocl::ClEvent;
using mocl::ClImageFormat;
using mocl::ClKernel;
using mocl::ClMem;
using mocl::ClProgram;
using mocl::ClQueue;
using mocl::ClSamplerDesc;
using mocl::MemFlags;
using mocl::OpenClApi;
using simgpu::Dim3;
using trace::TraceKind;
using translator::KernelTranslationInfo;
using translator::TranslationResult;

/// Re-express an OpenCL error annotation from the inner CL runtime in the
/// vocabulary of the API this wrapper emulates (the CUDA runtime). The
/// full cross-mapping table is documented in docs/ROBUSTNESS.md; it is
/// the wrapper-direction counterpart of ClFromCuda in cl_on_cuda.cc.
int CudaFromCl(int cl_code) {
  switch (cl_code) {
    case mocl::CL_DEVICE_NOT_AVAILABLE:
      return mcuda::cudaErrorDevicesUnavailable;
    case mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE:
    case mocl::CL_OUT_OF_HOST_MEMORY:
      return mcuda::cudaErrorMemoryAllocation;
    // The CL catch-all execution failure becomes the CUDA catch-all
    // "unspecified launch failure".
    case mocl::CL_OUT_OF_RESOURCES:
      return mcuda::cudaErrorLaunchFailure;
    case mocl::CL_BUILD_PROGRAM_FAILURE:
    case mocl::CL_INVALID_PROGRAM:
    case mocl::CL_INVALID_PROGRAM_EXECUTABLE:
      return mcuda::cudaErrorNoKernelImageForDevice;
    case mocl::CL_INVALID_KERNEL_NAME:
    case mocl::CL_INVALID_KERNEL:
      return mcuda::cudaErrorInvalidDeviceFunction;
    case mocl::CL_INVALID_MEM_OBJECT:
      return mcuda::cudaErrorInvalidDevicePointer;
    case mocl::CL_INVALID_SAMPLER:
      return mcuda::cudaErrorInvalidTexture;
    case mocl::CL_INVALID_WORK_DIMENSION:
    case mocl::CL_INVALID_WORK_GROUP_SIZE:
    case mocl::CL_INVALID_WORK_ITEM_SIZE:
      return mcuda::cudaErrorInvalidConfiguration;
    case mocl::CL_INVALID_EVENT:
      return mcuda::cudaErrorInvalidResourceHandle;
    case mocl::CL_INVALID_OPERATION:
      return mcuda::cudaErrorNotSupported;
    case mocl::CL_INVALID_VALUE:
    case mocl::CL_INVALID_DEVICE:
    case mocl::CL_INVALID_IMAGE_SIZE:
    case mocl::CL_INVALID_ARG_INDEX:
    case mocl::CL_INVALID_ARG_VALUE:
    case mocl::CL_INVALID_ARG_SIZE:
    case mocl::CL_INVALID_KERNEL_ARGS:
    case mocl::CL_INVALID_BUFFER_SIZE:
    case mocl::CL_INVALID_DEVICE_PARTITION_COUNT:
    default:
      return mcuda::cudaErrorInvalidValue;
  }
}

struct SymbolRec {
  ClMem buffer;
  size_t size = 0;
  bool is_constant = false;
};

struct TextureRec {
  ClMem image;
  uint64_t sampler = 0;
  bool bound = false;
};

/// One cudaEvent_t. The legacy cudaEventRecord path stamps a host
/// timestamp (synchronous flows make that exact); recording on a stream
/// instead plants a CL marker event whose profiled end time is the
/// event's completion instant.
struct EventRec {
  double host_us = -1.0;  // legacy host-clock recording; -1 = never
  bool has_cl = false;    // recorded through a stream marker
  ClEvent cl_event;
};

class CudaOnClApi final : public CudaApi {
 public:
  CudaOnClApi(OpenClApi& cl, const CudaOnClOptions& options)
      : cl_(cl), options_(options) {}

  /// Shared trace: wrapper spans record into the inner CL runtime's
  /// recorder, so forwarded native calls nest under them naturally.
  trace::TraceRecorder* Tracer() const override { return cl_.Tracer(); }

  Status RegisterModule(const std::string& cuda_source) override {
    auto span = Span(TraceKind::kApiCall, "cudaRegisterFatBinary");
    // Translate now (static source-to-source step, Figure 3)...
    DiagnosticEngine diags;
    auto tr =
        translator::TranslateCudaToOpenCl(cuda_source, diags,
                                          options_.translate);
    if (!tr.ok())
      return AsCuda(Status(tr.status().code(),
                           tr.status().message() + "\n" + diags.ToString()),
                    mcuda::cudaErrorInvalidDeviceFunction);
    translation_ = std::move(*tr);
    // ...but defer clBuildProgram to the first use (§3.4).
    built_ = false;
    // Pre-create the buffers standing in for __device__/__constant__
    // statics (§4.3) so MemcpyToSymbol works before the first launch.
    for (const auto& k : translation_.kernels) {
      for (const auto& s : k.symbol_params) {
        if (symbols_.count(s.name)) continue;
        BRIDGECL_ASSIGN_OR_RETURN(
            ClMem buf,
            Seal(cl_.CreateBuffer(s.is_constant ? MemFlags::kReadOnly
                                                : MemFlags::kReadWrite,
                                  s.byte_size, nullptr),
                 mcuda::cudaErrorMemoryAllocation));
        symbols_[s.name] = SymbolRec{buf, s.byte_size, s.is_constant};
      }
    }
    return OkStatus();
  }

  StatusOr<void*> Malloc(size_t size) override {
    auto span = Span(TraceKind::kApiCall, "cudaMalloc");
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem mem, Seal(cl_.CreateBuffer(MemFlags::kReadWrite, size, nullptr),
                        mcuda::cudaErrorMemoryAllocation));
    buffer_sizes_[mem.handle] = size;
    // §4: the cl_mem handle is cast to void* and handed to the program.
    return reinterpret_cast<void*>(mem.handle);
  }

  Status Free(void* ptr) override {
    auto span = Span(TraceKind::kApiCall, "cudaFree");
    ClMem mem{reinterpret_cast<uint64_t>(ptr)};
    // cudaFree on an unknown pointer is cudaErrorInvalidDevicePointer;
    // a fault while releasing a known buffer keeps its mapped code.
    BRIDGECL_RETURN_IF_ERROR(
        Seal(cl_.ReleaseMemObject(mem), mcuda::cudaErrorUnknown));
    buffer_sizes_.erase(mem.handle);
    return OkStatus();
  }

  Status Memcpy(void* dst, const void* src, size_t size,
                MemcpyKind kind) override {
    auto span = Span(TraceKindForMemcpy(kind), "cudaMemcpy");
    span.SetBytes(size);
    switch (kind) {
      case MemcpyKind::kHostToDevice:
        return span.Sealed(
            Seal(cl_.EnqueueWriteBuffer(
                     ClMem{reinterpret_cast<uint64_t>(dst)}, 0, size, src),
                 mcuda::cudaErrorLaunchFailure));
      case MemcpyKind::kDeviceToHost:
        return span.Sealed(Seal(
            cl_.EnqueueReadBuffer(
                ClMem{reinterpret_cast<uint64_t>(
                    const_cast<void*>(src) == nullptr
                        ? 0
                        : reinterpret_cast<uint64_t>(src))},
                0, size, dst),
            mcuda::cudaErrorLaunchFailure));
      case MemcpyKind::kDeviceToDevice:
        return span.Sealed(
            Seal(cl_.EnqueueCopyBuffer(
                     ClMem{reinterpret_cast<uint64_t>(src)},
                     ClMem{reinterpret_cast<uint64_t>(dst)}, 0, 0, size),
                 mcuda::cudaErrorLaunchFailure));
      case MemcpyKind::kHostToHost:
        std::memmove(dst, src, size);
        return OkStatus();
    }
    return span.Sealed(AsCuda(InvalidArgumentError("bad memcpy kind"),
                              mcuda::cudaErrorInvalidMemcpyDirection));
  }

  Status MemcpyToSymbol(const std::string& symbol, const void* src,
                        size_t size, size_t offset) override {
    auto span = Span(TraceKind::kH2D, "cudaMemcpyToSymbol");
    span.SetBytes(size);
    // §4.3: the static symbol became a dynamically allocated buffer.
    auto it = symbols_.find(symbol);
    if (it == symbols_.end())
      return AsCuda(NotFoundError("no device symbol '" + symbol +
                                  "' (it may be unused by every kernel)"),
                    mcuda::cudaErrorInvalidSymbol);
    if (offset + size > it->second.size)
      return AsCuda(OutOfRangeError("copy beyond symbol '" + symbol + "'"),
                    mcuda::cudaErrorInvalidValue);
    return Seal(cl_.EnqueueWriteBuffer(it->second.buffer, offset, size, src),
                mcuda::cudaErrorLaunchFailure);
  }

  Status MemcpyFromSymbol(void* dst, const std::string& symbol, size_t size,
                          size_t offset) override {
    auto span = Span(TraceKind::kD2H, "cudaMemcpyFromSymbol");
    span.SetBytes(size);
    auto it = symbols_.find(symbol);
    if (it == symbols_.end())
      return AsCuda(NotFoundError("no device symbol '" + symbol + "'"),
                    mcuda::cudaErrorInvalidSymbol);
    if (offset + size > it->second.size)
      return AsCuda(OutOfRangeError("copy beyond symbol '" + symbol + "'"),
                    mcuda::cudaErrorInvalidValue);
    return Seal(cl_.EnqueueReadBuffer(it->second.buffer, offset, size, dst),
                mcuda::cudaErrorLaunchFailure);
  }

  StatusOr<std::pair<size_t, size_t>> MemGetInfo() override {
    // §3.7 / Table 3 (nn, mummergpu): OpenCL has no API that reports the
    // free global memory, so this wrapper cannot be implemented.
    return AsCuda(
        UnimplementedError("cudaMemGetInfo has no OpenCL counterpart (§3.7)"),
        mcuda::cudaErrorNotSupported);
  }

  Status LaunchKernel(const std::string& kernel, Dim3 grid, Dim3 block,
                      size_t shared_bytes,
                      std::span<const LaunchArg> args) override {
    return LaunchCommon(kernel, grid, block, shared_bytes, args, nullptr);
  }

  Status LaunchKernelOnStream(const std::string& kernel, Dim3 grid,
                              Dim3 block, size_t shared_bytes,
                              std::span<const LaunchArg> args,
                              void* stream) override {
    BRIDGECL_ASSIGN_OR_RETURN(ClQueue q, QueueFor(stream));
    return LaunchCommon(kernel, grid, block, shared_bytes, args, &q);
  }

 private:
  /// The static rewriter's launch sequence (§3.5), shared by the legacy
  /// synchronous path (queue == nullptr: clEnqueueNDRangeKernel) and the
  /// stream path (asynchronous enqueue on the stream's command queue).
  Status LaunchCommon(const std::string& kernel, Dim3 grid, Dim3 block,
                      size_t shared_bytes, std::span<const LaunchArg> args,
                      const ClQueue* queue) {
    auto span = Span(TraceKind::kKernelLaunch, "cudaLaunchKernel");
    BRIDGECL_RETURN_IF_ERROR(EnsureBuilt());
    const KernelTranslationInfo* info = translation_.Find(kernel);
    if (info == nullptr)
      return AsCuda(NotFoundError("no kernel '" + kernel + "' registered"),
                    mcuda::cudaErrorInvalidDeviceFunction);
    if (static_cast<int>(args.size()) != info->original_param_count)
      return AsCuda(InvalidArgumentError(StrFormat(
                        "kernel '%s' expects %d arguments, got %zu",
                        kernel.c_str(), info->original_param_count,
                        args.size())),
                    mcuda::cudaErrorInvalidValue);
    BRIDGECL_ASSIGN_OR_RETURN(ClKernel k, KernelFor(kernel));

    // The static rewriter turned `k<<<g,b,s>>>(a0..aN)` into this launch
    // sequence (§3.5): clSetKernelArg per argument, then the appended
    // parameters, then clEnqueueNDRangeKernel.
    int index = 0;
    for (const LaunchArg& a : args) {
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cl_.SetKernelArg(k, index++, a.bytes.size(), a.bytes.data()),
               mcuda::cudaErrorInvalidValue));
    }
    if (info->has_dynamic_shared) {
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cl_.SetKernelArg(k, index++, shared_bytes, nullptr),
               mcuda::cudaErrorInvalidValue));
    } else if (shared_bytes != 0) {
      return AsCuda(
          InvalidArgumentError(
              "launch passes dynamic shared memory but the kernel declares "
              "no extern __shared__ variable"),
          mcuda::cudaErrorInvalidValue);
    }
    for (const std::string& tex : info->texture_params) {
      auto it = textures_.find(tex);
      if (it == textures_.end() || !it->second.bound)
        return AsCuda(FailedPreconditionError("texture reference '" + tex +
                                              "' used but not bound"),
                      mcuda::cudaErrorInvalidTexture);
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cl_.SetKernelArg(k, index++, sizeof(ClMem),
                                &it->second.image),
               mcuda::cudaErrorInvalidValue));
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cl_.SetKernelArg(k, index++, sizeof(uint64_t),
                                &it->second.sampler),
               mcuda::cudaErrorInvalidValue));
    }
    for (const auto& sym : info->symbol_params) {
      auto it = symbols_.find(sym.name);
      if (it == symbols_.end())
        return AsCuda(
            InternalError("missing symbol buffer for '" + sym.name + "'"),
            mcuda::cudaErrorLaunchFailure);
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cl_.SetKernelArg(k, index++, sizeof(ClMem),
                                &it->second.buffer),
               mcuda::cudaErrorInvalidValue));
    }
    size_t gws[3] = {static_cast<size_t>(grid.x) * block.x,
                     static_cast<size_t>(grid.y) * block.y,
                     static_cast<size_t>(grid.z) * block.z};
    size_t lws[3] = {block.x, block.y, block.z};
    Status st = queue == nullptr
                    ? cl_.EnqueueNDRangeKernel(k, 3, gws, lws)
                    : cl_.EnqueueNDRangeKernelOn(*queue, k, 3, gws, lws, {},
                                                 nullptr);
    if (st.ok()) span.SetKernel(kernel, 0, 0);  // details on the native span
    // A device-side assert keeps its CUDA-specific code even though the
    // inner CL layer had to report it as a generic execution failure.
    if (!st.ok() && st.message().find("assert") != std::string::npos)
      return span.Sealed(AsCuda(std::move(st), mcuda::cudaErrorAssert));
    return span.Sealed(
        Seal(std::move(st), mcuda::cudaErrorLaunchOutOfResources));
  }

 public:
  Status DeviceSynchronize() override {
    auto span = Span(TraceKind::kApiCall, "cudaDeviceSynchronize");
    // Legacy clFinish is a device-wide barrier, so this drains every
    // stream's queue, matching cudaDeviceSynchronize.
    return span.Sealed(Seal(cl_.Finish(), mcuda::cudaErrorLaunchFailure));
  }

  // -- streams over command queues (docs/CONCURRENCY.md) ---------------------
  StatusOr<void*> StreamCreate() override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamCreate");
    // cudaStream_t == an in-order cl_command_queue; the queue handle is
    // cast to void* exactly as the paper's handle-cast idiom (§4).
    BRIDGECL_ASSIGN_OR_RETURN(
        ClQueue q,
        Seal(cl_.CreateCommandQueue(0), mcuda::cudaErrorMemoryAllocation));
    live_streams_[q.handle] = q;
    return reinterpret_cast<void*>(q.handle);
  }

  Status StreamDestroy(void* stream) override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamDestroy");
    if (stream == nullptr)
      return AsCuda(InvalidArgumentError("cannot destroy the default stream"),
                    mcuda::cudaErrorInvalidResourceHandle);
    auto it = live_streams_.find(reinterpret_cast<uint64_t>(stream));
    if (it == live_streams_.end())
      return AsCuda(InvalidArgumentError("unknown stream"),
                    mcuda::cudaErrorInvalidResourceHandle);
    // Implicit synchronize: releasing the queue drains it first, so the
    // stream's deferred async errors surface here.
    Status st = Seal(cl_.ReleaseCommandQueue(it->second),
                     mcuda::cudaErrorLaunchFailure);
    live_streams_.erase(it);
    return span.Sealed(std::move(st));
  }

  Status StreamSynchronize(void* stream) override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamSynchronize");
    BRIDGECL_ASSIGN_OR_RETURN(ClQueue q, QueueFor(stream));
    return span.Sealed(Seal(cl_.Finish(q), mcuda::cudaErrorLaunchFailure));
  }

  Status MemcpyAsync(void* dst, const void* src, size_t size, MemcpyKind kind,
                     void* stream) override {
    auto span = Span(TraceKindForMemcpy(kind), "cudaMemcpyAsync");
    span.SetBytes(size);
    BRIDGECL_ASSIGN_OR_RETURN(ClQueue q, QueueFor(stream));
    switch (kind) {
      case MemcpyKind::kHostToDevice:
        return span.Sealed(Seal(
            cl_.EnqueueWriteBufferOn(q, ClMem{reinterpret_cast<uint64_t>(dst)},
                                     0, size, src, /*blocking=*/false, {},
                                     nullptr),
            mcuda::cudaErrorLaunchFailure));
      case MemcpyKind::kDeviceToHost:
        return span.Sealed(Seal(
            cl_.EnqueueReadBufferOn(q, ClMem{reinterpret_cast<uint64_t>(src)},
                                    0, size, dst, /*blocking=*/false, {},
                                    nullptr),
            mcuda::cudaErrorLaunchFailure));
      case MemcpyKind::kDeviceToDevice:
        return span.Sealed(Seal(
            cl_.EnqueueCopyBufferOn(q, ClMem{reinterpret_cast<uint64_t>(src)},
                                    ClMem{reinterpret_cast<uint64_t>(dst)}, 0,
                                    0, size, {}, nullptr),
            mcuda::cudaErrorLaunchFailure));
      case MemcpyKind::kHostToHost:
        // Host-to-host copies are synchronous even on the Async entry
        // point (CUDA semantics).
        std::memmove(dst, src, size);
        return OkStatus();
    }
    return span.Sealed(AsCuda(InvalidArgumentError("bad memcpy kind"),
                              mcuda::cudaErrorInvalidMemcpyDirection));
  }

  Status EventRecordOnStream(void* event, void* stream) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventRecord");
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    mcuda::cudaErrorInvalidResourceHandle);
    BRIDGECL_ASSIGN_OR_RETURN(ClQueue q, QueueFor(stream));
    // The CL marker completes when everything enqueued on the queue so
    // far completes — exactly cudaEventRecord's capture semantics.
    BRIDGECL_ASSIGN_OR_RETURN(ClEvent ev,
                              Seal(cl_.EnqueueMarkerWithWaitList(q, {}),
                                   mcuda::cudaErrorLaunchFailure));
    if (it->second.has_cl)
      (void)cl_.ReleaseEvent(it->second.cl_event);  // re-record
    it->second.has_cl = true;
    it->second.cl_event = ev;
    return OkStatus();
  }

  Status StreamWaitEvent(void* stream, void* event) override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamWaitEvent");
    BRIDGECL_ASSIGN_OR_RETURN(ClQueue q, QueueFor(stream));
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    mcuda::cudaErrorInvalidResourceHandle);
    if (!it->second.has_cl) return OkStatus();  // unrecorded: no-op (CUDA)
    // A marker with the event in its wait list orders everything later on
    // the queue after the event; the marker's own event is internal.
    BRIDGECL_ASSIGN_OR_RETURN(
        ClEvent marker,
        Seal(cl_.EnqueueMarkerWithWaitList(
                 q, std::span<const ClEvent>(&it->second.cl_event, 1)),
             mcuda::cudaErrorLaunchFailure));
    return span.Sealed(
        Seal(cl_.ReleaseEvent(marker), mcuda::cudaErrorLaunchFailure));
  }

  Status EventSynchronize(void* event) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventSynchronize");
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    mcuda::cudaErrorInvalidResourceHandle);
    if (!it->second.has_cl) return OkStatus();  // never recorded: complete
    return span.Sealed(Seal(
        cl_.WaitForEvents(std::span<const ClEvent>(&it->second.cl_event, 1)),
        mcuda::cudaErrorLaunchFailure));
  }

  StatusOr<CudaDeviceProps> GetDeviceProperties() override {
    auto span = Span(TraceKind::kApiCall, "cudaGetDeviceProperties");
    // §6.3 deviceQuery: the wrapper fills cudaDeviceProp by invoking
    // clGetDeviceInfo once per attribute — the measured slowdown.
    CudaDeviceProps p;
    BRIDGECL_ASSIGN_OR_RETURN(
        p.name, Seal(cl_.QueryDeviceInfoString(mocl::ClDeviceAttr::kName),
                     mcuda::cudaErrorInitializationError));
    BRIDGECL_ASSIGN_OR_RETURN(
        uint64_t gm,
        Seal(cl_.QueryDeviceInfoUint(mocl::ClDeviceAttr::kGlobalMemSize),
             mcuda::cudaErrorInitializationError));
    p.total_global_mem = gm;
    BRIDGECL_ASSIGN_OR_RETURN(
        uint64_t lm,
        Seal(cl_.QueryDeviceInfoUint(mocl::ClDeviceAttr::kLocalMemSize),
             mcuda::cudaErrorInitializationError));
    p.shared_mem_per_block = lm;
    BRIDGECL_ASSIGN_OR_RETURN(
        uint64_t cm,
        Seal(cl_.QueryDeviceInfoUint(
                 mocl::ClDeviceAttr::kMaxConstantBufferSize),
             mcuda::cudaErrorInitializationError));
    p.total_const_mem = cm;
    BRIDGECL_ASSIGN_OR_RETURN(
        uint64_t cu,
        Seal(cl_.QueryDeviceInfoUint(mocl::ClDeviceAttr::kMaxComputeUnits),
             mcuda::cudaErrorInitializationError));
    p.multi_processor_count = static_cast<int>(cu);
    BRIDGECL_ASSIGN_OR_RETURN(
        uint64_t wg,
        Seal(cl_.QueryDeviceInfoUint(mocl::ClDeviceAttr::kMaxWorkGroupSize),
             mcuda::cudaErrorInitializationError));
    p.max_threads_per_block = static_cast<int>(wg);
    BRIDGECL_ASSIGN_OR_RETURN(
        uint64_t mhz,
        Seal(cl_.QueryDeviceInfoUint(mocl::ClDeviceAttr::kMaxClockFrequency),
             mcuda::cudaErrorInitializationError));
    p.clock_rate_khz = static_cast<int>(mhz) * 1000;
    BRIDGECL_ASSIGN_OR_RETURN(
        uint64_t i1d,
        Seal(cl_.QueryDeviceInfoUint(
                 mocl::ClDeviceAttr::kImage1dMaxBufferWidth),
             mcuda::cudaErrorInitializationError));
    p.max_texture1d_linear = i1d;
    // OpenCL exposes no warp size / register file attributes; the wrapper
    // reports conventional values.
    p.warp_size = 32;
    p.regs_per_block = 65536;
    p.major = 3;
    p.minor = 5;
    return p;
  }

  // -- textures (§5): texture refs became image+sampler params --------------
  Status BindTexture(const std::string& texref, void* device_ptr,
                     size_t bytes, const ChannelDesc& desc,
                     bool normalized) override {
    auto span = Span(TraceKind::kApiCall, "cudaBindTexture");
    ClImageFormat fmt;
    fmt.elem = desc.elem;
    fmt.channels = desc.channels;
    size_t texel = lang::ScalarByteSize(desc.elem) * desc.channels;
    size_t width = bytes / texel;
    // §5: a 1D linear texture wider than the OpenCL 1D image-buffer
    // maximum cannot be translated (kmeans/leukocyte/hybridsort).
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem img,
        Seal(cl_.CreateImage1DFromBuffer(
                 fmt, width, ClMem{reinterpret_cast<uint64_t>(device_ptr)}),
             mcuda::cudaErrorMemoryAllocation));
    ClSamplerDesc sd;
    sd.normalized_coords = normalized;
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t sampler,
                              Seal(cl_.CreateSampler(sd),
                                   mcuda::cudaErrorInvalidTexture));
    textures_[texref] = TextureRec{img, sampler, true};
    return OkStatus();
  }

  Status BindTexture2D(const std::string& texref, void* device_ptr,
                       size_t width, size_t height, size_t pitch,
                       const ChannelDesc& desc) override {
    auto span = Span(TraceKind::kApiCall, "cudaBindTexture2D");
    // Snapshot the linear memory into a 2D image (CL 1.2 cannot alias a
    // buffer as a 2D image).
    (void)pitch;
    ClImageFormat fmt;
    fmt.elem = desc.elem;
    fmt.channels = desc.channels;
    size_t texel = lang::ScalarByteSize(desc.elem) * desc.channels;
    size_t bytes = width * height * texel;
    std::vector<std::byte> staging(bytes);
    BRIDGECL_RETURN_IF_ERROR(
        Seal(cl_.EnqueueReadBuffer(
                 ClMem{reinterpret_cast<uint64_t>(device_ptr)}, 0, bytes,
                 staging.data()),
             mcuda::cudaErrorLaunchFailure));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem img,
        Seal(cl_.CreateImage2D(MemFlags::kReadOnly, fmt, width, height,
                               staging.data()),
             mcuda::cudaErrorMemoryAllocation));
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t sampler,
                              Seal(cl_.CreateSampler({}),
                                   mcuda::cudaErrorInvalidTexture));
    textures_[texref] = TextureRec{img, sampler, true};
    return OkStatus();
  }

  StatusOr<void*> MallocArray(const ChannelDesc& desc, size_t width,
                              size_t height) override {
    auto span = Span(TraceKind::kApiCall, "cudaMallocArray");
    ClImageFormat fmt;
    fmt.elem = desc.elem;
    fmt.channels = desc.channels;
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem img,
        Seal(cl_.CreateImage2D(MemFlags::kReadWrite, fmt, width,
                               std::max<size_t>(height, 1), nullptr),
             mcuda::cudaErrorMemoryAllocation));
    arrays_[img.handle] = img;
    return reinterpret_cast<void*>(img.handle);
  }

  Status MemcpyToArray(void* array, const void* src, size_t) override {
    auto span = Span(TraceKind::kH2D, "cudaMemcpyToArray");
    auto it = arrays_.find(reinterpret_cast<uint64_t>(array));
    if (it == arrays_.end())
      return AsCuda(InvalidArgumentError("unknown cudaArray"),
                    mcuda::cudaErrorInvalidValue);
    return Seal(cl_.EnqueueWriteImage(it->second, src),
                mcuda::cudaErrorLaunchFailure);
  }

  Status BindTextureToArray(const std::string& texref, void* array,
                            bool filter_linear, bool normalized) override {
    auto span = Span(TraceKind::kApiCall, "cudaBindTextureToArray");
    auto it = arrays_.find(reinterpret_cast<uint64_t>(array));
    if (it == arrays_.end())
      return AsCuda(InvalidArgumentError("unknown cudaArray"),
                    mcuda::cudaErrorInvalidValue);
    ClSamplerDesc sd;
    sd.filter_linear = filter_linear;
    sd.normalized_coords = normalized;
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t sampler,
                              Seal(cl_.CreateSampler(sd),
                                   mcuda::cudaErrorInvalidTexture));
    textures_[texref] = TextureRec{it->second, sampler, true};
    return OkStatus();
  }

  Status UnbindTexture(const std::string& texref) override {
    auto span = Span(TraceKind::kApiCall, "cudaUnbindTexture");
    auto it = textures_.find(texref);
    if (it != textures_.end()) it->second.bound = false;
    return OkStatus();
  }

  StatusOr<void*> EventCreate() override {
    auto span = Span(TraceKind::kApiCall, "cudaEventCreate");
    uint64_t id = next_event_++;
    events_[id] = EventRec{};
    return reinterpret_cast<void*>(id);
  }

  Status EventRecord(void* event) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventRecord");
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    mcuda::cudaErrorInvalidResourceHandle);
    if (it->second.has_cl) {
      (void)cl_.ReleaseEvent(it->second.cl_event);  // re-record
      it->second.has_cl = false;
    }
    it->second.host_us = cl_.NowUs();
    return OkStatus();
  }

  StatusOr<double> EventElapsedUs(void* start, void* end) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventElapsedTime");
    auto s = events_.find(reinterpret_cast<uint64_t>(start));
    auto e = events_.find(reinterpret_cast<uint64_t>(end));
    if (s == events_.end() || e == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    mcuda::cudaErrorInvalidResourceHandle);
    BRIDGECL_ASSIGN_OR_RETURN(double ts, EndTimeOf(s->second));
    BRIDGECL_ASSIGN_OR_RETURN(double te, EndTimeOf(e->second));
    return te - ts;
  }

  Status EventDestroy(void* event) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventDestroy");
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    mcuda::cudaErrorInvalidResourceHandle);
    Status st;
    if (it->second.has_cl)
      st = Seal(cl_.ReleaseEvent(it->second.cl_event),
                mcuda::cudaErrorInvalidResourceHandle);
    events_.erase(it);
    return span.Sealed(std::move(st));
  }

  Status SetKernelRegisters(const std::string& kernel, int regs) override {
    BRIDGECL_RETURN_IF_ERROR(EnsureBuilt());
    return Seal(cl_.SetProgramKernelRegisters(program_, kernel, regs),
                mcuda::cudaErrorInvalidDeviceFunction);
  }

  double NowUs() const override { return cl_.NowUs(); }

 private:
  /// Wrapper-layer trace span over the shared recorder; forwarded native
  /// CL calls open child spans inside it. No-op when tracing is off.
  trace::TraceSpan Span(TraceKind kind, const char* name) {
    return trace::TraceSpan(cl_.Tracer(), kind, "cu2cl", name);
  }

  static TraceKind TraceKindForMemcpy(MemcpyKind kind) {
    switch (kind) {
      case MemcpyKind::kHostToDevice:
        return TraceKind::kH2D;
      case MemcpyKind::kDeviceToHost:
        return TraceKind::kD2H;
      case MemcpyKind::kDeviceToDevice:
        return TraceKind::kD2D;
      case MemcpyKind::kHostToHost:
        break;
    }
    return TraceKind::kApiCall;
  }

  /// Boundary sealer: every Status leaving this wrapper carries a
  /// cudaError api_code. An inner CL annotation is re-mapped through
  /// CudaFromCl; an unannotated Status gets the per-StatusCode default
  /// (with `fallback` for kResourceExhausted).
  static Status Seal(Status st, int fallback) {
    if (st.ok()) return st;
    // Device loss stays cudaErrorDevicesUnavailable no matter how the
    // inner CL layer had to express it (CL has no dedicated code).
    int code = st.code() == StatusCode::kDeviceLost
                   ? mcuda::cudaErrorDevicesUnavailable
               : mocl::IsClCode(st.api_code())
                   ? CudaFromCl(st.api_code())
                   : mcuda::CudaCodeFor(st, fallback);
    // CL_OUT_OF_RESOURCES is the CL catch-all for both resource
    // exhaustion and execution faults, so CudaFromCl alone must pick the
    // catch-all cudaErrorLaunchFailure. The StatusCode disambiguates: a
    // genuine kResourceExhausted (register/shared-memory pressure, guard
    // budget) is cudaErrorLaunchOutOfResources, not an "unspecified
    // launch failure" — sync points must not collapse the distinction.
    if (code == mcuda::cudaErrorLaunchFailure &&
        st.api_code() == mocl::CL_OUT_OF_RESOURCES &&
        st.code() == StatusCode::kResourceExhausted)
      code = mcuda::cudaErrorLaunchOutOfResources;
    return AsCuda(std::move(st), code);
  }

  template <typename T>
  static StatusOr<T> Seal(StatusOr<T> v, int fallback) {
    if (v.ok()) return v;
    return StatusOr<T>(Seal(std::move(v).status(), fallback));
  }

  Status EnsureBuilt() {
    if (built_) return OkStatus();
    if (translation_.source.empty())
      return AsCuda(FailedPreconditionError("no CUDA module was registered"),
                    mcuda::cudaErrorMissingConfiguration);
    BRIDGECL_ASSIGN_OR_RETURN(
        program_,
        Seal(cl_.CreateProgramWithSource(translation_.source),
             mcuda::cudaErrorNoKernelImageForDevice));
    BRIDGECL_RETURN_IF_ERROR(Seal(cl_.BuildProgram(program_),
                                  mcuda::cudaErrorNoKernelImageForDevice));
    built_ = true;
    return OkStatus();
  }

  /// Resolves a cudaStream_t to its command queue; the null stream is the
  /// default queue, anything else must be a live created stream.
  StatusOr<ClQueue> QueueFor(void* stream) {
    if (stream == nullptr) return ClQueue{};
    auto it = live_streams_.find(reinterpret_cast<uint64_t>(stream));
    if (it == live_streams_.end())
      return AsCuda(InvalidArgumentError("unknown stream"),
                    mcuda::cudaErrorInvalidResourceHandle);
    return it->second;
  }

  /// Absolute completion time of an event, for cudaEventElapsedTime: the
  /// profiled end of its CL marker (waiting for it first), or the legacy
  /// host timestamp. Never-recorded events are cudaErrorNotReady.
  StatusOr<double> EndTimeOf(EventRec& er) {
    if (er.has_cl) {
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cl_.WaitForEvents(std::span<const ClEvent>(&er.cl_event, 1)),
               mcuda::cudaErrorLaunchFailure));
      double queued = 0, end = 0;
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cl_.GetEventProfiling(er.cl_event, &queued, &end),
               mcuda::cudaErrorInvalidResourceHandle));
      return end;
    }
    if (er.host_us < 0)
      return AsCuda(FailedPreconditionError("event was never recorded"),
                    mcuda::cudaErrorNotReady);
    return er.host_us;
  }

  StatusOr<ClKernel> KernelFor(const std::string& name) {
    if (auto it = kernels_.find(name); it != kernels_.end())
      return it->second;
    BRIDGECL_ASSIGN_OR_RETURN(
        ClKernel k, Seal(cl_.CreateKernel(program_, name),
                         mcuda::cudaErrorInvalidDeviceFunction));
    kernels_[name] = k;
    return k;
  }

  OpenClApi& cl_;
  CudaOnClOptions options_;
  TranslationResult translation_;
  bool built_ = false;
  ClProgram program_;
  std::unordered_map<std::string, ClKernel> kernels_;
  std::unordered_map<std::string, SymbolRec> symbols_;
  std::unordered_map<std::string, TextureRec> textures_;
  std::unordered_map<uint64_t, ClMem> arrays_;
  std::unordered_map<uint64_t, size_t> buffer_sizes_;
  uint64_t next_event_ = 0x7000'0000'0000'0000ull;
  std::unordered_map<uint64_t, EventRec> events_;
  std::unordered_map<uint64_t, ClQueue> live_streams_;
};

}  // namespace

std::unique_ptr<CudaApi> CreateCudaOnClApi(OpenClApi& cl,
                                           const CudaOnClOptions& options) {
  return std::make_unique<CudaOnClApi>(cl, options);
}

}  // namespace bridgecl::cu2cl
