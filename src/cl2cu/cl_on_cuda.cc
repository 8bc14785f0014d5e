#include "cl2cu/cl_on_cuda.h"

#include <cstring>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "interp/image.h"
#include "mcuda/cuda_errors.h"
#include "mocl/cl_errors.h"
#include "support/strings.h"
#include "trace/trace.h"
#include "translator/translate.h"

namespace bridgecl::cl2cu {
namespace {

using interp::ImageDesc;
using mcuda::CudaApi;
using mcuda::LaunchArg;
using mcuda::MemcpyKind;
using mocl::AsCl;
using mocl::ClDeviceAttr;
using mocl::ClEvent;
using mocl::ClImageFormat;
using mocl::ClKernel;
using mocl::ClMem;
using mocl::ClProgram;
using mocl::ClQueue;
using mocl::ClSamplerDesc;
using mocl::MemFlags;
using mocl::OpenClApi;
using trace::TraceKind;
using translator::KernelTranslationInfo;
using translator::TranslationResult;

constexpr char kConstArena[] = "__OC2CU_const_mem";

size_t Align16(size_t n) { return (n + 15) & ~size_t{15}; }

/// Re-express a cudaError annotation from the inner CUDA runtime in the
/// vocabulary of the API this wrapper emulates (OpenCL 1.2). The full
/// cross-mapping table is documented in docs/ROBUSTNESS.md; it is the
/// wrapper-direction counterpart of CudaFromCl in cuda_on_cl.cc.
int ClFromCuda(int cuda_code) {
  switch (cuda_code) {
    case mcuda::cudaErrorMemoryAllocation:
      return mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE;
    case mcuda::cudaErrorInitializationError:
      return mocl::CL_DEVICE_NOT_AVAILABLE;
    // Launch failures, launch resource exhaustion, device-side asserts and
    // lost devices all surface as the CL catch-all execution failure.
    case mcuda::cudaErrorLaunchFailure:
    case mcuda::cudaErrorLaunchOutOfResources:
    case mcuda::cudaErrorDevicesUnavailable:
    case mcuda::cudaErrorAssert:
    case mcuda::cudaErrorUnknown:
      return mocl::CL_OUT_OF_RESOURCES;
    case mcuda::cudaErrorInvalidDeviceFunction:
      return mocl::CL_INVALID_KERNEL_NAME;
    case mcuda::cudaErrorInvalidConfiguration:
      return mocl::CL_INVALID_WORK_GROUP_SIZE;
    case mcuda::cudaErrorInvalidDevicePointer:
    case mcuda::cudaErrorInvalidTexture:
      return mocl::CL_INVALID_MEM_OBJECT;
    case mcuda::cudaErrorInvalidChannelDescriptor:
      return mocl::CL_INVALID_IMAGE_SIZE;
    case mcuda::cudaErrorInvalidResourceHandle:
    case mcuda::cudaErrorNotReady:
      return mocl::CL_INVALID_EVENT;
    case mcuda::cudaErrorNoKernelImageForDevice:
      return mocl::CL_BUILD_PROGRAM_FAILURE;
    case mcuda::cudaErrorNotSupported:
      return mocl::CL_INVALID_OPERATION;
    case mcuda::cudaErrorMissingConfiguration:
    case mcuda::cudaErrorInvalidValue:
    case mcuda::cudaErrorInvalidSymbol:
    case mcuda::cudaErrorInvalidMemcpyDirection:
    default:
      return mocl::CL_INVALID_VALUE;
  }
}

struct BufferRec {
  void* dev_ptr = nullptr;
  size_t size = 0;
};

struct ImageRec {
  // The CLImage of Figure 6: a descriptor object in CUDA device memory
  // whose `ptr` member points at a CUDA memory object with the texels.
  void* desc_ptr = nullptr;
  void* data_ptr = nullptr;
  size_t byte_size = 0;
};

/// Per-argument marshalling state collected by clSetKernelArg (§3.5: the
/// information cuLaunchKernel needs is gathered at run time).
struct ArgRec {
  enum class Kind { kUnset, kBytes, kDynLocal, kDynConst };
  Kind kind = Kind::kUnset;
  std::vector<std::byte> bytes;   // kBytes: final launch bytes
  size_t local_size = 0;          // kDynLocal
  ClMem const_buffer;             // kDynConst
  size_t const_size = 0;
};

struct ProgramRec {
  std::string source;
  bool built = false;
  TranslationResult translation;
};

struct KernelRec {
  uint64_t program = 0;
  std::string name;
  const KernelTranslationInfo* info = nullptr;
  std::vector<ArgRec> args;
};

/// Everything cuLaunchKernel needs, marshalled once and fired on either
/// the legacy (synchronous) or the stream launch path.
struct LaunchPlan {
  std::string name;
  simgpu::Dim3 grid = simgpu::Dim3(1, 1, 1);
  simgpu::Dim3 block = simgpu::Dim3(1, 1, 1);
  size_t shared_bytes = 0;
  std::vector<LaunchArg> args;
};

/// One cl_command_queue over CUDA streams (docs/CONCURRENCY.md). An
/// in-order queue is exactly one cudaStream. An out-of-order queue has no
/// single-stream equivalent, so every command runs on a fresh stream wired
/// to its dependencies with cudaStreamWaitEvent — the wait-list DAG is
/// rebuilt from the narrower native primitives, the §3.4 wrapping pattern.
struct QueueRec {
  bool ooo = false;
  void* stream = nullptr;          // in-order stream; null = default stream
  std::vector<void*> cmd_streams;  // OoO: one fresh stream per command
  std::vector<void*> cmd_events;   // OoO: per-command completion events
  std::vector<void*> barrier_deps; // OoO: what post-barrier commands await
};

/// One cl_event. Events from the legacy profiled path are born resolved
/// (absolute times known); events from asynchronous enqueues carry a CUDA
/// event and resolve lazily against the t0 base (cuEventElapsedTime only
/// reports relative time, so the wrapper anchors it once).
struct EventRec {
  double queued_us = 0;
  bool resolved = false;
  double end_us = 0;
  void* cuda_event = nullptr;
};

class ClOnCudaApi final : public OpenClApi {
 public:
  explicit ClOnCudaApi(CudaApi& cu) : cu_(cu) {
    queues_[0] = QueueRec{};  // the default in-order queue always exists
  }

  std::string PlatformName() const override {
    return "BridgeCL OpenCL-on-CUDA wrapper";
  }

  /// Shared trace: wrapper spans record into the inner CUDA runtime's
  /// recorder, so forwarded native calls nest under them naturally.
  trace::TraceRecorder* Tracer() const override { return cu_.Tracer(); }

  StatusOr<std::string> QueryDeviceInfoString(ClDeviceAttr attr) override {
    auto span = Span(TraceKind::kApiCall, "clGetDeviceInfo");
    BRIDGECL_ASSIGN_OR_RETURN(mcuda::CudaDeviceProps p,
                              Seal(cu_.GetDeviceProperties(),
                                   mocl::CL_INVALID_DEVICE));
    switch (attr) {
      case ClDeviceAttr::kName:
        return p.name;
      case ClDeviceAttr::kVendor:
        return std::string("BridgeCL (via CUDA wrapper)");
      default:
        return AsCl(InvalidArgumentError("attribute is not a string"),
                    mocl::CL_INVALID_VALUE);
    }
  }

  StatusOr<uint64_t> QueryDeviceInfoUint(ClDeviceAttr attr) override {
    auto span = Span(TraceKind::kApiCall, "clGetDeviceInfo");
    BRIDGECL_ASSIGN_OR_RETURN(mcuda::CudaDeviceProps p,
                              Seal(cu_.GetDeviceProperties(),
                                   mocl::CL_INVALID_DEVICE));
    switch (attr) {
      case ClDeviceAttr::kMaxComputeUnits:
        return static_cast<uint64_t>(p.multi_processor_count);
      case ClDeviceAttr::kMaxWorkGroupSize:
        return static_cast<uint64_t>(p.max_threads_per_block);
      case ClDeviceAttr::kLocalMemSize:
        return static_cast<uint64_t>(p.shared_mem_per_block);
      case ClDeviceAttr::kGlobalMemSize:
        return static_cast<uint64_t>(p.total_global_mem);
      case ClDeviceAttr::kMaxConstantBufferSize:
        return static_cast<uint64_t>(p.total_const_mem);
      case ClDeviceAttr::kImage2dMaxWidth:
      case ClDeviceAttr::kImage2dMaxHeight:
      case ClDeviceAttr::kImage1dMaxBufferWidth:
        // Image limits on the CUDA side are texture limits.
        return static_cast<uint64_t>(65536);
      case ClDeviceAttr::kMaxClockFrequency:
        return static_cast<uint64_t>(p.clock_rate_khz / 1000);
      default:
        return AsCl(InvalidArgumentError("attribute is not an integer"),
                    mocl::CL_INVALID_VALUE);
    }
  }

  StatusOr<int> CreateSubDevices(int) override {
    // §3.7: CUDA has no sub-device concept; this wrapper cannot exist.
    return AsCl(UnimplementedError(
                    "clCreateSubDevices has no CUDA counterpart (§3.7)"),
                mocl::CL_INVALID_OPERATION);
  }

  // -- buffers: cl_mem == CUDA device pointer (§4) --------------------------
  StatusOr<ClMem> CreateBuffer(MemFlags, size_t size,
                               const void* host_ptr) override {
    auto span = Span(host_ptr != nullptr ? TraceKind::kH2D
                                         : TraceKind::kApiCall,
                     "clCreateBuffer");
    if (host_ptr != nullptr) span.SetBytes(size);
    if (size == 0)
      return AsCl(InvalidArgumentError("buffer size must be non-zero"),
                  mocl::CL_INVALID_BUFFER_SIZE);
    BRIDGECL_ASSIGN_OR_RETURN(
        void* p,
        Seal(cu_.Malloc(size), mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE));
    if (host_ptr != nullptr) {
      Status st = cu_.Memcpy(p, host_ptr, size, MemcpyKind::kHostToDevice);
      if (!st.ok()) {
        (void)cu_.Free(p);  // don't leak the device block on a failed fill
        return Seal(std::move(st), mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE);
      }
    }
    ClMem mem{reinterpret_cast<uint64_t>(p)};  // the paper's handle cast
    buffers_[mem.handle] = BufferRec{p, size};
    return mem;
  }

  Status ReleaseMemObject(ClMem mem) override {
    auto span = Span(TraceKind::kApiCall, "clReleaseMemObject");
    if (auto it = buffers_.find(mem.handle); it != buffers_.end()) {
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cu_.Free(it->second.dev_ptr), mocl::CL_OUT_OF_RESOURCES));
      buffers_.erase(it);
      return OkStatus();
    }
    if (auto it = images_.find(mem.handle); it != images_.end()) {
      if (owned_image_data_[mem.handle])
        BRIDGECL_RETURN_IF_ERROR(
            Seal(cu_.Free(it->second.data_ptr), mocl::CL_OUT_OF_RESOURCES));
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cu_.Free(it->second.desc_ptr), mocl::CL_OUT_OF_RESOURCES));
      owned_image_data_.erase(mem.handle);
      images_.erase(it);
      return OkStatus();
    }
    return AsCl(InvalidArgumentError("unknown memory object"),
                mocl::CL_INVALID_MEM_OBJECT);
  }

  Status EnqueueWriteBuffer(ClMem mem, size_t offset, size_t size,
                            const void* src) override {
    auto span = Span(TraceKind::kH2D, "clEnqueueWriteBuffer");
    span.SetBytes(size);
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(mem));
    if (offset + size > b->size)
      return span.Sealed(AsCl(OutOfRangeError("write beyond buffer end"),
                              mocl::CL_INVALID_VALUE));
    return span.Sealed(
        Seal(cu_.Memcpy(static_cast<std::byte*>(b->dev_ptr) + offset, src,
                        size, MemcpyKind::kHostToDevice),
             mocl::CL_OUT_OF_RESOURCES));
  }

  Status EnqueueReadBuffer(ClMem mem, size_t offset, size_t size,
                           void* dst) override {
    auto span = Span(TraceKind::kD2H, "clEnqueueReadBuffer");
    span.SetBytes(size);
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(mem));
    if (offset + size > b->size)
      return span.Sealed(AsCl(OutOfRangeError("read beyond buffer end"),
                              mocl::CL_INVALID_VALUE));
    return span.Sealed(
        Seal(cu_.Memcpy(dst, static_cast<std::byte*>(b->dev_ptr) + offset,
                        size, MemcpyKind::kDeviceToHost),
             mocl::CL_OUT_OF_RESOURCES));
  }

  Status EnqueueCopyBuffer(ClMem src, ClMem dst, size_t src_offset,
                           size_t dst_offset, size_t size) override {
    auto span = Span(TraceKind::kD2D, "clEnqueueCopyBuffer");
    span.SetBytes(size);
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * s, FindBuffer(src));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * d, FindBuffer(dst));
    return span.Sealed(
        Seal(cu_.Memcpy(static_cast<std::byte*>(d->dev_ptr) + dst_offset,
                        static_cast<std::byte*>(s->dev_ptr) + src_offset,
                        size, MemcpyKind::kDeviceToDevice),
             mocl::CL_OUT_OF_RESOURCES));
  }

  // -- images (§5: CLImage objects in CUDA memory) ---------------------------
  StatusOr<ClMem> CreateImage2D(MemFlags flags, const ClImageFormat& format,
                                size_t width, size_t height,
                                const void* host_ptr) override {
    auto span = Span(host_ptr != nullptr ? TraceKind::kH2D
                                         : TraceKind::kApiCall,
                     "clCreateImage2D");
    return MakeImage(flags, format, width, height, host_ptr);
  }

  StatusOr<ClMem> CreateImage1D(MemFlags flags, const ClImageFormat& format,
                                size_t width, const void* host_ptr) override {
    auto span = Span(host_ptr != nullptr ? TraceKind::kH2D
                                         : TraceKind::kApiCall,
                     "clCreateImage1D");
    return MakeImage(flags, format, width, 1, host_ptr);
  }

  StatusOr<ClMem> CreateImage1DFromBuffer(const ClImageFormat& format,
                                          size_t width,
                                          ClMem buffer) override {
    auto span = Span(TraceKind::kApiCall, "clCreateImage1DFromBuffer");
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(buffer));
    size_t texel = lang::ScalarByteSize(format.elem) * format.channels;
    if (width * texel > b->size)
      return AsCl(OutOfRangeError("image view larger than the backing buffer"),
                  mocl::CL_INVALID_IMAGE_SIZE);
    return MakeImageOver(b->dev_ptr, /*owns=*/false, format, width, 1);
  }

  Status EnqueueWriteImage(ClMem image, const void* src) override {
    auto span = Span(TraceKind::kH2D, "clEnqueueWriteImage");
    BRIDGECL_ASSIGN_OR_RETURN(ImageRec * img, FindImage(image));
    span.SetBytes(img->byte_size);
    return span.Sealed(Seal(cu_.Memcpy(img->data_ptr, src, img->byte_size,
                                       MemcpyKind::kHostToDevice),
                            mocl::CL_OUT_OF_RESOURCES));
  }

  Status EnqueueReadImage(ClMem image, void* dst) override {
    auto span = Span(TraceKind::kD2H, "clEnqueueReadImage");
    BRIDGECL_ASSIGN_OR_RETURN(ImageRec * img, FindImage(image));
    span.SetBytes(img->byte_size);
    return span.Sealed(Seal(cu_.Memcpy(dst, img->data_ptr, img->byte_size,
                                       MemcpyKind::kDeviceToHost),
                            mocl::CL_OUT_OF_RESOURCES));
  }

  StatusOr<uint64_t> CreateSampler(const ClSamplerDesc& desc) override {
    auto span = Span(TraceKind::kApiCall, "clCreateSampler");
    uint64_t bits = 0;
    if (desc.normalized_coords) bits |= interp::kSamplerNormalizedCoords;
    if (desc.address_clamp) bits |= interp::kSamplerAddressClamp;
    if (desc.filter_linear) bits |= interp::kSamplerFilterLinear;
    return bits;
  }

  // -- programs: run-time translation + nvcc (Figure 2) ----------------------
  StatusOr<ClProgram> CreateProgramWithSource(
      const std::string& source) override {
    auto span = Span(TraceKind::kApiCall, "clCreateProgramWithSource");
    uint64_t id = next_id_++;
    programs_[id].source = source;
    return ClProgram{id};
  }

  Status BuildProgram(ClProgram program) override {
    auto span = Span(TraceKind::kApiCall, "clBuildProgram");
    auto it = programs_.find(program.handle);
    if (it == programs_.end())
      return AsCl(InvalidArgumentError("unknown program"),
                  mocl::CL_INVALID_PROGRAM);
    DiagnosticEngine diags;
    auto tr = translator::TranslateOpenClToCuda(it->second.source, diags);
    if (!tr.ok()) {
      build_log_[program.handle] = diags.ToString();
      return AsCl(tr.status(), mocl::CL_BUILD_PROGRAM_FAILURE);
    }
    Status st = cu_.RegisterModule(tr->source);  // "nvcc" + cuModuleLoad
    if (!st.ok()) {
      build_log_[program.handle] = st.ToString();
      // Whatever the CUDA-side code was, a failed build IS
      // CL_BUILD_PROGRAM_FAILURE to the caller of clBuildProgram.
      return AsCl(std::move(st), mocl::CL_BUILD_PROGRAM_FAILURE);
    }
    it->second.translation = std::move(*tr);
    it->second.built = true;
    return OkStatus();
  }

  StatusOr<std::string> GetProgramBuildLog(ClProgram program) override {
    if (programs_.find(program.handle) == programs_.end())
      return AsCl(InvalidArgumentError("unknown program"),
                  mocl::CL_INVALID_PROGRAM);
    auto it = build_log_.find(program.handle);
    return it == build_log_.end() ? std::string() : it->second;
  }

  StatusOr<ClKernel> CreateKernel(ClProgram program,
                                  const std::string& name) override {
    auto span = Span(TraceKind::kApiCall, "clCreateKernel");
    auto it = programs_.find(program.handle);
    if (it == programs_.end())
      return AsCl(InvalidArgumentError("unknown program"),
                  mocl::CL_INVALID_PROGRAM);
    if (!it->second.built)
      return AsCl(FailedPreconditionError("program is not built"),
                  mocl::CL_INVALID_PROGRAM_EXECUTABLE);
    const KernelTranslationInfo* info = it->second.translation.Find(name);
    if (info == nullptr)
      return AsCl(NotFoundError("no kernel '" + name + "' in program"),
                  mocl::CL_INVALID_KERNEL_NAME);
    uint64_t id = next_id_++;
    KernelRec& k = kernels_[id];
    k.program = program.handle;
    k.name = name;
    k.info = info;
    k.args.resize(info->original_param_count);
    return ClKernel{id};
  }

  Status SetKernelArg(ClKernel kernel, int index, size_t size,
                      const void* value) override {
    auto span = Span(TraceKind::kApiCall, "clSetKernelArg");
    auto it = kernels_.find(kernel.handle);
    if (it == kernels_.end())
      return AsCl(InvalidArgumentError("unknown kernel"),
                  mocl::CL_INVALID_KERNEL);
    KernelRec& k = it->second;
    if (index < 0 || index >= static_cast<int>(k.args.size()))
      return AsCl(OutOfRangeError("kernel argument index out of range"),
                  mocl::CL_INVALID_ARG_INDEX);
    using Role = KernelTranslationInfo::ParamRole;
    Role role = k.info->param_roles[index];
    ArgRec& arg = k.args[index];
    if (role == Role::kDynLocalSize) {
      if (value != nullptr)
        return AsCl(InvalidArgumentError(
                        "dynamic __local argument must have a null value"),
                    mocl::CL_INVALID_ARG_VALUE);
      arg.kind = ArgRec::Kind::kDynLocal;
      arg.local_size = size;
      return OkStatus();
    }
    if (role == Role::kDynConstSize) {
      if (value == nullptr)
        return AsCl(InvalidArgumentError(
                        "__constant pointer argument must be a memory object"),
                    mocl::CL_INVALID_ARG_VALUE);
      if (size != sizeof(ClMem))
        return AsCl(InvalidArgumentError(
                        "__constant pointer argument must be a memory object"),
                    mocl::CL_INVALID_ARG_SIZE);
      ClMem mem;
      std::memcpy(&mem, value, sizeof(mem));
      BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(mem));
      arg.kind = ArgRec::Kind::kDynConst;
      arg.const_buffer = mem;
      arg.const_size = b->size;
      return OkStatus();
    }
    if (value == nullptr)
      return AsCl(InvalidArgumentError("null value on a non-__local argument"),
                  mocl::CL_INVALID_ARG_VALUE);
    // Memory objects, images, samplers and plain data all marshal as raw
    // bytes. For image parameters (known from the translation metadata,
    // never guessed from the handle value) the cl_mem handle is replaced
    // by the CLImage descriptor pointer (§5, Fig 6); buffer handles need
    // no rewrite because the handle *is* the device pointer (§4).
    std::vector<std::byte> bytes(size);
    std::memcpy(bytes.data(), value, size);
    if (index < static_cast<int>(k.info->param_is_image.size()) &&
        k.info->param_is_image[index]) {
      if (size != sizeof(ClMem))
        return AsCl(InvalidArgumentError("image argument size mismatch"),
                    mocl::CL_INVALID_ARG_SIZE);
      ClMem handle;
      std::memcpy(&handle, value, sizeof(handle));
      auto img = images_.find(handle.handle);
      if (img == images_.end())
        return AsCl(InvalidArgumentError("argument is not an image object"),
                    mocl::CL_INVALID_ARG_VALUE);
      void* desc = img->second.desc_ptr;
      std::memcpy(bytes.data(), &desc, sizeof(desc));
    }
    arg.kind = ArgRec::Kind::kBytes;
    arg.bytes = std::move(bytes);
    return OkStatus();
  }

  Status EnqueueNDRangeKernel(ClKernel kernel, int work_dim,
                              const size_t* gws, const size_t* lws) override {
    auto span = Span(TraceKind::kKernelLaunch, "clEnqueueNDRangeKernel");
    LaunchPlan plan;
    BRIDGECL_RETURN_IF_ERROR(PrepareLaunch(kernel, work_dim, gws, lws, &plan));
    Status st = Seal(cu_.LaunchKernel(plan.name, plan.grid, plan.block,
                                      plan.shared_bytes, plan.args),
                     mocl::CL_OUT_OF_RESOURCES);
    if (st.ok()) span.SetKernel(plan.name, 0, 0);  // details on the native span
    return span.Sealed(std::move(st));
  }

  Status EnqueueNDRangeKernelOn(ClQueue queue, ClKernel kernel, int work_dim,
                                const size_t* gws, const size_t* lws,
                                std::span<const ClEvent> wait_events,
                                ClEvent* out_event) override {
    auto span = Span(TraceKind::kKernelLaunch, "clEnqueueNDRangeKernel");
    double queued = cu_.NowUs();
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    LaunchPlan plan;
    BRIDGECL_RETURN_IF_ERROR(PrepareLaunch(kernel, work_dim, gws, lws, &plan));
    Status st = EnqueueOn(*q, /*blocking=*/false, queued, wait_events,
                          out_event, [&](void* stream) {
                            return cu_.LaunchKernelOnStream(
                                plan.name, plan.grid, plan.block,
                                plan.shared_bytes, plan.args, stream);
                          });
    if (st.ok()) span.SetKernel(plan.name, 0, 0);
    return span.Sealed(std::move(st));
  }

 private:
  /// Shared NDRange→<<<grid,block,shared>>> marshalling for the legacy and
  /// stream launch paths: kernel lookup, grid derivation (§3.5) and
  /// argument packing, including the deferred __constant copy (§4.2).
  Status PrepareLaunch(ClKernel kernel, int work_dim, const size_t* gws,
                       const size_t* lws, LaunchPlan* plan) {
    auto it = kernels_.find(kernel.handle);
    if (it == kernels_.end())
      return AsCl(InvalidArgumentError("unknown kernel"),
                  mocl::CL_INVALID_KERNEL);
    KernelRec& k = it->second;
    if (work_dim < 1 || work_dim > 3)
      return AsCl(InvalidArgumentError("work_dim must be 1, 2 or 3"),
                  mocl::CL_INVALID_WORK_DIMENSION);
    // NDRange → grid (§3.5).
    simgpu::Dim3 g(1, 1, 1), l(1, 1, 1);
    uint32_t* gp[3] = {&g.x, &g.y, &g.z};
    uint32_t* lp[3] = {&l.x, &l.y, &l.z};
    for (int d = 0; d < work_dim; ++d) {
      *gp[d] = static_cast<uint32_t>(gws[d]);
      *lp[d] = lws != nullptr ? static_cast<uint32_t>(lws[d])
                              : std::min<uint32_t>(*gp[d], 64);
    }
    simgpu::Dim3 grid;
    if (!simgpu::NdrangeToGrid(g, l, &grid))
      return AsCl(
          InvalidArgumentError(
              "global work size is not a multiple of the local work size"),
          mocl::CL_INVALID_WORK_GROUP_SIZE);

    // Marshal arguments in original order; dynamic local/constant params
    // became size_t parameters (Fig 5).
    std::vector<LaunchArg> args;
    size_t shared_total = 0;
    size_t const_offset = 0;
    for (size_t i = 0; i < k.args.size(); ++i) {
      const ArgRec& a = k.args[i];
      switch (a.kind) {
        case ArgRec::Kind::kUnset:
          return AsCl(FailedPreconditionError(StrFormat(
                          "kernel '%s': argument %zu was never set",
                          k.name.c_str(), i)),
                      mocl::CL_INVALID_KERNEL_ARGS);
        case ArgRec::Kind::kBytes: {
          LaunchArg la;
          la.bytes = a.bytes;
          args.push_back(std::move(la));
          break;
        }
        case ArgRec::Kind::kDynLocal: {
          size_t aligned = Align16(a.local_size);
          shared_total += aligned;
          args.push_back(LaunchArg::Value<size_t>(aligned));
          break;
        }
        case ArgRec::Kind::kDynConst: {
          // §4.2: the buffer contents move into the constant arena when
          // the kernel launches (the deferred copy).
          size_t aligned = Align16(a.const_size);
          BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b,
                                    FindBuffer(a.const_buffer));
          std::vector<std::byte> staging(a.const_size);
          BRIDGECL_RETURN_IF_ERROR(
              Seal(cu_.Memcpy(staging.data(), b->dev_ptr, a.const_size,
                              MemcpyKind::kDeviceToHost),
                   mocl::CL_OUT_OF_RESOURCES));
          BRIDGECL_RETURN_IF_ERROR(
              Seal(cu_.MemcpyToSymbol(kConstArena, staging.data(),
                                      a.const_size, const_offset),
                   mocl::CL_OUT_OF_RESOURCES));
          args.push_back(LaunchArg::Value<size_t>(aligned));
          const_offset += aligned;
          break;
        }
      }
    }
    plan->name = k.name;
    plan->grid = grid;
    plan->block = l;
    plan->shared_bytes = shared_total;
    plan->args = std::move(args);
    return OkStatus();
  }

 public:
  Status Finish() override {
    auto span = Span(TraceKind::kApiCall, "clFinish");
    return span.Sealed(
        Seal(cu_.DeviceSynchronize(), mocl::CL_OUT_OF_RESOURCES));
  }

  // -- command queues & asynchronous enqueues (docs/CONCURRENCY.md) ----------
  StatusOr<ClQueue> CreateCommandQueue(uint64_t properties) override {
    auto span = Span(TraceKind::kApiCall, "clCreateCommandQueue");
    if ((properties & ~mocl::CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE) != 0)
      return AsCl(InvalidArgumentError("unknown command-queue property bits"),
                  mocl::CL_INVALID_VALUE);
    QueueRec rec;
    rec.ooo =
        (properties & mocl::CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE) != 0;
    if (!rec.ooo) {
      // In-order CL queue == one CUDA stream; OoO queues make streams
      // per command instead.
      BRIDGECL_ASSIGN_OR_RETURN(
          rec.stream, Seal(cu_.StreamCreate(), mocl::CL_OUT_OF_RESOURCES));
    }
    uint64_t id = next_queue_++;
    queues_[id] = rec;
    return ClQueue{id};
  }

  Status ReleaseCommandQueue(ClQueue queue) override {
    auto span = Span(TraceKind::kApiCall, "clReleaseCommandQueue");
    if (queue.handle == 0)
      return span.Sealed(
          AsCl(InvalidArgumentError("cannot release the default queue"),
               mocl::CL_INVALID_COMMAND_QUEUE));
    auto it = queues_.find(queue.handle);
    if (it == queues_.end())
      return span.Sealed(AsCl(InvalidArgumentError("unknown command queue"),
                              mocl::CL_INVALID_COMMAND_QUEUE));
    Status st = DrainQueue(it->second);  // implicit clFinish
    if (it->second.stream != nullptr) {
      Status ds =
          Seal(cu_.StreamDestroy(it->second.stream), mocl::CL_OUT_OF_RESOURCES);
      if (st.ok()) st = std::move(ds);
    }
    queues_.erase(it);
    return span.Sealed(std::move(st));
  }

  Status EnqueueWriteBufferOn(ClQueue queue, ClMem mem, size_t offset,
                              size_t size, const void* src, bool blocking,
                              std::span<const ClEvent> wait_events,
                              ClEvent* out_event) override {
    auto span = Span(TraceKind::kH2D, "clEnqueueWriteBuffer");
    span.SetBytes(size);
    double queued = cu_.NowUs();
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(mem));
    if (offset + size > b->size)
      return span.Sealed(AsCl(OutOfRangeError("write beyond buffer end"),
                              mocl::CL_INVALID_VALUE));
    void* dst = static_cast<std::byte*>(b->dev_ptr) + offset;
    return span.Sealed(EnqueueOn(
        *q, blocking, queued, wait_events, out_event, [&](void* stream) {
          return cu_.MemcpyAsync(dst, src, size, MemcpyKind::kHostToDevice,
                                 stream);
        }));
  }

  Status EnqueueReadBufferOn(ClQueue queue, ClMem mem, size_t offset,
                             size_t size, void* dst, bool blocking,
                             std::span<const ClEvent> wait_events,
                             ClEvent* out_event) override {
    auto span = Span(TraceKind::kD2H, "clEnqueueReadBuffer");
    span.SetBytes(size);
    double queued = cu_.NowUs();
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(mem));
    if (offset + size > b->size)
      return span.Sealed(AsCl(OutOfRangeError("read beyond buffer end"),
                              mocl::CL_INVALID_VALUE));
    const void* from = static_cast<std::byte*>(b->dev_ptr) + offset;
    return span.Sealed(EnqueueOn(
        *q, blocking, queued, wait_events, out_event, [&](void* stream) {
          return cu_.MemcpyAsync(dst, from, size, MemcpyKind::kDeviceToHost,
                                 stream);
        }));
  }

  Status EnqueueCopyBufferOn(ClQueue queue, ClMem src, ClMem dst,
                             size_t src_offset, size_t dst_offset, size_t size,
                             std::span<const ClEvent> wait_events,
                             ClEvent* out_event) override {
    auto span = Span(TraceKind::kD2D, "clEnqueueCopyBuffer");
    span.SetBytes(size);
    double queued = cu_.NowUs();
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * s, FindBuffer(src));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * d, FindBuffer(dst));
    if (src_offset + size > s->size || dst_offset + size > d->size)
      return span.Sealed(AsCl(OutOfRangeError("copy beyond buffer end"),
                              mocl::CL_INVALID_VALUE));
    void* to = static_cast<std::byte*>(d->dev_ptr) + dst_offset;
    const void* from = static_cast<std::byte*>(s->dev_ptr) + src_offset;
    return span.Sealed(EnqueueOn(
        *q, /*blocking=*/false, queued, wait_events, out_event,
        [&](void* stream) {
          return cu_.MemcpyAsync(to, from, size, MemcpyKind::kDeviceToDevice,
                                 stream);
        }));
  }

  StatusOr<ClEvent> EnqueueMarkerWithWaitList(
      ClQueue queue, std::span<const ClEvent> wait_events) override {
    auto span = Span(TraceKind::kApiCall, "clEnqueueMarkerWithWaitList");
    double queued = cu_.NowUs();
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    return MarkerImpl(*q, wait_events, queued);
  }

  StatusOr<ClEvent> EnqueueBarrier(ClQueue queue) override {
    auto span = Span(TraceKind::kApiCall, "clEnqueueBarrierWithWaitList");
    double queued = cu_.NowUs();
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    BRIDGECL_ASSIGN_OR_RETURN(ClEvent ev, MarkerImpl(*q, {}, queued));
    // The barrier's own completion event now dominates everything enqueued
    // so far: post-barrier commands need only wait on it.
    if (q->ooo && !q->cmd_events.empty())
      q->barrier_deps.assign(1, q->cmd_events.back());
    return ev;
  }

  Status Flush(ClQueue queue) override {
    // Submission hint: commands were already handed to the CUDA runtime at
    // enqueue, so flushing only validates the handle.
    auto span = Span(TraceKind::kApiCall, "clFlush");
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    (void)q;
    return OkStatus();
  }

  Status Finish(ClQueue queue) override {
    auto span = Span(TraceKind::kApiCall, "clFinish");
    BRIDGECL_ASSIGN_OR_RETURN(QueueRec * q, FindQueue(queue));
    return span.Sealed(DrainQueue(*q));
  }

  Status WaitForEvents(std::span<const ClEvent> events) override {
    auto span = Span(TraceKind::kApiCall, "clWaitForEvents");
    Status first;
    for (const ClEvent& e : events) {
      auto it = event_map_.find(e.handle);
      if (it == event_map_.end())
        return span.Sealed(AsCl(InvalidArgumentError("unknown event"),
                                mocl::CL_INVALID_EVENT));
      if (it->second.cuda_event == nullptr) continue;  // already complete
      Status st = Seal(cu_.EventSynchronize(it->second.cuda_event),
                       mocl::CL_OUT_OF_RESOURCES);
      if (first.ok() && !st.ok()) first = std::move(st);
    }
    return span.Sealed(std::move(first));
  }

  Status ReleaseEvent(ClEvent event) override {
    auto span = Span(TraceKind::kApiCall, "clReleaseEvent");
    auto it = event_map_.find(event.handle);
    if (it == event_map_.end())
      return span.Sealed(AsCl(InvalidArgumentError("unknown event"),
                              mocl::CL_INVALID_EVENT));
    Status st;
    if (it->second.cuda_event != nullptr)
      st = Seal(cu_.EventDestroy(it->second.cuda_event),
                mocl::CL_INVALID_EVENT);
    event_map_.erase(it);
    return span.Sealed(std::move(st));
  }

  StatusOr<mocl::ClEvent> EnqueueNDRangeKernelWithEvent(
      ClKernel kernel, int work_dim, const size_t* gws,
      const size_t* lws) override {
    // Legacy profiled path: the launch is synchronous, so the event is
    // born with its absolute times already resolved.
    double queued = cu_.NowUs();
    BRIDGECL_RETURN_IF_ERROR(
        EnqueueNDRangeKernel(kernel, work_dim, gws, lws));
    uint64_t id = next_id_++;
    EventRec er;
    er.queued_us = queued;
    er.resolved = true;
    er.end_us = cu_.NowUs();
    event_map_[id] = er;
    return mocl::ClEvent{id};
  }

  Status GetEventProfiling(mocl::ClEvent event, double* queued_us,
                           double* end_us) override {
    auto span = Span(TraceKind::kApiCall, "clGetEventProfilingInfo");
    auto it = event_map_.find(event.handle);
    if (it == event_map_.end())
      return AsCl(InvalidArgumentError("unknown event"),
                  mocl::CL_INVALID_EVENT);
    EventRec& er = it->second;
    if (!er.resolved) {
      // Asynchronous event: wait for it, then anchor cuEventElapsedTime's
      // relative reading to the t0 base to recover an absolute end time.
      BRIDGECL_RETURN_IF_ERROR(Seal(cu_.EventSynchronize(er.cuda_event),
                                    mocl::CL_OUT_OF_RESOURCES));
      BRIDGECL_ASSIGN_OR_RETURN(double rel,
                                Seal(cu_.EventElapsedUs(t0_, er.cuda_event),
                                     mocl::CL_INVALID_EVENT));
      er.end_us = t0_now_ + rel;
      er.resolved = true;
    }
    *queued_us = er.queued_us;
    *end_us = er.end_us;
    return OkStatus();
  }

  Status SetProgramKernelRegisters(ClProgram program,
                                   const std::string& kernel,
                                   int regs) override {
    auto it = programs_.find(program.handle);
    if (it == programs_.end())
      return AsCl(InvalidArgumentError("unknown program"),
                  mocl::CL_INVALID_PROGRAM);
    if (!it->second.built)
      return AsCl(FailedPreconditionError("program is not built"),
                  mocl::CL_INVALID_PROGRAM_EXECUTABLE);
    return Seal(cu_.SetKernelRegisters(kernel, regs),
                mocl::CL_INVALID_KERNEL_NAME);
  }

  double NowUs() const override { return cu_.NowUs(); }
  /// The run-time translate+nvcc pipeline (Fig 2) is host-side work that
  /// never enters the simulated device clock, so nothing needs excluding:
  /// NowUs() already reports build-free time.
  double BuildTimeUs() const override { return 0; }

 private:
  /// Wrapper-layer trace span over the shared recorder; forwarded native
  /// CUDA calls open child spans inside it. No-op when tracing is off.
  trace::TraceSpan Span(TraceKind kind, const char* name) {
    return trace::TraceSpan(cu_.Tracer(), kind, "cl2cu", name);
  }

  /// Boundary sealer: every Status leaving this wrapper carries a CL
  /// api_code. An inner cudaError annotation is re-mapped through
  /// ClFromCuda; an unannotated Status gets the per-StatusCode default
  /// (with `fallback` for kResourceExhausted).
  static Status Seal(Status st, int fallback) {
    if (st.ok()) return st;
    // Device loss always surfaces as CL_OUT_OF_RESOURCES, whatever the
    // inner CUDA layer annotated (the CL 1.2 spec has no dedicated code).
    int code = st.code() == StatusCode::kDeviceLost
                   ? mocl::CL_OUT_OF_RESOURCES
               : mcuda::IsCudaCode(st.api_code())
                   ? ClFromCuda(st.api_code())
                   : mocl::ClCodeFor(st, fallback);
    return AsCl(std::move(st), code);
  }

  template <typename T>
  static StatusOr<T> Seal(StatusOr<T> v, int fallback) {
    if (v.ok()) return v;
    return StatusOr<T>(Seal(std::move(v).status(), fallback));
  }

  StatusOr<QueueRec*> FindQueue(ClQueue queue) {
    auto it = queues_.find(queue.handle);
    if (it == queues_.end())
      return AsCl(InvalidArgumentError("unknown command queue"),
                  mocl::CL_INVALID_COMMAND_QUEUE);
    return &it->second;
  }

  /// Lazily plants the absolute-time base: a CUDA event recorded on a
  /// private, freshly created (and therefore empty) stream and
  /// synchronized, so its completion instant is NowUs() exactly.
  /// Recording on the default stream instead would anchor t0 behind
  /// everything already enqueued there — an over-synchronization that
  /// dragged every first blocking transfer out to the default queue's
  /// horizon (sched_test's FirstEventCommandDoesNotSyncDefaultQueue pins
  /// the fix). Asynchronous CL events report absolute end times as
  /// t0_now_ + cuEventElapsedTime(t0, event).
  Status EnsureT0() {
    if (t0_ != nullptr) return OkStatus();
    BRIDGECL_ASSIGN_OR_RETURN(
        void* ev, Seal(cu_.EventCreate(), mocl::CL_OUT_OF_RESOURCES));
    auto anchor = cu_.StreamCreate();
    if (!anchor.ok()) {
      (void)cu_.EventDestroy(ev);
      return Seal(std::move(anchor).status(), mocl::CL_OUT_OF_RESOURCES);
    }
    Status st = cu_.EventRecordOnStream(ev, *anchor);
    if (st.ok()) st = cu_.EventSynchronize(ev);
    (void)cu_.StreamDestroy(*anchor);
    if (!st.ok()) {
      (void)cu_.EventDestroy(ev);
      return Seal(std::move(st), mocl::CL_OUT_OF_RESOURCES);
    }
    t0_ = ev;
    t0_now_ = cu_.NowUs();
    return OkStatus();
  }

  /// Common choreography for one asynchronous command on `q`: resolve the
  /// wait list to CUDA events, pick or create the stream, wire the
  /// dependencies with cudaStreamWaitEvent, run `issue` on that stream,
  /// then record the completion events (per-command for OoO bookkeeping,
  /// user-visible when `out_event` is wanted).
  Status EnqueueOn(QueueRec& q, bool blocking, double queued,
                   std::span<const ClEvent> wait_events, ClEvent* out_event,
                   const std::function<Status(void*)>& issue) {
    if (out_event != nullptr) BRIDGECL_RETURN_IF_ERROR(EnsureT0());
    std::vector<void*> deps;
    for (const ClEvent& w : wait_events) {
      auto it = event_map_.find(w.handle);
      if (it == event_map_.end())
        return AsCl(InvalidArgumentError("unknown event in wait list"),
                    mocl::CL_INVALID_EVENT);
      // Resolved events already completed; no dependency edge needed.
      if (it->second.cuda_event != nullptr)
        deps.push_back(it->second.cuda_event);
    }
    void* stream = q.stream;
    if (q.ooo) {
      BRIDGECL_ASSIGN_OR_RETURN(
          stream, Seal(cu_.StreamCreate(), mocl::CL_OUT_OF_RESOURCES));
      q.cmd_streams.push_back(stream);
      for (void* d : q.barrier_deps)
        BRIDGECL_RETURN_IF_ERROR(Seal(cu_.StreamWaitEvent(stream, d),
                                      mocl::CL_OUT_OF_RESOURCES));
    }
    for (void* d : deps)
      BRIDGECL_RETURN_IF_ERROR(
          Seal(cu_.StreamWaitEvent(stream, d), mocl::CL_OUT_OF_RESOURCES));
    BRIDGECL_RETURN_IF_ERROR(Seal(issue(stream), mocl::CL_OUT_OF_RESOURCES));
    if (q.ooo) {
      BRIDGECL_ASSIGN_OR_RETURN(
          void* ce, Seal(cu_.EventCreate(), mocl::CL_OUT_OF_RESOURCES));
      Status st = cu_.EventRecordOnStream(ce, stream);
      if (!st.ok()) {
        (void)cu_.EventDestroy(ce);
        return Seal(std::move(st), mocl::CL_OUT_OF_RESOURCES);
      }
      q.cmd_events.push_back(ce);
    }
    if (out_event != nullptr) {
      BRIDGECL_ASSIGN_OR_RETURN(
          void* ue, Seal(cu_.EventCreate(), mocl::CL_OUT_OF_RESOURCES));
      Status st = cu_.EventRecordOnStream(ue, stream);
      if (!st.ok()) {
        (void)cu_.EventDestroy(ue);
        return Seal(std::move(st), mocl::CL_OUT_OF_RESOURCES);
      }
      uint64_t id = next_id_++;
      EventRec er;
      er.queued_us = queued;
      er.cuda_event = ue;
      event_map_[id] = er;
      *out_event = ClEvent{id};
    }
    if (blocking)
      return Seal(cu_.StreamSynchronize(stream), mocl::CL_OUT_OF_RESOURCES);
    return OkStatus();
  }

  /// Marker event on `q`. An empty wait list on an out-of-order queue
  /// means "everything enqueued so far", which with per-command streams is
  /// a wait on every per-command event.
  StatusOr<ClEvent> MarkerImpl(QueueRec& q, std::span<const ClEvent> wait,
                               double queued) {
    ClEvent ev;
    if (q.ooo && wait.empty()) {
      std::vector<void*> all = q.cmd_events;  // snapshot before the marker
      BRIDGECL_RETURN_IF_ERROR(EnqueueOn(
          q, /*blocking=*/false, queued, {}, &ev, [&](void* stream) {
            for (void* d : all)
              BRIDGECL_RETURN_IF_ERROR(Seal(cu_.StreamWaitEvent(stream, d),
                                            mocl::CL_OUT_OF_RESOURCES));
            return OkStatus();
          }));
      return ev;
    }
    BRIDGECL_RETURN_IF_ERROR(
        EnqueueOn(q, /*blocking=*/false, queued, wait, &ev,
                  [](void*) { return OkStatus(); }));
    return ev;
  }

  /// clFinish semantics for one queue: drain it and surface the first
  /// deferred error. Out-of-order queues also retire their per-command
  /// streams and bookkeeping events here.
  Status DrainQueue(QueueRec& q) {
    Status first;
    if (!q.ooo) {
      first = cu_.StreamSynchronize(q.stream);  // null = default stream
    } else {
      for (void* s : q.cmd_streams) {
        Status st = cu_.StreamSynchronize(s);
        if (first.ok() && !st.ok()) first = std::move(st);
      }
      for (void* s : q.cmd_streams) (void)cu_.StreamDestroy(s);
      for (void* e : q.cmd_events) (void)cu_.EventDestroy(e);
      q.cmd_streams.clear();
      q.cmd_events.clear();
      q.barrier_deps.clear();
    }
    return Seal(std::move(first), mocl::CL_OUT_OF_RESOURCES);
  }

  StatusOr<BufferRec*> FindBuffer(ClMem mem) {
    auto it = buffers_.find(mem.handle);
    if (it == buffers_.end())
      return AsCl(InvalidArgumentError("unknown buffer object"),
                  mocl::CL_INVALID_MEM_OBJECT);
    return &it->second;
  }

  StatusOr<ImageRec*> FindImage(ClMem mem) {
    auto it = images_.find(mem.handle);
    if (it == images_.end())
      return AsCl(InvalidArgumentError("unknown image object"),
                  mocl::CL_INVALID_MEM_OBJECT);
    return &it->second;
  }

  StatusOr<ClMem> MakeImage(MemFlags, const ClImageFormat& format,
                            size_t width, size_t height,
                            const void* host_ptr) {
    size_t texel = lang::ScalarByteSize(format.elem) * format.channels;
    size_t bytes = width * height * texel;
    if (bytes == 0)
      return AsCl(InvalidArgumentError("image dimensions must be non-zero"),
                  mocl::CL_INVALID_IMAGE_SIZE);
    BRIDGECL_ASSIGN_OR_RETURN(
        void* data,
        Seal(cu_.Malloc(bytes), mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE));
    if (host_ptr != nullptr) {
      Status st = cu_.Memcpy(data, host_ptr, bytes, MemcpyKind::kHostToDevice);
      if (!st.ok()) {
        (void)cu_.Free(data);  // don't leak texels on a failed upload
        return Seal(std::move(st), mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE);
      }
    }
    auto mem = MakeImageOver(data, /*owns=*/true, format, width, height);
    if (!mem.ok()) (void)cu_.Free(data);
    return mem;
  }

  StatusOr<ClMem> MakeImageOver(void* data, bool owns,
                                const ClImageFormat& format, size_t width,
                                size_t height) {
    size_t texel = lang::ScalarByteSize(format.elem) * format.channels;
    ImageDesc desc;
    desc.data_va = reinterpret_cast<uint64_t>(data);
    desc.width = static_cast<uint32_t>(width);
    desc.height = static_cast<uint32_t>(height);
    desc.depth = 1;
    desc.channels = static_cast<uint32_t>(format.channels);
    desc.elem_kind = static_cast<uint32_t>(format.elem);
    desc.row_pitch = static_cast<uint32_t>(width * texel);
    desc.slice_pitch = static_cast<uint32_t>(width * height * texel);
    desc.dims = height > 1 ? 2 : 1;
    BRIDGECL_ASSIGN_OR_RETURN(
        void* desc_ptr,
        Seal(cu_.Malloc(sizeof(desc)),
             mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE));
    Status st = cu_.Memcpy(desc_ptr, &desc, sizeof(desc),
                           MemcpyKind::kHostToDevice);
    if (!st.ok()) {
      (void)cu_.Free(desc_ptr);  // descriptor block, not the texels
      return Seal(std::move(st), mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE);
    }
    uint64_t id = next_id_++;
    ImageRec rec;
    rec.desc_ptr = desc_ptr;
    rec.data_ptr = data;  // borrowed when !owns; never freed then
    rec.byte_size = width * height * texel;
    images_[id] = rec;
    owned_image_data_[id] = owns;
    return ClMem{id};
  }

  CudaApi& cu_;
  uint64_t next_id_ = 0x4000'0000'0000'0000ull;  // disjoint from VAs
  std::unordered_map<uint64_t, BufferRec> buffers_;
  std::unordered_map<uint64_t, ImageRec> images_;
  std::unordered_map<uint64_t, bool> owned_image_data_;
  std::unordered_map<uint64_t, ProgramRec> programs_;
  std::unordered_map<uint64_t, std::string> build_log_;
  std::unordered_map<uint64_t, KernelRec> kernels_;
  std::map<uint64_t, QueueRec> queues_;  // ordered: deterministic teardown
  std::unordered_map<uint64_t, EventRec> event_map_;
  uint64_t next_queue_ = 0x4800'0000'0000'0000ull;
  void* t0_ = nullptr;  // lazy absolute-time base (EnsureT0)
  double t0_now_ = 0;   // NowUs() at the instant t0_ completed
};

}  // namespace

std::unique_ptr<OpenClApi> CreateClOnCudaApi(CudaApi& cuda) {
  return std::make_unique<ClOnCudaApi>(cuda);
}

}  // namespace bridgecl::cl2cu
