#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "interp/executor.h"
#include "interp/image.h"
#include "interp/module.h"
#include "mocl/cl_api.h"
#include "mocl/cl_errors.h"
#include "sched/scheduler.h"
#include "simgpu/fault_injector.h"
#include "support/strings.h"
#include "trace/session.h"
#include "trace/trace.h"

namespace bridgecl::mocl {
namespace {

using interp::ImageDesc;
using interp::KernelArg;
using interp::Module;
using lang::AddressSpace;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::FaultInjector;
using simgpu::RetryTransient;
using simgpu::TransferWithFaults;
using trace::TraceKind;

/// Fixed simulated cost of an on-line clBuildProgram (front end + codegen).
constexpr double kBuildCostUs = 4000.0;

/// Where an enqueue stores its event handle: the caller's `out_event`, or
/// nowhere, so that no event is recorded, when the caller passed none.
uint64_t* EventOut(ClEvent* out_event) {
  return out_event != nullptr ? &out_event->handle : nullptr;
}

struct BufferRec {
  uint64_t va = 0;
  size_t size = 0;
  MemFlags flags = MemFlags::kReadWrite;
};

struct ImageRec {
  uint64_t desc_va = 0;
  uint64_t data_va = 0;
  bool owns_data = true;
  size_t width = 0, height = 1;
  ClImageFormat format;
  size_t byte_size = 0;
};

struct ProgramRec {
  std::string source;
  std::unique_ptr<Module> module;
  std::string build_log;
};

struct KernelRec {
  uint64_t program = 0;
  std::string name;
  std::vector<KernelArg> args;  // indexed by parameter position
  std::vector<bool> set;
};

class NativeClApi final : public OpenClApi {
 public:
  explicit NativeClApi(Device& device)
      : device_(device),
        // BRIDGECL_TRACE / BRIDGECL_TRACE_SUMMARY attach a recorder to the
        // device for this runtime's lifetime (docs/OBSERVABILITY.md).
        auto_trace_(trace::TraceSession::MaybeAttachFromEnv(device)),
        sched_(device, "mocl") {
    device_.set_bank_mode(device_.profile().opencl_bank_mode);
  }

  trace::TraceRecorder* Tracer() const override { return device_.tracer(); }

  std::string PlatformName() const override {
    return "BridgeCL mini-OpenCL 1.2";
  }

  StatusOr<std::string> QueryDeviceInfoString(ClDeviceAttr attr) override {
    auto span = Span(TraceKind::kApiCall, "clGetDeviceInfo");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    ChargeQuery();
    switch (attr) {
      case ClDeviceAttr::kName:
        return device_.profile().name;
      case ClDeviceAttr::kVendor:
        return device_.profile().vendor;
      default:
        return AsCl(InvalidArgumentError("attribute is not a string"),
                    CL_INVALID_VALUE);
    }
  }

  StatusOr<uint64_t> QueryDeviceInfoUint(ClDeviceAttr attr) override {
    auto span = Span(TraceKind::kApiCall, "clGetDeviceInfo");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    ChargeQuery();
    const auto& p = device_.profile();
    switch (attr) {
      case ClDeviceAttr::kMaxComputeUnits:
        return static_cast<uint64_t>(p.compute_units);
      case ClDeviceAttr::kMaxWorkGroupSize:
        return static_cast<uint64_t>(p.max_threads_per_block);
      case ClDeviceAttr::kLocalMemSize:
        return static_cast<uint64_t>(p.shared_mem_per_block);
      case ClDeviceAttr::kGlobalMemSize:
        return static_cast<uint64_t>(p.global_mem_size);
      case ClDeviceAttr::kMaxConstantBufferSize:
        return static_cast<uint64_t>(p.constant_mem_size);
      case ClDeviceAttr::kImage2dMaxWidth:
        return static_cast<uint64_t>(p.max_image2d_width);
      case ClDeviceAttr::kImage2dMaxHeight:
        return static_cast<uint64_t>(p.max_image2d_height);
      case ClDeviceAttr::kImage1dMaxBufferWidth:
        return static_cast<uint64_t>(p.max_image1d_width);
      case ClDeviceAttr::kMaxClockFrequency:
        return static_cast<uint64_t>(p.clock_ghz * 1000);
      default:
        return AsCl(InvalidArgumentError("attribute is not an integer"),
                    CL_INVALID_VALUE);
    }
  }

  StatusOr<int> CreateSubDevices(int n) override {
    auto span = Span(TraceKind::kApiCall, "clCreateSubDevices");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (n <= 0 || n > device_.profile().compute_units)
      return AsCl(InvalidArgumentError("invalid sub-device partition count"),
                  CL_INVALID_DEVICE_PARTITION_COUNT);
    // Equal partition by compute units; we only model the bookkeeping.
    return n;
  }

  // -- buffers ---------------------------------------------------------------
  StatusOr<ClMem> CreateBuffer(MemFlags flags, size_t size,
                               const void* host_ptr) override {
    // CL_MEM_COPY_HOST_PTR makes this an h2d command; a plain allocation
    // is an api-call. One span either way.
    auto span = Span(host_ptr != nullptr ? TraceKind::kH2D
                                         : TraceKind::kApiCall,
                     "clCreateBuffer");
    if (host_ptr != nullptr) span.SetBytes(size);
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (size == 0)
      return AsCl(InvalidArgumentError("buffer size is zero"),
                  CL_INVALID_BUFFER_SIZE);
    auto va_or = RetryTransient(
        device_.faults(), [&] { return device_.vm().AllocGlobal(size); });
    if (!va_or.ok())
      return Seal(va_or.status(), CL_MEM_OBJECT_ALLOCATION_FAILURE);
    uint64_t va = *va_or;
    if (host_ptr != nullptr) {
      Status st = CopyIn(va, host_ptr, size);
      if (!st.ok()) {
        // CL_MEM_COPY_HOST_PTR failed: no handle is created, so release
        // the device memory instead of leaking it.
        (void)device_.vm().FreeGlobal(va);
        return Seal(std::move(st), CL_MEM_OBJECT_ALLOCATION_FAILURE);
      }
    }
    uint64_t id = next_id_++;
    buffers_[id] = BufferRec{va, size, flags};
    return ClMem{id};
  }

  Status ReleaseMemObject(ClMem mem) override {
    auto span = Span(TraceKind::kApiCall, "clReleaseMemObject");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (auto it = buffers_.find(mem.handle); it != buffers_.end()) {
      BRIDGECL_RETURN_IF_ERROR(Seal(FreeRetry(it->second.va),
                                    CL_OUT_OF_RESOURCES));
      buffers_.erase(it);
      return OkStatus();
    }
    if (auto it = images_.find(mem.handle); it != images_.end()) {
      if (it->second.owns_data)
        BRIDGECL_RETURN_IF_ERROR(Seal(FreeRetry(it->second.data_va),
                                      CL_OUT_OF_RESOURCES));
      BRIDGECL_RETURN_IF_ERROR(Seal(FreeRetry(it->second.desc_va),
                                    CL_OUT_OF_RESOURCES));
      images_.erase(it);
      return OkStatus();
    }
    return AsCl(InvalidArgumentError("unknown memory object"),
                CL_INVALID_MEM_OBJECT);
  }

  Status EnqueueWriteBuffer(ClMem mem, size_t offset, size_t size,
                            const void* src) override {
    return EnqueueWriteBufferOn(ClQueue{}, mem, offset, size, src,
                                /*blocking=*/true, {}, nullptr);
  }

  Status EnqueueReadBuffer(ClMem mem, size_t offset, size_t size,
                           void* dst) override {
    return EnqueueReadBufferOn(ClQueue{}, mem, offset, size, dst,
                               /*blocking=*/true, {}, nullptr);
  }

  Status EnqueueCopyBuffer(ClMem src, ClMem dst, size_t src_offset,
                           size_t dst_offset, size_t size) override {
    // Legacy single-queue form: a blocking-ish copy on the default queue
    // (the caller observes completion through the rolled clock).
    auto span = Span(TraceKind::kD2D, "clEnqueueCopyBuffer");
    span.SetBytes(size);
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    return span.Sealed(CopyImpl(ClQueue{}, src, dst, src_offset, dst_offset,
                                size, /*blocking=*/true, {}, nullptr,
                                queued));
  }

  Status EnqueueWriteBufferOn(ClQueue queue, ClMem mem, size_t offset,
                              size_t size, const void* src, bool blocking,
                              std::span<const ClEvent> wait_events,
                              ClEvent* out_event) override {
    auto span = Span(TraceKind::kH2D, "clEnqueueWriteBuffer");
    span.SetBytes(size);
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_RETURN_IF_ERROR(ValidateQueue(queue));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(mem));
    if (offset + size > b->size)
      return span.Sealed(AsCl(OutOfRangeError("write beyond buffer end"),
                              CL_INVALID_VALUE));
    sched::CommandSpec spec;
    spec.kind = sched::CommandKind::kCopyH2D;
    spec.queue = queue.handle;
    spec.bytes = size;
    BRIDGECL_ASSIGN_OR_RETURN(spec.wait_events, WaitList(wait_events));
    const uint64_t va = b->va + offset;
    Status status = sched_.Enqueue(spec, blocking, queued, [&] {
      return Seal(CopyIn(va, src, size), CL_OUT_OF_RESOURCES);
    }, EventOut(out_event));
    return span.Sealed(Seal(std::move(status), CL_OUT_OF_RESOURCES));
  }

  Status EnqueueReadBufferOn(ClQueue queue, ClMem mem, size_t offset,
                             size_t size, void* dst, bool blocking,
                             std::span<const ClEvent> wait_events,
                             ClEvent* out_event) override {
    auto span = Span(TraceKind::kD2H, "clEnqueueReadBuffer");
    span.SetBytes(size);
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_RETURN_IF_ERROR(ValidateQueue(queue));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(mem));
    if (offset + size > b->size)
      return span.Sealed(AsCl(OutOfRangeError("read beyond buffer end"),
                              CL_INVALID_VALUE));
    sched::CommandSpec spec;
    spec.kind = sched::CommandKind::kCopyD2H;
    spec.queue = queue.handle;
    spec.bytes = size;
    BRIDGECL_ASSIGN_OR_RETURN(spec.wait_events, WaitList(wait_events));
    const uint64_t va = b->va + offset;
    Status status = sched_.Enqueue(spec, blocking, queued, [&] {
      return Seal(CopyOut(dst, va, size), CL_OUT_OF_RESOURCES);
    }, EventOut(out_event));
    return span.Sealed(Seal(std::move(status), CL_OUT_OF_RESOURCES));
  }

  Status EnqueueCopyBufferOn(ClQueue queue, ClMem src, ClMem dst,
                             size_t src_offset, size_t dst_offset, size_t size,
                             std::span<const ClEvent> wait_events,
                             ClEvent* out_event) override {
    auto span = Span(TraceKind::kD2D, "clEnqueueCopyBuffer");
    span.SetBytes(size);
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    return span.Sealed(CopyImpl(queue, src, dst, src_offset, dst_offset,
                                size, /*blocking=*/false, wait_events,
                                out_event, queued));
  }

  // -- images ----------------------------------------------------------------
  StatusOr<ClMem> CreateImage2D(MemFlags flags, const ClImageFormat& format,
                                size_t width, size_t height,
                                const void* host_ptr) override {
    auto span = Span(host_ptr != nullptr ? TraceKind::kH2D
                                         : TraceKind::kApiCall,
                     "clCreateImage2D");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    const auto& p = device_.profile();
    if (width > static_cast<size_t>(p.max_image2d_width) ||
        height > static_cast<size_t>(p.max_image2d_height))
      return AsCl(
          InvalidArgumentError(StrFormat(
              "image size %zux%zu exceeds device limits", width, height)),
          CL_INVALID_IMAGE_SIZE);
    return MakeImage(flags, format, width, height, host_ptr, /*buffer=*/{});
  }

  StatusOr<ClMem> CreateImage1D(MemFlags flags, const ClImageFormat& format,
                                size_t width, const void* host_ptr) override {
    auto span = Span(host_ptr != nullptr ? TraceKind::kH2D
                                         : TraceKind::kApiCall,
                     "clCreateImage1D");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (width > device_.profile().max_image1d_width)
      return AsCl(
          InvalidArgumentError(StrFormat(
              "1D image width %zu exceeds device maximum %zu (§5)", width,
              device_.profile().max_image1d_width)),
          CL_INVALID_IMAGE_SIZE);
    return MakeImage(flags, format, width, 1, host_ptr, /*buffer=*/{});
  }

  StatusOr<ClMem> CreateImage1DFromBuffer(const ClImageFormat& format,
                                          size_t width,
                                          ClMem buffer) override {
    auto span = Span(TraceKind::kApiCall, "clCreateImage1DFromBuffer");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (width > device_.profile().max_image1d_width)
      return AsCl(
          InvalidArgumentError(StrFormat(
              "1D image buffer width %zu exceeds device maximum %zu; "
              "CUDA linear textures reach 2^27 (§5)",
              width, device_.profile().max_image1d_width)),
          CL_INVALID_IMAGE_SIZE);
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(buffer));
    size_t texel = lang::ScalarByteSize(format.elem) * format.channels;
    if (width * texel > b->size)
      return AsCl(
          OutOfRangeError("image view larger than the backing buffer"),
          CL_INVALID_IMAGE_SIZE);
    return MakeImage(MemFlags::kReadWrite, format, width, 1, nullptr, buffer);
  }

  Status EnqueueWriteImage(ClMem image, const void* src) override {
    auto span = Span(TraceKind::kH2D, "clEnqueueWriteImage");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_ASSIGN_OR_RETURN(ImageRec * img, FindImage(image));
    span.SetBytes(img->byte_size);
    return span.Sealed(Seal(CopyIn(img->data_va, src, img->byte_size),
                            CL_OUT_OF_RESOURCES));
  }

  Status EnqueueReadImage(ClMem image, void* dst) override {
    auto span = Span(TraceKind::kD2H, "clEnqueueReadImage");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_ASSIGN_OR_RETURN(ImageRec * img, FindImage(image));
    span.SetBytes(img->byte_size);
    return span.Sealed(Seal(CopyOut(dst, img->data_va, img->byte_size),
                            CL_OUT_OF_RESOURCES));
  }

  StatusOr<uint64_t> CreateSampler(const ClSamplerDesc& desc) override {
    auto span = Span(TraceKind::kApiCall, "clCreateSampler");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    uint64_t bits = 0;
    if (desc.normalized_coords) bits |= interp::kSamplerNormalizedCoords;
    if (desc.address_clamp) bits |= interp::kSamplerAddressClamp;
    if (desc.filter_linear) bits |= interp::kSamplerFilterLinear;
    return bits;
  }

  // -- programs & kernels -----------------------------------------------------
  StatusOr<ClProgram> CreateProgramWithSource(
      const std::string& source) override {
    auto span = Span(TraceKind::kApiCall, "clCreateProgramWithSource");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    uint64_t id = next_id_++;
    programs_[id].source = source;
    return ClProgram{id};
  }

  Status BuildProgram(ClProgram program) override {
    auto span = Span(TraceKind::kApiCall, "clBuildProgram");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = programs_.find(program.handle);
    if (it == programs_.end())
      return AsCl(InvalidArgumentError("unknown program"),
                  CL_INVALID_PROGRAM);
    DiagnosticEngine diags;
    interp::ModuleCacheOutcome cache_outcome;
    auto m = Module::Compile(it->second.source, lang::Dialect::kOpenCL, diags,
                             &cache_outcome);
    span.SetModuleCache(cache_outcome == interp::ModuleCacheOutcome::kHit);
    it->second.build_log = diags.ToString();
    // The simulated build cost is charged identically on cache hit and
    // miss: the cache saves host wall-clock, never simulated device time.
    // Whatever the compiler's failure class, clBuildProgram reports a
    // source that does not compile as CL_BUILD_PROGRAM_FAILURE.
    if (!m.ok()) return AsCl(m.status(), CL_BUILD_PROGRAM_FAILURE);
    BRIDGECL_RETURN_IF_ERROR(
        Seal((*m)->LoadOn(device_), CL_BUILD_PROGRAM_FAILURE));
    it->second.module = std::move(*m);
    build_time_us_ += kBuildCostUs;
    device_.AdvanceUs(kBuildCostUs);
    return OkStatus();
  }

  StatusOr<std::string> GetProgramBuildLog(ClProgram program) override {
    auto it = programs_.find(program.handle);
    if (it == programs_.end())
      return AsCl(InvalidArgumentError("unknown program"),
                  CL_INVALID_PROGRAM);
    return it->second.build_log;
  }

  StatusOr<ClKernel> CreateKernel(ClProgram program,
                                  const std::string& name) override {
    auto span = Span(TraceKind::kApiCall, "clCreateKernel");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = programs_.find(program.handle);
    if (it == programs_.end())
      return span.Sealed(AsCl(InvalidArgumentError("unknown program"),
                              CL_INVALID_PROGRAM));
    if (it->second.module == nullptr)
      return span.Sealed(
          AsCl(FailedPreconditionError("program is not built"),
               CL_INVALID_PROGRAM_EXECUTABLE));
    const lang::FunctionDecl* fn = it->second.module->FindKernel(name);
    if (fn == nullptr)
      return span.Sealed(
          AsCl(NotFoundError("no kernel '" + name + "' in program"),
               CL_INVALID_KERNEL_NAME));
    uint64_t id = next_id_++;
    KernelRec& k = kernels_[id];
    k.program = program.handle;
    k.name = name;
    k.args.resize(fn->params.size());
    k.set.assign(fn->params.size(), false);
    return ClKernel{id};
  }

  Status SetKernelArg(ClKernel kernel, int index, size_t size,
                      const void* value) override {
    auto span = Span(TraceKind::kApiCall, "clSetKernelArg");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = kernels_.find(kernel.handle);
    if (it == kernels_.end())
      return AsCl(InvalidArgumentError("unknown kernel"), CL_INVALID_KERNEL);
    KernelRec& k = it->second;
    Module* module = programs_[k.program].module.get();
    const lang::FunctionDecl* fn = module->FindKernel(k.name);
    if (index < 0 || index >= static_cast<int>(fn->params.size()))
      return AsCl(
          OutOfRangeError(StrFormat(
              "argument index %d out of range for kernel '%s'", index,
              k.name.c_str())),
          CL_INVALID_ARG_INDEX);
    const lang::VarDecl* param = fn->params[index].get();
    const lang::Type::Ptr& t = param->type;

    if (value == nullptr) {
      // Dynamic __local allocation (§4.1).
      if (!t->is_pointer() || t->pointee_space() != AddressSpace::kLocal)
        return AsCl(
            InvalidArgumentError("null arg value on a non-__local parameter"),
            CL_INVALID_ARG_VALUE);
      k.args[index] = KernelArg::LocalAlloc(size);
      k.set[index] = true;
      return OkStatus();
    }
    if (t->is_pointer() && t->pointee_space() != AddressSpace::kPrivate) {
      if (size != sizeof(ClMem))
        return AsCl(
            InvalidArgumentError("memory-object argument size mismatch"),
            CL_INVALID_ARG_SIZE);
      ClMem mem;
      std::memcpy(&mem, value, sizeof(mem));
      BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, VaOfMemObject(mem));
      k.args[index] = KernelArg::Pointer(va);
      k.set[index] = true;
      return OkStatus();
    }
    if (t->is_image()) {
      ClMem mem;
      std::memcpy(&mem, value, sizeof(mem));
      BRIDGECL_ASSIGN_OR_RETURN(ImageRec * img, FindImage(mem));
      k.args[index] = KernelArg::Pointer(img->desc_va);
      k.set[index] = true;
      return OkStatus();
    }
    // Samplers and plain data: raw bytes.
    std::vector<std::byte> bytes(size);
    std::memcpy(bytes.data(), value, size);
    if (t->is_sampler() && size < 8) bytes.resize(8);
    k.args[index] = KernelArg::Bytes(std::move(bytes));
    k.set[index] = true;
    return OkStatus();
  }

  Status EnqueueNDRangeKernel(ClKernel kernel, int work_dim,
                              const size_t* gws, const size_t* lws) override {
    return LaunchOn(ClQueue{}, kernel, work_dim, gws, lws, /*blocking=*/true,
                    {}, nullptr);
  }

  Status EnqueueNDRangeKernelOn(ClQueue queue, ClKernel kernel, int work_dim,
                                const size_t* gws, const size_t* lws,
                                std::span<const ClEvent> wait_events,
                                ClEvent* out_event) override {
    return LaunchOn(queue, kernel, work_dim, gws, lws, /*blocking=*/false,
                    wait_events, out_event);
  }

  Status LaunchOn(ClQueue queue, ClKernel kernel, int work_dim,
                  const size_t* gws, const size_t* lws, bool blocking,
                  std::span<const ClEvent> wait_events, ClEvent* out_event) {
    auto span = Span(TraceKind::kKernelLaunch, "clEnqueueNDRangeKernel");
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_RETURN_IF_ERROR(ValidateQueue(queue));
    auto it = kernels_.find(kernel.handle);
    if (it == kernels_.end())
      return AsCl(InvalidArgumentError("unknown kernel"), CL_INVALID_KERNEL);
    KernelRec& k = it->second;
    for (size_t i = 0; i < k.set.size(); ++i)
      if (!k.set[i])
        return AsCl(
            FailedPreconditionError(StrFormat(
                "kernel '%s': argument %zu was never set", k.name.c_str(),
                i)),
            CL_INVALID_KERNEL_ARGS);
    if (work_dim < 1 || work_dim > 3)
      return AsCl(InvalidArgumentError("work_dim must be 1..3"),
                  CL_INVALID_WORK_DIMENSION);
    Dim3 g(1, 1, 1), l(1, 1, 1);
    uint32_t* gp[3] = {&g.x, &g.y, &g.z};
    uint32_t* lp[3] = {&l.x, &l.y, &l.z};
    for (int d = 0; d < work_dim; ++d) {
      *gp[d] = static_cast<uint32_t>(gws[d]);
      *lp[d] = lws != nullptr ? static_cast<uint32_t>(lws[d])
                              : std::min<uint32_t>(*gp[d], 64);
    }
    Dim3 grid;
    if (!simgpu::NdrangeToGrid(g, l, &grid))
      return AsCl(
          InvalidArgumentError(
              "global work size is not a multiple of the local work size"),
          CL_INVALID_WORK_GROUP_SIZE);
    if (l.Count() >
        static_cast<uint64_t>(device_.profile().max_threads_per_block))
      return AsCl(
          InvalidArgumentError(StrFormat(
              "work-group size %llu exceeds CL_DEVICE_MAX_WORK_GROUP_SIZE %d",
              static_cast<unsigned long long>(l.Count()),
              device_.profile().max_threads_per_block)),
          CL_INVALID_WORK_GROUP_SIZE);
    interp::LaunchConfig cfg;
    cfg.grid = grid;
    cfg.block = l;
    Module* module = programs_[k.program].module.get();
    sched::CommandSpec spec;
    spec.kind = sched::CommandKind::kKernel;
    spec.queue = queue.handle;
    spec.kernel = k.name;
    BRIDGECL_ASSIGN_OR_RETURN(spec.wait_events, WaitList(wait_events));
    interp::LaunchResult result{};
    bool launched = false;
    std::string name = k.name;
    auto args = k.args;  // by value: `k` may dangle if the map rehashes
    Status status = sched_.Enqueue(spec, blocking, queued, [&] {
      Status st = RetryTransient(device_.faults(), [&] {
        auto r = interp::LaunchKernel(device_, *module, name, cfg, args);
        if (r.ok()) result = *r;
        return r.status();
      });
      if (st.ok()) launched = true;
      // Device-side failures (memory faults, traps, exhausted resources)
      // surface at the launch/finish boundary as CL_OUT_OF_RESOURCES.
      return Seal(std::move(st), CL_OUT_OF_RESOURCES);
    }, EventOut(out_event));
    if (launched)
      span.SetKernel(name, module->RegistersFor(module->FindKernel(name)),
                     result.occupancy);
    return span.Sealed(Seal(std::move(status), CL_OUT_OF_RESOURCES));
  }

  Status Finish() override {
    // Legacy form: device-wide drain (every queue), so single-queue apps
    // keep their semantics when a wrapper adds internal queues underneath.
    auto span = Span(TraceKind::kApiCall, "clFinish");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    return span.Sealed(Seal(sched_.SynchronizeAll(), CL_OUT_OF_RESOURCES));
  }

  Status Finish(ClQueue queue) override {
    auto span = Span(TraceKind::kApiCall, "clFinish");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_RETURN_IF_ERROR(ValidateQueue(queue));
    return span.Sealed(
        Seal(sched_.Synchronize(queue.handle), CL_OUT_OF_RESOURCES));
  }

  Status Flush(ClQueue queue) override {
    // Commands execute (in simulated terms: are timed) at enqueue, so a
    // flush is pure submission bookkeeping — completion and deferred
    // errors still require Finish (docs/CONCURRENCY.md).
    auto span = Span(TraceKind::kApiCall, "clFlush");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    return span.Sealed(ValidateQueue(queue));
  }

  StatusOr<ClQueue> CreateCommandQueue(uint64_t properties) override {
    auto span = Span(TraceKind::kApiCall, "clCreateCommandQueue");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if ((properties & ~CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE) != 0)
      return span.Sealed(
          AsCl(InvalidArgumentError("unknown command-queue property bits"),
               CL_INVALID_VALUE));
    const bool ooo =
        (properties & CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE) != 0;
    return ClQueue{sched_.CreateQueue(ooo)};
  }

  Status ReleaseCommandQueue(ClQueue queue) override {
    auto span = Span(TraceKind::kApiCall, "clReleaseCommandQueue");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (queue.handle == sched::kDefaultQueue ||
        !sched_.HasQueue(queue.handle))
      return span.Sealed(
          AsCl(InvalidArgumentError("unknown or default command queue"),
               CL_INVALID_COMMAND_QUEUE));
    return span.Sealed(
        Seal(sched_.ReleaseQueue(queue.handle), CL_OUT_OF_RESOURCES));
  }

  StatusOr<ClEvent> EnqueueMarkerWithWaitList(
      ClQueue queue, std::span<const ClEvent> wait_events) override {
    auto span = Span(TraceKind::kApiCall, "clEnqueueMarkerWithWaitList");
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_RETURN_IF_ERROR(ValidateQueue(queue));
    sched::CommandSpec spec;
    spec.queue = queue.handle;
    BRIDGECL_ASSIGN_OR_RETURN(spec.wait_events, WaitList(wait_events));
    ClEvent event;
    BRIDGECL_RETURN_IF_ERROR(span.Sealed(Seal(
        sched_.Enqueue(spec, /*blocking=*/false, queued,
                       [] { return OkStatus(); }, &event.handle),
        CL_OUT_OF_RESOURCES)));
    return event;
  }

  StatusOr<ClEvent> EnqueueBarrier(ClQueue queue) override {
    auto span = Span(TraceKind::kApiCall, "clEnqueueBarrierWithWaitList");
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_RETURN_IF_ERROR(ValidateQueue(queue));
    sched::CommandSpec spec;
    spec.kind = sched::CommandKind::kBarrier;
    spec.queue = queue.handle;
    ClEvent event;
    BRIDGECL_RETURN_IF_ERROR(span.Sealed(Seal(
        sched_.Enqueue(spec, /*blocking=*/false, queued,
                       [] { return OkStatus(); }, &event.handle),
        CL_OUT_OF_RESOURCES)));
    return event;
  }

  Status WaitForEvents(std::span<const ClEvent> events) override {
    auto span = Span(TraceKind::kApiCall, "clWaitForEvents");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    std::vector<uint64_t> ids;
    ids.reserve(events.size());
    for (ClEvent e : events) ids.push_back(e.handle);
    // An unknown handle comes back unannotated (NotFound) and maps to
    // CL_INVALID_EVENT; a failed event's own status is already sealed
    // with the code of the entry point that enqueued it.
    return span.Sealed(AsCl(sched_.WaitForEvents(ids), CL_INVALID_EVENT));
  }

  Status ReleaseEvent(ClEvent event) override {
    auto span = Span(TraceKind::kApiCall, "clReleaseEvent");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (!sched_.ReleaseEvent(event.handle))
      return span.Sealed(
          AsCl(InvalidArgumentError("unknown event"), CL_INVALID_EVENT));
    return OkStatus();
  }

  StatusOr<ClEvent> EnqueueNDRangeKernelWithEvent(
      ClKernel kernel, int work_dim, const size_t* gws,
      const size_t* lws) override {
    // The COMMAND_QUEUED timestamp and the traced launch span share the
    // same clock; events_test.cc checks queued <= end and that both fall
    // inside the recorded span window.
    ClEvent ev;
    BRIDGECL_RETURN_IF_ERROR(LaunchOn(ClQueue{}, kernel, work_dim, gws, lws,
                                      /*blocking=*/true, {}, &ev));
    return ev;
  }

  Status GetEventProfiling(ClEvent event, double* queued_us,
                           double* end_us) override {
    auto span = Span(TraceKind::kApiCall, "clGetEventProfilingInfo");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto t = sched_.TimesOf(event.handle);
    if (!t.ok())
      return AsCl(InvalidArgumentError("unknown event"), CL_INVALID_EVENT);
    *queued_us = t->queued_us;
    *end_us = t->end_us;
    return OkStatus();
  }

  Status SetProgramKernelRegisters(ClProgram program,
                                   const std::string& kernel,
                                   int regs) override {
    auto it = programs_.find(program.handle);
    if (it == programs_.end())
      return AsCl(InvalidArgumentError("unknown program"),
                  CL_INVALID_PROGRAM);
    if (it->second.module == nullptr)
      return AsCl(FailedPreconditionError("program is not built"),
                  CL_INVALID_PROGRAM_EXECUTABLE);
    if (it->second.module->FindKernel(kernel) == nullptr)
      return AsCl(NotFoundError("no kernel '" + kernel + "' in program"),
                  CL_INVALID_KERNEL_NAME);
    it->second.module->SetRegisterOverride(kernel, regs);
    return OkStatus();
  }

  double NowUs() const override { return device_.now_us(); }
  double BuildTimeUs() const override { return build_time_us_; }

 private:
  /// Per-entry-point trace span; a no-op when no recorder is attached.
  trace::TraceSpan Span(TraceKind kind, const char* name) {
    return trace::TraceSpan(device_.tracer(), kind, "mocl", name);
  }

  /// Sticky device-lost gate: once the simulated device is lost, every
  /// entry point on this context returns CL_OUT_OF_RESOURCES until the
  /// context is torn down (Device::faults().ResetContext() or a new
  /// Device).
  Status CheckUsable() {
    if (device_.faults().device_lost())
      return AsCl(DeviceLostError(
                      "device lost; context is unusable until released"),
                  CL_OUT_OF_RESOURCES);
    return OkStatus();
  }

  /// Attach the entry point's default spec code to errors that bubbled up
  /// from inner layers without a CL annotation.
  Status Seal(Status st, int fallback) {
    int code = ClCodeFor(st, fallback);
    return AsCl(std::move(st), code);
  }

  Status FreeRetry(uint64_t va) {
    return RetryTransient(device_.faults(),
                          [&] { return device_.vm().FreeGlobal(va); });
  }

  Status CopyIn(uint64_t va, const void* src, size_t size) {
    auto p = device_.vm().Resolve(va, size);
    if (!p.ok()) return p.status();
    return TransferWithFaults(device_.faults(), size, [&](size_t n) {
      std::memcpy(*p, src, n);
      device_.ChargeCopy(n);
      device_.stats().host_to_device_bytes += n;
    });
  }

  Status CopyOut(void* dst, uint64_t va, size_t size) {
    auto p = device_.vm().Resolve(va, size);
    if (!p.ok()) return p.status();
    return TransferWithFaults(device_.faults(), size, [&](size_t n) {
      std::memcpy(dst, *p, n);
      device_.ChargeCopy(n);
      device_.stats().device_to_host_bytes += n;
    });
  }

  void ChargeQuery() {
    device_.ChargeApiCall();
    device_.AdvanceUs(device_.profile().device_query_us);
  }

  Status ValidateQueue(ClQueue queue) {
    if (!sched_.HasQueue(queue.handle))
      return AsCl(InvalidArgumentError("unknown command queue"),
                  CL_INVALID_COMMAND_QUEUE);
    return OkStatus();
  }

  /// Resolves a CL wait list to scheduler event ids, rejecting stale or
  /// foreign handles up front (enqueue-time CL_INVALID_EVENT, per spec).
  StatusOr<std::vector<uint64_t>> WaitList(
      std::span<const ClEvent> wait_events) {
    std::vector<uint64_t> ids;
    ids.reserve(wait_events.size());
    for (ClEvent e : wait_events) {
      if (!sched_.KnowsEvent(e.handle))
        return AsCl(InvalidArgumentError("unknown event in wait list"),
                    CL_INVALID_EVENT);
      ids.push_back(e.handle);
    }
    return ids;
  }

  /// Shared body of the legacy and queue-targeted buffer copies. Pointer
  /// resolution happens at enqueue (immediate CL_INVALID_VALUE /
  /// CL_OUT_OF_RESOURCES); the transfer itself is a scheduler command.
  Status CopyImpl(ClQueue queue, ClMem src, ClMem dst, size_t src_offset,
                  size_t dst_offset, size_t size, bool blocking,
                  std::span<const ClEvent> wait_events, ClEvent* out_event,
                  double queued) {
    BRIDGECL_RETURN_IF_ERROR(ValidateQueue(queue));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * s, FindBuffer(src));
    BRIDGECL_ASSIGN_OR_RETURN(BufferRec * d, FindBuffer(dst));
    if (src_offset + size > s->size || dst_offset + size > d->size)
      return AsCl(OutOfRangeError("copy beyond buffer end"),
                  CL_INVALID_VALUE);
    auto sp = device_.vm().Resolve(s->va + src_offset, size);
    if (!sp.ok()) return Seal(sp.status(), CL_OUT_OF_RESOURCES);
    auto dp = device_.vm().Resolve(d->va + dst_offset, size);
    if (!dp.ok()) return Seal(dp.status(), CL_OUT_OF_RESOURCES);
    sched::CommandSpec spec;
    spec.kind = sched::CommandKind::kCopyD2D;
    spec.queue = queue.handle;
    spec.bytes = size;
    BRIDGECL_ASSIGN_OR_RETURN(spec.wait_events, WaitList(wait_events));
    void* sptr = *sp;
    void* dptr = *dp;
    Status status = sched_.Enqueue(spec, blocking, queued, [&] {
      Status st = TransferWithFaults(device_.faults(), size, [&](size_t n) {
        std::memmove(dptr, sptr, n);
        device_.ChargeCopy(n / 4);  // on-device copies are faster
        device_.stats().device_to_device_bytes += n;
      });
      return Seal(std::move(st), CL_OUT_OF_RESOURCES);
    }, EventOut(out_event));
    return Seal(std::move(status), CL_OUT_OF_RESOURCES);
  }

  StatusOr<BufferRec*> FindBuffer(ClMem mem) {
    auto it = buffers_.find(mem.handle);
    if (it == buffers_.end())
      return AsCl(InvalidArgumentError("unknown buffer object"),
                  CL_INVALID_MEM_OBJECT);
    return &it->second;
  }

  StatusOr<ImageRec*> FindImage(ClMem mem) {
    auto it = images_.find(mem.handle);
    if (it == images_.end())
      return AsCl(InvalidArgumentError("unknown image object"),
                  CL_INVALID_MEM_OBJECT);
    return &it->second;
  }

  StatusOr<uint64_t> VaOfMemObject(ClMem mem) {
    if (auto it = buffers_.find(mem.handle); it != buffers_.end())
      return it->second.va;
    if (auto it = images_.find(mem.handle); it != images_.end())
      return it->second.desc_va;
    return AsCl(InvalidArgumentError("argument is not a memory object"),
                CL_INVALID_MEM_OBJECT);
  }

  StatusOr<ClMem> MakeImage(MemFlags, const ClImageFormat& format,
                            size_t width, size_t height, const void* host_ptr,
                            ClMem backing_buffer) {
    size_t texel = lang::ScalarByteSize(format.elem) * format.channels;
    size_t bytes = width * height * texel;
    uint64_t data_va;
    bool owns = !backing_buffer.ok();
    if (owns) {
      auto va_or = RetryTransient(
          device_.faults(), [&] { return device_.vm().AllocGlobal(bytes); });
      if (!va_or.ok())
        return Seal(va_or.status(), CL_MEM_OBJECT_ALLOCATION_FAILURE);
      data_va = *va_or;
    } else {
      BRIDGECL_ASSIGN_OR_RETURN(BufferRec * b, FindBuffer(backing_buffer));
      data_va = b->va;
    }
    // From here on, failures must release what this call allocated.
    auto fail = [&](Status st, int fallback) -> Status {
      if (owns) (void)device_.vm().FreeGlobal(data_va);
      return Seal(std::move(st), fallback);
    };
    ImageDesc desc;
    desc.data_va = data_va;
    desc.width = static_cast<uint32_t>(width);
    desc.height = static_cast<uint32_t>(height);
    desc.depth = 1;
    desc.channels = static_cast<uint32_t>(format.channels);
    desc.elem_kind = static_cast<uint32_t>(format.elem);
    desc.row_pitch = static_cast<uint32_t>(width * texel);
    desc.slice_pitch = static_cast<uint32_t>(bytes);
    desc.dims = height > 1 ? 2 : 1;
    auto desc_va_or = RetryTransient(device_.faults(), [&] {
      return device_.vm().AllocGlobal(sizeof(desc));
    });
    if (!desc_va_or.ok())
      return fail(desc_va_or.status(), CL_MEM_OBJECT_ALLOCATION_FAILURE);
    uint64_t desc_va = *desc_va_or;
    auto dp = device_.vm().Resolve(desc_va, sizeof(desc));
    if (!dp.ok()) {
      (void)device_.vm().FreeGlobal(desc_va);
      return fail(dp.status(), CL_OUT_OF_RESOURCES);
    }
    std::memcpy(*dp, &desc, sizeof(desc));
    if (host_ptr != nullptr) {
      Status st = CopyIn(data_va, host_ptr, bytes);
      if (!st.ok()) {
        (void)device_.vm().FreeGlobal(desc_va);
        return fail(std::move(st), CL_OUT_OF_RESOURCES);
      }
    }
    uint64_t id = next_id_++;
    ImageRec rec;
    rec.desc_va = desc_va;
    rec.data_va = data_va;
    rec.owns_data = owns;
    rec.width = width;
    rec.height = height;
    rec.format = format;
    rec.byte_size = bytes;
    images_[id] = rec;
    return ClMem{id};
  }

  Device& device_;
  /// Environment-driven trace session; owns the recorder wired into
  /// device_ when BRIDGECL_TRACE / BRIDGECL_TRACE_SUMMARY is set.
  std::unique_ptr<trace::TraceSession> auto_trace_;
  uint64_t next_id_ = 1;
  double build_time_us_ = 0;
  std::unordered_map<uint64_t, BufferRec> buffers_;
  std::unordered_map<uint64_t, ImageRec> images_;
  std::unordered_map<uint64_t, ProgramRec> programs_;
  std::unordered_map<uint64_t, KernelRec> kernels_;
  /// Queue/stream/event bookkeeping + the dual-engine timing placement;
  /// declared after device_ and auto_trace_ (construction order).
  sched::Scheduler sched_;
};

}  // namespace

std::unique_ptr<OpenClApi> CreateNativeClApi(Device& device) {
  return std::make_unique<NativeClApi>(device);
}

}  // namespace bridgecl::mocl
