#include <algorithm>
#include <cstring>
#include <functional>
#include <unordered_map>

#include "interp/executor.h"
#include "interp/image.h"
#include "interp/module.h"
#include "mcuda/cuda_api.h"
#include "mcuda/cuda_errors.h"
#include "sched/scheduler.h"
#include "simgpu/fault_injector.h"
#include "support/strings.h"
#include "trace/session.h"
#include "trace/trace.h"

namespace bridgecl::mcuda {
namespace {

using interp::ImageDesc;
using interp::KernelArg;
using interp::Module;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::FaultInjector;
using simgpu::RetryTransient;
using simgpu::TransferWithFaults;
using trace::TraceKind;

struct ArrayRec {
  uint64_t data_va = 0;
  size_t width = 0, height = 1;
  ChannelDesc desc;
  size_t byte_size = 0;
};

struct TextureRec {
  uint64_t desc_va = 0;  // ImageDesc in device memory
};

class NativeCudaApi final : public CudaApi {
 public:
  explicit NativeCudaApi(Device& device)
      : device_(device),
        // BRIDGECL_TRACE / BRIDGECL_TRACE_SUMMARY attach a recorder to the
        // device for this runtime's lifetime (docs/OBSERVABILITY.md).
        auto_trace_(trace::TraceSession::MaybeAttachFromEnv(device)),
        sched_(device, "mcuda") {
    device_.set_bank_mode(device_.profile().cuda_bank_mode);
  }

  trace::TraceRecorder* Tracer() const override { return device_.tracer(); }

  Status RegisterModule(const std::string& cuda_source) override {
    auto span = Span(TraceKind::kApiCall, "cudaRegisterFatBinary");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    // Static compilation: no run-time build cost is charged (CUDA embeds
    // compiled device code in the executable, §3.4).
    DiagnosticEngine diags;
    interp::ModuleCacheOutcome cache_outcome;
    auto m = Module::Compile(cuda_source, lang::Dialect::kCUDA, diags,
                             &cache_outcome);
    span.SetModuleCache(cache_outcome == interp::ModuleCacheOutcome::kHit);
    if (!m.ok())
      return AsCuda(Status(m.status().code(),
                           m.status().message() + "\n" + diags.ToString()),
                    cudaErrorInvalidDeviceFunction);
    BRIDGECL_RETURN_IF_ERROR(
        Seal((*m)->LoadOn(device_), cudaErrorMemoryAllocation));
    modules_.push_back(std::move(*m));
    return OkStatus();
  }

  StatusOr<void*> Malloc(size_t size) override {
    auto span = Span(TraceKind::kApiCall, "cudaMalloc");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto va_or = RetryTransient(
        device_.faults(), [&] { return device_.vm().AllocGlobal(size); });
    if (!va_or.ok()) return Seal(va_or.status(), cudaErrorMemoryAllocation);
    return reinterpret_cast<void*>(*va_or);
  }

  Status Free(void* ptr) override {
    auto span = Span(TraceKind::kApiCall, "cudaFree");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    Status st = RetryTransient(device_.faults(), [&] {
      return device_.vm().FreeGlobal(reinterpret_cast<uint64_t>(ptr));
    });
    if (!st.ok() && st.code() == StatusCode::kInvalidArgument)
      return AsCuda(std::move(st), cudaErrorInvalidDevicePointer);
    return Seal(std::move(st), cudaErrorUnknown);
  }

  Status Memcpy(void* dst, const void* src, size_t size,
                MemcpyKind kind) override {
    return MemcpyImpl(dst, src, size, kind, sched::kDefaultQueue,
                      /*blocking=*/true, "cudaMemcpy");
  }

  Status MemcpyAsync(void* dst, const void* src, size_t size, MemcpyKind kind,
                     void* stream) override {
    return MemcpyImpl(dst, src, size, kind,
                      reinterpret_cast<uint64_t>(stream),
                      /*blocking=*/false, "cudaMemcpyAsync");
  }

  Status MemcpyToSymbol(const std::string& symbol, const void* src,
                        size_t size, size_t offset) override {
    auto span = Span(TraceKind::kH2D, "cudaMemcpyToSymbol");
    span.SetBytes(size);
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_ASSIGN_OR_RETURN(Module::Symbol sym, FindSymbol(symbol));
    if (offset + size > sym.size)
      return AsCuda(OutOfRangeError("copy beyond symbol '" + symbol + "'"),
                    cudaErrorInvalidValue);
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                              DeviceRange(sym.va + offset, size));
    return Seal(TransferWithFaults(device_.faults(), size,
                                   [&](size_t n) {
                                     std::memcpy(p, src, n);
                                     device_.ChargeCopy(n);
                                     device_.stats().host_to_device_bytes += n;
                                   }),
                cudaErrorLaunchFailure);
  }

  Status MemcpyFromSymbol(void* dst, const std::string& symbol, size_t size,
                          size_t offset) override {
    auto span = Span(TraceKind::kD2H, "cudaMemcpyFromSymbol");
    span.SetBytes(size);
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    BRIDGECL_ASSIGN_OR_RETURN(Module::Symbol sym, FindSymbol(symbol));
    if (offset + size > sym.size)
      return AsCuda(OutOfRangeError("copy beyond symbol '" + symbol + "'"),
                    cudaErrorInvalidValue);
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                              DeviceRange(sym.va + offset, size));
    return Seal(TransferWithFaults(device_.faults(), size,
                                   [&](size_t n) {
                                     std::memcpy(dst, p, n);
                                     device_.ChargeCopy(n);
                                     device_.stats().device_to_host_bytes += n;
                                   }),
                cudaErrorLaunchFailure);
  }

  StatusOr<std::pair<size_t, size_t>> MemGetInfo() override {
    auto span = Span(TraceKind::kApiCall, "cudaMemGetInfo");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    size_t total = device_.vm().global_capacity();
    return std::make_pair(total - device_.vm().global_in_use(), total);
  }

  Status LaunchKernel(const std::string& kernel, Dim3 grid, Dim3 block,
                      size_t shared_bytes,
                      std::span<const LaunchArg> args) override {
    return LaunchImpl(kernel, grid, block, shared_bytes, args,
                      sched::kDefaultQueue, /*blocking=*/true);
  }

  Status LaunchKernelOnStream(const std::string& kernel, Dim3 grid,
                              Dim3 block, size_t shared_bytes,
                              std::span<const LaunchArg> args,
                              void* stream) override {
    return LaunchImpl(kernel, grid, block, shared_bytes, args,
                      reinterpret_cast<uint64_t>(stream),
                      /*blocking=*/false);
  }

  Status DeviceSynchronize() override {
    auto span = Span(TraceKind::kApiCall, "cudaDeviceSynchronize");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    // Drains every stream; deferred async errors surface here with the
    // code the failing command sealed (docs/ROBUSTNESS.md).
    return span.Sealed(Seal(sched_.SynchronizeAll(), cudaErrorLaunchFailure));
  }

  StatusOr<void*> StreamCreate() override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamCreate");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    // Scheduler queue ids start at 1, so the handle is never the null
    // (default) stream.
    return reinterpret_cast<void*>(sched_.CreateQueue(false));
  }

  Status StreamDestroy(void* stream) override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamDestroy");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    const uint64_t q = reinterpret_cast<uint64_t>(stream);
    if (q == sched::kDefaultQueue || !sched_.HasQueue(q))
      return span.Sealed(AsCuda(InvalidArgumentError("unknown stream"),
                                cudaErrorInvalidResourceHandle));
    return span.Sealed(Seal(sched_.ReleaseQueue(q), cudaErrorLaunchFailure));
  }

  Status StreamSynchronize(void* stream) override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamSynchronize");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    const uint64_t q = reinterpret_cast<uint64_t>(stream);
    if (!sched_.HasQueue(q))
      return span.Sealed(AsCuda(InvalidArgumentError("unknown stream"),
                                cudaErrorInvalidResourceHandle));
    return span.Sealed(Seal(sched_.Synchronize(q), cudaErrorLaunchFailure));
  }

  Status StreamWaitEvent(void* stream, void* event) override {
    auto span = Span(TraceKind::kApiCall, "cudaStreamWaitEvent");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    const uint64_t q = reinterpret_cast<uint64_t>(stream);
    if (!sched_.HasQueue(q))
      return span.Sealed(AsCuda(InvalidArgumentError("unknown stream"),
                                cudaErrorInvalidResourceHandle));
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return span.Sealed(AsCuda(InvalidArgumentError("unknown event"),
                                cudaErrorInvalidResourceHandle));
    if (it->second == 0) return OkStatus();  // unrecorded: no-op (CUDA)
    return span.Sealed(Seal(sched_.StreamWaitEvent(q, it->second),
                            cudaErrorInvalidResourceHandle));
  }

  Status EventSynchronize(void* event) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventSynchronize");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return span.Sealed(AsCuda(InvalidArgumentError("unknown event"),
                                cudaErrorInvalidResourceHandle));
    if (it->second == 0) return OkStatus();  // unrecorded: already complete
    return span.Sealed(
        Seal(sched_.EventSynchronize(it->second), cudaErrorLaunchFailure));
  }

  StatusOr<CudaDeviceProps> GetDeviceProperties() override {
    auto span = Span(TraceKind::kApiCall, "cudaGetDeviceProperties");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    // Native CUDA fills the whole struct in a single driver query.
    device_.ChargeApiCall();
    device_.AdvanceUs(device_.profile().device_query_us);
    const auto& p = device_.profile();
    CudaDeviceProps props;
    props.name = p.name;
    props.total_global_mem = p.global_mem_size;
    props.shared_mem_per_block = p.shared_mem_per_block;
    props.total_const_mem = p.constant_mem_size;
    props.regs_per_block = p.max_registers_per_cu;
    props.warp_size = p.warp_size;
    props.max_threads_per_block = p.max_threads_per_block;
    props.multi_processor_count = p.compute_units;
    props.clock_rate_khz = static_cast<int>(p.clock_ghz * 1e6);
    props.max_texture1d_linear = p.cuda_max_tex1d_linear_width;
    return props;
  }

  Status BindTexture(const std::string& texref, void* device_ptr,
                     size_t bytes, const ChannelDesc& desc,
                     bool normalized) override {
    auto span = Span(TraceKind::kApiCall, "cudaBindTexture");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    size_t texel = lang::ScalarByteSize(desc.elem) * desc.channels;
    size_t width = bytes / texel;
    if (width > device_.profile().cuda_max_tex1d_linear_width)
      return AsCuda(InvalidArgumentError(
                        "1D linear texture exceeds the 2^27 texel limit"),
                    cudaErrorInvalidValue);
    uint32_t sampler = normalized ? uint32_t{interp::kSamplerNormalizedCoords} : 0u;
    sampler |= interp::kSamplerAddressClamp;
    return MakeBinding(texref, reinterpret_cast<uint64_t>(device_ptr), width,
                       1, width * texel, desc, sampler);
  }

  Status BindTexture2D(const std::string& texref, void* device_ptr,
                       size_t width, size_t height, size_t pitch,
                       const ChannelDesc& desc) override {
    auto span = Span(TraceKind::kApiCall, "cudaBindTexture2D");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    return MakeBinding(texref, reinterpret_cast<uint64_t>(device_ptr), width,
                       height, pitch, desc, interp::kSamplerAddressClamp);
  }

  StatusOr<void*> MallocArray(const ChannelDesc& desc, size_t width,
                              size_t height) override {
    auto span = Span(TraceKind::kApiCall, "cudaMallocArray");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    size_t texel = lang::ScalarByteSize(desc.elem) * desc.channels;
    size_t bytes = width * std::max<size_t>(height, 1) * texel;
    auto va_or = RetryTransient(
        device_.faults(), [&] { return device_.vm().AllocGlobal(bytes); });
    if (!va_or.ok()) return Seal(va_or.status(), cudaErrorMemoryAllocation);
    uint64_t va = *va_or;
    ArrayRec rec;
    rec.data_va = va;
    rec.width = width;
    rec.height = std::max<size_t>(height, 1);
    rec.desc = desc;
    rec.byte_size = bytes;
    arrays_[va] = rec;
    return reinterpret_cast<void*>(va);
  }

  Status MemcpyToArray(void* array, const void* src, size_t bytes) override {
    auto span = Span(TraceKind::kH2D, "cudaMemcpyToArray");
    span.SetBytes(bytes);
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = arrays_.find(reinterpret_cast<uint64_t>(array));
    if (it == arrays_.end())
      return AsCuda(InvalidArgumentError("unknown cudaArray"),
                    cudaErrorInvalidValue);
    if (bytes > it->second.byte_size)
      return AsCuda(OutOfRangeError("copy beyond array end"),
                    cudaErrorInvalidValue);
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                              DeviceRange(it->second.data_va, bytes));
    return Seal(TransferWithFaults(device_.faults(), bytes,
                                   [&](size_t n) {
                                     std::memcpy(p, src, n);
                                     device_.ChargeCopy(n);
                                     device_.stats().host_to_device_bytes += n;
                                   }),
                cudaErrorLaunchFailure);
  }

  Status BindTextureToArray(const std::string& texref, void* array,
                            bool filter_linear, bool normalized) override {
    auto span = Span(TraceKind::kApiCall, "cudaBindTextureToArray");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = arrays_.find(reinterpret_cast<uint64_t>(array));
    if (it == arrays_.end())
      return AsCuda(InvalidArgumentError("unknown cudaArray"),
                    cudaErrorInvalidValue);
    const ArrayRec& a = it->second;
    uint32_t sampler = interp::kSamplerAddressClamp;
    if (filter_linear) sampler |= interp::kSamplerFilterLinear;
    if (normalized) sampler |= interp::kSamplerNormalizedCoords;
    size_t texel = lang::ScalarByteSize(a.desc.elem) * a.desc.channels;
    return MakeBinding(texref, a.data_va, a.width, a.height, a.width * texel,
                       a.desc, sampler);
  }

  Status UnbindTexture(const std::string& texref) override {
    auto span = Span(TraceKind::kApiCall, "cudaUnbindTexture");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = textures_.find(texref);
    if (it == textures_.end()) return OkStatus();  // CUDA tolerates this
    BRIDGECL_RETURN_IF_ERROR(
        Seal(RetryTransient(device_.faults(),
                            [&] {
                              return device_.vm().FreeGlobal(
                                  it->second.desc_va);
                            }),
             cudaErrorUnknown));
    textures_.erase(it);
    return OkStatus();
  }

  StatusOr<void*> EventCreate() override {
    auto span = Span(TraceKind::kApiCall, "cudaEventCreate");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    uint64_t id = next_event_++;
    events_[id] = 0;  // created but not recorded
    return reinterpret_cast<void*>(id);
  }

  Status EventRecord(void* event) override {
    return EventRecordOnStream(event, nullptr);
  }

  Status EventRecordOnStream(void* event, void* stream) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventRecord");
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    cudaErrorInvalidResourceHandle);
    const uint64_t q = reinterpret_cast<uint64_t>(stream);
    if (!sched_.HasQueue(q))
      return span.Sealed(AsCuda(InvalidArgumentError("unknown stream"),
                                cudaErrorInvalidResourceHandle));
    // A cudaEvent records as a scheduler marker: it completes when the
    // stream's previously enqueued work completes.
    sched::CommandSpec spec;
    spec.queue = q;
    uint64_t recorded = 0;
    BRIDGECL_RETURN_IF_ERROR(span.Sealed(Seal(
        sched_.Enqueue(spec, /*blocking=*/false, queued,
                       [] { return OkStatus(); }, &recorded),
        cudaErrorLaunchFailure)));
    if (it->second != 0) sched_.ReleaseEvent(it->second);  // re-record
    it->second = recorded;
    return OkStatus();
  }

  StatusOr<double> EventElapsedUs(void* start, void* end) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventElapsedTime");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto s = events_.find(reinterpret_cast<uint64_t>(start));
    auto e = events_.find(reinterpret_cast<uint64_t>(end));
    if (s == events_.end() || e == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    cudaErrorInvalidResourceHandle);
    if (s->second == 0 || e->second == 0)
      return AsCuda(FailedPreconditionError("event was never recorded"),
                    cudaErrorNotReady);
    auto ts = sched_.TimesOf(s->second);
    auto te = sched_.TimesOf(e->second);
    if (!ts.ok() || !te.ok())
      return AsCuda(InvalidArgumentError("unknown event"),
                    cudaErrorInvalidResourceHandle);
    return te->end_us - ts->end_us;
  }

  Status EventDestroy(void* event) override {
    auto span = Span(TraceKind::kApiCall, "cudaEventDestroy");
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    auto it = events_.find(reinterpret_cast<uint64_t>(event));
    if (it == events_.end())
      return AsCuda(InvalidArgumentError("unknown event"),
                    cudaErrorInvalidResourceHandle);
    if (it->second != 0) sched_.ReleaseEvent(it->second);
    events_.erase(it);
    return OkStatus();
  }

  Status SetKernelRegisters(const std::string& kernel, int regs) override {
    for (auto& m : modules_) {
      if (m->FindKernel(kernel) != nullptr) {
        m->SetRegisterOverride(kernel, regs);
        return OkStatus();
      }
    }
    return AsCuda(NotFoundError("no kernel '" + kernel + "' registered"),
                  cudaErrorInvalidDeviceFunction);
  }

  double NowUs() const override { return device_.now_us(); }

 private:
  /// Per-entry-point trace span; a no-op when no recorder is attached.
  trace::TraceSpan Span(TraceKind kind, const char* name) {
    return trace::TraceSpan(device_.tracer(), kind, "mcuda", name);
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

  /// Sticky device-lost gate: once the simulated device is lost, every
  /// runtime call returns cudaErrorDevicesUnavailable until teardown
  /// (Device::faults().ResetContext() or a new Device).
  Status CheckUsable() {
    if (device_.faults().device_lost())
      return AsCuda(DeviceLostError(
                        "device lost; context is unusable until released"),
                    cudaErrorDevicesUnavailable);
    return OkStatus();
  }

  Status Seal(Status st, int fallback) {
    int code = CudaCodeFor(st, fallback);
    return AsCuda(std::move(st), code);
  }

  /// Shared body of cudaMemcpy / cudaMemcpyAsync: pointer validation is
  /// immediate (cudaErrorInvalidDevicePointer at the call), the transfer
  /// itself is a scheduler command on `queue`'s copy engine.
  Status MemcpyImpl(void* dst, const void* src, size_t size, MemcpyKind kind,
                    uint64_t queue, bool blocking, const char* name) {
    auto span = Span(TraceKindForMemcpy(kind), name);
    span.SetBytes(size);
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (kind == MemcpyKind::kHostToHost) {
      // Pageable host-to-host copies are synchronous even under the Async
      // entry point; no device engine is involved.
      std::memmove(dst, src, size);
      return OkStatus();
    }
    if (!sched_.HasQueue(queue))
      return span.Sealed(AsCuda(InvalidArgumentError("unknown stream"),
                                cudaErrorInvalidResourceHandle));
    sched::CommandSpec spec;
    spec.queue = queue;
    spec.bytes = size;
    std::function<Status()> exec;
    switch (kind) {
      case MemcpyKind::kHostToDevice: {
        BRIDGECL_ASSIGN_OR_RETURN(
            std::byte * p, DeviceRange(reinterpret_cast<uint64_t>(dst), size));
        spec.kind = sched::CommandKind::kCopyH2D;
        exec = [this, p, src, size] {
          return Seal(TransferWithFaults(device_.faults(), size,
                                         [&](size_t n) {
                                           std::memcpy(p, src, n);
                                           device_.ChargeCopy(n);
                                           device_.stats()
                                               .host_to_device_bytes += n;
                                         }),
                      cudaErrorLaunchFailure);
        };
        break;
      }
      case MemcpyKind::kDeviceToHost: {
        BRIDGECL_ASSIGN_OR_RETURN(
            std::byte * p, DeviceRange(reinterpret_cast<uint64_t>(src), size));
        spec.kind = sched::CommandKind::kCopyD2H;
        exec = [this, p, dst, size] {
          return Seal(TransferWithFaults(device_.faults(), size,
                                         [&](size_t n) {
                                           std::memcpy(dst, p, n);
                                           device_.ChargeCopy(n);
                                           device_.stats()
                                               .device_to_host_bytes += n;
                                         }),
                      cudaErrorLaunchFailure);
        };
        break;
      }
      case MemcpyKind::kDeviceToDevice: {
        BRIDGECL_ASSIGN_OR_RETURN(
            std::byte * ps, DeviceRange(reinterpret_cast<uint64_t>(src), size));
        BRIDGECL_ASSIGN_OR_RETURN(
            std::byte * pd, DeviceRange(reinterpret_cast<uint64_t>(dst), size));
        spec.kind = sched::CommandKind::kCopyD2D;
        exec = [this, ps, pd, size] {
          return Seal(TransferWithFaults(device_.faults(), size,
                                         [&](size_t n) {
                                           std::memmove(pd, ps, n);
                                           device_.ChargeCopy(n / 4);
                                           device_.stats()
                                               .device_to_device_bytes += n;
                                         }),
                      cudaErrorLaunchFailure);
        };
        break;
      }
      case MemcpyKind::kHostToHost:
        break;  // handled above
    }
    if (!exec)
      return span.Sealed(AsCuda(InvalidArgumentError("bad memcpy kind"),
                                cudaErrorInvalidMemcpyDirection));
    return span.Sealed(Seal(sched_.Enqueue(spec, blocking, queued, exec),
                            cudaErrorLaunchFailure));
  }

  Status LaunchImpl(const std::string& kernel, Dim3 grid, Dim3 block,
                    size_t shared_bytes, std::span<const LaunchArg> args,
                    uint64_t queue, bool blocking) {
    auto span = Span(TraceKind::kKernelLaunch, "cudaLaunchKernel");
    double queued = device_.now_us();
    BRIDGECL_RETURN_IF_ERROR(CheckUsable());
    device_.ChargeApiCall();
    if (!sched_.HasQueue(queue))
      return span.Sealed(AsCuda(InvalidArgumentError("unknown stream"),
                                cudaErrorInvalidResourceHandle));
    BRIDGECL_ASSIGN_OR_RETURN(Module * m, FindKernelModule(kernel));
    if (grid.Count() == 0 || block.Count() == 0 ||
        block.Count() >
            static_cast<uint64_t>(device_.profile().max_threads_per_block))
      return AsCuda(
          InvalidArgumentError(StrFormat(
              "launch configuration %s x %s is invalid for this device",
              grid.ToString().c_str(), block.ToString().c_str())),
          cudaErrorInvalidConfiguration);
    interp::LaunchConfig cfg;
    cfg.grid = grid;
    cfg.block = block;
    cfg.dynamic_shared_bytes = shared_bytes;
    std::vector<KernelArg> kargs;
    kargs.reserve(args.size());
    for (const LaunchArg& a : args) kargs.push_back(KernelArg::Bytes(a.bytes));
    sched::CommandSpec spec;
    spec.kind = sched::CommandKind::kKernel;
    spec.queue = queue;
    spec.kernel = kernel;
    interp::LaunchResult result{};
    bool launched = false;
    Status status = sched_.Enqueue(spec, blocking, queued, [&] {
      Status st = RetryTransient(device_.faults(), [&] {
        auto r = interp::LaunchKernel(device_, *m, kernel, cfg, kargs);
        if (r.ok()) result = *r;
        return r.status();
      });
      if (st.ok()) launched = true;
      if (!st.ok() && st.code() == StatusCode::kInternal &&
          st.message().find("assert") != std::string::npos)
        return AsCuda(std::move(st), cudaErrorAssert);
      // Per-block shared memory over the limit is the classic
      // cudaErrorLaunchOutOfResources; device-side faults are the sticky
      // "unspecified launch failure".
      return Seal(std::move(st), cudaErrorLaunchOutOfResources);
    });
    if (launched)
      span.SetKernel(kernel, m->RegistersFor(m->FindKernel(kernel)),
                     result.occupancy);
    return span.Sealed(Seal(std::move(status), cudaErrorLaunchOutOfResources));
  }

  /// Validate a device-pointer range at the API boundary: a range the VM
  /// cannot resolve is an invalid device pointer to the runtime (not a
  /// device-side execution fault).
  StatusOr<std::byte*> DeviceRange(uint64_t va, size_t size) {
    auto p = device_.vm().Resolve(va, size);
    if (p.ok()) return p;
    if (p.status().code() == StatusCode::kDeviceLost)
      return Seal(p.status(), cudaErrorDevicesUnavailable);
    return AsCuda(p.status(), cudaErrorInvalidDevicePointer);
  }

  StatusOr<Module::Symbol> FindSymbol(const std::string& symbol) {
    for (auto& m : modules_) {
      auto s = m->FindSymbol(symbol);
      if (s.ok()) return s;
    }
    return AsCuda(NotFoundError("no device symbol '" + symbol + "'"),
                  cudaErrorInvalidSymbol);
  }

  StatusOr<Module*> FindKernelModule(const std::string& kernel) {
    for (auto& m : modules_)
      if (m->FindKernel(kernel) != nullptr) return m.get();
    return AsCuda(NotFoundError("no kernel '" + kernel + "' registered"),
                  cudaErrorInvalidDeviceFunction);
  }

  Status MakeBinding(const std::string& texref, uint64_t data_va,
                     size_t width, size_t height, size_t pitch,
                     const ChannelDesc& desc, uint32_t sampler_bits) {
    // Locate the texture reference in a registered module.
    Module* owner = nullptr;
    for (auto& m : modules_)
      if (m->FindTextureRef(texref) != nullptr) owner = m.get();
    if (owner == nullptr)
      return AsCuda(NotFoundError("no texture reference '" + texref + "'"),
                    cudaErrorInvalidTexture);
    BRIDGECL_RETURN_IF_ERROR(UnbindTexture(texref));
    ImageDesc d;
    d.data_va = data_va;
    d.width = static_cast<uint32_t>(width);
    d.height = static_cast<uint32_t>(height);
    d.depth = 1;
    d.channels = static_cast<uint32_t>(desc.channels);
    d.elem_kind = static_cast<uint32_t>(desc.elem);
    d.row_pitch = static_cast<uint32_t>(pitch);
    d.slice_pitch = static_cast<uint32_t>(pitch * height);
    d.sampler_bits = sampler_bits;
    d.dims = height > 1 ? 2 : 1;
    auto desc_va_or = RetryTransient(
        device_.faults(), [&] { return device_.vm().AllocGlobal(sizeof(d)); });
    if (!desc_va_or.ok())
      return Seal(desc_va_or.status(), cudaErrorMemoryAllocation);
    uint64_t desc_va = *desc_va_or;
    auto p = device_.vm().Resolve(desc_va, sizeof(d));
    if (!p.ok()) {
      (void)device_.vm().FreeGlobal(desc_va);
      return Seal(p.status(), cudaErrorUnknown);
    }
    std::memcpy(*p, &d, sizeof(d));
    textures_[texref] = TextureRec{desc_va};
    return Seal(owner->BindTexture(texref, desc_va), cudaErrorInvalidTexture);
  }

  Device& device_;
  /// Environment-driven trace session; owns the recorder wired into
  /// device_ when BRIDGECL_TRACE / BRIDGECL_TRACE_SUMMARY is set.
  std::unique_ptr<trace::TraceSession> auto_trace_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::unordered_map<uint64_t, ArrayRec> arrays_;
  std::unordered_map<std::string, TextureRec> textures_;
  uint64_t next_event_ = 0x6000'0000'0000'0000ull;
  /// cudaEvent handle → scheduler event id; 0 = created but not recorded
  /// (cudaEventElapsedTime on such an event is cudaErrorNotReady).
  std::unordered_map<uint64_t, uint64_t> events_;
  /// Stream/event bookkeeping + dual-engine timing placement; declared
  /// after device_ and auto_trace_ (construction order).
  sched::Scheduler sched_;
};

}  // namespace

std::unique_ptr<CudaApi> CreateNativeCudaApi(Device& device) {
  return std::make_unique<NativeCudaApi>(device);
}

}  // namespace bridgecl::mcuda
