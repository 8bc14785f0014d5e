#include "apps/dual.h"

#include "interp/module.h"

namespace bridgecl::apps {
namespace {

class ClDualDev final : public DualDev {
 public:
  explicit ClDualDev(mocl::OpenClApi& cl) : runner_(cl) {}

  Status Build(const std::string& source) { return runner_.Build(source); }

  StatusOr<H> Alloc(size_t bytes) override {
    BRIDGECL_ASSIGN_OR_RETURN(mocl::ClMem m, runner_.Alloc(bytes));
    return m.handle;
  }
  Status Write(H h, const void* src, size_t bytes) override {
    return runner_.api().EnqueueWriteBuffer(mocl::ClMem{h}, 0, bytes, src);
  }
  Status Read(H h, void* dst, size_t bytes) override {
    return runner_.api().EnqueueReadBuffer(mocl::ClMem{h}, 0, bytes, dst);
  }
  Status Launch(const std::string& kernel, simgpu::Dim3 grid,
                simgpu::Dim3 block,
                std::initializer_list<Arg> args) override {
    simgpu::Dim3 gws = simgpu::GridToNdrange(grid, block);
    return runner_.Launch(kernel, gws, block, args);
  }
  Arg BufArg(H h) const override { return Arg::Buf(mocl::ClMem{h}); }

 private:
  ClRunner runner_;
};

class CudaDualDev final : public DualDev {
 public:
  explicit CudaDualDev(mcuda::CudaApi& cu) : runner_(cu) {}

  Status Build(const std::string& source) { return runner_.Build(source); }

  StatusOr<H> Alloc(size_t bytes) override {
    BRIDGECL_ASSIGN_OR_RETURN(void* p, runner_.Alloc(bytes));
    return reinterpret_cast<H>(p);
  }
  Status Write(H h, const void* src, size_t bytes) override {
    return runner_.api().Memcpy(reinterpret_cast<void*>(h), src, bytes,
                                mcuda::MemcpyKind::kHostToDevice);
  }
  Status Read(H h, void* dst, size_t bytes) override {
    return runner_.api().Memcpy(dst, reinterpret_cast<void*>(h), bytes,
                                mcuda::MemcpyKind::kDeviceToHost);
  }
  Status Launch(const std::string& kernel, simgpu::Dim3 grid,
                simgpu::Dim3 block,
                std::initializer_list<Arg> args) override {
    // CUDA convention: dynamic locals leave the parameter list and become
    // the third launch-configuration argument (§4.1).
    std::vector<Arg> real;
    size_t shared = 0;
    for (const Arg& a : args) {
      if (a.k == Arg::K::kLocal) {
        shared += (a.n + 15) & ~size_t{15};
      } else {
        real.push_back(a);
      }
    }
    std::vector<mcuda::LaunchArg> largs;
    for (const Arg& a : real) {
      switch (a.k) {
        case Arg::K::kCuPtr:
          largs.push_back(mcuda::LaunchArg::Ptr(a.ptr));
          break;
        case Arg::K::kI32:
          largs.push_back(mcuda::LaunchArg::Value<int32_t>(a.i));
          break;
        case Arg::K::kU32:
          largs.push_back(mcuda::LaunchArg::Value<uint32_t>(a.u));
          break;
        case Arg::K::kF32:
          largs.push_back(mcuda::LaunchArg::Value<float>(a.f));
          break;
        case Arg::K::kF64:
          largs.push_back(mcuda::LaunchArg::Value<double>(a.d));
          break;
        case Arg::K::kU64:
          largs.push_back(mcuda::LaunchArg::Value<uint64_t>(a.u64));
          break;
        default:
          return InvalidArgumentError("bad CUDA launch argument kind");
      }
    }
    return runner_.api().LaunchKernel(kernel, grid, block, shared, largs);
  }
  Arg BufArg(H h) const override {
    return Arg::Ptr(reinterpret_cast<void*>(h));
  }

 private:
  CudaRunner runner_;
};

}  // namespace

// Register overrides are installed into the process-wide table keyed by
// the *compiling* toolchain: a wrapper binding ends in the target model's
// compiler, which is exactly the paper's cfd occupancy mechanism (S6.3).
Status DualApp::RunCl(mocl::OpenClApi& cl, double* checksum) {
  if (cl_source_.empty())
    return UnimplementedError(name_ + " has no OpenCL version");
  for (const RegisterOverride& o : overrides_)
    interp::KernelRegisterTable::Instance().Set(o.kernel, o.opencl_regs,
                                                o.cuda_regs);
  ClDualDev dev(cl);
  BRIDGECL_RETURN_IF_ERROR(dev.Build(cl_source_));
  return driver_(dev, checksum);
}

Status DualApp::RunCuda(mcuda::CudaApi& cu, double* checksum) {
  if (cuda_source_.empty())
    return UnimplementedError(name_ + " has no CUDA version");
  for (const RegisterOverride& o : overrides_)
    interp::KernelRegisterTable::Instance().Set(o.kernel, o.opencl_regs,
                                                o.cuda_regs);
  CudaDualDev dev(cu);
  BRIDGECL_RETURN_IF_ERROR(dev.Build(cuda_source_));
  return driver_(dev, checksum);
}

}  // namespace bridgecl::apps
