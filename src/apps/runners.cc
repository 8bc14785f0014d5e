#include "apps/runners.h"

namespace bridgecl::apps {

Status ClRunner::Build(const std::string& source) {
  BRIDGECL_ASSIGN_OR_RETURN(program_, cl_.CreateProgramWithSource(source));
  BRIDGECL_RETURN_IF_ERROR(cl_.BuildProgram(program_));
  built_ = true;
  return OkStatus();
}

StatusOr<mocl::ClMem> ClRunner::Alloc(size_t bytes, mocl::MemFlags flags) {
  return cl_.CreateBuffer(flags, bytes, nullptr);
}

Status ClRunner::Launch(const std::string& kernel, simgpu::Dim3 gws,
                        simgpu::Dim3 lws, std::initializer_list<Arg> args) {
  if (!built_) return FailedPreconditionError("program not built");
  BRIDGECL_ASSIGN_OR_RETURN(mocl::ClKernel k,
                            cl_.CreateKernel(program_, kernel));
  int index = 0;
  for (const Arg& a : args) {
    switch (a.k) {
      case Arg::K::kClBuf:
        BRIDGECL_RETURN_IF_ERROR(
            cl_.SetKernelArg(k, index, sizeof(mocl::ClMem), &a.mem));
        break;
      case Arg::K::kLocal:
        BRIDGECL_RETURN_IF_ERROR(cl_.SetKernelArg(k, index, a.n, nullptr));
        break;
      case Arg::K::kI32:
        BRIDGECL_RETURN_IF_ERROR(
            cl_.SetKernelArg(k, index, sizeof(int32_t), &a.i));
        break;
      case Arg::K::kU32:
        BRIDGECL_RETURN_IF_ERROR(
            cl_.SetKernelArg(k, index, sizeof(uint32_t), &a.u));
        break;
      case Arg::K::kF32:
        BRIDGECL_RETURN_IF_ERROR(
            cl_.SetKernelArg(k, index, sizeof(float), &a.f));
        break;
      case Arg::K::kF64:
        BRIDGECL_RETURN_IF_ERROR(
            cl_.SetKernelArg(k, index, sizeof(double), &a.d));
        break;
      case Arg::K::kU64:
        BRIDGECL_RETURN_IF_ERROR(
            cl_.SetKernelArg(k, index, sizeof(uint64_t), &a.u64));
        break;
      case Arg::K::kCuPtr:
        return InvalidArgumentError("CUDA pointer arg in an OpenCL launch");
    }
    ++index;
  }
  size_t gws_a[3] = {gws.x, gws.y, gws.z};
  size_t lws_a[3] = {lws.x, lws.y, lws.z};
  return cl_.EnqueueNDRangeKernel(k, 3, gws_a, lws_a);
}

Status CudaRunner::Launch(const std::string& kernel, simgpu::Dim3 grid,
                          simgpu::Dim3 block, size_t shared_bytes,
                          std::initializer_list<Arg> args) {
  std::vector<mcuda::LaunchArg> largs;
  largs.reserve(args.size());
  for (const Arg& a : args) {
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
      case Arg::K::kClBuf:
      case Arg::K::kLocal:
        return InvalidArgumentError(
            "OpenCL-only argument kind in a CUDA launch");
    }
  }
  return cu_.LaunchKernel(kernel, grid, block, shared_bytes, largs);
}

double Checksum(const std::vector<float>& v) {
  double sum = 0;
  for (size_t i = 0; i < v.size(); ++i)
    sum += static_cast<double>(v[i]) * ((i % 7) + 1);
  return sum;
}

double Checksum(const std::vector<double>& v) {
  double sum = 0;
  for (size_t i = 0; i < v.size(); ++i) sum += v[i] * ((i % 7) + 1);
  return sum;
}

double Checksum(const std::vector<int>& v) {
  double sum = 0;
  for (size_t i = 0; i < v.size(); ++i)
    sum += static_cast<double>(v[i]) * ((i % 7) + 1);
  return sum;
}

double Checksum(const std::vector<unsigned>& v) {
  double sum = 0;
  for (size_t i = 0; i < v.size(); ++i)
    sum += static_cast<double>(v[i]) * ((i % 7) + 1);
  return sum;
}

}  // namespace bridgecl::apps
