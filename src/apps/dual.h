// DualDev: a minimal host-programming facade implemented over both API
// models, for apps whose host logic is structurally identical in the two
// programming models (most of Rodinia/Toolkit — the paper's §3.2
// "one-to-one correspondence"). The facade maps onto the *real* call
// sequences of each model:
//   * Launch(grid, block, args): OpenCL converts to NDRange + one
//     clSetKernelArg per argument (locals via null-value args); CUDA drops
//     local args from the parameter list and passes their total as the
//     <<<...>>> dynamic shared size.
// Apps with asymmetric host flows (e.g. hybridsort's extra transfers)
// bypass the facade and implement RunCl/RunCuda directly.
#pragma once

#include <functional>

#include "apps/app.h"
#include "apps/runners.h"
#include "simgpu/dim3.h"

namespace bridgecl::apps {

class DualDev {
 public:
  using H = uint64_t;  // opaque buffer handle

  virtual ~DualDev() = default;

  virtual StatusOr<H> Alloc(size_t bytes) = 0;
  virtual Status Write(H h, const void* src, size_t bytes) = 0;
  virtual Status Read(H h, void* dst, size_t bytes) = 0;
  /// `grid`/`block` in CUDA terms; args listed in the OpenCL kernel's
  /// parameter order (dynamic locals included, at their positions).
  virtual Status Launch(const std::string& kernel, simgpu::Dim3 grid,
                        simgpu::Dim3 block,
                        std::initializer_list<Arg> args) = 0;
  /// Argument wrapper for a buffer handle (dialect-appropriate).
  virtual Arg BufArg(H h) const = 0;

  template <typename T>
  StatusOr<H> Upload(const std::vector<T>& v) {
    BRIDGECL_ASSIGN_OR_RETURN(H h, Alloc(v.size() * sizeof(T)));
    BRIDGECL_RETURN_IF_ERROR(Write(h, v.data(), v.size() * sizeof(T)));
    return h;
  }
  template <typename T>
  StatusOr<std::vector<T>> Download(H h, size_t count) {
    std::vector<T> out(count);
    BRIDGECL_RETURN_IF_ERROR(Read(h, out.data(), count * sizeof(T)));
    return out;
  }
};

/// A dual-dialect app defined by two device sources, one symmetric driver,
/// and optional per-dialect register overrides.
class DualApp : public App {
 public:
  using Driver = std::function<Status(DualDev& dev, double* checksum)>;

  DualApp(std::string name, std::string suite, std::string cl_source,
          std::string cuda_source, Driver driver,
          std::vector<RegisterOverride> overrides = {})
      : name_(std::move(name)),
        suite_(std::move(suite)),
        cl_source_(std::move(cl_source)),
        cuda_source_(std::move(cuda_source)),
        driver_(std::move(driver)),
        overrides_(std::move(overrides)) {}

  std::string name() const override { return name_; }
  std::string suite() const override { return suite_; }
  std::string OpenClSource() const override { return cl_source_; }
  std::string CudaSource() const override { return cuda_source_; }

  Status RunCl(mocl::OpenClApi& cl, double* checksum) override;
  Status RunCuda(mcuda::CudaApi& cu, double* checksum) override;

 private:
  std::string name_, suite_, cl_source_, cuda_source_;
  Driver driver_;
  std::vector<RegisterOverride> overrides_;
};

}  // namespace bridgecl::apps
