// Benchmark application framework. Each App models one program from the
// paper's evaluation suites (Rodinia 3.0, SNU NPB 1.0.3, NVIDIA CUDA
// Toolkit 4.2 samples): it carries device source in one or both dialects
// and host drivers written against the abstract APIs — so the same driver
// runs under a native binding or under the paper's wrapper binding, which
// is exactly how Figures 7 and 8 are measured.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "support/status.h"

namespace bridgecl::apps {

/// Per-kernel register counts as "allocated by the native compilers".
/// Models §6.3's cfd result: the CUDA and OpenCL toolchains allocate
/// different register counts for the same kernel, changing occupancy.
struct RegisterOverride {
  std::string kernel;
  int opencl_regs = 0;  // 0 = keep the front-end estimate
  int cuda_regs = 0;
};

class App {
 public:
  virtual ~App() = default;

  virtual std::string name() const = 0;
  virtual std::string suite() const = 0;  // "rodinia" | "npb" | "toolkit"

  /// Device sources. Empty string = this dialect version does not exist
  /// (SNU NPB has no CUDA versions; some stand-ins are CUDA-only).
  virtual std::string OpenClSource() const { return ""; }
  virtual std::string CudaSource() const { return ""; }
  /// Whole-application CUDA source (device + host) for the
  /// translatability classifier; defaults to the device code. Apps whose
  /// blocking feature lives in host code (nn/mummergpu's cudaMemGetInfo)
  /// override this.
  virtual std::string FullCudaSource() const { return CudaSource(); }
  bool has_opencl() const { return !OpenClSource().empty(); }
  bool has_cuda() const { return !CudaSource().empty(); }

  /// OpenCL host program (untouched under either binding, §3.2). Returns
  /// a checksum of the outputs for cross-binding equivalence checks.
  virtual Status RunCl(mocl::OpenClApi& cl, double* checksum) {
    (void)cl;
    (void)checksum;
    return UnimplementedError(name() + " has no OpenCL host program");
  }
  /// CUDA host program.
  virtual Status RunCuda(mcuda::CudaApi& cu, double* checksum) {
    (void)cu;
    (void)checksum;
    return UnimplementedError(name() + " has no CUDA host program");
  }
};

using AppPtr = std::unique_ptr<App>;

/// The suites (translatable applications).
std::vector<AppPtr> RodiniaApps();
std::vector<AppPtr> NpbApps();
std::vector<AppPtr> ToolkitApps();
/// Rodinia applications whose CUDA versions are untranslatable (Fig 8a):
/// heartwall, nn, mummergpu, dwt2d, kmeans, leukocyte, hybridsort-tex.
std::vector<AppPtr> RodiniaUntranslatableApps();

/// Find an app by name across all suites; null if unknown.
AppPtr FindApp(const std::string& name);

}  // namespace bridgecl::apps
