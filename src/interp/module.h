// A compiled kernel module — the simulator's stand-in for a PTX module
// (CUDA) or a built cl_program (OpenCL). Compile() runs the front end;
// LoadOn() materializes module-scope state on a device: the constant
// region and CUDA __device__ statics, with their compile-time
// initializers, plus the symbol table that cudaMemcpyTo/FromSymbol and the
// CU→CL translator rely on (§4.2, §4.3).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "lang/ast.h"
#include "lang/dialect.h"
#include "simgpu/device.h"
#include "support/status.h"

namespace bridgecl::interp {

class Program;  // lower.h

/// Process-wide table of "native compiler" register allocations per kernel
/// and toolchain. Models the §6.3 cfd observation: nvcc and the OpenCL
/// compiler allocate different register counts for the same kernel, so a
/// kernel's occupancy depends on which compiler finally built it — which,
/// under the wrapper bindings, is the *target* model's compiler.
class KernelRegisterTable {
 public:
  static KernelRegisterTable& Instance();

  void Set(const std::string& kernel, int opencl_regs, int cuda_regs);
  /// Registers for `kernel` when built by the `dialect` toolchain;
  /// 0 when no entry exists.
  int For(const std::string& kernel, lang::Dialect dialect) const;

 private:
  struct Entry {
    int opencl_regs = 0;
    int cuda_regs = 0;
  };
  std::unordered_map<std::string, Entry> entries_;
};

/// What the module cache did for one Compile call.
enum class ModuleCacheOutcome {
  kMiss,  // front end ran; result inserted
  kHit,   // front end skipped; diagnostics replayed from the cache
};

/// Cumulative process-wide cache counters (monotone; read by tests and
/// the host benchmark).
struct ModuleCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};
ModuleCacheStats GetModuleCacheStats();

class Module {
 public:
  /// Parse + analyze `source` in the given dialect and lower its device
  /// functions for the executor. Results (including failures and their
  /// diagnostics) are cached process-wide, keyed by dialect and source
  /// text; a hit skips the front end and lowering, replays the original
  /// diagnostics into `diags` so build logs are byte-identical, and
  /// shares the analyzed translation unit and its lowered code.
  /// Simulated build cost is charged by callers identically on hit and
  /// miss — the cache saves wall-clock only, never simulated time.
  static StatusOr<std::unique_ptr<Module>> Compile(
      const std::string& source, lang::Dialect dialect,
      DiagnosticEngine& diags, ModuleCacheOutcome* outcome = nullptr);

  /// Lay out and initialize module-scope memory on `device`:
  ///   * every __constant/__constant__ file-scope variable gets an offset
  ///     in the device constant region,
  ///   * every CUDA __device__ file-scope variable gets a global-memory
  ///     allocation,
  /// and initializers are encoded into device memory. Must be called once
  /// before launching kernels from this module.
  Status LoadOn(simgpu::Device& device);

  /// The translation unit's device functions, lowered (lower.h).
  const Program& program() const { return *program_; }
  lang::Dialect dialect() const { return dialect_; }

  const lang::FunctionDecl* FindKernel(const std::string& name) const;

  struct Symbol {
    uint64_t va = 0;
    size_t size = 0;
    lang::AddressSpace space = lang::AddressSpace::kGlobal;
  };
  /// Module-scope variable lookup by name (constant or device-global).
  StatusOr<Symbol> FindSymbol(const std::string& name) const;
  /// VA of a module-scope variable (used by the executor for DeclRefs to
  /// file-scope state); 0 when unknown.
  uint64_t VaOf(const lang::VarDecl* v) const;

  // -- CUDA texture references (§5) ---------------------------------------
  /// Bind a texture reference declared in this module to an image
  /// descriptor (see interp/image.h). Unbound references fault on use.
  Status BindTexture(const std::string& name, uint64_t image_desc_va);
  StatusOr<uint64_t> TextureBinding(const std::string& name) const;
  const lang::TextureRefDecl* FindTextureRef(const std::string& name) const;

  // -- occupancy inputs (§6.3) --------------------------------------------
  /// Override the modeled register count for one kernel (stand-in for the
  /// native compiler's register allocation, which differed between the
  /// CUDA and OpenCL toolchains in the paper's cfd result).
  void SetRegisterOverride(const std::string& kernel, int regs);
  int RegistersFor(const lang::FunctionDecl* kernel) const;
  bool loaded() const { return loaded_device_ != nullptr; }
  simgpu::Device* loaded_device() const { return loaded_device_; }

 private:
  Module() = default;

  // Shared with the module cache and with sibling modules compiled from
  // identical source: the TU is immutable after sema.
  std::shared_ptr<lang::TranslationUnit> tu_;
  std::shared_ptr<const Program> program_;
  lang::Dialect dialect_ = lang::Dialect::kOpenCL;
  simgpu::Device* loaded_device_ = nullptr;

  std::unordered_map<std::string, Symbol> symbols_;
  std::unordered_map<const lang::VarDecl*, uint64_t> var_vas_;
  std::unordered_map<std::string, uint64_t> texture_bindings_;
  std::unordered_map<std::string, int> register_overrides_;
};

}  // namespace bridgecl::interp
