// Kernel launcher and executor. Executes a kernel over a grid on a
// simulated device: blocks claimed in parallel by a host worker pool
// (docs/PERFORMANCE.md), each in the worker's own block memory, reset
// per block. The kernel runs as the flat code its module was lowered to
// (lower.h). A work-item's state (pc, call frames, registers,
// private-stack top, cycles) is plain data, so one block loop runs a
// block's items round-robin between barriers: a barrier saves the item's
// pc and returns to the loop, which releases the barrier once every live
// item waits (real barrier semantics, no stack per item). A failing op
// ends its work-item with its status, and every device access it makes
// that faults names the work-item. Every operation is charged to the
// device timing model, and per-block costs are reduced in canonical block
// order, so results are bit-identical for any worker count.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "interp/module.h"
#include "simgpu/device.h"
#include "simgpu/dim3.h"
#include "support/status.h"

namespace bridgecl::interp {

/// One kernel argument as bound by the host runtime.
struct KernelArg {
  enum class Kind {
    kBytes,      // encoded value: scalar, struct, or device pointer (8B VA)
    kLocalAlloc  // OpenCL dynamic __local allocation: size only (§4.1)
  };
  Kind kind = Kind::kBytes;
  std::vector<std::byte> bytes;
  size_t local_size = 0;

  static KernelArg Bytes(std::vector<std::byte> b) {
    KernelArg a;
    a.kind = Kind::kBytes;
    a.bytes = std::move(b);
    return a;
  }
  static KernelArg Pointer(uint64_t va) {
    std::vector<std::byte> b(8);
    std::memcpy(b.data(), &va, 8);
    return Bytes(std::move(b));
  }
  template <typename T>
  static KernelArg Value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> b(sizeof(T));
    std::memcpy(b.data(), &v, sizeof(T));
    return Bytes(std::move(b));
  }
  static KernelArg LocalAlloc(size_t size) {
    KernelArg a;
    a.kind = Kind::kLocalAlloc;
    a.local_size = size;
    return a;
  }
};

struct LaunchConfig {
  simgpu::Dim3 grid;
  simgpu::Dim3 block;
  size_t dynamic_shared_bytes = 0;  // CUDA <<<g,b,SHMEM>>> third argument
};

/// How a launch's blocks ran (docs/PERFORMANCE.md).
enum class LaunchPath {
  kSerial,     // one worker, writing memory directly
  kCommitted,  // several workers; block logs committed in block order
  kRerun,      // a block read a byte an earlier block wrote: rerun serially
};

/// Per-launch result: the accumulated cost and derived occupancy, useful
/// for tests and the ablation benches.
struct LaunchResult {
  double total_cycles = 0;
  double occupancy = 0;
  uint64_t work_items = 0;
  double kernel_time_us = 0;  // simulated device time consumed
  LaunchPath path = LaunchPath::kSerial;  // host-side only, never simulated
};

/// Execute `kernel_name` from `module` on `device`. The module must be
/// loaded on that device. Argument count/kinds must match the kernel
/// signature (dynamic-local args only where the param is a __local
/// pointer). A CUDA kernel that is a template cannot be launched: only
/// its instantiations are code (lang/cpp_lowering.h).
StatusOr<LaunchResult> LaunchKernel(simgpu::Device& device, Module& module,
                                    const std::string& kernel_name,
                                    const LaunchConfig& config,
                                    std::span<const KernelArg> args);

/// Host workers used for block-parallel launches: the SetWorkerCount
/// override if pinned, else BRIDGECL_JOBS, else hardware_concurrency
/// (see worker_pool.h). Launches under an armed fault plan ignore this
/// and run with one worker; launches whose blocks turn out to depend on
/// each other through memory rerun with one (LaunchPath::kRerun).
int WorkerCount();
/// Pin the worker count for subsequent launches (tests, benches);
/// `n == 0` restores the environment-derived default. Clamped to
/// kMaxWorkers (worker_pool.h).
void SetWorkerCount(int n);

}  // namespace bridgecl::interp
