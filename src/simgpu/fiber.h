// Cooperatively scheduled fibers used to run a work-group's work-items
// concurrently on one OS thread. `barrier()` in a kernel suspends the
// current work-item until every live work-item in the group has reached
// the barrier — real OpenCL/CUDA work-group barrier semantics, which
// kernels like reduction/scan/FT depend on.
//
// Implementation: POSIX ucontext fibers with private stacks. The group
// scheduler runs work-items round-robin between barriers. The executor
// creates no group for a kernel that cannot reach a barrier: it runs
// that kernel's work-items in a plain loop, in the order a group whose
// tasks never wait would run them.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "support/status.h"

namespace bridgecl::simgpu {

/// Runs `count` tasks as fibers until all complete. Tasks may call
/// `Barrier()` (from inside the task, via the scheduler pointer handed to
/// them) any number of times; all live tasks must reach the barrier before
/// any proceeds. A task returning a non-ok Status does not stop its
/// siblings. Stacks come from a per-thread pool and are reused across
/// groups.
class FiberGroup {
 public:
  /// Task receives its index. It may call FiberGroup::Barrier() (through
  /// the pointer passed alongside) to synchronize with siblings.
  using Task = std::function<Status(int index)>;

  explicit FiberGroup(size_t stack_bytes = 256 * 1024);
  ~FiberGroup();

  FiberGroup(const FiberGroup&) = delete;
  FiberGroup& operator=(const FiberGroup&) = delete;

  /// Run `count` instances of `task` to completion and return the first
  /// non-ok status a task returned. A barrier releases once every task
  /// that has not returned waits at one: tasks that returned early are
  /// not waited for, and waits at different Barrier() call sites are not
  /// told apart. A divergent barrier, which hangs a real GPU, therefore
  /// passes silently; reporting it is the "sync" kernel checker on
  /// ROADMAP.md.
  Status Run(int count, const Task& task);

  /// Called from inside a running task: wait for all live siblings.
  void Barrier();

  struct Impl;  // public so the ucontext trampoline can reach it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace bridgecl::simgpu
