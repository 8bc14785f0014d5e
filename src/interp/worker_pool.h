// Persistent host worker pool for the block-parallel kernel launcher
// (docs/PERFORMANCE.md). Threads are created lazily on the first parallel
// launch and then parked on a condition variable between jobs, so the
// per-launch dispatch cost is two lock round-trips rather than thread
// creation. The pool is process-global and deliberately never torn down
// (worker threads hold no resources beyond their stacks).
#pragma once

#include <functional>

namespace bridgecl::interp {

class WorkerPool {
 public:
  /// The process-wide pool.
  static WorkerPool& Instance();

  /// Invoke `fn(worker_index)` for every worker_index in [0, workers):
  /// index 0 runs on the calling thread, the rest on pool threads.
  /// Returns when all invocations complete. `fn` must be safe to call
  /// concurrently from distinct threads with distinct indices.
  void Run(int workers, const std::function<void(int)>& fn);

 private:
  WorkerPool();
  ~WorkerPool() = delete;  // intentionally immortal

  struct Impl;
  Impl* impl_;
};

/// The most host workers a launch uses, however many are asked for.
inline constexpr int kMaxWorkers = 128;

/// Worker count from the environment: BRIDGECL_JOBS if set (>= 1), else
/// std::thread::hardware_concurrency, clamped to kMaxWorkers.
/// `BRIDGECL_JOBS=1` restores the serial engine exactly.
int ResolveWorkerCountFromEnv();

}  // namespace bridgecl::interp
