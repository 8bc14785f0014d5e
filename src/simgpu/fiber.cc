#include "simgpu/fiber.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cassert>
#include <new>
#include <unordered_map>

namespace bridgecl::simgpu {

namespace {
enum class FiberState { kReady, kAtBarrier, kDone };

/// Fiber stacks recycled per thread, by size: a stack's pages are faulted
/// in once and reused by every later group on the same thread, instead of
/// being allocated and zero-filled per work-item per block. Stacks never
/// move between threads; a group nested inside a running fiber takes
/// more. Each stack sits above a guard page, so an overflow faults
/// instead of corrupting its neighbour.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (const auto& [bytes, stacks] : free_)
      for (char* s : stacks) munmap(s - Page(), bytes + Page());
  }
  char* Take(size_t bytes) {
    std::vector<char*>& free = free_[bytes];
    if (!free.empty()) {
      char* s = free.back();
      free.pop_back();
      return s;
    }
    void* p = mmap(nullptr, bytes + Page(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    mprotect(p, Page(), PROT_NONE);
    return static_cast<char*>(p) + Page();
  }
  void Give(char* stack, size_t bytes) { free_[bytes].push_back(stack); }

 private:
  static size_t Page() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }
  std::unordered_map<size_t, std::vector<char*>> free_;
};

thread_local StackPool t_stacks;
}  // namespace

struct FiberGroup::Impl {
  struct Fiber {
    ucontext_t ctx;
    char* stack = nullptr;
    FiberState state = FiberState::kReady;
    Status status;
  };

  size_t stack_bytes;
  ucontext_t main_ctx;
  std::vector<Fiber> fibers;
  const Task* task = nullptr;
  int current = -1;
  bool in_fiber = false;

  void RunFiberBody() {
    Fiber& f = fibers[current];
    f.status = (*task)(current);
    f.state = FiberState::kDone;
    // uc_link returns control to main_ctx.
  }
};

namespace {
// makecontext can only pass ints; hand the Impl over via a thread-local.
thread_local FiberGroup::Impl* g_active_impl = nullptr;

extern "C" void FiberTrampoline() {
  assert(g_active_impl != nullptr);
  g_active_impl->RunFiberBody();
}
}  // namespace

FiberGroup::FiberGroup(size_t stack_bytes) : impl_(std::make_unique<Impl>()) {
  impl_->stack_bytes = stack_bytes;
}

FiberGroup::~FiberGroup() = default;

void FiberGroup::Barrier() {
  assert(impl_->in_fiber && "Barrier() outside of a running work-item");
  Impl* impl = impl_.get();
  impl->fibers[impl->current].state = FiberState::kAtBarrier;
  impl->in_fiber = false;
  swapcontext(&impl->fibers[impl->current].ctx, &impl->main_ctx);
  impl->in_fiber = true;
}

Status FiberGroup::Run(int count, const Task& task) {
  if (count <= 0) return OkStatus();
  Impl* impl = impl_.get();
  impl->task = &task;
  impl->fibers.clear();
  impl->fibers.resize(count);

  Impl* prev_active = g_active_impl;
  g_active_impl = impl;

  for (int i = 0; i < count; ++i) {
    Impl::Fiber& f = impl->fibers[i];
    f.stack = t_stacks.Take(impl->stack_bytes);
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack;
    f.ctx.uc_stack.ss_size = impl->stack_bytes;
    f.ctx.uc_link = &impl->main_ctx;
    makecontext(&f.ctx, FiberTrampoline, 0);
  }

  Status first_error;
  while (true) {
    int live = 0;
    int waiting = 0;
    for (int i = 0; i < count; ++i) {
      Impl::Fiber& f = impl->fibers[i];
      if (f.state != FiberState::kReady) continue;
      impl->current = i;
      impl->in_fiber = true;
      swapcontext(&impl->main_ctx, &f.ctx);
      impl->in_fiber = false;
      if (f.state == FiberState::kDone && !f.status.ok() &&
          first_error.ok()) {
        first_error = f.status;
      }
    }
    for (const Impl::Fiber& f : impl->fibers) {
      if (f.state == FiberState::kAtBarrier) {
        ++waiting;
        ++live;
      } else if (f.state != FiberState::kDone) {
        ++live;
      }
    }
    if (live == 0) break;
    // Every live fiber is parked at the barrier: release the whole group.
    // Work-items that already returned are tolerated (trailing early-exit
    // threads — common in guard-banded kernels).
    assert(waiting == live);
    for (Impl::Fiber& f : impl->fibers)
      if (f.state == FiberState::kAtBarrier) f.state = FiberState::kReady;
  }

  g_active_impl = prev_active;
  impl->task = nullptr;
  for (const Impl::Fiber& f : impl->fibers)
    t_stacks.Give(f.stack, impl->stack_bytes);
  impl->fibers.clear();
  return first_error;
}

}  // namespace bridgecl::simgpu
