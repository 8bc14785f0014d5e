#include "interp/worker_pool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace bridgecl::interp {

struct WorkerPool::Impl {
  std::mutex mu;
  std::condition_variable job_cv;   // signals a new job generation
  std::condition_variable done_cv;  // signals job completion
  std::vector<std::thread> threads;

  // Current job, valid while generation is the latest one a worker saw.
  const std::function<void(int)>* fn = nullptr;
  int last_index = 0;   // highest worker index of the current job
  int next_index = 1;   // next unclaimed worker index
  int outstanding = 0;  // helper invocations not yet finished
  uint64_t generation = 0;

  void ThreadMain() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      job_cv.wait(lk, [&] { return generation != seen; });
      seen = generation;
      // A thread may serve several indices if its siblings wake late; a
      // late-woken thread that finds no index left just waits again.
      while (next_index <= last_index) {
        int index = next_index++;
        const std::function<void(int)>* job = fn;
        lk.unlock();
        (*job)(index);
        lk.lock();
        if (--outstanding == 0) done_cv.notify_all();
      }
    }
  }
};

WorkerPool::WorkerPool() : impl_(new Impl()) {}

WorkerPool& WorkerPool::Instance() {
  static WorkerPool* pool = new WorkerPool();
  return *pool;
}

void WorkerPool::Run(int workers, const std::function<void(int)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  Impl& p = *impl_;
  {
    std::unique_lock<std::mutex> lk(p.mu);
    int helpers = workers - 1;
    while (static_cast<int>(p.threads.size()) < helpers)
      p.threads.emplace_back([&p] { p.ThreadMain(); });
    p.fn = &fn;
    p.last_index = helpers;
    p.next_index = 1;
    p.outstanding = helpers;
    ++p.generation;
    p.job_cv.notify_all();
  }
  fn(0);
  std::unique_lock<std::mutex> lk(p.mu);
  p.done_cv.wait(lk, [&p] { return p.outstanding == 0; });
  p.fn = nullptr;
}

int ResolveWorkerCountFromEnv() {
  int n = 0;
  if (const char* env = std::getenv("BRIDGECL_JOBS");
      env != nullptr && env[0] != '\0')
    n = std::atoi(env);
  if (n < 1) {
    unsigned hc = std::thread::hardware_concurrency();
    n = hc == 0 ? 1 : static_cast<int>(hc);
  }
  return std::clamp(n, 1, kMaxWorkers);
}

}  // namespace bridgecl::interp
