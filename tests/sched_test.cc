// Tests for the src/sched command scheduler (docs/CONCURRENCY.md):
//   - in-order queues serialize commands, independent queues overlap a
//     copy with a kernel on the dual-engine timing model;
//   - event wait lists and barriers order commands across/within queues;
//   - non-blocking failures park on the queue and surface, sticky, at the
//     next synchronization point with their sealed error code;
//   - events stay queryable after their queue is released, and releasing
//     every event leaves no live records; a command whose event handle
//     nobody asked for leaves no record, though handles still advance;
//   - a traced out-of-order multi-queue run is deterministic: two fresh
//     runs agree on the clock, the stats counters and the exported trace
//     JSON byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cl2cu/cl_on_cuda.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "mocl/cl_errors.h"
#include "sched/scheduler.h"
#include "simgpu/device.h"
#include "support/status.h"
#include "trace/exporters.h"
#include "trace/session.h"

namespace bridgecl {
namespace {

using mocl::ClMem;
using mocl::MemFlags;
using sched::CommandKind;
using sched::CommandSpec;
using sched::Scheduler;
using simgpu::Device;
using simgpu::EngineId;
using simgpu::TitanProfile;

CommandSpec CopySpec(uint64_t queue, uint64_t bytes,
                     std::vector<uint64_t> waits = {}) {
  CommandSpec s;
  s.kind = CommandKind::kCopyH2D;
  s.queue = queue;
  s.bytes = bytes;
  s.wait_events = std::move(waits);
  return s;
}

CommandSpec KernelSpec(uint64_t queue, std::vector<uint64_t> waits = {}) {
  CommandSpec s;
  s.kind = CommandKind::kKernel;
  s.queue = queue;
  s.kernel = "k";
  s.wait_events = std::move(waits);
  return s;
}

/// Exec closure charging a copy of `bytes` against `dev`.
std::function<Status()> ChargeCopy(Device& dev, size_t bytes) {
  return [&dev, bytes] {
    dev.ChargeCopy(bytes);
    return OkStatus();
  };
}

/// Exec closure charging a kernel against `dev`.
std::function<Status()> ChargeKernel(Device& dev) {
  return [&dev] {
    dev.ChargeKernel(/*total_cycles=*/200000, /*regs_per_thread=*/32,
                     /*work_items=*/1024);
    return OkStatus();
  };
}

TEST(SchedTest, InOrderQueueSerializesCommands) {
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t q = sch.CreateQueue(/*out_of_order=*/false);
  uint64_t e1 = 0, e2 = 0;
  ASSERT_TRUE(sch.Enqueue(CopySpec(q, 1 << 20), /*blocking=*/false,
                          dev.now_us(), ChargeCopy(dev, 1 << 20), &e1)
                  .ok());
  ASSERT_TRUE(sch.Enqueue(KernelSpec(q), /*blocking=*/false, dev.now_us(),
                          ChargeKernel(dev), &e2)
                  .ok());
  auto t1 = sch.TimesOf(e1);
  auto t2 = sch.TimesOf(e2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_GT(t1->end_us, t1->start_us);
  // FIFO: the kernel starts no earlier than the copy ends...
  EXPECT_GE(t2->start_us, t1->end_us);
  // ...so the copy and compute engines never run simultaneously.
  EXPECT_DOUBLE_EQ(dev.EngineOverlapUs(), 0.0);
  ASSERT_TRUE(sch.Synchronize(q).ok());
  EXPECT_GE(dev.now_us(), t2->end_us);
}

TEST(SchedTest, IndependentQueuesOverlapCopyAndCompute) {
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t qa = sch.CreateQueue(false);
  uint64_t qb = sch.CreateQueue(false);
  uint64_t ec = 0, ek = 0;
  ASSERT_TRUE(sch.Enqueue(CopySpec(qa, 1 << 20), false, dev.now_us(),
                          ChargeCopy(dev, 1 << 20), &ec)
                  .ok());
  ASSERT_TRUE(sch.Enqueue(KernelSpec(qb), false, dev.now_us(),
                          ChargeKernel(dev), &ek)
                  .ok());
  ASSERT_TRUE(sch.SynchronizeAll().ok());
  auto tc = sch.TimesOf(ec);
  auto tk = sch.TimesOf(ek);
  ASSERT_TRUE(tc.ok() && tk.ok());
  // Both commands had no dependencies, so they share their windows: the
  // total wall time is less than the serialized sum.
  double dur_c = tc->end_us - tc->start_us;
  double dur_k = tk->end_us - tk->start_us;
  EXPECT_GT(dev.EngineOverlapUs(), 0.0);
  EXPECT_LT(std::max(tc->end_us, tk->end_us) -
                std::min(tc->start_us, tk->start_us),
            dur_c + dur_k);
}

TEST(SchedTest, OutOfOrderQueueOverlapsWhereInOrderCannot) {
  // The same two commands on one queue: in-order forces serialization,
  // out-of-order lets the copy and the kernel share the window.
  double ooo_overlap, io_overlap;
  {
    Device dev(TitanProfile());
    Scheduler sch(dev, "test");
    uint64_t q = sch.CreateQueue(/*out_of_order=*/true);
    ASSERT_TRUE(sch.Enqueue(CopySpec(q, 1 << 20), false, dev.now_us(),
                            ChargeCopy(dev, 1 << 20))
                    .ok());
    ASSERT_TRUE(
        sch.Enqueue(KernelSpec(q), false, dev.now_us(), ChargeKernel(dev))
            .ok());
    ASSERT_TRUE(sch.Synchronize(q).ok());
    ooo_overlap = dev.EngineOverlapUs();
  }
  {
    Device dev(TitanProfile());
    Scheduler sch(dev, "test");
    uint64_t q = sch.CreateQueue(/*out_of_order=*/false);
    ASSERT_TRUE(sch.Enqueue(CopySpec(q, 1 << 20), false, dev.now_us(),
                            ChargeCopy(dev, 1 << 20))
                    .ok());
    ASSERT_TRUE(
        sch.Enqueue(KernelSpec(q), false, dev.now_us(), ChargeKernel(dev))
            .ok());
    ASSERT_TRUE(sch.Synchronize(q).ok());
    io_overlap = dev.EngineOverlapUs();
  }
  EXPECT_GT(ooo_overlap, 0.0);
  EXPECT_DOUBLE_EQ(io_overlap, 0.0);
}

TEST(SchedTest, WaitListOrdersAcrossQueues) {
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t qa = sch.CreateQueue(false);
  uint64_t qb = sch.CreateQueue(false);
  uint64_t ec = 0, ek = 0;
  ASSERT_TRUE(sch.Enqueue(CopySpec(qa, 1 << 20), false, dev.now_us(),
                          ChargeCopy(dev, 1 << 20), &ec)
                  .ok());
  ASSERT_TRUE(sch.Enqueue(KernelSpec(qb, {ec}), false, dev.now_us(),
                          ChargeKernel(dev), &ek)
                  .ok());
  auto tc = sch.TimesOf(ec);
  auto tk = sch.TimesOf(ek);
  ASSERT_TRUE(tc.ok() && tk.ok());
  EXPECT_GE(tk->start_us, tc->end_us);
  EXPECT_DOUBLE_EQ(dev.EngineOverlapUs(), 0.0);
  // An unknown wait-list event is an immediate enqueue failure.
  uint64_t bad = 1;
  EXPECT_FALSE(sch.Enqueue(KernelSpec(qb, {0xdeadbeefULL}), false,
                           dev.now_us(), ChargeKernel(dev), &bad)
                   .ok());
  EXPECT_EQ(bad, 0u);
}

TEST(SchedTest, BarrierOrdersLaterCommandsOnOutOfOrderQueue) {
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t q = sch.CreateQueue(/*out_of_order=*/true);
  uint64_t ec = 0, eb = 0, ek = 0;
  ASSERT_TRUE(sch.Enqueue(CopySpec(q, 1 << 20), false, dev.now_us(),
                          ChargeCopy(dev, 1 << 20), &ec)
                  .ok());
  CommandSpec bar;
  bar.kind = CommandKind::kBarrier;
  bar.queue = q;
  ASSERT_TRUE(sch.Enqueue(bar, false, dev.now_us(), {}, &eb).ok());
  ASSERT_TRUE(sch.Enqueue(KernelSpec(q), false, dev.now_us(),
                          ChargeKernel(dev), &ek)
                  .ok());
  auto tc = sch.TimesOf(ec);
  auto tb = sch.TimesOf(eb);
  auto tk = sch.TimesOf(ek);
  ASSERT_TRUE(tc.ok() && tb.ok() && tk.ok());
  EXPECT_GE(tb->end_us, tc->end_us);
  EXPECT_GE(tk->start_us, tb->end_us);
  EXPECT_DOUBLE_EQ(dev.EngineOverlapUs(), 0.0);
}

TEST(SchedTest, DeferredErrorSurfacesStickyAtSynchronize) {
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t q = sch.CreateQueue(false);
  auto fail = [](const char* what, int code) {
    return [what, code] {
      Status st = InternalError(what);
      st.set_api_code(code);
      return st;
    };
  };
  // Two failures: the first parks, the second is dropped (first wins).
  uint64_t e1 = 0;
  // Deferred: the enqueues report success.
  EXPECT_TRUE(sch.Enqueue(CopySpec(q, 64), false, dev.now_us(),
                          fail("first", -5), &e1)
                  .ok());
  EXPECT_TRUE(sch.Enqueue(CopySpec(q, 64), false, dev.now_us(),
                          fail("second", -4))
                  .ok());
  Status st = sch.Synchronize(q);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.api_code(), -5);  // the first failure's sealed code
  // Surfacing clears the parked error.
  EXPECT_TRUE(sch.Synchronize(q).ok());
  // The failing command's event carries the failure by value.
  EXPECT_FALSE(sch.EventSynchronize(e1).ok());
}

TEST(SchedTest, BlockingCommandSurfacesParkedErrorBeforeExecuting) {
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t q = sch.CreateQueue(false);
  ASSERT_TRUE(sch.Enqueue(CopySpec(q, 64), false, dev.now_us(), [] {
                   Status st = InternalError("async fault");
                   st.set_api_code(-5);
                   return st;
                 }).ok());
  int executed = 0;
  Status st = sch.Enqueue(CopySpec(q, 64), /*blocking=*/true, dev.now_us(),
                          [&executed] {
                            ++executed;
                            return OkStatus();
                          });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.api_code(), -5);
  EXPECT_EQ(executed, 0);  // the parked error preempts the new command
}

TEST(SchedTest, EventsOutliveTheirQueue) {
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t q = sch.CreateQueue(false);
  uint64_t e = 0;
  ASSERT_TRUE(sch.Enqueue(CopySpec(q, 1 << 16), false, dev.now_us(),
                          ChargeCopy(dev, 1 << 16), &e)
                  .ok());
  ASSERT_TRUE(sch.ReleaseQueue(q).ok());
  EXPECT_FALSE(sch.HasQueue(q));
  auto t = sch.TimesOf(e);  // still queryable: recorded by value
  ASSERT_TRUE(t.ok());
  EXPECT_GT(t->end_us, t->start_us);
  EXPECT_TRUE(sch.ReleaseEvent(e));
  EXPECT_EQ(sch.LiveEvents(), 0u);
  EXPECT_FALSE(sch.ReleaseEvent(e));  // double release is rejected
  // The default queue can never be released.
  EXPECT_FALSE(sch.ReleaseQueue(sched::kDefaultQueue).ok());
}

TEST(SchedTest, CommandsWithoutAnEventHandleLeaveNoRecord) {
  // A caller that does not ask for a command's event (mcuda's copies and
  // launches, mocl's enqueues with a null out-event) leaves no record
  // behind, yet every command still takes its handle.
  Device dev(TitanProfile());
  Scheduler sch(dev, "test");
  uint64_t q = sch.CreateQueue(/*out_of_order=*/true);
  uint64_t first = 0;
  ASSERT_TRUE(sch.Enqueue(CopySpec(q, 64), false, dev.now_us(),
                          ChargeCopy(dev, 64), &first)
                  .ok());
  ASSERT_TRUE(sch.ReleaseEvent(first));
  CommandSpec marker, barrier;
  marker.queue = barrier.queue = q;
  barrier.kind = CommandKind::kBarrier;
  const std::vector<CommandSpec> kinds = {
      CopySpec(q, 64),
      [](CommandSpec s) {
        s.kind = CommandKind::kCopyD2H;
        return s;
      }(CopySpec(q, 64)),
      [](CommandSpec s) {
        s.kind = CommandKind::kCopyD2D;
        return s;
      }(CopySpec(q, 64)),
      KernelSpec(q), marker, barrier};
  uint64_t enqueued = 1;
  for (const CommandSpec& spec : kinds) {
    for (int i = 0; i < 1000; ++i, ++enqueued) {
      ASSERT_TRUE(sch.Enqueue(spec, /*blocking=*/i % 2 == 0, dev.now_us(),
                              ChargeCopy(dev, 64))
                      .ok());
    }
  }
  EXPECT_EQ(sch.LiveEvents(), 0u);
  uint64_t e = 0;
  ASSERT_TRUE(sch.Enqueue(KernelSpec(q), false, dev.now_us(),
                          ChargeKernel(dev), &e)
                  .ok());
  EXPECT_EQ(sch.LiveEvents(), 1u);
  EXPECT_EQ(e, first + enqueued);
  auto t = sch.TimesOf(e);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(t->end_us, t->start_us);
}

// ---------------------------------------------------------------------------
// Runtime-level determinism: a traced out-of-order multi-queue workload
// through the mocl binding, run twice on fresh devices.
// ---------------------------------------------------------------------------

constexpr char kSpin[] =
    "__kernel void spin(__global float* g, int iters) {"
    "  int i = get_global_id(0);"
    "  float acc = g[i];"
    "  for (int k = 0; k < iters; k++) acc = acc * 1.0001f + 0.5f;"
    "  g[i] = acc;"
    "}";

struct RunResult {
  double clock = 0;
  uint64_t api_calls = 0;
  uint64_t h2d_bytes = 0;
  std::string json;
};

RunResult TracedOooRun() {
  Device dev(TitanProfile());
  RunResult r;
  {
    trace::TraceSession session(dev, {});
    auto cl = mocl::CreateNativeClApi(dev);
    auto run = [&]() -> Status {
      BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl->CreateProgramWithSource(kSpin));
      BRIDGECL_RETURN_IF_ERROR(cl->BuildProgram(prog));
      BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl->CreateKernel(prog, "spin"));
      BRIDGECL_ASSIGN_OR_RETURN(
          auto ooo, cl->CreateCommandQueue(
                        mocl::CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE));
      BRIDGECL_ASSIGN_OR_RETURN(auto io, cl->CreateCommandQueue(0));
      std::vector<float> h(256, 1.0f);
      BRIDGECL_ASSIGN_OR_RETURN(
          ClMem buf, cl->CreateBuffer(MemFlags::kReadWrite, 256 * 4, nullptr));
      mocl::ClEvent w{};
      BRIDGECL_RETURN_IF_ERROR(cl->EnqueueWriteBufferOn(
          ooo, buf, 0, 256 * 4, h.data(), /*blocking=*/false, {}, &w));
      int iters = 8;
      BRIDGECL_RETURN_IF_ERROR(
          cl->SetKernelArg(kernel, 0, sizeof(ClMem), &buf));
      BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 1, sizeof(int),
                                                &iters));
      size_t gws = 256, lws = 32;
      std::vector<mocl::ClEvent> wl = {w};
      mocl::ClEvent kev{};
      BRIDGECL_RETURN_IF_ERROR(
          cl->EnqueueNDRangeKernelOn(ooo, kernel, 1, &gws, &lws, wl, &kev));
      BRIDGECL_ASSIGN_OR_RETURN(auto bar, cl->EnqueueBarrier(ooo));
      BRIDGECL_RETURN_IF_ERROR(cl->EnqueueReadBufferOn(
          ooo, buf, 0, 256 * 4, h.data(), false, {}, nullptr));
      BRIDGECL_RETURN_IF_ERROR(cl->EnqueueReadBufferOn(
          io, buf, 0, 64, h.data(), false, {}, nullptr));
      BRIDGECL_RETURN_IF_ERROR(cl->Flush(ooo));
      BRIDGECL_RETURN_IF_ERROR(cl->Finish(ooo));
      BRIDGECL_RETURN_IF_ERROR(cl->Finish(io));
      std::vector<mocl::ClEvent> evs = {w, kev, bar};
      BRIDGECL_RETURN_IF_ERROR(cl->WaitForEvents(evs));
      for (const auto& e : evs) BRIDGECL_RETURN_IF_ERROR(cl->ReleaseEvent(e));
      BRIDGECL_RETURN_IF_ERROR(cl->ReleaseCommandQueue(ooo));
      BRIDGECL_RETURN_IF_ERROR(cl->ReleaseCommandQueue(io));
      return cl->Finish();
    };
    Status st = run();
    EXPECT_TRUE(st.ok()) << st.ToString();
    r.json = trace::ChromeTraceJson(session.recorder());
  }
  r.clock = dev.now_us();
  r.api_calls = dev.stats().api_calls;
  r.h2d_bytes = dev.stats().host_to_device_bytes;
  return r;
}

// ---------------------------------------------------------------------------
// cl2cu blocking-transfer over-synchronization regression: the wrapper's
// lazy absolute-time base (EnsureT0) must anchor on an empty private
// stream. Anchoring on the default stream made the first event-producing
// command wait out everything already enqueued there — detected here
// through the trace span windows.
// ---------------------------------------------------------------------------
TEST(SchedTest, FirstEventCommandDoesNotSyncDefaultQueue) {
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cu = mcuda::CreateNativeCudaApi(dev);
  auto cl = cl2cu::CreateClOnCudaApi(*cu);
  double after_write_enqueue = 0;
  auto run = [&]() -> Status {
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl->CreateProgramWithSource(kSpin));
    BRIDGECL_RETURN_IF_ERROR(cl->BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl->CreateKernel(prog, "spin"));
    std::vector<float> h(256, 1.0f);
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem buf, cl->CreateBuffer(MemFlags::kReadWrite, 256 * 4, h.data()));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 0, sizeof(ClMem), &buf));
    int iters = 2000;
    BRIDGECL_RETURN_IF_ERROR(
        cl->SetKernelArg(kernel, 1, sizeof(int), &iters));
    // A long kernel pending on the DEFAULT queue (the CUDA default
    // stream), enqueued without an event so t0 is not planted yet.
    size_t gws = 256, lws = 32;
    BRIDGECL_RETURN_IF_ERROR(cl->EnqueueNDRangeKernelOn(
        mocl::ClQueue{0}, kernel, 1, &gws, &lws, {}, nullptr));
    double kernel_enqueued = dev.now_us();
    // First event-producing command, on an independent queue: triggers
    // EnsureT0. It must not wait for the default queue's horizon.
    BRIDGECL_ASSIGN_OR_RETURN(auto qb, cl->CreateCommandQueue(0));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem small, cl->CreateBuffer(MemFlags::kReadWrite, 1024, nullptr));
    mocl::ClEvent wev{};
    BRIDGECL_RETURN_IF_ERROR(cl->EnqueueWriteBufferOn(
        qb, small, 0, 1024, h.data(), /*blocking=*/false, {}, &wev));
    after_write_enqueue = dev.now_us();
    EXPECT_GE(after_write_enqueue, kernel_enqueued);
    BRIDGECL_RETURN_IF_ERROR(cl->Finish());
    BRIDGECL_RETURN_IF_ERROR(cl->Finish(qb));
    BRIDGECL_RETURN_IF_ERROR(cl->ReleaseEvent(wev));
    return cl->ReleaseCommandQueue(qb);
  };
  Status st = run();
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Span-window checks against the long kernel's compute-engine window.
  double compute_end = -1.0, copy_begin = -1.0;
  for (const trace::TraceEvent& e : session.recorder().events()) {
    if (e.kind == trace::TraceKind::kDeviceCompute)
      compute_end = std::max(compute_end, e.end_us);
    if (e.kind == trace::TraceKind::kDeviceCopy && e.bytes == 1024)
      copy_begin = e.begin_us;
  }
  ASSERT_GE(compute_end, 0.0) << "no compute-engine span recorded";
  ASSERT_GE(copy_begin, 0.0) << "no copy-engine span for the small write";
  // Over-sync would have parked the host behind the default queue before
  // issuing the write (EnsureT0's anchor event waiting out the kernel),
  // pushing both the enqueue's return and the copy window past the
  // kernel's end.
  EXPECT_LT(after_write_enqueue, compute_end)
      << "the write enqueue waited out the default queue's kernel";
  EXPECT_LT(copy_begin, compute_end)
      << "the independent queue's write serialized behind the default "
         "queue's kernel";
}

TEST(SchedTest, TracedOutOfOrderRunIsDeterministic) {
  // Byte-identity across fresh runs: a discarded run warms the module
  // cache, so both compared runs record a hit on their build spans (the
  // hit/miss outcome is span metadata).
  (void)TracedOooRun();
  RunResult a = TracedOooRun();
  RunResult b = TracedOooRun();
  EXPECT_EQ(a.clock, b.clock);  // exact, not approximate
  EXPECT_EQ(a.api_calls, b.api_calls);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.json, b.json);
  // The trace carries the scheduler's engine lanes.
  EXPECT_NE(a.json.find("copy-engine"), std::string::npos);
  EXPECT_NE(a.json.find("compute-engine"), std::string::npos);
}

}  // namespace
}  // namespace bridgecl
