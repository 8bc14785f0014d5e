// Determinism harness for the block-parallel execution engine
// (docs/PERFORMANCE.md): the whole benchmark corpus must be bit-identical
// between serial execution (BRIDGECL_JOBS=1) and an 8-worker pool —
// checksums, every DeviceStats counter, the simulated clock, per-engine
// busy time, and exported Chrome traces. Error paths get the same
// treatment: guarded-memory faults and exhaustive nth-fault sweeps must
// report byte-identical statuses at any worker count. Direct launches pin
// the logged execution path: blocks that write the same word, read each
// other's output, or share an atomic counter must leave memory exactly as
// the serial engine does, and every block sees the serial engine's shared
// and private addresses. The module cache (keyed by dialect and source
// text) rides along: hits skip the front end (surfaced on build trace
// spans), replay diagnostics byte-identically, and charge the same
// simulated build cost.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app.h"
#include "interp/executor.h"
#include "interp/module.h"
#include "interp/worker_pool.h"
#include "lang/dialect.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "mocl/cl_errors.h"
#include "simgpu/device.h"
#include "simgpu/fault_injector.h"
#include "trace/exporters.h"
#include "trace/session.h"

namespace bridgecl {
namespace {

using apps::App;
using apps::AppPtr;
using apps::FindApp;
using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::DeviceStats;
using simgpu::EngineId;
using simgpu::FaultKind;
using simgpu::FaultPlan;
using simgpu::FaultPoint;
using simgpu::FaultSite;
using simgpu::TitanProfile;

constexpr int kWorkers = 8;

/// Pins the worker count for one scope and restores the environment
/// default (BRIDGECL_JOBS / hardware concurrency) on exit, so tests never
/// leak a count into each other.
struct ScopedWorkers {
  explicit ScopedWorkers(int n) { interp::SetWorkerCount(n); }
  ~ScopedWorkers() { interp::SetWorkerCount(0); }
};

void ExpectStatsEqual(const DeviceStats& a, const DeviceStats& b) {
  EXPECT_EQ(a.kernels_launched, b.kernels_launched);
  EXPECT_EQ(a.work_items_executed, b.work_items_executed);
  EXPECT_EQ(a.global_accesses, b.global_accesses);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.shared_bank_words, b.shared_bank_words);
  EXPECT_EQ(a.constant_accesses, b.constant_accesses);
  EXPECT_EQ(a.image_accesses, b.image_accesses);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.host_to_device_bytes, b.host_to_device_bytes);
  EXPECT_EQ(a.device_to_host_bytes, b.device_to_host_bytes);
  EXPECT_EQ(a.device_to_device_bytes, b.device_to_device_bytes);
  EXPECT_EQ(a.api_calls, b.api_calls);
  EXPECT_EQ(a.ops_executed, b.ops_executed);
}

// ---------------------------------------------------------------------------
// Whole-corpus bit-identity: every app, both dialects, 1 vs 8 workers.
// ---------------------------------------------------------------------------
struct RunSnapshot {
  Status status;
  double checksum = 0;
  double clock = 0;
  double compute_busy = 0;
  double copy_busy = 0;
  DeviceStats stats;
};

void ExpectSnapshotsIdentical(const RunSnapshot& serial,
                              const RunSnapshot& parallel) {
  ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
  ASSERT_TRUE(parallel.status.ok()) << parallel.status.ToString();
  // Exact equality throughout: the parallel engine reduces per-block
  // results in canonical block order, so even floating-point cycle
  // accumulation and checksums must match to the last bit.
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.clock, parallel.clock);
  // The compute-engine timing model is untouched by the host-side worker
  // pool: simulated busy time is a function of cycle counts only.
  EXPECT_EQ(serial.compute_busy, parallel.compute_busy);
  EXPECT_EQ(serial.copy_busy, parallel.copy_busy);
  ExpectStatsEqual(serial.stats, parallel.stats);
}

RunSnapshot RunClApp(App& app, int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev);
  RunSnapshot s;
  s.status = app.RunCl(*cl, &s.checksum);
  s.clock = dev.now_us();
  s.compute_busy = dev.EngineBusyUs(EngineId::kCompute);
  s.copy_busy = dev.EngineBusyUs(EngineId::kCopy);
  s.stats = dev.stats();
  return s;
}

RunSnapshot RunCudaApp(App& app, int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  auto cu = mcuda::CreateNativeCudaApi(dev);
  RunSnapshot s;
  s.status = app.RunCuda(*cu, &s.checksum);
  s.clock = dev.now_us();
  s.compute_busy = dev.EngineBusyUs(EngineId::kCompute);
  s.copy_busy = dev.EngineBusyUs(EngineId::kCopy);
  s.stats = dev.stats();
  return s;
}

std::vector<std::string> AllAppNames() {
  std::vector<std::string> names;
  for (auto maker : {apps::RodiniaApps, apps::NpbApps, apps::ToolkitApps})
    for (auto& app : maker()) names.push_back(app->name());
  return names;
}

class ParallelExecAppTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllApps, ParallelExecAppTest, ::testing::ValuesIn(AllAppNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string n = info.param;
      for (char& c : n)
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      return n;
    });

TEST_P(ParallelExecAppTest, OpenClBitIdenticalAcrossWorkerCounts) {
  AppPtr app = FindApp(GetParam());
  ASSERT_NE(app, nullptr);
  if (!app->has_opencl()) GTEST_SKIP() << "no OpenCL version";
  RunSnapshot serial = RunClApp(*app, 1);
  RunSnapshot parallel = RunClApp(*app, kWorkers);
  ExpectSnapshotsIdentical(serial, parallel);
}

TEST_P(ParallelExecAppTest, CudaBitIdenticalAcrossWorkerCounts) {
  AppPtr app = FindApp(GetParam());
  ASSERT_NE(app, nullptr);
  if (!app->has_cuda()) GTEST_SKIP() << "no CUDA version";
  RunSnapshot serial = RunCudaApp(*app, 1);
  RunSnapshot parallel = RunCudaApp(*app, kWorkers);
  ExpectSnapshotsIdentical(serial, parallel);
}

// ---------------------------------------------------------------------------
// Trace bit-identity: the exported Chrome JSON carries simulated
// timestamps and counter deltas only, so it must not change with the
// worker count either. (A discarded first run warms the module cache:
// the first process-wide compile of a source is a miss, later ones hit,
// and the outcome is build-span metadata.)
// ---------------------------------------------------------------------------
std::string TracedClAppJson(App& app, int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  double checksum = 0;
  Status st = app.RunCl(*cl, &checksum);
  EXPECT_TRUE(st.ok()) << app.name() << ": " << st.ToString();
  return trace::ChromeTraceJson(session.recorder());
}

TEST(ParallelExecTest, TracesBitIdenticalAcrossWorkerCounts) {
  // srad's in-place stencil reruns serially after a conflict, gaussian
  // and pathfinder commit their block logs: both regimes must export
  // identical traces.
  for (const char* name : {"srad", "gaussian", "pathfinder"}) {
    SCOPED_TRACE(name);
    AppPtr app = FindApp(name);
    ASSERT_NE(app, nullptr);
    (void)TracedClAppJson(*app, 1);
    EXPECT_EQ(TracedClAppJson(*app, 1), TracedClAppJson(*app, kWorkers));
  }
}

// ---------------------------------------------------------------------------
// Error-path identity: guarded-memory faults under 8 workers report the
// same canonical first fault as the serial engine (lowest failing block
// wins the reduction, whatever order workers hit the redzone).
// ---------------------------------------------------------------------------
Status RunGuardedOob(int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  dev.vm().set_guarded(true);
  auto cl = mocl::CreateNativeClApi(dev);
  // 64 work-items in 8 blocks store into a 25-float allocation: items
  // 25..63 all overrun, spread across blocks 3..7. The reported fault
  // must be block 3's item 25 at every worker count.
  const char* src =
      "__kernel void pexec_oob_store(__global float* c) {"
      "  c[get_global_id(0)] = 1.0f;"
      "}";
  auto run = [&]() -> Status {
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl->CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl->BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel,
                              cl->CreateKernel(prog, "pexec_oob_store"));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem c, cl->CreateBuffer(MemFlags::kWriteOnly, 25 * 4, nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 0, sizeof(ClMem), &c));
    size_t gws = 64, lws = 8;
    Status st = cl->EnqueueNDRangeKernel(kernel, 1, &gws, &lws);
    if (st.ok()) st = cl->Finish();
    (void)cl->ReleaseMemObject(c);
    return st;
  };
  return run();
}

TEST(ParallelExecTest, GuardedOobFaultIdenticalAcrossWorkerCounts) {
  Status serial = RunGuardedOob(1);
  Status parallel = RunGuardedOob(kWorkers);
  ASSERT_FALSE(serial.ok());
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(serial.api_code(), parallel.api_code());
  EXPECT_EQ(serial.code(), parallel.code());
  EXPECT_EQ(serial.message(), parallel.message());
  EXPECT_NE(serial.message().find("work-item global (25,0,0)"),
            std::string::npos)
      << serial.ToString();
}

// ---------------------------------------------------------------------------
// Nth-fault sweep identity: an armed fault plan forces the launch onto
// the serial path (injection ordinals are defined by canonical execution
// order), so every ordinal's failure is byte-identical at any requested
// worker count.
// ---------------------------------------------------------------------------
Status RunVaddWithPlan(const FaultPlan& plan, int workers,
                       DeviceStats* stats) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  dev.faults().set_plan(plan);
  auto cl = mocl::CreateNativeClApi(dev);
  const char* src =
      "__kernel void pexec_vadd(__global float* a, __global float* b,"
      "                         __global float* c, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}";
  constexpr int kN = 16;
  auto run = [&]() -> Status {
    std::vector<float> a(kN, 1.0f), b(kN, 2.0f), out(kN);
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl->CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl->BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel,
                              cl->CreateKernel(prog, "pexec_vadd"));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem ma, cl->CreateBuffer(MemFlags::kReadOnly, kN * 4, a.data()));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem mb, cl->CreateBuffer(MemFlags::kReadOnly, kN * 4, b.data()));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem mc, cl->CreateBuffer(MemFlags::kWriteOnly, kN * 4, nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 0, sizeof(ClMem), &ma));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 1, sizeof(ClMem), &mb));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 2, sizeof(ClMem), &mc));
    int n = kN;
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 3, sizeof(int), &n));
    size_t gws = kN, lws = 4;
    BRIDGECL_RETURN_IF_ERROR(cl->EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    BRIDGECL_RETURN_IF_ERROR(cl->EnqueueReadBuffer(mc, 0, kN * 4,
                                                   out.data()));
    for (ClMem m : {ma, mb, mc}) (void)cl->ReleaseMemObject(m);
    return OkStatus();
  };
  Status st = run();
  if (stats != nullptr) *stats = dev.stats();
  return st;
}

FaultPlan OneShot(FaultSite site, uint64_t nth) {
  FaultPlan plan;
  plan.points.push_back(FaultPoint{site, nth, FaultKind::kError, false, 0});
  return plan;
}

TEST(ParallelExecTest, NthFaultSweepIdenticalAcrossWorkerCounts) {
  // Sweep increasing ordinals until the plan stops firing: every ordinal
  // that fails must fail with byte-identical status and counters at both
  // worker counts.
  for (FaultSite site : {FaultSite::kMemoryAccess, FaultSite::kInstruction}) {
    SCOPED_TRACE(simgpu::FaultSiteName(site));
    uint64_t nth = 0;
    for (; nth < 4096; ++nth) {
      SCOPED_TRACE("ordinal " + std::to_string(nth));
      DeviceStats stats1, stats8;
      Status s1 = RunVaddWithPlan(OneShot(site, nth), 1, &stats1);
      Status s8 = RunVaddWithPlan(OneShot(site, nth), kWorkers, &stats8);
      EXPECT_EQ(s1.ok(), s8.ok());
      if (s1.ok() || s8.ok()) break;  // past the last ordinal that fires
      EXPECT_EQ(s1.api_code(), s8.api_code());
      EXPECT_EQ(s1.code(), s8.code());
      EXPECT_EQ(s1.message(), s8.message());
      ExpectStatsEqual(stats1, stats8);
    }
    EXPECT_GT(nth, 0u) << "the sweep never fired a fault";
  }
}

// ---------------------------------------------------------------------------
// Logged block execution, driven through interp::LaunchKernel. At 8
// workers every block runs against pre-launch memory and logs its stores;
// the logs commit in block order unless a block read a byte an earlier
// block wrote, which reruns the launch serially. Either way memory,
// status, DeviceStats and cycles must equal the serial engine's.
// ---------------------------------------------------------------------------
struct DirectRun {
  Status status;
  std::vector<int32_t> mem;  // the kernel's buffer after the launch
  DeviceStats stats;
  double cycles = 0;
  double clock = 0;
  interp::LaunchPath path = interp::LaunchPath::kSerial;
};

/// Launch `k(__global int* buf)` from OpenCL `src` on a fresh device at
/// `workers` workers, with `buf` holding `mem`.
DirectRun LaunchDirect(const char* src, simgpu::Dim3 grid,
                       simgpu::Dim3 block, std::vector<int32_t> mem,
                       int workers) {
  ScopedWorkers sw(workers);
  Device dev(TitanProfile());
  DirectRun r;
  const size_t bytes = mem.size() * sizeof(int32_t);
  r.status = [&]() -> Status {
    DiagnosticEngine diags;
    BRIDGECL_ASSIGN_OR_RETURN(
        auto module,
        interp::Module::Compile(src, lang::Dialect::kOpenCL, diags));
    BRIDGECL_RETURN_IF_ERROR(module->LoadOn(dev));
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, dev.vm().AllocGlobal(bytes));
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, dev.vm().Resolve(va, bytes));
    std::memcpy(p, mem.data(), bytes);
    const interp::KernelArg args[] = {interp::KernelArg::Pointer(va)};
    auto launch = interp::LaunchKernel(dev, *module, "k", {grid, block, 0},
                                       args);
    std::memcpy(mem.data(), p, bytes);  // also after a fault
    BRIDGECL_RETURN_IF_ERROR(launch.status());
    r.cycles = launch->total_cycles;
    r.path = launch->path;
    return OkStatus();
  }();
  r.mem = std::move(mem);
  r.stats = dev.stats();
  r.clock = dev.now_us();
  return r;
}

/// Runs `src` at 1 and at 8 workers, expects identical outcomes, and
/// returns the 8-worker run.
DirectRun ExpectSerialEqualsParallel(const char* src, simgpu::Dim3 grid,
                                     simgpu::Dim3 block,
                                     const std::vector<int32_t>& mem) {
  DirectRun serial = LaunchDirect(src, grid, block, mem, 1);
  DirectRun parallel = LaunchDirect(src, grid, block, mem, kWorkers);
  EXPECT_EQ(serial.path, interp::LaunchPath::kSerial);
  EXPECT_EQ(serial.status.code(), parallel.status.code());
  EXPECT_EQ(serial.status.message(), parallel.status.message());
  EXPECT_EQ(serial.mem, parallel.mem);
  EXPECT_EQ(serial.cycles, parallel.cycles);
  EXPECT_EQ(serial.clock, parallel.clock);
  ExpectStatsEqual(serial.stats, parallel.stats);
  return parallel;
}

TEST(ParallelExecTest, StoresToOneWordCommitInBlockOrder) {
  // Every block stores its group id to out[0] and loads nothing. The
  // serial engine leaves the last block's id; so must 8 workers, every
  // time.
  const char* src =
      "__kernel void k(__global int* out) { out[0] = get_group_id(0); }";
  for (int rep = 0; rep < 20; ++rep) {
    SCOPED_TRACE("repeat " + std::to_string(rep));
    DirectRun r = ExpectSerialEqualsParallel(src, simgpu::Dim3(64),
                                             simgpu::Dim3(32), {0});
    EXPECT_EQ(r.mem[0], 63);
    EXPECT_EQ(r.path, interp::LaunchPath::kCommitted);
  }
}

TEST(ParallelExecTest, ReadOfAnEarlierBlocksStoreRerunsSerially) {
  // Block b adds out[b-1], which block b-1 wrote in the same launch.
  const char* src =
      "__kernel void k(__global int* out) {"
      "  if (get_local_id(0) != 0) return;"
      "  int b = get_group_id(0);"
      "  out[b] = b;"
      "  if (b > 0) out[b] += out[b - 1];"
      "}";
  DirectRun r = ExpectSerialEqualsParallel(src, simgpu::Dim3(16),
                                           simgpu::Dim3(4),
                                           std::vector<int32_t>(16, 0));
  EXPECT_EQ(r.path, interp::LaunchPath::kRerun);
  EXPECT_EQ(r.mem[15], 120);  // 1 + 2 + ... + 15
}

TEST(ParallelExecTest, SharedAtomicCounterRerunsSerially) {
  // Every work-item bumps one counter and stores the old value it got
  // back. Atomics are logged read-modify-writes, so block 1 reading the
  // counter block 0 bumped is a conflict.
  const char* src =
      "__kernel void k(__global int* out) {"
      "  out[1 + get_global_id(0)] = atomic_add(&out[0], 1);"
      "}";
  DirectRun r = ExpectSerialEqualsParallel(src, simgpu::Dim3(8),
                                           simgpu::Dim3(4),
                                           std::vector<int32_t>(33, 0));
  EXPECT_EQ(r.path, interp::LaunchPath::kRerun);
  EXPECT_EQ(r.mem[0], 32);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(r.mem[1 + i], i);
}

TEST(ParallelExecTest, InPlaceUpdateWithoutCrossBlockReadsCommits) {
  // lud_update's shape at k = 0: each block rewrites its own tile of a
  // 32x32 matrix in place from row 0 and column 0, which no block writes.
  // Column 0 shares 8-byte words with column 1, which the left tiles
  // write and the right tiles read next to, so only byte-exact read
  // tracking keeps the launch parallel.
  const char* src =
      "__kernel void k(__global int* a) {"
      "  int j = get_global_id(0);"
      "  int i = get_global_id(1);"
      "  if (i == 0 || j == 0) return;"
      "  a[i * 32 + j] -= a[i * 32] * a[j];"
      "}";
  std::vector<int32_t> a(32 * 32);
  for (int i = 0; i < 32 * 32; ++i) a[i] = i % 7 - 3;
  DirectRun r = ExpectSerialEqualsParallel(src, simgpu::Dim3(2, 2),
                                           simgpu::Dim3(16, 16), a);
  EXPECT_EQ(r.path, interp::LaunchPath::kCommitted);
  EXPECT_EQ(r.mem[33], a[33] - a[32] * a[1]);
}

TEST(ParallelExecTest, FaultingBlockCommitsEarlierStoresOnly) {
  // Block 3's work-item 2 stores far out of bounds. Memory keeps the
  // stores of blocks 0-2 and block 3's stores before the fault, and
  // nothing from blocks 4-7, which the serial engine never runs.
  const char* src =
      "__kernel void k(__global int* out) {"
      "  int g = get_global_id(0);"
      "  out[g] = g + 1;"
      "  if (get_group_id(0) == 3 && get_local_id(0) == 2) {"
      "    out[1 << 20] = -1;"
      "    out[g] = -1;"
      "  }"
      "}";
  DirectRun r = ExpectSerialEqualsParallel(src, simgpu::Dim3(8),
                                           simgpu::Dim3(4),
                                           std::vector<int32_t>(32, 0));
  ASSERT_FALSE(r.status.ok());
  EXPECT_NE(r.status.message().find("block (3,0,0)"), std::string::npos)
      << r.status.ToString();
  for (int g = 0; g < 32; ++g) EXPECT_EQ(r.mem[g], g < 16 ? g + 1 : 0) << g;
}

TEST(ParallelExecTest, BlockAddressesMatchTheSerialEngine) {
  // Item 0 of each block stores the high words of a __local array's
  // address and of a private variable's address. Shared and private
  // memory belong to the block, so the addresses must not depend on
  // which worker ran it.
  const char* src =
      "__kernel void k(__global int* out) {"
      "  __local int t[4];"
      "  int x = get_local_id(0);"
      "  t[x] = x;"
      "  if (x != 0) return;"
      "  int b = get_group_id(0);"
      "  out[b] = (int)((ulong)t >> 32);"
      "  out[64 + b] = (int)((ulong)&x >> 32);"
      "}";
  const auto shared_hi =
      static_cast<int32_t>(simgpu::VirtualMemory::kSharedBase >> 32);
  const auto private_hi =
      static_cast<int32_t>(simgpu::VirtualMemory::kPrivateBase >> 32);
  for (int rep = 0; rep < 5; ++rep) {
    SCOPED_TRACE("repeat " + std::to_string(rep));
    DirectRun r = ExpectSerialEqualsParallel(src, simgpu::Dim3(64),
                                             simgpu::Dim3(4),
                                             std::vector<int32_t>(128, 0));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.path, interp::LaunchPath::kCommitted);
    for (int b = 0; b < 64; ++b) {
      EXPECT_EQ(r.mem[b], shared_hi) << b;
      EXPECT_EQ(r.mem[64 + b], private_hi) << b;
    }
  }
}

TEST(ParallelExecTest, BlockMemoryReadsZeroInEveryBlock) {
  // Each worker keeps its block memory across blocks and launches and
  // re-zeroes only the bytes earlier blocks resolved. Item l reads words
  // no item of its block has written yet and ORs them into out[g]: with a
  // barrier an unwritten __local word, a private word past its array and
  // a word of the next item's private slot; without one the private word
  // only. Then it writes each word. Every block must still read zeros.
  const char* with_barrier =
      "__kernel void k(__global int* out) {"
      "  __local int t[4];"
      "  int a[2];"
      "  int* p = a;"
      "  int l = get_local_id(0);"
      "  int v = t[l] | p[64];"
      "  if (l + 1 < 4) v |= p[16384 + 96];"
      "  out[get_global_id(0)] = v;"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  t[l] = l + 1;"
      "  p[64] = l + 1;"
      "  if (l + 1 < 4) p[16384 + 96] = l + 1;"
      "}";
  const char* barrier_free =
      "__kernel void k(__global int* out) {"
      "  int a[2];"
      "  int* p = a;"
      "  out[get_global_id(0)] = p[64];"
      "  p[64] = get_local_id(0) + 1;"
      "}";
  for (const char* src : {with_barrier, barrier_free}) {
    SCOPED_TRACE(src == with_barrier ? "with a barrier" : "barrier-free");
    for (int rep = 0; rep < 5; ++rep) {
      SCOPED_TRACE("repeat " + std::to_string(rep));
      DirectRun r = ExpectSerialEqualsParallel(
          src, simgpu::Dim3(64), simgpu::Dim3(4), std::vector<int32_t>(256, 7));
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      for (int g = 0; g < 256; ++g) EXPECT_EQ(r.mem[g], 0) << g;
    }
  }
}

TEST(ParallelExecTest, SharedOverrunInALateBlockReportsTheSerialStatus) {
  // Block 37 stores far past its 16 bytes of shared memory. The fault
  // names the shared VA and the segment's extent, which must read as
  // they do in the serial engine whichever worker ran the block.
  const char* src =
      "__kernel void k(__global int* out) {"
      "  __local int t[4];"
      "  if (get_group_id(0) == 37) t[1000] = 1;"
      "}";
  for (int rep = 0; rep < 20; ++rep) {
    SCOPED_TRACE("repeat " + std::to_string(rep));
    DirectRun r = ExpectSerialEqualsParallel(src, simgpu::Dim3(64),
                                             simgpu::Dim3(4), {0});
    ASSERT_FALSE(r.status.ok());
    EXPECT_NE(r.status.message().find("overruns the shared segment"),
              std::string::npos)
        << r.status.ToString();
    EXPECT_NE(r.status.message().find("block (37,0,0)"), std::string::npos)
        << r.status.ToString();
  }
}

TEST(ParallelExecTest, WorkerCountIsCappedAtMaxWorkers) {
  // Launches nothing, so no pool thread starts.
  interp::SetWorkerCount(1 << 20);
  EXPECT_EQ(interp::WorkerCount(), interp::kMaxWorkers);
  EXPECT_EQ(interp::kMaxWorkers, 128);
  interp::SetWorkerCount(0);

  const char* before = std::getenv("BRIDGECL_JOBS");
  std::string saved = before != nullptr ? before : "";
  setenv("BRIDGECL_JOBS", "1048576", 1);
  EXPECT_EQ(interp::ResolveWorkerCountFromEnv(), interp::kMaxWorkers);
  if (before != nullptr)
    setenv("BRIDGECL_JOBS", saved.c_str(), 1);
  else
    unsetenv("BRIDGECL_JOBS");
}

// ---------------------------------------------------------------------------
// Module cache: hits skip the front end, replay diagnostics, surface on
// build trace spans, and charge identical simulated cost.
// ---------------------------------------------------------------------------

/// Build-span events of the recorder, in order.
std::vector<trace::TraceEvent> BuildSpans(const trace::TraceRecorder& rec) {
  std::vector<trace::TraceEvent> out;
  for (const trace::TraceEvent& e : rec.events())
    if (std::strcmp(e.name, "clBuildProgram") == 0) out.push_back(e);
  return out;
}

TEST(ParallelExecTest, ModuleCacheHitSkipsFrontEndAndMarksSpans) {
  // Unique source so this test's first compile is a guaranteed miss even
  // though the cache is process-wide.
  const char* src =
      "__kernel void pexec_cache_probe(__global float* x) {"
      "  x[get_global_id(0)] = 2.0f;"
      "}";
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  interp::ModuleCacheStats before = interp::GetModuleCacheStats();
  auto p1 = cl->CreateProgramWithSource(src);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(cl->BuildProgram(*p1).ok());
  auto p2 = cl->CreateProgramWithSource(src);
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(cl->BuildProgram(*p2).ok());
  interp::ModuleCacheStats after = interp::GetModuleCacheStats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);

  // Build logs identical on miss and hit.
  auto log1 = cl->GetProgramBuildLog(*p1);
  auto log2 = cl->GetProgramBuildLog(*p2);
  ASSERT_TRUE(log1.ok() && log2.ok());
  EXPECT_EQ(*log1, *log2);

  // The spans carry the outcome...
  std::vector<trace::TraceEvent> spans = BuildSpans(session.recorder());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].module_cache, 0);  // miss
  EXPECT_EQ(spans[1].module_cache, 1);  // hit
  // ...and the simulated build cost is charged identically on hit and
  // miss (the cache saves wall-clock only, never simulated time).
  EXPECT_EQ(spans[0].end_us - spans[0].begin_us,
            spans[1].end_us - spans[1].begin_us);
}

TEST(ParallelExecTest, ModuleCacheReplaysFailureDiagnosticsIdentically) {
  const char* broken =
      "__kernel void pexec_cache_broken(__global float* x) {"
      "  x[get_global_id(0)] = undeclared_pexec_name;"
      "}";
  auto build = [&](std::string* log) -> Status {
    Device dev(TitanProfile());
    auto cl = mocl::CreateNativeClApi(dev);
    auto prog = cl->CreateProgramWithSource(broken);
    EXPECT_TRUE(prog.ok());
    Status st = cl->BuildProgram(*prog);
    auto l = cl->GetProgramBuildLog(*prog);
    EXPECT_TRUE(l.ok());
    *log = *l;
    return st;
  };
  std::string log_miss, log_hit;
  Status miss = build(&log_miss);
  Status hit = build(&log_hit);
  ASSERT_FALSE(miss.ok());
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(miss.api_code(), mocl::CL_BUILD_PROGRAM_FAILURE);
  EXPECT_EQ(hit.api_code(), miss.api_code());
  EXPECT_EQ(hit.code(), miss.code());
  EXPECT_EQ(hit.message(), miss.message());
  EXPECT_FALSE(log_miss.empty());
  // clGetProgramBuildInfo is byte-identical whether the diagnostics came
  // from a live front-end run or from the cache's replay.
  EXPECT_EQ(log_miss, log_hit);
}

// The module cache is keyed by dialect and source text: a one-space
// change misses, another dialect misses, and a repeat hits.
TEST(ParallelExecTest, ModuleCacheKeySeparatesInputs) {
  const std::string src =
      "__kernel void cache_key_probe(__global int* x) { x[0] = 1; }";
  auto compile = [](const std::string& s, lang::Dialect d) {
    DiagnosticEngine diags;
    interp::ModuleCacheOutcome outcome;
    (void)interp::Module::Compile(s, d, diags, &outcome);
    return outcome;
  };
  const auto before = interp::GetModuleCacheStats();
  EXPECT_EQ(compile(src, lang::Dialect::kOpenCL),
            interp::ModuleCacheOutcome::kMiss);
  EXPECT_EQ(compile(src + " ", lang::Dialect::kOpenCL),
            interp::ModuleCacheOutcome::kMiss);
  EXPECT_EQ(compile(src, lang::Dialect::kCUDA),
            interp::ModuleCacheOutcome::kMiss);
  EXPECT_EQ(compile(src, lang::Dialect::kOpenCL),
            interp::ModuleCacheOutcome::kHit);
  const auto after = interp::GetModuleCacheStats();
  EXPECT_EQ(after.misses - before.misses, 3u);
  EXPECT_EQ(after.hits - before.hits, 1u);
}

}  // namespace
}  // namespace bridgecl
