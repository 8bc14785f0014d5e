// What a context's device state does across API calls and across fresh
// contexts: __device__ symbols persist from launch to launch (natively and
// through the CUDA-on-OpenCL wrapper), a failed allocation or a lost device
// leaves the live state alone until the context is reset, a workload re-run
// in a fresh context reproduces memory, stats and clock bit for bit — with
// an nth-fault plan armed too — and the same workload computes identical
// memory on the titan and the HD7970 while timing follows each profile.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "cu2cl/cuda_on_cl.h"
#include "mcuda/cuda_api.h"
#include "mcuda/cuda_errors.h"
#include "mocl/cl_api.h"
#include "mocl/cl_errors.h"
#include "simgpu/device.h"
#include "simgpu/fault_injector.h"

namespace bridgecl {
namespace {

using mcuda::MemcpyKind;
using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::DeviceProfile;
using simgpu::DeviceStats;
using simgpu::Dim3;
using simgpu::FaultKind;
using simgpu::FaultPlan;
using simgpu::FaultPoint;
using simgpu::FaultSite;
using simgpu::HD7970Profile;
using simgpu::TitanProfile;

auto StatsFields(const DeviceStats& s) {
  return std::make_tuple(
      s.kernels_launched, s.work_items_executed, s.global_accesses,
      s.shared_accesses, s.shared_bank_words, s.constant_accesses,
      s.image_accesses, s.atomics, s.barriers, s.host_to_device_bytes,
      s.device_to_host_bytes, s.device_to_device_bytes, s.api_calls,
      s.ops_executed);
}

FaultPlan OneShot(FaultSite site, uint64_t nth,
                  FaultKind kind = FaultKind::kError) {
  FaultPlan plan;
  plan.points.push_back(FaultPoint{site, nth, kind, false, 0});
  return plan;
}

// A plan whose single point never fires: it arms the injector so the
// per-site ordinal counters run, without perturbing the workload.
FaultPlan SentinelPlan() {
  return OneShot(FaultSite::kGlobalAlloc, ~uint64_t{0});
}

DeviceProfile TinyProfile() {
  DeviceProfile tiny = TitanProfile();
  tiny.name = "SimGPU Tiny";
  tiny.global_mem_size = 64 * 1024;
  return tiny;
}

// ---------------------------------------------------------------------------
// Workloads. The CUDA one keeps all of its state in __device__ globals;
// the OpenCL one goes through buffers, a program and a kernel.
// ---------------------------------------------------------------------------
constexpr int kSteps = 16;
constexpr int kAccLen = 256;
constexpr char kStepSource[] = R"(
__device__ int step_count;
__device__ int acc[256];
__global__ void step() {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  acc[i] = acc[i] + i + 1;
  if (i == 0) step_count = step_count + 1;
}
)";

Status StartSteps(mcuda::CudaApi& cu) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(kStepSource));
  const std::vector<int> zeros(kAccLen, 0);
  BRIDGECL_RETURN_IF_ERROR(
      cu.MemcpyToSymbol("step_count", zeros.data(), sizeof(int)));
  return cu.MemcpyToSymbol("acc", zeros.data(), zeros.size() * sizeof(int));
}

Status RunSteps(mcuda::CudaApi& cu, int steps) {
  for (int s = 0; s < steps; ++s)
    BRIDGECL_RETURN_IF_ERROR(
        cu.LaunchKernel("step", Dim3(4), Dim3(64), 0, {}));
  return cu.DeviceSynchronize();
}

StatusOr<std::vector<int>> ReadAcc(mcuda::CudaApi& cu) {
  std::vector<int> acc(kAccLen);
  BRIDGECL_RETURN_IF_ERROR(
      cu.MemcpyFromSymbol(acc.data(), "acc", acc.size() * sizeof(int)));
  return acc;
}

StatusOr<int> ReadStepCount(mcuda::CudaApi& cu) {
  int count = -1;
  BRIDGECL_RETURN_IF_ERROR(
      cu.MemcpyFromSymbol(&count, "step_count", sizeof(count)));
  return count;
}

/// Everything a finished run leaves observable to the host.
struct RunResult {
  std::vector<int> memory;
  DeviceStats stats;
  double clock_us = 0;
  simgpu::BankMode bank_mode = simgpu::BankMode::k32Bit;
};

StatusOr<RunResult> RunCudaSteps(const DeviceProfile& profile) {
  Device device{profile};
  auto cu = mcuda::CreateNativeCudaApi(device);
  BRIDGECL_RETURN_IF_ERROR(StartSteps(*cu));
  BRIDGECL_RETURN_IF_ERROR(RunSteps(*cu, kSteps));
  RunResult r;
  BRIDGECL_ASSIGN_OR_RETURN(r.memory, ReadAcc(*cu));
  r.stats = device.stats();
  r.clock_us = cu->NowUs();
  r.bank_mode = device.bank_mode();
  return r;
}

constexpr int kClN = 64;

Status RunTwice(mocl::OpenClApi& cl, std::vector<int>* out) {
  const char* src =
      "__kernel void twice(__global int* a, __global int* b) {"
      "  int i = get_global_id(0);"
      "  b[i] = a[i] * 2;"
      "}";
  std::vector<int> host(kClN);
  for (int i = 0; i < kClN; ++i) host[i] = i * 3 + 1;
  BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(src));
  BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
  BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "twice"));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem in, cl.CreateBuffer(MemFlags::kReadOnly, kClN * 4, host.data()));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem res, cl.CreateBuffer(MemFlags::kWriteOnly, kClN * 4, nullptr));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem), &in));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, sizeof(ClMem), &res));
  size_t gws = kClN, lws = 16;
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
  out->resize(kClN);
  return cl.EnqueueReadBuffer(res, 0, kClN * 4, out->data());
}

StatusOr<RunResult> RunClTwice(const DeviceProfile& profile) {
  Device device{profile};
  auto cl = mocl::CreateNativeClApi(device);
  RunResult r;
  BRIDGECL_RETURN_IF_ERROR(RunTwice(*cl, &r.memory));
  r.stats = device.stats();
  r.clock_us = cl->NowUs();
  r.bank_mode = device.bank_mode();
  return r;
}

// ---------------------------------------------------------------------------
// __device__ symbol state.
// ---------------------------------------------------------------------------
TEST(ContextStateTest, DeviceSymbolsPersistAcrossLaunches) {
  Device device{TitanProfile()};
  auto cu = mcuda::CreateNativeCudaApi(device);
  ASSERT_TRUE(StartSteps(*cu).ok());
  std::vector<int> seed(kAccLen);
  for (int i = 0; i < kAccLen; ++i) seed[i] = i * i - 7;
  ASSERT_TRUE(
      cu->MemcpyToSymbol("acc", seed.data(), seed.size() * sizeof(int)).ok());
  ASSERT_TRUE(RunSteps(*cu, kSteps).ok());

  auto acc = ReadAcc(*cu);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  for (int i = 0; i < kAccLen; ++i)
    ASSERT_EQ((*acc)[i], seed[i] + kSteps * (i + 1)) << "acc[" << i << "]";
  auto count = ReadStepCount(*cu);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, kSteps);

  // An offset read returns the same words as the full read.
  std::vector<int> tail(4);
  ASSERT_TRUE(cu->MemcpyFromSymbol(tail.data(), "acc", 4 * sizeof(int),
                                   (kAccLen - 4) * sizeof(int))
                  .ok());
  EXPECT_EQ(tail, std::vector<int>(acc->end() - 4, acc->end()));
}

TEST(ContextStateTest, CudaOnClDeviceSymbolsMatchNative) {
  auto native = RunCudaSteps(TitanProfile());
  ASSERT_TRUE(native.ok()) << native.status().ToString();

  Device device{TitanProfile()};
  auto cl = mocl::CreateNativeClApi(device);
  auto cu = cu2cl::CreateCudaOnClApi(*cl);
  ASSERT_TRUE(StartSteps(*cu).ok());
  ASSERT_TRUE(RunSteps(*cu, kSteps).ok());
  auto acc = ReadAcc(*cu);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  EXPECT_EQ(*acc, native->memory);
  auto count = ReadStepCount(*cu);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, kSteps);
  EXPECT_EQ(device.stats().kernels_launched,
            static_cast<uint64_t>(kSteps));
}

// ---------------------------------------------------------------------------
// A refused allocation changes nothing that was already live.
// ---------------------------------------------------------------------------
TEST(ContextStateTest, ClAllocationOverCapacityLeavesLiveBuffersIntact) {
  Device device{TinyProfile()};
  auto cl = mocl::CreateNativeClApi(device);
  std::vector<int> host(16);
  std::iota(host.begin(), host.end(), 42);
  auto keep = cl->CreateBuffer(MemFlags::kReadWrite, 64, host.data());
  ASSERT_TRUE(keep.ok());
  const size_t live = device.vm().global_allocation_count();

  auto big = cl->CreateBuffer(MemFlags::kReadWrite, 1 << 20, nullptr);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(big.status().api_code(), mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE)
      << big.status().ToString();
  EXPECT_EQ(device.vm().global_allocation_count(), live);

  std::vector<int> got(16);
  ASSERT_TRUE(cl->EnqueueReadBuffer(*keep, 0, 64, got.data()).ok());
  EXPECT_EQ(got, host);
  EXPECT_TRUE(cl->CreateBuffer(MemFlags::kReadWrite, 64, nullptr).ok());
}

TEST(ContextStateTest, CudaAllocationOverCapacityLeavesLiveAllocationsIntact) {
  Device device{TinyProfile()};
  auto cu = mcuda::CreateNativeCudaApi(device);
  std::vector<int> host(16);
  std::iota(host.begin(), host.end(), -8);
  auto keep = cu->Malloc(64);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(
      cu->Memcpy(*keep, host.data(), 64, MemcpyKind::kHostToDevice).ok());
  const size_t live = device.vm().global_allocation_count();

  auto big = cu->Malloc(1 << 20);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(big.status().api_code(), mcuda::cudaErrorMemoryAllocation)
      << big.status().ToString();
  EXPECT_EQ(device.vm().global_allocation_count(), live);

  std::vector<int> got(16);
  ASSERT_TRUE(
      cu->Memcpy(got.data(), *keep, 64, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(got, host);
  EXPECT_TRUE(cu->Malloc(64).ok());
}

// ---------------------------------------------------------------------------
// Device loss on the native bindings: every entry point keeps failing with
// kDeviceLost until the context is reset, then the device works again.
// ---------------------------------------------------------------------------
TEST(ContextStateTest, NativeDeviceLossIsStickyUntilContextReset) {
  {
    Device device{TitanProfile()};
    auto cu = mcuda::CreateNativeCudaApi(device);
    ASSERT_TRUE(StartSteps(*cu).ok());
    device.faults().set_plan(
        OneShot(FaultSite::kTransfer, 0, FaultKind::kDeviceLost));
    int v = 1;
    Status st = cu->MemcpyToSymbol("step_count", &v, sizeof(v));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kDeviceLost);
    EXPECT_TRUE(mcuda::IsCudaCode(st.api_code())) << st.ToString();

    auto p = cu->Malloc(64);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::kDeviceLost);
    Status launch = cu->LaunchKernel("step", Dim3(4), Dim3(64), 0, {});
    ASSERT_FALSE(launch.ok());
    EXPECT_EQ(launch.code(), StatusCode::kDeviceLost);

    device.faults().ResetContext();
    EXPECT_TRUE(cu->Malloc(64).ok());
    EXPECT_TRUE(RunSteps(*cu, 1).ok());
  }
  {
    Device device{TitanProfile()};
    auto cl = mocl::CreateNativeClApi(device);
    std::vector<int> host(16, 3);
    auto buf = cl->CreateBuffer(MemFlags::kReadWrite, 64, host.data());
    ASSERT_TRUE(buf.ok());
    device.faults().set_plan(
        OneShot(FaultSite::kTransfer, 0, FaultKind::kDeviceLost));
    Status st = cl->EnqueueWriteBuffer(*buf, 0, 64, host.data());
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kDeviceLost);
    EXPECT_TRUE(mocl::IsClCode(st.api_code())) << st.ToString();

    auto again = cl->CreateBuffer(MemFlags::kReadWrite, 64, nullptr);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::kDeviceLost);

    device.faults().ResetContext();
    EXPECT_TRUE(cl->CreateBuffer(MemFlags::kReadWrite, 64, nullptr).ok());
    std::vector<int> got;
    EXPECT_TRUE(RunTwice(*cl, &got).ok());
  }
}

// ---------------------------------------------------------------------------
// Re-runs in fresh contexts are bit-identical in everything observable.
// ---------------------------------------------------------------------------
TEST(ContextStateTest, CudaRerunInFreshContextIsBitIdentical) {
  auto a = RunCudaSteps(TitanProfile());
  auto b = RunCudaSteps(TitanProfile());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->memory, b->memory);
  EXPECT_EQ(StatsFields(a->stats), StatsFields(b->stats));
  EXPECT_EQ(a->clock_us, b->clock_us);
  EXPECT_EQ(a->stats.kernels_launched, static_cast<uint64_t>(kSteps));
}

TEST(ContextStateTest, ClRerunInFreshContextIsBitIdentical) {
  auto a = RunClTwice(TitanProfile());
  auto b = RunClTwice(TitanProfile());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  for (int i = 0; i < kClN; ++i) ASSERT_EQ(a->memory[i], (i * 3 + 1) * 2);
  EXPECT_EQ(a->memory, b->memory);
  EXPECT_EQ(StatsFields(a->stats), StatsFields(b->stats));
  EXPECT_EQ(a->clock_us, b->clock_us);
}

/// An armed nth-fault run fires at the same copy, with the same status,
/// at the same simulated instant and ordinal total, every time; the device
/// allocator hands out the same address in every fresh context.
TEST(ContextStateTest, NthFaultRunIsDeterministicAcrossContexts) {
  constexpr int kCopies = 8;
  constexpr int kFaultAt = 5;
  const std::vector<float> host(16, 1.0f);

  // Counting run: the transfer ordinals consumed before the first copy
  // and by each copy.
  uint64_t base = 0, per_copy = 0;
  {
    Device device{TitanProfile()};
    auto cu = mcuda::CreateNativeCudaApi(device);
    device.faults().set_plan(SentinelPlan());
    auto p = cu->Malloc(64);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(
        cu->Memcpy(*p, host.data(), 64, MemcpyKind::kHostToDevice).ok());
    const uint64_t after_one = device.faults().count(FaultSite::kTransfer);
    ASSERT_TRUE(
        cu->Memcpy(*p, host.data(), 64, MemcpyKind::kHostToDevice).ok());
    per_copy = device.faults().count(FaultSite::kTransfer) - after_one;
    ASSERT_GT(per_copy, 0u);
    base = after_one - per_copy;
  }
  const uint64_t nth = base + per_copy * kFaultAt;

  struct Outcome {
    int fail_at = -1;
    Status status;
    uint64_t transfers = 0;
    double clock_us = 0;
    void* ptr = nullptr;
  };
  auto run = [&](Outcome* out) {
    Device device{TitanProfile()};
    auto cu = mcuda::CreateNativeCudaApi(device);
    device.faults().set_plan(OneShot(FaultSite::kTransfer, nth));
    auto p = cu->Malloc(64);
    ASSERT_TRUE(p.ok());
    out->ptr = *p;
    for (int i = 0; i < kCopies; ++i) {
      Status st = cu->Memcpy(*p, host.data(), 64, MemcpyKind::kHostToDevice);
      if (!st.ok()) {
        out->fail_at = i;
        out->status = st;
        break;
      }
    }
    out->transfers = device.faults().count(FaultSite::kTransfer);
    out->clock_us = cu->NowUs();
  };
  Outcome a, b;
  run(&a);
  run(&b);
  ASSERT_EQ(a.fail_at, kFaultAt);
  EXPECT_EQ(b.fail_at, a.fail_at);
  EXPECT_EQ(b.status.code(), a.status.code());
  EXPECT_EQ(b.status.api_code(), a.status.api_code());
  EXPECT_EQ(b.status.message(), a.status.message());
  EXPECT_TRUE(mcuda::IsCudaCode(a.status.api_code())) << a.status.ToString();
  EXPECT_EQ(b.transfers, a.transfers);
  EXPECT_EQ(b.clock_us, a.clock_us);
  EXPECT_EQ(b.ptr, a.ptr);
}

// ---------------------------------------------------------------------------
// Profiles: results are device-independent, timing and bank mode are not.
// ---------------------------------------------------------------------------
TEST(ContextStateTest, CudaResultsMatchAcrossProfilesWhileTimingDiffers) {
  auto titan = RunCudaSteps(TitanProfile());
  auto hd = RunCudaSteps(HD7970Profile());
  ASSERT_TRUE(titan.ok()) << titan.status().ToString();
  ASSERT_TRUE(hd.ok()) << hd.status().ToString();
  EXPECT_EQ(titan->memory, hd->memory);
  EXPECT_EQ(titan->stats.kernels_launched, hd->stats.kernels_launched);
  EXPECT_NE(titan->clock_us, hd->clock_us);
  EXPECT_EQ(titan->bank_mode, TitanProfile().cuda_bank_mode);
  EXPECT_EQ(hd->bank_mode, HD7970Profile().cuda_bank_mode);
}

TEST(ContextStateTest, ClResultsMatchAcrossProfilesWhileTimingDiffers) {
  auto titan = RunClTwice(TitanProfile());
  auto hd = RunClTwice(HD7970Profile());
  ASSERT_TRUE(titan.ok()) << titan.status().ToString();
  ASSERT_TRUE(hd.ok()) << hd.status().ToString();
  EXPECT_EQ(titan->memory, hd->memory);
  EXPECT_EQ(titan->stats.kernels_launched, hd->stats.kernels_launched);
  EXPECT_NE(titan->clock_us, hd->clock_us);
  EXPECT_EQ(titan->bank_mode, TitanProfile().opencl_bank_mode);
  EXPECT_EQ(hd->bank_mode, HD7970Profile().opencl_bank_mode);
}

}  // namespace
}  // namespace bridgecl
