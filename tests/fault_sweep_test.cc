// Exhaustive nth-fault sweep over both wrapper directions: a representative
// app (vector add) runs with a deterministic fault injected at every
// allocation / transfer / access / instruction ordinal in turn, and every
// run must terminate cleanly with a spec-conformant error code in the outer
// API's vocabulary — no assert, no crash, no leak of simulated global
// memory. This is the runtime counterpart of the paper's Table 3 failure
// classification; docs/ROBUSTNESS.md documents the expected mappings.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cl2cu/cl_on_cuda.h"
#include "cu2cl/cuda_on_cl.h"
#include "mcuda/cuda_api.h"
#include "mcuda/cuda_errors.h"
#include "mocl/cl_api.h"
#include "mocl/cl_errors.h"
#include "simgpu/device.h"
#include "simgpu/fault_injector.h"

namespace bridgecl {
namespace {

using mcuda::LaunchArg;
using mcuda::MemcpyKind;
using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::FaultKind;
using simgpu::FaultPlan;
using simgpu::FaultPoint;
using simgpu::FaultSite;
using simgpu::TitanProfile;

constexpr int kN = 8;

// A plan whose single point can never fire: arms the injector (so the
// per-site counters run) without perturbing the workload. Counting runs
// need this because unarmed devices skip the consult hooks entirely.
FaultPlan SentinelPlan() {
  FaultPlan plan;
  plan.points.push_back(FaultPoint{FaultSite::kGlobalAlloc, ~uint64_t{0},
                                   FaultKind::kError, false, 0});
  return plan;
}

// ---------------------------------------------------------------------------
// Direction A: OpenCL host code on the CUDA framework (cl2cu, §3.2).
// ---------------------------------------------------------------------------
struct Cl2CuStack {
  Device device{TitanProfile()};
  std::unique_ptr<mcuda::CudaApi> cuda = mcuda::CreateNativeCudaApi(device);
  std::unique_ptr<mocl::OpenClApi> cl = cl2cu::CreateClOnCudaApi(*cuda);
};

// The same vadd host driver as wrappers_test.cc, but it keeps every handle
// it acquired so a run aborted mid-way can still be released.
struct ClVaddRun {
  std::vector<ClMem> mems;
  std::vector<float> out = std::vector<float>(kN);

  Status Run(mocl::OpenClApi& cl) {
    const char* src =
        "__kernel void vadd(__global float* a, __global float* b,"
        "                   __global float* c, int n) {"
        "  int i = get_global_id(0);"
        "  if (i < n) c[i] = a[i] + b[i];"
        "}";
    std::vector<float> a(kN), b(kN);
    for (int i = 0; i < kN; ++i) {
      a[i] = 0.25f * i;
      b[i] = 1.5f * i;
    }
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "vadd"));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem ma, cl.CreateBuffer(MemFlags::kReadOnly, kN * 4, a.data()));
    mems.push_back(ma);
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem mb, cl.CreateBuffer(MemFlags::kReadOnly, kN * 4, b.data()));
    mems.push_back(mb);
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem mc, cl.CreateBuffer(MemFlags::kWriteOnly, kN * 4, nullptr));
    mems.push_back(mc);
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem), &ma));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, sizeof(ClMem), &mb));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 2, sizeof(ClMem), &mc));
    int n = kN;
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 3, sizeof(int), &n));
    size_t gws = kN, lws = 4;
    BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBuffer(mc, 0, kN * 4, out.data()));
    for (int i = 0; i < kN; ++i)
      if (out[i] != a[i] + b[i])
        return InternalError("vadd produced a wrong result");
    return OkStatus();
  }

  void Cleanup(mocl::OpenClApi& cl) {
    for (ClMem m : mems) (void)cl.ReleaseMemObject(m);
    mems.clear();
  }
};

// ---------------------------------------------------------------------------
// Direction B: CUDA host code on the OpenCL framework (cu2cl, §3.4).
// ---------------------------------------------------------------------------
struct Cu2ClStack {
  Device device{TitanProfile()};
  std::unique_ptr<mocl::OpenClApi> cl = mocl::CreateNativeClApi(device);
  std::unique_ptr<mcuda::CudaApi> cuda = cu2cl::CreateCudaOnClApi(*cl, {});
};

struct CuVaddRun {
  std::vector<void*> ptrs;
  std::vector<float> out = std::vector<float>(kN);

  Status Run(mcuda::CudaApi& cu) {
    const char* src =
        "__global__ void vadd(float* a, float* b, float* c, int n) {\n"
        "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
        "  if (i < n) c[i] = a[i] + b[i];\n"
        "}\n";
    std::vector<float> a(kN), b(kN);
    for (int i = 0; i < kN; ++i) {
      a[i] = 0.25f * i;
      b[i] = 1.5f * i;
    }
    BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(src));
    BRIDGECL_ASSIGN_OR_RETURN(void* da, cu.Malloc(kN * 4));
    ptrs.push_back(da);
    BRIDGECL_ASSIGN_OR_RETURN(void* db, cu.Malloc(kN * 4));
    ptrs.push_back(db);
    BRIDGECL_ASSIGN_OR_RETURN(void* dc, cu.Malloc(kN * 4));
    ptrs.push_back(dc);
    BRIDGECL_RETURN_IF_ERROR(
        cu.Memcpy(da, a.data(), kN * 4, MemcpyKind::kHostToDevice));
    BRIDGECL_RETURN_IF_ERROR(
        cu.Memcpy(db, b.data(), kN * 4, MemcpyKind::kHostToDevice));
    std::vector<LaunchArg> args = {LaunchArg::Ptr(da), LaunchArg::Ptr(db),
                                   LaunchArg::Ptr(dc), LaunchArg::Value(kN)};
    BRIDGECL_RETURN_IF_ERROR(
        cu.LaunchKernel("vadd", Dim3(2, 1, 1), Dim3(4, 1, 1), 0, args));
    BRIDGECL_RETURN_IF_ERROR(
        cu.Memcpy(out.data(), dc, kN * 4, MemcpyKind::kDeviceToHost));
    for (int i = 0; i < kN; ++i)
      if (out[i] != a[i] + b[i])
        return InternalError("vadd produced a wrong result");
    return OkStatus();
  }

  void Cleanup(mcuda::CudaApi& cu) {
    for (void* p : ptrs) (void)cu.Free(p);
    ptrs.clear();
  }
};

// Sites the vadd workload exercises; kGlobalFree gets a dedicated test
// because its faults fire during cleanup, not during the run.
const FaultSite kSweepSites[] = {
    FaultSite::kGlobalAlloc, FaultSite::kTransfer, FaultSite::kSharedAlloc,
    FaultSite::kMemoryAccess, FaultSite::kInstruction};

FaultPlan OneShot(FaultSite site, uint64_t nth,
                  FaultKind kind = FaultKind::kError) {
  FaultPlan plan;
  plan.points.push_back(FaultPoint{site, nth, kind, false, 0});
  return plan;
}

// ---------------------------------------------------------------------------
// The sweeps. Every injected fault must surface as a *spec* code of the
// outer API (right sign, name in the spec vocabulary), and alloc/transfer
// faults additionally as the exact codes the spec mandates for them.
// ---------------------------------------------------------------------------
TEST(FaultSweepTest, ClOnCudaEveryNthFault) {
  // Fault-free counting run (armed with a sentinel so counters tick).
  Cl2CuStack counter;
  counter.device.faults().set_plan(SentinelPlan());
  {
    ClVaddRun run;
    ASSERT_TRUE(run.Run(*counter.cl).ok());
    run.Cleanup(*counter.cl);
  }
  ASSERT_EQ(counter.device.vm().global_allocation_count(), 0u);

  const std::set<int> alloc_codes = {mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE,
                                     mocl::CL_BUILD_PROGRAM_FAILURE};
  const std::set<int> transfer_codes = {
      mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE, mocl::CL_OUT_OF_RESOURCES};

  for (FaultSite site : kSweepSites) {
    const uint64_t total = counter.device.faults().count(site);
    for (uint64_t nth = 0; nth < total; ++nth) {
      SCOPED_TRACE(std::string(simgpu::FaultSiteName(site)) + " #" +
                   std::to_string(nth));
      Cl2CuStack s;
      s.device.faults().set_plan(OneShot(site, nth));
      ClVaddRun run;
      Status st = run.Run(*s.cl);
      ASSERT_FALSE(st.ok());
      // Outer API is OpenCL: the code must be a negative CL error whose
      // name the spec vocabulary knows.
      EXPECT_TRUE(mocl::IsClCode(st.api_code())) << st.ToString();
      EXPECT_STRNE(mocl::ClErrorName(st.api_code()), "CL_UNKNOWN_ERROR")
          << st.ToString();
      if (site == FaultSite::kGlobalAlloc) {
        EXPECT_TRUE(alloc_codes.count(st.api_code())) << st.ToString();
      }
      if (site == FaultSite::kTransfer) {
        EXPECT_TRUE(transfer_codes.count(st.api_code())) << st.ToString();
      }
      run.Cleanup(*s.cl);
      EXPECT_EQ(s.device.vm().global_allocation_count(), 0u)
          << "leaked simulated memory";
    }
  }
}

TEST(FaultSweepTest, CudaOnClEveryNthFault) {
  Cu2ClStack counter;
  counter.device.faults().set_plan(SentinelPlan());
  {
    CuVaddRun run;
    ASSERT_TRUE(run.Run(*counter.cuda).ok());
    run.Cleanup(*counter.cuda);
  }
  ASSERT_EQ(counter.device.vm().global_allocation_count(), 0u);

  const std::set<int> alloc_codes = {mcuda::cudaErrorMemoryAllocation,
                                     mcuda::cudaErrorNoKernelImageForDevice};
  const std::set<int> transfer_codes = {mcuda::cudaErrorLaunchFailure};

  for (FaultSite site : kSweepSites) {
    const uint64_t total = counter.device.faults().count(site);
    for (uint64_t nth = 0; nth < total; ++nth) {
      SCOPED_TRACE(std::string(simgpu::FaultSiteName(site)) + " #" +
                   std::to_string(nth));
      Cu2ClStack s;
      s.device.faults().set_plan(OneShot(site, nth));
      CuVaddRun run;
      Status st = run.Run(*s.cuda);
      ASSERT_FALSE(st.ok());
      // Outer API is CUDA: the code must be a positive cudaError whose
      // name the spec vocabulary knows.
      EXPECT_TRUE(mcuda::IsCudaCode(st.api_code())) << st.ToString();
      EXPECT_STRNE(mcuda::CudaErrorName(st.api_code()),
                   "cudaErrorUnknownCode")
          << st.ToString();
      if (site == FaultSite::kGlobalAlloc) {
        EXPECT_TRUE(alloc_codes.count(st.api_code())) << st.ToString();
      }
      if (site == FaultSite::kTransfer) {
        EXPECT_TRUE(transfer_codes.count(st.api_code())) << st.ToString();
      }
      run.Cleanup(*s.cuda);
      EXPECT_EQ(s.device.vm().global_allocation_count(), 0u)
          << "leaked simulated memory";
    }
  }
}

// Free-site faults fire during cleanup: the first release reports a spec
// code, and releasing again succeeds once the point is consumed.
TEST(FaultSweepTest, ClOnCudaFreeFaultIsReportedThenRecovers) {
  Cl2CuStack s;
  ClVaddRun run;
  ASSERT_TRUE(run.Run(*s.cl).ok());
  s.device.faults().set_plan(OneShot(FaultSite::kGlobalFree, 0));

  int failures = 0;
  std::vector<ClMem> survivors;
  for (ClMem m : run.mems) {
    Status st = s.cl->ReleaseMemObject(m);
    if (!st.ok()) {
      ++failures;
      EXPECT_EQ(st.api_code(), mocl::CL_OUT_OF_RESOURCES) << st.ToString();
      survivors.push_back(m);
    }
  }
  EXPECT_EQ(failures, 1);
  for (ClMem m : survivors) EXPECT_TRUE(s.cl->ReleaseMemObject(m).ok());
  EXPECT_EQ(s.device.vm().global_allocation_count(), 0u);
}

TEST(FaultSweepTest, CudaOnClFreeFaultIsReportedThenRecovers) {
  Cu2ClStack s;
  CuVaddRun run;
  ASSERT_TRUE(run.Run(*s.cuda).ok());
  s.device.faults().set_plan(OneShot(FaultSite::kGlobalFree, 0));

  int failures = 0;
  std::vector<void*> survivors;
  for (void* p : run.ptrs) {
    Status st = s.cuda->Free(p);
    if (!st.ok()) {
      ++failures;
      // The inner CL layer reports the failed release as
      // CL_OUT_OF_RESOURCES; the wrapper re-expresses that as CUDA's
      // sticky launch-failure code (docs/ROBUSTNESS.md, Table B).
      EXPECT_EQ(st.api_code(), mcuda::cudaErrorLaunchFailure)
          << st.ToString();
      survivors.push_back(p);
    }
  }
  EXPECT_EQ(failures, 1);
  for (void* p : survivors) EXPECT_TRUE(s.cuda->Free(p).ok());
  EXPECT_EQ(s.device.vm().global_allocation_count(), 0u);
}

// ---------------------------------------------------------------------------
// Asynchronous commands defer their faults: a non-blocking enqueue reports
// success, the error parks on the queue and surfaces — once — at the next
// synchronization point (docs/ROBUSTNESS.md, docs/CONCURRENCY.md).
// ---------------------------------------------------------------------------
TEST(FaultSweepTest, ClOnCudaAsyncFaultDefersToFinish) {
  Cl2CuStack s;
  s.device.faults().set_plan(OneShot(FaultSite::kTransfer, 0));
  auto q = s.cl->CreateCommandQueue(0);
  ASSERT_TRUE(q.ok());
  auto buf = s.cl->CreateBuffer(MemFlags::kReadWrite, 64, nullptr);
  ASSERT_TRUE(buf.ok());
  std::vector<float> host(16, 1.0f);
  // The transfer is faulted, but the enqueue is non-blocking: it reports
  // success...
  Status enq = s.cl->EnqueueWriteBufferOn(*q, *buf, 0, 64, host.data(),
                                          /*blocking=*/false, {}, nullptr);
  EXPECT_TRUE(enq.ok()) << enq.ToString();
  // ...and the parked error surfaces at clFinish, in CL vocabulary.
  Status st = s.cl->Finish(*q);
  ASSERT_FALSE(st.ok());
  const std::set<int> codes = {mocl::CL_MEM_OBJECT_ALLOCATION_FAILURE,
                               mocl::CL_OUT_OF_RESOURCES};
  EXPECT_TRUE(codes.count(st.api_code())) << st.ToString();
  // Surfacing clears it: the queue is usable again.
  EXPECT_TRUE(s.cl->Finish(*q).ok());
  EXPECT_TRUE(s.cl->ReleaseCommandQueue(*q).ok());
  EXPECT_TRUE(s.cl->ReleaseMemObject(*buf).ok());
  EXPECT_EQ(s.device.vm().global_allocation_count(), 0u);
}

TEST(FaultSweepTest, CudaOnClAsyncFaultDefersToStreamSynchronize) {
  Cu2ClStack s;
  s.device.faults().set_plan(OneShot(FaultSite::kTransfer, 0));
  auto stream = s.cuda->StreamCreate();
  ASSERT_TRUE(stream.ok());
  auto p = s.cuda->Malloc(64);
  ASSERT_TRUE(p.ok());
  std::vector<float> host(16, 1.0f);
  Status enq = s.cuda->MemcpyAsync(*p, host.data(), 64,
                                   MemcpyKind::kHostToDevice, *stream);
  EXPECT_TRUE(enq.ok()) << enq.ToString();
  Status st = s.cuda->StreamSynchronize(*stream);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.api_code(), mcuda::cudaErrorLaunchFailure) << st.ToString();
  EXPECT_TRUE(s.cuda->StreamSynchronize(*stream).ok());
  EXPECT_TRUE(s.cuda->StreamDestroy(*stream).ok());
  EXPECT_TRUE(s.cuda->Free(*p).ok());
  EXPECT_EQ(s.device.vm().global_allocation_count(), 0u);
}

// ---------------------------------------------------------------------------
// Sticky device loss: every call after the loss reports the one spec code
// the API has for it, until the context is torn down; a fresh context on
// the same device works.
// ---------------------------------------------------------------------------
TEST(FaultSweepTest, ClOnCudaDeviceLostIsStickyUntilContextRelease) {
  Cl2CuStack s;
  s.device.faults().set_plan(
      OneShot(FaultSite::kTransfer, 0, FaultKind::kDeviceLost));
  ClVaddRun run;
  Status st = run.Run(*s.cl);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.api_code(), mocl::CL_OUT_OF_RESOURCES) << st.ToString();
  EXPECT_EQ(st.code(), StatusCode::kDeviceLost);

  // Sticky: an unrelated entry point keeps failing the same way.
  auto again = s.cl->CreateBuffer(MemFlags::kReadWrite, 64, nullptr);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().api_code(), mocl::CL_OUT_OF_RESOURCES);
  EXPECT_EQ(again.status().code(), StatusCode::kDeviceLost);

  // Release the context, acquire a fresh one: the device works again.
  s.device.faults().ResetContext();
  ClVaddRun fresh;
  EXPECT_TRUE(fresh.Run(*s.cl).ok());
  fresh.Cleanup(*s.cl);
}

TEST(FaultSweepTest, CudaOnClDeviceLostIsStickyUntilContextRelease) {
  Cu2ClStack s;
  s.device.faults().set_plan(
      OneShot(FaultSite::kTransfer, 0, FaultKind::kDeviceLost));
  CuVaddRun run;
  Status st = run.Run(*s.cuda);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.api_code(), mcuda::cudaErrorDevicesUnavailable)
      << st.ToString();
  EXPECT_EQ(st.code(), StatusCode::kDeviceLost);

  auto again = s.cuda->Malloc(64);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().api_code(), mcuda::cudaErrorDevicesUnavailable);
  EXPECT_EQ(again.status().code(), StatusCode::kDeviceLost);

  s.device.faults().ResetContext();
  run.Cleanup(*s.cuda);
  EXPECT_EQ(s.device.vm().global_allocation_count(), 0u);
  CuVaddRun fresh;
  EXPECT_TRUE(fresh.Run(*s.cuda).ok());
  fresh.Cleanup(*s.cuda);
}

// ---------------------------------------------------------------------------
// Transient faults: the API layers retry a bounded number of times, so a
// once-only transient failure is invisible to the application.
// ---------------------------------------------------------------------------
TEST(FaultSweepTest, TransientAllocFaultIsRetriedToSuccess) {
  {
    Cl2CuStack s;
    FaultPlan plan;
    plan.points.push_back(FaultPoint{FaultSite::kGlobalAlloc, 0,
                                     FaultKind::kError, /*transient=*/true,
                                     0});
    s.device.faults().set_plan(plan);
    ClVaddRun run;
    EXPECT_TRUE(run.Run(*s.cl).ok());
    run.Cleanup(*s.cl);
  }
  {
    Cu2ClStack s;
    FaultPlan plan;
    plan.points.push_back(FaultPoint{FaultSite::kTransfer, 0,
                                     FaultKind::kError, /*transient=*/true,
                                     0});
    s.device.faults().set_plan(plan);
    CuVaddRun run;
    EXPECT_TRUE(run.Run(*s.cuda).ok());
    run.Cleanup(*s.cuda);
  }
}

// ---------------------------------------------------------------------------
// Truncated transfers: a partial DMA still fails with a spec code, and the
// diagnostic says how far it got.
// ---------------------------------------------------------------------------
TEST(FaultSweepTest, TruncatedTransferReportsPartialProgress) {
  Cl2CuStack s;
  FaultPlan plan;
  plan.points.push_back(FaultPoint{FaultSite::kTransfer, 0,
                                   FaultKind::kTruncate, false,
                                   /*truncate_to=*/4});
  s.device.faults().set_plan(plan);
  ClVaddRun run;
  Status st = run.Run(*s.cl);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(mocl::IsClCode(st.api_code())) << st.ToString();
  EXPECT_NE(st.message().find("truncated after"), std::string::npos)
      << st.ToString();
  run.Cleanup(*s.cl);
  EXPECT_EQ(s.device.vm().global_allocation_count(), 0u);
}

}  // namespace
}  // namespace bridgecl
