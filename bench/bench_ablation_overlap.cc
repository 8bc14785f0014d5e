// Copy/compute-overlap ablation (docs/CONCURRENCY.md): a multi-chunk
// upload+process workload run twice per configuration — serialized on the
// default queue/stream with blocking transfers, then pipelined with one
// in-order queue/stream per chunk and non-blocking transfers. With the
// dual-engine timing model the pipelined form hides each chunk's transfer
// under the previous chunk's kernel; the acceptance bar is a >= 1.3x
// simulated speedup on both device profiles, in both translation
// directions. Results also land in BENCH_overlap.json for cross-revision
// tracking.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace bridgecl::bench {
namespace {

using mcuda::LaunchArg;
using mcuda::MemcpyKind;
using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::DeviceProfile;
using simgpu::Dim3;
using simgpu::HD7970Profile;
using simgpu::TitanProfile;

// 4 chunks of 16K floats: each upload is ~chunk_bytes/bandwidth of copy
// engine time, and the spin kernel is tuned to cost the same order of
// magnitude, which is where pipelining pays.
constexpr int kChunks = 4;
constexpr int kChunkElems = 8 * 1024;
constexpr size_t kChunkBytes = kChunkElems * 4;
constexpr int kIters = 8;
constexpr int kLws = 256;

constexpr char kClSpin[] =
    "__kernel void spin(__global float* g, int iters) {"
    "  int i = get_global_id(0);"
    "  float acc = g[i];"
    "  for (int k = 0; k < iters; k++) acc = acc * 1.0001f + 0.5f;"
    "  g[i] = acc;"
    "}";

constexpr char kCudaSpin[] =
    "__global__ void spin(float* g, int iters) {"
    "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
    "  float acc = g[i];"
    "  for (int k = 0; k < iters; k++) acc = acc * 1.0001f + 0.5f;"
    "  g[i] = acc;"
    "}";

struct VariantResult {
  bool ok = false;
  double time_us = 0;       // simulated, measured after the warm-up build
  double overlap_ratio = 0; // engine-overlap us / elapsed us
};

/// OpenCL host driver (runs through cl2cu in the wrapper config).
VariantResult RunClChunks(mocl::OpenClApi& cl, Device& dev, bool pipelined) {
  VariantResult r;
  auto body = [&]() -> Status {
    BRIDGECL_ASSIGN_OR_RETURN(auto prog,
                              cl.CreateProgramWithSource(kClSpin));
    BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "spin"));
    std::vector<float> host(kChunkElems, 1.0f);
    std::vector<ClMem> bufs(kChunks);
    for (int c = 0; c < kChunks; ++c) {
      BRIDGECL_ASSIGN_OR_RETURN(
          bufs[c],
          cl.CreateBuffer(MemFlags::kReadWrite, kChunkBytes, nullptr));
    }
    int iters = kIters;
    size_t gws = kChunkElems, lws = kLws;
    // Warm-up launch outside the measured window: absorbs the one-time
    // translation/build cost in the wrapper config.
    BRIDGECL_RETURN_IF_ERROR(
        cl.SetKernelArg(kernel, 0, sizeof(ClMem), &bufs[0]));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, sizeof(int), &iters));
    BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    BRIDGECL_RETURN_IF_ERROR(cl.Finish());

    const double t0 = cl.NowUs();
    const double overlap0 = dev.EngineOverlapUs();
    if (!pipelined) {
      for (int c = 0; c < kChunks; ++c) {
        BRIDGECL_RETURN_IF_ERROR(
            cl.EnqueueWriteBuffer(bufs[c], 0, kChunkBytes, host.data()));
        BRIDGECL_RETURN_IF_ERROR(
            cl.SetKernelArg(kernel, 0, sizeof(ClMem), &bufs[c]));
        BRIDGECL_RETURN_IF_ERROR(
            cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
      }
      BRIDGECL_RETURN_IF_ERROR(cl.Finish());
    } else {
      std::vector<mocl::ClQueue> queues(kChunks);
      for (int c = 0; c < kChunks; ++c) {
        BRIDGECL_ASSIGN_OR_RETURN(queues[c], cl.CreateCommandQueue(0));
      }
      for (int c = 0; c < kChunks; ++c) {
        BRIDGECL_RETURN_IF_ERROR(cl.EnqueueWriteBufferOn(
            queues[c], bufs[c], 0, kChunkBytes, host.data(),
            /*blocking=*/false, {}, nullptr));
        BRIDGECL_RETURN_IF_ERROR(
            cl.SetKernelArg(kernel, 0, sizeof(ClMem), &bufs[c]));
        BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernelOn(
            queues[c], kernel, 1, &gws, &lws, {}, nullptr));
      }
      for (int c = 0; c < kChunks; ++c)
        BRIDGECL_RETURN_IF_ERROR(cl.Finish(queues[c]));
      for (int c = 0; c < kChunks; ++c)
        BRIDGECL_RETURN_IF_ERROR(cl.ReleaseCommandQueue(queues[c]));
    }
    r.time_us = cl.NowUs() - t0;
    if (r.time_us > 0)
      r.overlap_ratio = (dev.EngineOverlapUs() - overlap0) / r.time_us;
    for (int c = 0; c < kChunks; ++c)
      BRIDGECL_RETURN_IF_ERROR(cl.ReleaseMemObject(bufs[c]));
    return OkStatus();
  };
  Status st = body();
  if (!st.ok()) {
    std::fprintf(stderr, "overlap bench (CL) failed: %s\n",
                 st.ToString().c_str());
    return r;
  }
  r.ok = true;
  return r;
}

/// CUDA host driver (runs through cu2cl in the wrapper config).
VariantResult RunCuChunks(mcuda::CudaApi& cu, Device& dev, bool pipelined) {
  VariantResult r;
  auto body = [&]() -> Status {
    BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(kCudaSpin));
    std::vector<float> host(kChunkElems, 1.0f);
    std::vector<void*> bufs(kChunks);
    for (int c = 0; c < kChunks; ++c) {
      BRIDGECL_ASSIGN_OR_RETURN(bufs[c], cu.Malloc(kChunkBytes));
    }
    const Dim3 grid(kChunkElems / kLws), block(kLws);
    auto args_for = [&](int c) {
      return std::vector<LaunchArg>{LaunchArg::Ptr(bufs[c]),
                                    LaunchArg::Value<int>(kIters)};
    };
    // Warm-up launch outside the measured window (lazy build in cu2cl).
    std::vector<LaunchArg> warm = args_for(0);
    BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel("spin", grid, block, 0, warm));
    BRIDGECL_RETURN_IF_ERROR(cu.DeviceSynchronize());

    const double t0 = cu.NowUs();
    const double overlap0 = dev.EngineOverlapUs();
    if (!pipelined) {
      for (int c = 0; c < kChunks; ++c) {
        BRIDGECL_RETURN_IF_ERROR(cu.Memcpy(bufs[c], host.data(), kChunkBytes,
                                           MemcpyKind::kHostToDevice));
        std::vector<LaunchArg> args = args_for(c);
        BRIDGECL_RETURN_IF_ERROR(
            cu.LaunchKernel("spin", grid, block, 0, args));
      }
      BRIDGECL_RETURN_IF_ERROR(cu.DeviceSynchronize());
    } else {
      std::vector<void*> streams(kChunks);
      for (int c = 0; c < kChunks; ++c) {
        BRIDGECL_ASSIGN_OR_RETURN(streams[c], cu.StreamCreate());
      }
      for (int c = 0; c < kChunks; ++c) {
        BRIDGECL_RETURN_IF_ERROR(
            cu.MemcpyAsync(bufs[c], host.data(), kChunkBytes,
                           MemcpyKind::kHostToDevice, streams[c]));
        std::vector<LaunchArg> args = args_for(c);
        BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernelOnStream(
            "spin", grid, block, 0, args, streams[c]));
      }
      for (int c = 0; c < kChunks; ++c)
        BRIDGECL_RETURN_IF_ERROR(cu.StreamSynchronize(streams[c]));
      for (int c = 0; c < kChunks; ++c)
        BRIDGECL_RETURN_IF_ERROR(cu.StreamDestroy(streams[c]));
    }
    r.time_us = cu.NowUs() - t0;
    if (r.time_us > 0)
      r.overlap_ratio = (dev.EngineOverlapUs() - overlap0) / r.time_us;
    for (int c = 0; c < kChunks; ++c)
      BRIDGECL_RETURN_IF_ERROR(cu.Free(bufs[c]));
    return OkStatus();
  };
  Status st = body();
  if (!st.ok()) {
    std::fprintf(stderr, "overlap bench (CUDA) failed: %s\n",
                 st.ToString().c_str());
    return r;
  }
  r.ok = true;
  return r;
}

/// One (direction, profile) configuration; fresh device per variant so
/// engine accounting starts clean.
VariantResult MeasureVariant(bool cl_direction, const DeviceProfile& profile,
                             bool pipelined) {
  Device dev(profile);
  if (cl_direction) {
    // OpenCL app through the OpenCL->CUDA wrapper.
    auto cuda = mcuda::CreateNativeCudaApi(dev);
    auto cl = cl2cu::CreateClOnCudaApi(*cuda);
    return RunClChunks(*cl, dev, pipelined);
  }
  // CUDA app through the CUDA->OpenCL wrapper.
  auto cl = mocl::CreateNativeClApi(dev);
  auto cuda = cu2cl::CreateCudaOnClApi(*cl);
  return RunCuChunks(*cuda, dev, pipelined);
}

struct BenchConfig {
  const char* slug;
  bool cl_direction;
  const DeviceProfile& (*profile)();
};

constexpr BenchConfig kConfigs[] = {
    {"cl2cu_titan", true, TitanProfile},
    {"cl2cu_hd7970", true, HD7970Profile},
    {"cu2cl_titan", false, TitanProfile},
    {"cu2cl_hd7970", false, HD7970Profile},
};

void BM_Overlap(benchmark::State& state) {
  const BenchConfig& cfg = kConfigs[state.range(0)];
  const bool pipelined = state.range(1) != 0;
  for (auto _ : state) {
    VariantResult r = MeasureVariant(cfg.cl_direction, cfg.profile(),
                                     pipelined);
    state.SetIterationTime(r.time_us * 1e-6);
  }
}
BENCHMARK(BM_Overlap)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bridgecl::bench

int main(int argc, char** argv) {
  using namespace bridgecl;
  using namespace bridgecl::bench;
  PrintHeader(
      "Ablation (docs/CONCURRENCY.md): copy/compute overlap. A 4-chunk "
      "upload+process workload, serialized on the default queue vs "
      "pipelined across per-chunk in-order queues/streams, under both "
      "wrapper directions and both device profiles. The dual-engine "
      "scheduler hides transfers under kernels; bar: >= 1.3x.");

  BenchReport report("overlap");
  bool all_pass = true;
  printf("%-14s %14s %14s %9s %14s\n", "config", "serialized us",
         "pipelined us", "speedup", "overlap ratio");
  for (const BenchConfig& cfg : kConfigs) {
    VariantResult serial =
        MeasureVariant(cfg.cl_direction, cfg.profile(), false);
    VariantResult piped =
        MeasureVariant(cfg.cl_direction, cfg.profile(), true);
    const bool ok = serial.ok && piped.ok && piped.time_us > 0;
    const double speedup = ok ? serial.time_us / piped.time_us : 0.0;
    const bool pass = ok && speedup >= 1.3;
    all_pass = all_pass && pass;
    printf("%-14s %14.1f %14.1f %8.2fx %14.3f  %s\n", cfg.slug,
           serial.time_us, piped.time_us, speedup, piped.overlap_ratio,
           pass ? "" : "BELOW 1.3x BAR");
    report.Set(cfg.slug, "serialized_us", serial.time_us);
    report.Set(cfg.slug, "pipelined_us", piped.time_us);
    report.Set(cfg.slug, "speedup", speedup);
    report.Set(cfg.slug, "overlap_ratio", piped.overlap_ratio);
  }
  report.WriteAndPrint();
  if (!all_pass) {
    fprintf(stderr, "FAIL: pipelined speedup below the 1.3x bar\n");
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
