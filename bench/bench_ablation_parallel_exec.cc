// Block-parallel execution ablation (docs/PERFORMANCE.md): the same
// compute-heavy kernel batch interpreted serially (BRIDGECL_JOBS=1) and
// on a 4-worker pool. The kernel reads one buffer and writes another, so
// no block reads what another wrote and every launch commits its block
// logs instead of rerunning serially. The measured quantity is host
// wall-clock: simulated device time is bit-identical by construction
// (asserted, with checksums and per-engine busy time). Acceptance bar: >= 2x wall-clock
// speedup at 4 workers on both device profiles; the bar needs >= 4
// hardware threads and is reported as skipped on smaller hosts, where
// only the identity assertions gate. Results land in
// BENCH_parallel_exec.json for cross-revision tracking.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "interp/executor.h"

namespace bridgecl::bench {
namespace {

using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::DeviceProfile;
using simgpu::EngineId;
using simgpu::HD7970Profile;
using simgpu::TitanProfile;

// 64 blocks of 256 work-items, each spinning an FMA chain: enough
// per-block work that distributing block ranges across workers dwarfs
// the pool's dispatch/reduction overhead, small enough that the full
// serial-vs-pooled sweep stays in the seconds range.
constexpr int kElems = 16 * 1024;
constexpr int kLws = 256;
constexpr int kIters = 64;
constexpr int kLaunches = 2;

constexpr char kFmaChain[] =
    "__kernel void fma_chain(__global const float* in, __global float* out,"
    "                        int iters) {"
    "  int i = get_global_id(0);"
    "  float acc = in[i];"
    "  for (int k = 0; k < iters; k++) acc = acc * 1.0000001f + 0.25f;"
    "  out[i] = acc;"
    "}";

struct ExecResult {
  bool ok = false;
  double wall_ms = 0;       // host wall-clock of the measured launches
  double sim_us = 0;        // simulated clock at the end of the run
  double compute_busy = 0;  // simulated compute-engine busy time
  double checksum = 0;
};

/// One full run at `workers` host workers on a fresh device.
ExecResult RunBatch(const DeviceProfile& profile, int workers) {
  interp::SetWorkerCount(workers);
  Device dev(profile);
  auto cl = mocl::CreateNativeClApi(dev);
  ExecResult r;
  auto body = [&]() -> Status {
    BRIDGECL_ASSIGN_OR_RETURN(auto prog,
                              cl->CreateProgramWithSource(kFmaChain));
    BRIDGECL_RETURN_IF_ERROR(cl->BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel,
                              cl->CreateKernel(prog, "fma_chain"));
    std::vector<float> host(kElems, 1.0f);
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem in, cl->CreateBuffer(MemFlags::kReadOnly, kElems * 4,
                                   host.data()));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem out, cl->CreateBuffer(MemFlags::kWriteOnly, kElems * 4,
                                    nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 0, sizeof(ClMem), &in));
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 1, sizeof(ClMem),
                                              &out));
    int iters = kIters;
    BRIDGECL_RETURN_IF_ERROR(cl->SetKernelArg(kernel, 2, sizeof(int),
                                              &iters));
    size_t gws = kElems, lws = kLws;
    // Warm-up launch outside the measured window: absorbs the program
    // build and first-touch allocation costs.
    BRIDGECL_RETURN_IF_ERROR(cl->EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    BRIDGECL_RETURN_IF_ERROR(cl->Finish());

    const auto wall0 = std::chrono::steady_clock::now();
    for (int l = 0; l < kLaunches; ++l) {
      BRIDGECL_RETURN_IF_ERROR(
          cl->EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    }
    BRIDGECL_RETURN_IF_ERROR(cl->Finish());
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();

    std::vector<float> result(kElems);
    BRIDGECL_RETURN_IF_ERROR(
        cl->EnqueueReadBuffer(out, 0, kElems * 4, result.data()));
    for (float v : result) r.checksum += v;
    BRIDGECL_RETURN_IF_ERROR(cl->ReleaseMemObject(in));
    BRIDGECL_RETURN_IF_ERROR(cl->ReleaseMemObject(out));
    return OkStatus();
  };
  Status st = body();
  r.sim_us = dev.now_us();
  r.compute_busy = dev.EngineBusyUs(EngineId::kCompute);
  interp::SetWorkerCount(0);
  if (!st.ok()) {
    std::fprintf(stderr, "parallel-exec bench failed: %s\n",
                 st.ToString().c_str());
    return r;
  }
  r.ok = true;
  return r;
}

struct ProfileConfig {
  const char* slug;
  const DeviceProfile& (*profile)();
};

constexpr ProfileConfig kProfiles[] = {
    {"titan", TitanProfile},
    {"hd7970", HD7970Profile},
};

void BM_ParallelExec(benchmark::State& state) {
  const ProfileConfig& cfg = kProfiles[state.range(0)];
  const int workers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    ExecResult r = RunBatch(cfg.profile(), workers);
    state.SetIterationTime(r.wall_ms * 1e-3);
  }
}
BENCHMARK(BM_ParallelExec)
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bridgecl::bench

int main(int argc, char** argv) {
  using namespace bridgecl;
  using namespace bridgecl::bench;
  PrintHeader(
      "Ablation (docs/PERFORMANCE.md): block-parallel kernel execution. "
      "A hazard-free compute-heavy kernel batch interpreted serially vs "
      "on a 4-worker host pool; simulated results must be bit-identical, "
      "wall-clock bar: >= 2x at 4 workers (needs >= 4 hardware threads).");

  const unsigned hw = std::thread::hardware_concurrency();
  const bool bar_applies = hw >= 4;
  if (!bar_applies)
    printf("only %u hardware thread(s): the 2x bar is reported but not "
           "enforced\n\n", hw);

  BenchReport report("parallel_exec");
  bool all_pass = true;
  printf("%-8s %12s %12s %9s\n", "profile", "serial ms", "4 workers ms",
         "speedup");
  for (const ProfileConfig& cfg : kProfiles) {
    ExecResult serial = RunBatch(cfg.profile(), 1);
    ExecResult pooled = RunBatch(cfg.profile(), 4);
    bool ok = serial.ok && pooled.ok && pooled.wall_ms > 0;
    // Determinism gates unconditionally: the pool must not perturb the
    // simulated device in any observable way.
    if (ok && (serial.checksum != pooled.checksum ||
               serial.sim_us != pooled.sim_us ||
               serial.compute_busy != pooled.compute_busy)) {
      fprintf(stderr,
              "%s: simulated results diverged across worker counts "
              "(checksum %.17g vs %.17g, clock %.17g vs %.17g, compute "
              "busy %.17g vs %.17g)\n",
              cfg.slug, serial.checksum, pooled.checksum, serial.sim_us,
              pooled.sim_us, serial.compute_busy, pooled.compute_busy);
      ok = false;
    }
    const double speedup = ok ? serial.wall_ms / pooled.wall_ms : 0.0;
    const bool pass = ok && (!bar_applies || speedup >= 2.0);
    all_pass = all_pass && pass;
    printf("%-8s %12.2f %12.2f %8.2fx  %s\n", cfg.slug, serial.wall_ms,
           pooled.wall_ms, speedup,
           !ok ? "FAILED" : (bar_applies && speedup < 2.0)
               ? "BELOW 2x BAR" : "");
    report.Set(cfg.slug, "serial_wall_ms", serial.wall_ms);
    report.Set(cfg.slug, "pooled_wall_ms", pooled.wall_ms);
    report.Set(cfg.slug, "speedup", speedup);
    report.Set(cfg.slug, "sim_us", serial.sim_us);
    report.Set(cfg.slug, "bar_enforced", bar_applies ? 1.0 : 0.0);
  }
  report.WriteAndPrint();
  if (!all_pass) {
    fprintf(stderr, "FAIL: parallel execution ablation below the bar\n");
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
