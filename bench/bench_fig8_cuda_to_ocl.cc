// Figure 8 reproduction: CUDA→OpenCL translation.
//   (a) Rodinia: four bars per app — original CUDA on Titan, translated
//       OpenCL on Titan (cu2cl wrapper), originally-shipped OpenCL on
//       Titan, translated OpenCL on the AMD HD7970 (portability: the
//       HD7970 cannot run CUDA at all). The seven untranslatable apps are
//       reported with their failure reasons, as in the paper.
//   (b) CUDA Toolkit samples: original CUDA vs translated OpenCL, with the
//       deviceQuery wrapper-overhead outlier (§6.3).
// Every simulated time printed is also recorded in BENCH_fig8.json (per app
// and configuration), which tools/check_bench_regression.sh compares
// exactly.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "translator/classifier.h"

namespace bridgecl::bench {
namespace {

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / xs.size());
}

void RunRodinia(BenchReport& report) {
  printf("\n--- Figure 8(a): Rodinia, CUDA -> OpenCL ---\n");
  printf("%-16s %11s %12s %12s %12s  %s\n", "app", "CUDA(us)",
         "transCL(us)", "origCL(us)", "transCL-AMD", "trans/CUDA");
  std::vector<double> ratios, orig_cl_ratios;
  for (auto& app : apps::RodiniaApps()) {
    if (!app->has_cuda()) continue;
    Measurement cu = RunApp(*app, Config::kCudaNativeTitan);
    RunOptions topt;
    topt.trace = true;
    topt.trace_path = TracePathFor(app->name(), Config::kCudaOnClTitan);
    Measurement tcl = RunApp(*app, Config::kCudaOnClTitan, topt);
    Measurement ocl = RunApp(*app, Config::kClNativeTitan);
    Measurement amd = RunApp(*app, Config::kCudaOnClAmd);
    if (!cu.ok || !tcl.ok) {
      printf("%-16s FAILED: %s\n", app->name().c_str(),
             (cu.ok ? tcl.error : cu.error).c_str());
      continue;
    }
    report.SetTime(app->name(), Config::kCudaNativeTitan, cu.time_us);
    report.SetTime(app->name(), Config::kCudaOnClTitan, tcl.time_us);
    if (ocl.ok)
      report.SetTime(app->name(), Config::kClNativeTitan, ocl.time_us);
    if (amd.ok)
      report.SetTime(app->name(), Config::kCudaOnClAmd, amd.time_us);
    double r = tcl.time_us / cu.time_us;
    ratios.push_back(r);
    if (ocl.ok) orig_cl_ratios.push_back(ocl.time_us / cu.time_us);
    printf("%-16s %11.1f %12.1f %12.1f %12.1f  %8.3f\n",
           app->name().c_str(), cu.time_us, tcl.time_us,
           ocl.ok ? ocl.time_us : -1.0, amd.ok ? amd.time_us : -1.0, r);
    printf("%-16s   top: %s\n", "", TopCommandsLine(tcl, 3).c_str());
  }
  printf("%-16s geomean trans/CUDA = %.3f; origCL/CUDA = %.3f\n", "",
         GeoMean(ratios), GeoMean(orig_cl_ratios));

  printf("\nUntranslatable Rodinia CUDA applications (paper: 7 of 21):\n");
  for (auto& app : apps::RodiniaUntranslatableApps()) {
    auto c = translator::ClassifyCudaApplication(app->FullCudaSource());
    std::string reasons;
    for (auto cat : c.Categories()) {
      if (!reasons.empty()) reasons += ", ";
      reasons += translator::FailureCategoryName(cat);
    }
    // heartwall-style failures surface at translation; texture-size
    // failures surface when the oversized texture is bound (§5).
    Measurement wrapped = RunApp(*app, Config::kCudaOnClTitan);
    printf("  %-16s translatable=%s  wrapper-run=%s  reason: %s\n",
           app->name().c_str(), c.translatable ? "yes" : "NO",
           wrapped.ok ? "ok (?)" : "failed",
           c.translatable ? wrapped.error.c_str() : reasons.c_str());
  }
}

void RunToolkit(BenchReport& report) {
  printf("\n--- Figure 8(b): CUDA Toolkit samples, CUDA -> OpenCL ---\n");
  printf("%-22s %11s %12s %10s\n", "app", "CUDA(us)", "transCL(us)",
         "ratio");
  std::vector<double> ratios;
  for (auto& app : apps::ToolkitApps()) {
    if (!app->has_cuda()) continue;
    Measurement cu = RunApp(*app, Config::kCudaNativeTitan);
    RunOptions topt;
    topt.trace = true;
    topt.trace_path = TracePathFor(app->name(), Config::kCudaOnClTitan);
    Measurement tcl = RunApp(*app, Config::kCudaOnClTitan, topt);
    if (!cu.ok || !tcl.ok) {
      printf("%-22s FAILED: %s\n", app->name().c_str(),
             (cu.ok ? tcl.error : cu.error).c_str());
      continue;
    }
    report.SetTime(app->name(), Config::kCudaNativeTitan, cu.time_us);
    report.SetTime(app->name(), Config::kCudaOnClTitan, tcl.time_us);
    double r = tcl.time_us / cu.time_us;
    if (app->name() != "deviceQuery") ratios.push_back(r);
    printf("%-22s %11.1f %12.1f %10.3f%s\n", app->name().c_str(),
           cu.time_us, tcl.time_us, r,
           app->name() == "deviceQuery"
               ? "   <- wrapper fans out clGetDeviceInfo (S6.3)"
               : "");
    printf("%-22s   top: %s\n", "", TopCommandsLine(tcl, 3).c_str());
    if (app->name() == "deviceQuery") {
      // The §6.3 outlier, attributed from the trace: one wrapper call
      // fanning out to many clGetDeviceInfo commands.
      const trace::WrapperOverhead& wo = tcl.wrapper_overhead;
      printf("%-22s   wrapper spans=%llu fanout=%llu gap=%.1fus "
             "(%.3f%% of traced time)\n",
             "", static_cast<unsigned long long>(wo.wrapper_calls),
             static_cast<unsigned long long>(wo.fanout_calls),
             wo.wrapper_gap_us, 100.0 * wo.fraction());
    }
  }
  printf("%-22s geomean (excl. deviceQuery) = %.3f\n", "",
         GeoMean(ratios));
}

void BM_TranslatedRodinia(benchmark::State& state) {
  auto suite = apps::RodiniaApps();
  for (auto _ : state) {
    double total_us = 0;
    for (auto& app : suite) {
      if (!app->has_cuda()) continue;
      Measurement m = RunApp(*app, Config::kCudaOnClTitan);
      if (m.ok) total_us += m.time_us;
    }
    state.SetIterationTime(total_us * 1e-6);
  }
}

}  // namespace
}  // namespace bridgecl::bench

int main(int argc, char** argv) {
  using namespace bridgecl;
  using namespace bridgecl::bench;
  PrintHeader(
      "Figure 8: execution time of translated OpenCL vs original CUDA "
      "(normalized to CUDA; OpenCL build time excluded)");
  BenchReport report("fig8");
  RunRodinia(report);
  RunToolkit(report);
  report.WriteAndPrint();

  benchmark::RegisterBenchmark("fig8/rodinia_translated_opencl",
                               &BM_TranslatedRodinia)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
