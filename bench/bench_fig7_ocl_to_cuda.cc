// Figure 7 reproduction: OpenCL→CUDA translation. For every application in
// Rodinia / SNU NPB / CUDA Toolkit samples, measures the original OpenCL
// version and the translated CUDA version (the cl2cu wrapper binding:
// clBuildProgram runs the translator + "nvcc" at run time, Fig 2). For
// Rodinia, also the originally-shipped CUDA version (Fig 7a's third bar).
// Times are simulated and exclude program build, as in the paper. Every
// simulated time printed is also recorded in BENCH_fig7.json (per app and
// configuration), which tools/check_bench_regression.sh compares exactly.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

namespace bridgecl::bench {
namespace {

struct Row {
  std::string name;
  double cl_us = 0;
  double trans_cuda_us = 0;
  double orig_cuda_us = -1;  // Rodinia only
};

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / xs.size());
}

void RunSuite(const char* label, std::vector<apps::AppPtr> suite,
              bool with_orig_cuda, BenchReport& report) {
  printf("\n--- Figure 7 (%s): OpenCL -> CUDA ---\n", label);
  printf("%-22s %12s %14s %8s", "app", "OpenCL(us)", "transCUDA(us)",
         "ratio");
  if (with_orig_cuda) printf(" %13s %8s", "origCUDA(us)", "ratio");
  printf("\n");
  std::vector<double> ratios, orig_ratios;
  for (auto& app : suite) {
    if (!app->has_opencl()) continue;
    Row row;
    row.name = app->name();
    Measurement orig = RunApp(*app, Config::kClNativeTitan);
    // Trace the wrapped run: top commands are printed under each row and,
    // with BRIDGECL_TRACE_DIR set, the full Chrome trace is written too.
    RunOptions topt;
    topt.trace = true;
    topt.trace_path = TracePathFor(app->name(), Config::kClOnCudaTitan);
    Measurement trans = RunApp(*app, Config::kClOnCudaTitan, topt);
    if (!orig.ok || !trans.ok) {
      printf("%-22s TRANSLATION/RUN FAILED: %s\n", row.name.c_str(),
             (orig.ok ? trans.error : orig.error).c_str());
      continue;
    }
    if (orig.checksum != trans.checksum) {
      printf("%-22s RESULT MISMATCH (%.6g vs %.6g)\n", row.name.c_str(),
             orig.checksum, trans.checksum);
      continue;
    }
    row.cl_us = orig.time_us;
    row.trans_cuda_us = trans.time_us;
    report.SetTime(row.name, Config::kClNativeTitan, row.cl_us);
    report.SetTime(row.name, Config::kClOnCudaTitan, row.trans_cuda_us);
    double ratio = row.trans_cuda_us / row.cl_us;
    ratios.push_back(ratio);
    printf("%-22s %12.1f %14.1f %8.3f", row.name.c_str(), row.cl_us,
           row.trans_cuda_us, ratio);
    if (with_orig_cuda && app->has_cuda()) {
      Measurement oc = RunApp(*app, Config::kCudaNativeTitan);
      if (oc.ok) {
        report.SetTime(row.name, Config::kCudaNativeTitan, oc.time_us);
        double r2 = oc.time_us / row.cl_us;
        orig_ratios.push_back(r2);
        printf(" %13.1f %8.3f", oc.time_us, r2);
      }
    }
    printf("\n");
    printf("%-22s   top: %s\n", "", TopCommandsLine(trans, 3).c_str());
  }
  printf("%-22s %12s %14s %8.3f", "geomean(trans/orig)", "", "",
         GeoMean(ratios));
  if (with_orig_cuda && !orig_ratios.empty())
    printf(" %13s %8.3f", "", GeoMean(orig_ratios));
  printf("\n");
}

/// google-benchmark entries: one per suite, reporting the simulated time of
/// the translated-CUDA configuration as manual time.
void BM_TranslatedSuite(benchmark::State& state,
                        std::vector<apps::AppPtr> (*maker)()) {
  auto suite = maker();
  for (auto _ : state) {
    double total_us = 0;
    for (auto& app : suite) {
      if (!app->has_opencl()) continue;
      Measurement m = RunApp(*app, Config::kClOnCudaTitan);
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
      "Figure 7: execution time of translated CUDA vs original OpenCL "
      "(normalized to OpenCL; build time excluded)");
  BenchReport report("fig7");
  {
    // Rodinia's OpenCL side includes the apps whose *CUDA* versions are
    // untranslatable (paper: all 20 OpenCL apps translate in Fig 7a).
    auto rodinia = apps::RodiniaApps();
    for (auto& app : apps::RodiniaUntranslatableApps())
      if (app->has_opencl()) rodinia.push_back(std::move(app));
    RunSuite("a: Rodinia", std::move(rodinia), /*with_orig_cuda=*/true,
             report);
  }
  RunSuite("b: SNU NPB", apps::NpbApps(), /*with_orig_cuda=*/false, report);
  RunSuite("c: CUDA Toolkit samples", apps::ToolkitApps(),
           /*with_orig_cuda=*/false, report);
  report.WriteAndPrint();

  benchmark::RegisterBenchmark("fig7/rodinia_translated",
                               &BM_TranslatedSuite, &apps::RodiniaApps)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig7/npb_translated", &BM_TranslatedSuite,
                               &apps::NpbApps)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig7/toolkit_translated",
                               &BM_TranslatedSuite, &apps::ToolkitApps)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
