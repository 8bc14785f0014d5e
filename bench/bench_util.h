// Shared measurement harness for the paper-reproduction benchmarks. Every
// bench binary measures *simulated device time* (deterministic, from the
// simgpu clock), excluding run-time program-build cost as the paper does
// for OpenCL (§6.2: "the build time of OpenCL should be excluded for a
// fair comparison").
#pragma once

#include <map>
#include <optional>
#include <string>

#include "apps/app.h"
#include "cl2cu/cl_on_cuda.h"
#include "cu2cl/cuda_on_cl.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "simgpu/device.h"
#include "trace/exporters.h"

namespace bridgecl::bench {

/// One measured configuration of (host API, binding, device profile).
enum class Config {
  kClNativeTitan,    // original OpenCL on the NVIDIA profile
  kClOnCudaTitan,    // OpenCL app through the OpenCL→CUDA wrapper (Fig 7)
  kCudaNativeTitan,  // original CUDA
  kCudaOnClTitan,    // CUDA app through the CUDA→OpenCL wrapper (Fig 8)
  kCudaOnClAmd,      // the same, on the AMD profile (portability, Fig 8a)
  kClNativeAmd,
};

const char* ConfigName(Config c);
/// Filename-safe config identifier ("cl_on_cuda_titan", ...).
const char* ConfigSlug(Config c);

/// Per-run tracing controls (docs/OBSERVABILITY.md).
struct RunOptions {
  bool trace = false;      // attach a recorder; fills the trace fields
  std::string trace_path;  // non-empty: also write Chrome trace JSON here
};

struct Measurement {
  bool ok = false;
  std::string error;
  double time_us = 0;     // simulated, excluding program build
  double checksum = 0;
  uint64_t shared_bank_words = 0;  // §6.2 diagnostics
  // Filled when the run was traced (RunOptions::trace / trace_path):
  bool traced = false;
  std::vector<trace::CommandCost> top_commands;  // by exclusive time
  trace::WrapperOverhead wrapper_overhead;
};

/// Run `app` once under `config` on a fresh simulated device.
Measurement RunApp(apps::App& app, Config config);
Measurement RunApp(apps::App& app, Config config, const RunOptions& options);

/// Per-run trace destination honouring BRIDGECL_TRACE_DIR:
/// "<dir>/<app>_<config-slug>.trace.json", or "" when the variable is
/// unset (benches then trace in memory only).
std::string TracePathFor(const std::string& app_name, Config config);

/// Compact one-line rendering of the top `n` commands by exclusive
/// simulated time: "layer/name[kernel] 12.3us (xN)" joined with " | ".
std::string TopCommandsLine(const Measurement& m, size_t n);

/// Prints the bench banner with the simulated Table 2 configuration.
void PrintHeader(const std::string& title);

/// Machine-readable benchmark output, one file per bench binary, so the
/// perf trajectory can be compared across revisions. Records are
/// per-config named metrics (simulated microseconds, ratios, ...); Write
/// emits them as deterministic JSON to `BENCH_<name>.json` in
/// BRIDGECL_BENCH_DIR (or the working directory when unset):
///   {"bench": "<name>", "results": {"<config>": {"<metric>": <value>}}}
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Set(const std::string& config, const std::string& metric,
           double value) {
    results_[config][metric] = value;
  }
  /// Records `app`'s simulated time under `config` as "<config slug>_us".
  void SetTime(const std::string& app, Config config, double us) {
    Set(app, std::string(ConfigSlug(config)) + "_us", us);
  }

  /// Serializes the report (sorted keys: byte-stable across runs).
  std::string ToJson() const;
  /// Writes `BENCH_<name>.json`; returns the path written.
  StatusOr<std::string> Write() const;
  /// Write(), then print the path written to stdout or the error to
  /// stderr; returns whether the write succeeded.
  bool WriteAndPrint() const;

 private:
  std::string name_;
  std::map<std::string, std::map<std::string, double>> results_;
};

}  // namespace bridgecl::bench
