// bridgecl: the translator as a command-line tool.
//
//   bridgecl --to=cuda   kernel.cl          # OpenCL C -> CUDA device code
//   bridgecl --to=opencl kernel.cu          # CUDA -> OpenCL device code
//   bridgecl --host      main.cu            # split + rewrite a mixed file
//   bridgecl --host -o out/ main.cu         # write main.cu.cl + main.cu.cpp
//   bridgecl --classify  main.cu            # Table 3-style triage
//   bridgecl --to=opencl --emulate-atomics kernel.cu
//   bridgecl --profile                      # trace a wrapped demo workload
//
// Reads from stdin when no file is given. Prints translated source on
// stdout; diagnostics on stderr. --profile takes no input: it runs a
// built-in launch/copy workload through the CUDA→OpenCL wrapper on the
// simulated device and prints the trace summary (docs/OBSERVABILITY.md);
// BRIDGECL_TRACE=<file> additionally writes the Chrome trace JSON.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cu2cl/cuda_on_cl.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "simgpu/device.h"
#include "trace/exporters.h"
#include "trace/session.h"
#include "translator/classifier.h"
#include "translator/host_rewriter.h"
#include "translator/translate.h"

using namespace bridgecl;

namespace {

int Usage() {
  fprintf(stderr,
          "usage: bridgecl [--to=cuda|opencl] [--host] [--classify]\n"
          "                [--profile] [--emulate-atomics] [file]\n"
          "exit codes: 0 ok, 2 usage, 3 i/o, 10+N translation failure\n"
          "            where N is the StatusCode (untranslatable = %d)\n",
          10 + static_cast<int>(StatusCode::kUntranslatable));
  return 2;
}

std::string ReadAll(std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Scripted callers branch on the failure kind: each StatusCode gets its
/// own exit code, above the usage (2) and file-i/o (3) codes.
int ExitCodeFor(const Status& st) {
  return 10 + static_cast<int>(st.code());
}

/// Report a failed translation: the status class and message, then —
/// for CUDA input, where the Table 3 classifier applies — the failure
/// catalog's triage of the source, so the user sees *which category* of
/// feature blocked the translation rather than only the first error.
int FailCuda(const Status& st, const DiagnosticEngine& diags,
             const std::string& source,
             const translator::TranslateOptions& opts) {
  fprintf(stderr, "error [%s]: %s\n", StatusCodeName(st.code()),
          std::string(st.message()).c_str());
  auto c = translator::ClassifyCudaApplication(source, opts);
  if (!c.translatable) {
    fprintf(stderr, "failure classification (Table 3):\n");
    for (const auto& issue : c.issues)
      fprintf(stderr, "  [%s] %s\n",
              translator::FailureCategoryName(issue.category),
              issue.evidence.c_str());
  } else {
    fputs(diags.ToString().c_str(), stderr);
  }
  return ExitCodeFor(st);
}

int FailOpenCl(const Status& st, const DiagnosticEngine& diags) {
  fprintf(stderr, "error [%s]: %s\n%s", StatusCodeName(st.code()),
          std::string(st.message()).c_str(), diags.ToString().c_str());
  return ExitCodeFor(st);
}

/// --profile: a built-in launch/copy workload plus one device query run
/// through the CUDA→OpenCL wrapper on the simulated Titan, then the
/// per-kernel summary and wrapper-overhead attribution from the trace
/// recorder. The session also honors BRIDGECL_TRACE for the JSON file.
int ProfileDemo() {
  simgpu::Device device(simgpu::TitanProfile());
  trace::SessionOptions topt = trace::SessionOptionsFromEnv();
  topt.summary = false;  // the summary goes to stdout here, not stderr
  trace::TraceSession session(device, topt);
  auto cl = mocl::CreateNativeClApi(device);
  auto cu = cu2cl::CreateCudaOnClApi(*cl);
  static constexpr char kNoop[] =
      "__global__ void noop(int* p) { if (threadIdx.x == 0) p[0] += 1; }";
  auto fail = [](const Status& st) {
    fprintf(stderr, "profile workload failed: %s\n", st.ToString().c_str());
    return 1;
  };
  Status st = cu->RegisterModule(kNoop);
  if (!st.ok()) return fail(st);
  auto p = cu->Malloc(64);
  if (!p.ok()) return fail(p.status());
  int v = 0;
  for (int i = 0; i < 16; ++i) {
    std::vector<mcuda::LaunchArg> args = {mcuda::LaunchArg::Ptr(*p)};
    st = cu->LaunchKernel("noop", simgpu::Dim3(4), simgpu::Dim3(64), 0,
                          args);
    if (!st.ok()) return fail(st);
    st = cu->Memcpy(&v, *p, 4, mcuda::MemcpyKind::kDeviceToHost);
    if (!st.ok()) return fail(st);
  }
  if (!cu->GetDeviceProperties().ok()) return 1;
  fputs(trace::SummaryTable(session.recorder()).c_str(), stdout);
  st = session.Flush();
  if (!st.ok()) {
    fprintf(stderr, "cannot write trace: %s\n", st.ToString().c_str());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kNone, kToCuda, kToOpenCl, kHost, kClassify, kProfile };
  Mode mode = Mode::kNone;
  translator::TranslateOptions opts;
  std::string file;
  std::string out_dir;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--to=cuda") {
      mode = Mode::kToCuda;
    } else if (arg == "--to=opencl") {
      mode = Mode::kToOpenCl;
    } else if (arg == "--host") {
      mode = Mode::kHost;
    } else if (arg == "--classify") {
      mode = Mode::kClassify;
    } else if (arg == "--profile") {
      mode = Mode::kProfile;
    } else if (arg == "--emulate-atomics") {
      opts.allow_atomic_emulation = true;
    } else if (arg == "-o") {
      if (i + 1 >= argc) return Usage();
      out_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      file = arg;
    }
  }
  if (mode == Mode::kNone) return Usage();
  if (mode == Mode::kProfile) return ProfileDemo();

  std::string source;
  if (file.empty()) {
    source = ReadAll(std::cin);
  } else {
    std::ifstream in(file);
    if (!in) {
      fprintf(stderr, "cannot open %s\n", file.c_str());
      return 3;
    }
    source = ReadAll(in);
  }

  DiagnosticEngine diags;
  switch (mode) {
    case Mode::kToCuda: {
      auto r = translator::TranslateOpenClToCuda(source, diags, opts);
      if (!r.ok()) return FailOpenCl(r.status(), diags);
      fputs(r->source.c_str(), stdout);
      return 0;
    }
    case Mode::kToOpenCl: {
      auto r = translator::TranslateCudaToOpenCl(source, diags, opts);
      if (!r.ok()) return FailCuda(r.status(), diags, source, opts);
      fputs(r->source.c_str(), stdout);
      return 0;
    }
    case Mode::kHost: {
      auto r = translator::RewriteCudaHostCode(source, diags, opts);
      if (!r.ok()) return FailCuda(r.status(), diags, source, opts);
      std::string stem = file.empty() ? "out" : file;
      // Strip any directory component for the output names.
      size_t slash = stem.find_last_of('/');
      if (slash != std::string::npos) stem = stem.substr(slash + 1);
      if (!out_dir.empty()) {
        // Figure 3's file pair: <stem>.cl (device) + <stem>.cpp (host).
        std::string base = out_dir + "/" + stem;
        std::ofstream dev(base + ".cl");
        std::ofstream host(base + ".cpp");
        if (!dev || !host) {
          fprintf(stderr, "cannot write into %s\n", out_dir.c_str());
          return 3;
        }
        dev << r->device_source;
        host << r->host_source;
        printf("wrote %s.cl and %s.cpp\n", base.c_str(), base.c_str());
        return 0;
      }
      printf("/* ===== %s.cl (device) ===== */\n%s\n", stem.c_str(),
             r->device_source.c_str());
      printf("/* ===== %s.cpp (host) ===== */\n%s\n", stem.c_str(),
             r->host_source.c_str());
      return 0;
    }
    case Mode::kClassify: {
      auto c = translator::ClassifyCudaApplication(source, opts);
      if (c.translatable) {
        printf("translatable to OpenCL (%zu kernels)\n",
               c.translation.kernels.size());
        for (const auto& k : c.translation.kernels)
          printf("  kernel %s: %d params%s, %zu textures, %zu symbols\n",
                 k.name.c_str(), k.original_param_count,
                 k.has_dynamic_shared ? " + dynamic shared" : "",
                 k.texture_params.size(), k.symbol_params.size());
        return 0;
      }
      printf("NOT translatable to OpenCL:\n");
      for (const auto& issue : c.issues)
        printf("  [%s] %s\n",
               translator::FailureCategoryName(issue.category),
               issue.evidence.c_str());
      return 10 + static_cast<int>(StatusCode::kUntranslatable);
    }
    case Mode::kNone:
    case Mode::kProfile:  // handled above
      break;
  }
  return Usage();
}
