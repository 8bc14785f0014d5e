#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "support/strings.h"
#include "trace/session.h"

namespace bridgecl::bench {

using simgpu::Device;
using simgpu::HD7970Profile;
using simgpu::TitanProfile;

const char* ConfigName(Config c) {
  switch (c) {
    case Config::kClNativeTitan: return "OpenCL (native, Titan)";
    case Config::kClOnCudaTitan: return "OpenCL->CUDA wrapper (Titan)";
    case Config::kCudaNativeTitan: return "CUDA (native, Titan)";
    case Config::kCudaOnClTitan: return "CUDA->OpenCL wrapper (Titan)";
    case Config::kCudaOnClAmd: return "CUDA->OpenCL wrapper (HD7970)";
    case Config::kClNativeAmd: return "OpenCL (native, HD7970)";
  }
  return "?";
}

const char* ConfigSlug(Config c) {
  switch (c) {
    case Config::kClNativeTitan: return "cl_native_titan";
    case Config::kClOnCudaTitan: return "cl_on_cuda_titan";
    case Config::kCudaNativeTitan: return "cuda_native_titan";
    case Config::kCudaOnClTitan: return "cuda_on_cl_titan";
    case Config::kCudaOnClAmd: return "cuda_on_cl_hd7970";
    case Config::kClNativeAmd: return "cl_native_hd7970";
  }
  return "unknown";
}

Measurement RunApp(apps::App& app, Config config) {
  return RunApp(app, config, RunOptions{});
}

Measurement RunApp(apps::App& app, Config config, const RunOptions& options) {
  Measurement m;
  const simgpu::DeviceProfile& profile =
      (config == Config::kCudaOnClAmd || config == Config::kClNativeAmd)
          ? HD7970Profile()
          : TitanProfile();
  Device device(profile);
  // Attach the programmatic session before the API stack is built so the
  // native factories' BRIDGECL_TRACE auto-attach sees the device as
  // already traced and stands down (docs/OBSERVABILITY.md).
  std::optional<trace::TraceSession> session;
  if (options.trace || !options.trace_path.empty()) {
    trace::SessionOptions topt;
    topt.trace_path = options.trace_path;
    session.emplace(device, topt);
  }
  Status st;
  double build_us = 0;
  switch (config) {
    case Config::kClNativeTitan:
    case Config::kClNativeAmd: {
      auto cl = mocl::CreateNativeClApi(device);
      st = app.RunCl(*cl, &m.checksum);
      build_us = cl->BuildTimeUs();
      break;
    }
    case Config::kClOnCudaTitan: {
      auto cuda = mcuda::CreateNativeCudaApi(device);
      auto cl = cl2cu::CreateClOnCudaApi(*cuda);
      st = app.RunCl(*cl, &m.checksum);
      build_us = cl->BuildTimeUs();
      break;
    }
    case Config::kCudaNativeTitan: {
      auto cuda = mcuda::CreateNativeCudaApi(device);
      st = app.RunCuda(*cuda, &m.checksum);
      break;
    }
    case Config::kCudaOnClTitan:
    case Config::kCudaOnClAmd: {
      auto cl = mocl::CreateNativeClApi(device);
      auto cuda = cu2cl::CreateCudaOnClApi(*cl);
      st = app.RunCuda(*cuda, &m.checksum);
      build_us = cl->BuildTimeUs();
      break;
    }
  }
  m.ok = st.ok();
  m.error = st.ok() ? "" : st.ToString();
  m.time_us = device.now_us() - build_us;
  m.shared_bank_words = device.stats().shared_bank_words;
  if (session.has_value()) {
    m.traced = true;
    m.top_commands = trace::TopCommands(session->recorder(), 3);
    m.wrapper_overhead = trace::WrapperOverheadOf(session->recorder());
    // Writes trace_path if set; detach happens in the dtor. A failed
    // write must not fail the measurement — report it and move on.
    Status fst = session->Flush();
    if (!fst.ok())
      fprintf(stderr, "trace write failed: %s\n", fst.ToString().c_str());
  }
  return m;
}

std::string TracePathFor(const std::string& app_name, Config config) {
  const char* dir = std::getenv("BRIDGECL_TRACE_DIR");
  if (dir == nullptr || dir[0] == '\0') return "";
  return std::string(dir) + "/" + app_name + "_" + ConfigSlug(config) +
         ".trace.json";
}

std::string TopCommandsLine(const Measurement& m, size_t n) {
  std::string out;
  size_t shown = 0;
  for (const trace::CommandCost& c : m.top_commands) {
    if (shown == n) break;
    if (!out.empty()) out += " | ";
    out += c.layer;
    out += "/";
    out += c.name;
    if (!c.kernel.empty()) {
      out += "[";
      out += c.kernel;
      out += "]";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, " %.1fus (x%llu)", c.exclusive_us,
                  static_cast<unsigned long long>(c.count));
    out += buf;
    ++shown;
  }
  return out;
}

std::string BenchReport::ToJson() const {
  std::string out = "{\"bench\":\"" + name_ + "\",\"results\":{";
  bool first_cfg = true;
  for (const auto& [config, metrics] : results_) {
    if (!first_cfg) out += ",";
    first_cfg = false;
    out += "\"" + config + "\":{";
    bool first_metric = true;
    for (const auto& [metric, value] : metrics) {
      if (!first_metric) out += ",";
      first_metric = false;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", value);
      out += "\"" + metric + "\":" + buf;
    }
    out += "}";
  }
  out += "}}\n";
  return out;
}

StatusOr<std::string> BenchReport::Write() const {
  const char* dir = std::getenv("BRIDGECL_BENCH_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0')
                         ? std::string(dir) + "/BENCH_" + name_ + ".json"
                         : "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return Status(StatusCode::kInternal, "cannot open " + path);
  const std::string json = ToJson();
  size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (wrote != json.size())
    return Status(StatusCode::kInternal, "short write to " + path);
  return path;
}

bool BenchReport::WriteAndPrint() const {
  auto path = Write();
  if (!path.ok()) {
    fprintf(stderr, "%s\n", path.status().ToString().c_str());
    return false;
  }
  printf("\nwrote %s\n", path->c_str());
  return true;
}

void PrintHeader(const std::string& title) {
  printf("\n%s\n", std::string(76, '=').c_str());
  printf("%s\n", title.c_str());
  printf("%s\n", std::string(76, '=').c_str());
  printf("%s\n", simgpu::SystemConfigurationTable().c_str());
}

}  // namespace bridgecl::bench
