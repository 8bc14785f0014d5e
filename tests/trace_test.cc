// Tests for the src/trace subsystem (docs/OBSERVABILITY.md):
//   - a kernel launch records a kernel-launch span whose DeviceStats delta
//     matches the before/after counters exactly;
//   - under a wrapper binding every wrapper span encloses the native spans
//     it forwards to, and the summed wrapper gap is < 1% of traced time
//     (the paper's §6 "wrapper overhead is negligible" claim);
//   - the Chrome trace JSON round-trips through a minimal parser, its
//     timestamps are monotonic, and two identical runs export
//     byte-identical JSON;
//   - tracing on vs. off leaves the simulated clock and every DeviceStats
//     counter bit-identical (recording is read-only on the device).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "cu2cl/cuda_on_cl.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "simgpu/device.h"
#include "trace/exporters.h"
#include "trace/session.h"
#include "trace/trace.h"

namespace bridgecl {
namespace {

using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::DeviceStats;
using simgpu::Dim3;
using simgpu::TitanProfile;
using trace::TraceEvent;
using trace::TraceKind;

constexpr char kClKernel[] =
    "__kernel void spin(__global float* g, int iters) {"
    "  int i = get_global_id(0);"
    "  float acc = g[i];"
    "  for (int k = 0; k < iters; k++) acc = acc * 1.0001f + 0.5f;"
    "  g[i] = acc;"
    "}";

constexpr char kCudaKernel[] =
    "__global__ void spin(float* g, int iters) {"
    "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
    "  float acc = g[i];"
    "  for (int k = 0; k < iters; k++) acc = acc * 1.0001f + 0.5f;"
    "  g[i] = acc;"
    "}";

/// Write + launch + read through an OpenClApi (native or cl2cu-wrapped).
Status ClWorkload(mocl::OpenClApi& cl) {
  BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(kClKernel));
  BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
  BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "spin"));
  std::vector<float> host(64, 1.0f);
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem g, cl.CreateBuffer(MemFlags::kReadWrite, 64 * 4, nullptr));
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueWriteBuffer(g, 0, 64 * 4, host.data()));
  int iters = 16;
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem), &g));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, sizeof(int), &iters));
  size_t gws = 64, lws = 32;
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBuffer(g, 0, 64 * 4, host.data()));
  return cl.Finish();
}

/// The same shape through a CudaApi (native or cu2cl-wrapped), plus the
/// §6.3 fan-out call (GetDeviceProperties) to exercise wrapper nesting.
Status CudaWorkload(mcuda::CudaApi& cu) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(kCudaKernel));
  std::vector<float> host(64, 1.0f);
  BRIDGECL_ASSIGN_OR_RETURN(void* g, cu.Malloc(64 * 4));
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(g, host.data(), 64 * 4, mcuda::MemcpyKind::kHostToDevice));
  std::vector<mcuda::LaunchArg> args = {mcuda::LaunchArg::Ptr(g),
                                        mcuda::LaunchArg::Value<int>(16)};
  BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel("spin", Dim3(2), Dim3(32), 0,
                                           args));
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(host.data(), g, 64 * 4, mcuda::MemcpyKind::kDeviceToHost));
  BRIDGECL_RETURN_IF_ERROR(cu.GetDeviceProperties().status());
  return cu.DeviceSynchronize();
}

TEST(TraceTest, KernelLaunchSpanCarriesExactStatsDelta) {
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  auto prog = cl->CreateProgramWithSource(kClKernel);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(cl->BuildProgram(*prog).ok());
  auto kernel = cl->CreateKernel(*prog, "spin");
  auto g = cl->CreateBuffer(MemFlags::kReadWrite, 64 * 4, nullptr);
  ASSERT_TRUE(kernel.ok() && g.ok());
  int iters = 16;
  ASSERT_TRUE(cl->SetKernelArg(*kernel, 0, sizeof(ClMem), &*g).ok());
  ASSERT_TRUE(cl->SetKernelArg(*kernel, 1, sizeof(int), &iters).ok());

  const DeviceStats before = dev.stats();
  const double t_before = dev.now_us();
  size_t gws = 64, lws = 32;
  ASSERT_TRUE(cl->EnqueueNDRangeKernel(*kernel, 1, &gws, &lws).ok());
  const DeviceStats after = dev.stats();
  const double t_after = dev.now_us();

  const TraceEvent* launch = nullptr;
  for (const TraceEvent& e : session.recorder().events())
    if (e.kind == TraceKind::kKernelLaunch) launch = &e;
  ASSERT_NE(launch, nullptr);
  EXPECT_STREQ(launch->layer, "mocl");
  EXPECT_EQ(launch->kernel, "spin");
  EXPECT_GT(launch->regs_per_thread, 0);
  EXPECT_GT(launch->occupancy, 0.0);
  EXPECT_FALSE(launch->failed);
  // The span window is exactly the command's clock window...
  EXPECT_GE(launch->begin_us, t_before);
  EXPECT_LE(launch->end_us, t_after);
  EXPECT_GT(launch->duration_us(), 0.0);
  // ...and the recorded delta is exactly the counter movement across it.
  EXPECT_EQ(launch->delta.kernels_launched,
            after.kernels_launched - before.kernels_launched);
  EXPECT_EQ(launch->delta.work_items_executed,
            after.work_items_executed - before.work_items_executed);
  EXPECT_EQ(launch->delta.global_accesses,
            after.global_accesses - before.global_accesses);
  EXPECT_EQ(launch->delta.ops_executed,
            after.ops_executed - before.ops_executed);
  EXPECT_EQ(launch->delta.api_calls, after.api_calls - before.api_calls);
  EXPECT_EQ(launch->delta.kernels_launched, 1u);
  EXPECT_EQ(launch->delta.work_items_executed, 64u);
}

TEST(TraceTest, WrapperSpansEncloseForwardedNativeSpans) {
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  auto cu = cu2cl::CreateCudaOnClApi(*cl);
  Status st = CudaWorkload(*cu);
  ASSERT_TRUE(st.ok()) << st.ToString();

  const auto& events = session.recorder().events();
  size_t wrapper_spans = 0, native_children = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (std::string(e.layer) != "cu2cl") continue;
    ++wrapper_spans;
    EXPECT_EQ(e.depth, 0) << e.name;  // wrapper is the outermost layer
    for (size_t c : session.recorder().ChildrenOf(i)) {
      const TraceEvent& child = events[c];
      ++native_children;
      EXPECT_STREQ(child.layer, "mocl") << child.name;
      EXPECT_EQ(child.depth, e.depth + 1);
      // Enclosure: the native span lies inside its wrapper span.
      EXPECT_GE(child.begin_us, e.begin_us) << child.name;
      EXPECT_LE(child.end_us, e.end_us) << child.name;
    }
  }
  EXPECT_GT(wrapper_spans, 0u);
  EXPECT_GT(native_children, 0u);

  // The acceptance bar: summed wrapper gap under 1% of traced time. In
  // the simulation wrapper bodies never advance the clock, so it is 0.
  trace::WrapperOverhead wo = trace::WrapperOverheadOf(session.recorder());
  EXPECT_EQ(wo.wrapper_calls, wrapper_spans);
  EXPECT_GT(wo.fanout_calls, 0u);  // GetDeviceProperties fans out
  EXPECT_GT(wo.total_us, 0.0);
  EXPECT_LT(wo.fraction(), 0.01);
  EXPECT_DOUBLE_EQ(wo.wrapper_gap_us, 0.0);
}

// --- minimal JSON parser (just enough to validate the exporter) --------

struct JsonCursor {
  const std::string& s;
  size_t i = 0;
  bool ok = true;

  void Skip() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
  }
  bool Eat(char c) {
    Skip();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }
  void Value();  // forward
  void String() {
    if (!Eat('"')) return;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) {
      ok = false;
      return;
    }
    ++i;  // closing quote
  }
  void Number() {
    size_t start = i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E'))
      ++i;
    if (i == start) ok = false;
  }
  void Object() {
    if (!Eat('{')) return;
    Skip();
    if (i < s.size() && s[i] == '}') {
      ++i;
      return;
    }
    while (ok) {
      String();
      if (!Eat(':')) return;
      Value();
      Skip();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      Eat('}');
      return;
    }
  }
  void Array() {
    if (!Eat('[')) return;
    Skip();
    if (i < s.size() && s[i] == ']') {
      ++i;
      return;
    }
    while (ok) {
      Value();
      Skip();
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      Eat(']');
      return;
    }
  }
};

void JsonCursor::Value() {
  Skip();
  if (i >= s.size()) {
    ok = false;
    return;
  }
  char c = s[i];
  if (c == '{') {
    Object();
  } else if (c == '[') {
    Array();
  } else if (c == '"') {
    String();
  } else if (s.compare(i, 4, "true") == 0) {
    i += 4;
  } else if (s.compare(i, 5, "false") == 0) {
    i += 5;
  } else if (s.compare(i, 4, "null") == 0) {
    i += 4;
  } else {
    Number();
  }
}

bool JsonWellFormed(const std::string& s) {
  JsonCursor c{s};
  c.Value();
  c.Skip();
  return c.ok && c.i == s.size();
}

/// Every value following `"key":` in document order, parsed as double.
std::vector<double> JsonNumbersFor(const std::string& s,
                                   const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  for (size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + 1))
    out.push_back(std::strtod(s.c_str() + pos + needle.size(), nullptr));
  return out;
}

size_t CountOccurrences(const std::string& s, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + 1))
    ++n;
  return n;
}

std::string TracedClRunJson() {
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  Status st = ClWorkload(*cl);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return trace::ChromeTraceJson(session.recorder());
}

TEST(TraceTest, ChromeJsonRoundTripsMonotonicAndDeterministic) {
  // Byte-identity across fresh runs: a discarded run warms the module
  // cache, so both compared runs record a hit on their build spans (the
  // hit/miss outcome is span metadata).
  (void)TracedClRunJson();
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  Status st = ClWorkload(*cl);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::string json = trace::ChromeTraceJson(session.recorder());

  ASSERT_TRUE(JsonWellFormed(json)) << json;
  // One complete ("ph":"X") event per recorded span.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""),
            session.recorder().events().size());
  // Timestamps appear in recording order: monotonically non-decreasing.
  std::vector<double> ts = JsonNumbersFor(json, "ts");
  ASSERT_EQ(ts.size(), session.recorder().events().size());
  for (size_t i = 1; i < ts.size(); ++i)
    EXPECT_LE(ts[i - 1], ts[i]) << "at event " << i;
  // Durations are non-negative.
  for (double d : JsonNumbersFor(json, "dur")) EXPECT_GE(d, 0.0);

  // Determinism: an identical fresh run exports byte-identical JSON.
  EXPECT_EQ(json, TracedClRunJson());
}

/// Full DeviceStats equality, field by field.
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

TEST(TraceTest, TracingIsInvisibleToClocksAndStats) {
  // Same workload on two fresh devices: traced vs. untraced. Every clock
  // value and counter must be bit-identical — recording never touches
  // the device.
  Device plain(TitanProfile());
  {
    auto cl = mocl::CreateNativeClApi(plain);
    auto cu = cu2cl::CreateCudaOnClApi(*cl);
    ASSERT_TRUE(CudaWorkload(*cu).ok());
  }
  Device traced(TitanProfile());
  {
    trace::TraceSession session(traced, {});
    auto cl = mocl::CreateNativeClApi(traced);
    auto cu = cu2cl::CreateCudaOnClApi(*cl);
    ASSERT_TRUE(CudaWorkload(*cu).ok());
    EXPECT_FALSE(session.recorder().events().empty());
  }
  EXPECT_EQ(plain.now_us(), traced.now_us());  // exact, not approximate
  ExpectStatsEqual(plain.stats(), traced.stats());
}

TEST(TraceTest, AsyncWorkloadRecordsOverlappingEngineLanes) {
  // Two streams through the native CUDA binding: a large async copy on
  // one, a kernel on the other. The scheduler must record device-engine
  // spans — copy on lane 1, compute on lane 2, each tagged with its
  // stream — whose windows overlap (docs/CONCURRENCY.md).
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cu = mcuda::CreateNativeCudaApi(dev);
  ASSERT_TRUE(cu->RegisterModule(kCudaKernel).ok());
  std::vector<float> host(4096, 1.0f);
  auto g = cu->Malloc(4096 * 4);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(cu->Memcpy(*g, host.data(), 4096 * 4,
                         mcuda::MemcpyKind::kHostToDevice)
                  .ok());
  auto s1 = cu->StreamCreate();
  auto s2 = cu->StreamCreate();
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_TRUE(cu->MemcpyAsync(*g, host.data(), 4096 * 4,
                              mcuda::MemcpyKind::kHostToDevice, *s1)
                  .ok());
  std::vector<mcuda::LaunchArg> args = {mcuda::LaunchArg::Ptr(*g),
                                        mcuda::LaunchArg::Value<int>(64)};
  ASSERT_TRUE(
      cu->LaunchKernelOnStream("spin", Dim3(128), Dim3(32), 0, args, *s2)
          .ok());
  ASSERT_TRUE(cu->DeviceSynchronize().ok());

  const TraceEvent* copy = nullptr;
  const TraceEvent* compute = nullptr;
  for (const TraceEvent& e : session.recorder().events()) {
    if (e.kind == TraceKind::kDeviceCopy && e.lane == 1 && e.stream != 0)
      copy = &e;
    if (e.kind == TraceKind::kDeviceCompute && e.lane == 2 && e.stream != 0)
      compute = &e;
  }
  ASSERT_NE(copy, nullptr);
  ASSERT_NE(compute, nullptr);
  EXPECT_NE(copy->stream, compute->stream);
  EXPECT_EQ(copy->bytes, 4096u * 4u);
  EXPECT_EQ(compute->kernel, "spin");
  // The engine windows overlap: each starts before the other ends.
  EXPECT_LT(copy->begin_us, compute->end_us);
  EXPECT_LT(compute->begin_us, copy->end_us);
  EXPECT_GT(dev.EngineOverlapUs(), 0.0);

  // The exporter keeps the JSON well-formed with the lane/stream fields.
  const std::string json = trace::ChromeTraceJson(session.recorder());
  EXPECT_TRUE(JsonWellFormed(json)) << json;
  EXPECT_NE(json.find("\"stream\""), std::string::npos);

  ASSERT_TRUE(cu->StreamDestroy(*s1).ok());
  ASSERT_TRUE(cu->StreamDestroy(*s2).ok());
  ASSERT_TRUE(cu->Free(*g).ok());
}

TEST(TraceTest, FailedCommandIsMarkedFailed) {
  Device dev(TitanProfile());
  trace::TraceSession session(dev, {});
  auto cl = mocl::CreateNativeClApi(dev);
  auto prog = cl->CreateProgramWithSource(kClKernel);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(cl->BuildProgram(*prog).ok());
  auto missing = cl->CreateKernel(*prog, "no_such_kernel");
  EXPECT_FALSE(missing.ok());
  const auto& events = session.recorder().events();
  ASSERT_FALSE(events.empty());
  const TraceEvent& last = events.back();
  EXPECT_STREQ(last.name, "clCreateKernel");
  EXPECT_TRUE(last.failed);
}

}  // namespace
}  // namespace bridgecl
