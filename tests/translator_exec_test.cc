// Execution-level checks of translated built-ins: every built-in either
// translator maps (wrapper device functions, math and integer renames in
// both directions, clamp/mix expansions, vload/vstore, conversions,
// reinterpretations) must compute the same value after translation. Plus
// parse→print idempotence over all shipped application sources.
#include <gtest/gtest.h>

#include "apps/app.h"
#include "interp/executor.h"
#include "interp/module.h"
#include "lang/builtins.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/sema.h"
#include "simgpu/device.h"
#include "translator/translate.h"

namespace bridgecl {
namespace {

using interp::KernelArg;
using interp::Module;
using lang::Dialect;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

/// Run a one-work-item kernel writing 8 floats to `out`, both natively in
/// `dialect` and after translation to the other one, and return the two
/// output arrays.
StatusOr<std::pair<std::vector<float>, std::vector<float>>> RunBoth(
    const std::string& body, Dialect dialect) {
  bool opencl = dialect == Dialect::kOpenCL;
  std::string src =
      (opencl ? "__kernel void k(__global float* out, __global float* in) {\n"
              : "__global__ void k(float* out, float* in) {\n") +
      body + "\n}";
  DiagnosticEngine diags;
  auto tr = opencl ? translator::TranslateOpenClToCuda(src, diags)
                   : translator::TranslateCudaToOpenCl(src, diags);
  if (!tr.ok())
    return Status(tr.status().code(),
                  tr.status().message() + "\n" + diags.ToString());
  auto run = [&](const std::string& s,
                 Dialect d) -> StatusOr<std::vector<float>> {
    Device device(TitanProfile());
    DiagnosticEngine dg;
    auto m = Module::Compile(s, d, dg);
    if (!m.ok())
      return Status(m.status().code(),
                    m.status().message() + "\n" + dg.ToString() + "\n" + s);
    BRIDGECL_RETURN_IF_ERROR((*m)->LoadOn(device));
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t out_va,
                              device.vm().AllocGlobal(8 * 4));
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t in_va,
                              device.vm().AllocGlobal(8 * 4));
    float in[8] = {1.5f, -2.25f, 3.0f, 4.5f, -5.0f, 6.75f, 7.0f, 8.5f};
    std::memcpy(*device.vm().Resolve(in_va, 32), in, 32);
    interp::LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    std::vector<KernelArg> args = {KernelArg::Pointer(out_va),
                                   KernelArg::Pointer(in_va)};
    BRIDGECL_RETURN_IF_ERROR(
        interp::LaunchKernel(device, **m, "k", cfg, args).status());
    std::vector<float> out(8);
    std::memcpy(out.data(), *device.vm().Resolve(out_va, 32), 32);
    return out;
  };
  BRIDGECL_ASSIGN_OR_RETURN(auto a, run(src, dialect));
  BRIDGECL_ASSIGN_OR_RETURN(
      auto b, run(tr->source, opencl ? Dialect::kCUDA : Dialect::kOpenCL));
  return std::make_pair(a, b);
}

struct BuiltinCase {
  std::string name;
  std::string body;
  Dialect dialect = Dialect::kOpenCL;
};

class BuiltinTranslationTest
    : public ::testing::TestWithParam<BuiltinCase> {};

INSTANTIATE_TEST_SUITE_P(
    Builtins, BuiltinTranslationTest,
    ::testing::Values(
        BuiltinCase{"clamp_float",
                    "out[0] = clamp(in[0], 0.0f, 1.0f);"
                    "out[1] = clamp(in[1], -1.0f, 1.0f);"
                    "out[2] = clamp(in[2], 0.0f, 10.0f);"},
        BuiltinCase{"mix",
                    "out[0] = mix(in[0], in[2], 0.25f);"
                    "out[1] = mix(in[1], in[3], 0.75f);"},
        BuiltinCase{"mad_and_native",
                    "out[0] = mad(in[0], in[2], in[3]);"
                    "out[1] = native_exp(0.0f);"
                    "out[2] = native_sqrt(in[2] * in[2]);"
                    "out[3] = native_divide(in[3], 2.0f);"},
        BuiltinCase{"convert_and_as",
                    "int bits = as_int(in[0]);"
                    "out[0] = as_float(bits);"
                    "out[1] = (float)convert_int(in[2]);"
                    "float4 v = (float4)(in[0], in[1], in[2], in[3]);"
                    "int4 iv = convert_int4(v);"
                    "out[2] = (float)iv.z;"},
        BuiltinCase{"vload_vstore",
                    "float4 v = vload4(0, in);"
                    "v = v * 2.0f;"
                    "vstore4(v, 0, out);"
                    "float2 w = vload2(2, in);"
                    "vstore2(w, 2, out);"},
        BuiltinCase{"minmax_int",
                    "int a = (int)in[0];"
                    "int b = (int)in[3];"
                    "out[0] = (float)min(a, b);"
                    "out[1] = (float)max(a, b);"
                    "out[2] = (float)abs((int)in[1]);"
                    "out[3] = (float)clz(8);"
                    "out[4] = (float)popcount(255);"
                    "out[5] = (float)mul24(3, 7);"},
        BuiltinCase{"work_dim_and_offset",
                    "out[0] = (float)get_work_dim();"
                    "out[1] = (float)get_global_offset(0);"},
        BuiltinCase{"select_scalar",
                    "int cond = in[0] > 0.0f;"
                    "out[0] = select(in[1], in[2], cond);"
                    "out[1] = select(in[1], in[2], 0);"},
        BuiltinCase{"fences",
                    "out[0] = in[0];"
                    "mem_fence(CLK_GLOBAL_MEM_FENCE);"
                    "out[1] = in[1];"
                    "read_mem_fence(CLK_LOCAL_MEM_FENCE);"
                    "write_mem_fence(CLK_LOCAL_MEM_FENCE);"
                    "out[2] = in[2];"}),
    [](const auto& info) { return info.param.name; });

/// One case per math and integer spelling the catalog renames 1:1 into
/// the other dialect (native_divide → __fdividef, sqrtf → sqrt, __popc →
/// popcount), in both directions. Two calls with arguments in (0, 1), so
/// every function is finite; integer built-ins take small ints.
std::vector<BuiltinCase> CatalogRenameCases() {
  static const char* kFloatArgs[2][3] = {
      {"in[0] * 0.25f", "in[2] * 0.25f", "in[3] * 0.125f"},
      {"in[5] * 0.125f", "in[7] * 0.0625f", "in[6] * 0.125f"}};
  static const char* kIntArgs[2][3] = {
      {"(int)in[7]", "(int)in[2]", "(int)in[3]"},
      {"(int)in[5]", "(int)in[6]", "(int)in[0]"}};
  std::vector<BuiltinCase> cases;
  for (const lang::BuiltinInfo& b : lang::BuiltinCatalog()) {
    bool math = b.cls == lang::BuiltinClass::kMath;
    if (b.counterpart.empty() ||
        !(math || b.cls == lang::BuiltinClass::kIntOps))
      continue;
    BuiltinCase c;
    c.dialect = b.in_opencl ? Dialect::kOpenCL : Dialect::kCUDA;
    c.name = std::string(b.in_opencl ? "cl_" : "cu_") + b.name;
    for (int out = 0; out < 2; ++out) {
      std::string call = std::string(b.name) + "(";
      for (int i = 0; i < b.min_args; ++i)
        call += std::string(i ? ", " : "") +
                (math ? kFloatArgs : kIntArgs)[out][i];
      c.body += "out[" + std::to_string(out) + "] = (float)" + call + ");";
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Catalog, BuiltinTranslationTest,
                         ::testing::ValuesIn(CatalogRenameCases()),
                         [](const auto& info) { return info.param.name; });

TEST_P(BuiltinTranslationTest, SameValueAfterTranslation) {
  auto r = RunBoth(GetParam().body, GetParam().dialect);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->first, r->second) << GetParam().body;
}

// ===========================================================================
// Parse→print idempotence across every shipped application source, in its
// own dialect (the printer's output must be a fixed point).
// ===========================================================================
std::string Reprint(const std::string& src, Dialect d) {
  DiagnosticEngine diags;
  lang::ParseOptions popts;
  popts.dialect = d;
  auto tu = lang::ParseTranslationUnit(src, popts, diags);
  EXPECT_TRUE(tu.ok()) << diags.ToString() << "\n" << src;
  if (!tu.ok()) return "";
  lang::SemaOptions sopts;
  sopts.dialect = d;
  EXPECT_TRUE(lang::Analyze(**tu, sopts, diags).ok()) << diags.ToString();
  lang::PrintOptions oopts;
  oopts.dialect = d;
  return lang::PrintTranslationUnit(**tu, oopts);
}

TEST(AppSourceRoundTrip, AllAppSourcesArePrinterFixedPoints) {
  int checked = 0;
  for (auto maker : {apps::RodiniaApps, apps::NpbApps, apps::ToolkitApps}) {
    for (auto& app : maker()) {
      SCOPED_TRACE(app->name());
      if (app->has_opencl()) {
        std::string once = Reprint(app->OpenClSource(), Dialect::kOpenCL);
        ASSERT_FALSE(once.empty());
        EXPECT_EQ(once, Reprint(once, Dialect::kOpenCL));
        ++checked;
      }
      if (app->has_cuda()) {
        std::string once = Reprint(app->CudaSource(), Dialect::kCUDA);
        ASSERT_FALSE(once.empty());
        EXPECT_EQ(once, Reprint(once, Dialect::kCUDA));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 40);
}

// Every dual-dialect app's OpenCL version must itself be translatable to
// CUDA, and the result must compile — the Fig 7 precondition, asserted
// per app rather than via the bench.
TEST(AppSourceRoundTrip, AllOpenClAppSourcesTranslate) {
  for (auto maker : {apps::RodiniaApps, apps::NpbApps, apps::ToolkitApps}) {
    for (auto& app : maker()) {
      if (!app->has_opencl()) continue;
      SCOPED_TRACE(app->name());
      DiagnosticEngine diags;
      auto tr =
          translator::TranslateOpenClToCuda(app->OpenClSource(), diags);
      ASSERT_TRUE(tr.ok()) << diags.ToString();
      DiagnosticEngine diags2;
      auto m = Module::Compile(tr->source, Dialect::kCUDA, diags2);
      EXPECT_TRUE(m.ok()) << diags2.ToString() << "\n" << tr->source;
    }
  }
}

// And the symmetric direction: every dual-dialect app's CUDA version must
// translate to OpenCL and recompile (the Fig 8 precondition).
TEST(AppSourceRoundTrip, AllCudaAppSourcesTranslate) {
  for (auto maker : {apps::RodiniaApps, apps::ToolkitApps}) {
    for (auto& app : maker()) {
      if (!app->has_cuda()) continue;
      SCOPED_TRACE(app->name());
      DiagnosticEngine diags;
      auto tr = translator::TranslateCudaToOpenCl(app->CudaSource(), diags);
      ASSERT_TRUE(tr.ok()) << diags.ToString();
      DiagnosticEngine diags2;
      auto m = Module::Compile(tr->source, Dialect::kOpenCL, diags2);
      EXPECT_TRUE(m.ok()) << diags2.ToString() << "\n" << tr->source;
    }
  }
}

}  // namespace
}  // namespace bridgecl
