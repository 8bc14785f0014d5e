// Property-based and differential tests over the core invariants:
//  * value encode/decode round-trips for every scalar kind and width
//  * translated kernels compute bit-identical results to their source for
//    randomly generated arithmetic kernels and swizzle patterns
//  * atomic wrap semantics sweeps
//  * bank-word accounting and NDRange/grid conversion invariants
#include <gtest/gtest.h>

#include <cmath>

#include "interp/executor.h"
#include "interp/module.h"
#include "interp/value.h"
#include "simgpu/device.h"
#include "support/strings.h"
#include "translator/translate.h"

namespace bridgecl {
namespace {

using interp::KernelArg;
using interp::Module;
using interp::ScalarVal;
using interp::Value;
using lang::Dialect;
using lang::ScalarKind;
using lang::Type;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

// ===========================================================================
// Value encode/decode round-trip across the type lattice.
// ===========================================================================
class ValueRoundTripTest
    : public ::testing::TestWithParam<std::tuple<ScalarKind, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Lattice, ValueRoundTripTest,
    ::testing::Combine(
        ::testing::Values(ScalarKind::kChar, ScalarKind::kUChar,
                          ScalarKind::kShort, ScalarKind::kUShort,
                          ScalarKind::kInt, ScalarKind::kUInt,
                          ScalarKind::kLong, ScalarKind::kULong,
                          ScalarKind::kFloat, ScalarKind::kDouble),
        ::testing::Values(1, 2, 3, 4, 8, 16)),
    [](const auto& info) {
      return std::string(lang::ScalarName(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(ValueRoundTripTest, EncodeDecode) {
  auto [kind, width] = GetParam();
  Type::Ptr t =
      width == 1 ? Type::Scalar(kind) : Type::Vector(kind, width);
  std::vector<ScalarVal> comps(width);
  for (int i = 0; i < width; ++i) {
    if (lang::IsFloatScalar(kind)) {
      comps[i].f = kind == ScalarKind::kFloat
                       ? static_cast<float>(-1.5 + i * 0.25)
                       : -1.5 + i * 0.25;
    } else if (lang::IsSignedScalar(kind)) {
      comps[i].i = -7 + i;  // negative values exercise sign extension
    } else {
      comps[i].u = 3 + i;
    }
  }
  Value v;
  if (width == 1) {
    v.SetScalar(t, comps[0]);
  } else {
    v = Value::Vector(t, comps);
  }
  std::vector<std::byte> buf(t->ByteSize());
  ASSERT_TRUE(interp::EncodeValue(v, buf.data()).ok());
  Value back;
  ASSERT_TRUE(interp::DecodeValue(t, buf.data(), &back).ok());
  for (int i = 0; i < width; ++i) {
    ScalarVal a = width == 1 ? v.scalar() : v.comps()[i];
    ScalarVal b = width == 1 ? back.scalar() : back.comps()[i];
    if (lang::IsFloatScalar(kind)) {
      EXPECT_DOUBLE_EQ(a.f, b.f) << "component " << i;
    } else {
      EXPECT_EQ(a.i, b.i) << "component " << i;
    }
  }
}

// ===========================================================================
// Differential: random straight-line arithmetic kernels must compute the
// same values before and after OpenCL→CUDA translation.
// ===========================================================================

/// Tiny deterministic generator of straight-line float kernels.
std::string RandomKernel(uint32_t seed, int stmts) {
  uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<uint32_t>(s >> 33);
  };
  std::string body;
  int vars = 2;  // v0, v1 seeded from the input
  body += "  float v0 = in[i];\n";
  body += "  float v1 = in[(i + 7) % n];\n";
  const char* ops[] = {"+", "-", "*"};
  const char* fns[] = {"fabs", "floor", "sqrt", "fmin", "fmax"};
  for (int k = 0; k < stmts; ++k) {
    int a = next() % vars;
    int b = next() % vars;
    int form = next() % 4;
    std::string expr;
    switch (form) {
      case 0:
        expr = StrFormat("v%d %s v%d", a, ops[next() % 3], b);
        break;
      case 1:
        expr = StrFormat("%s(v%d + 1.5f)", fns[next() % 3], a);
        break;
      case 2:
        expr = StrFormat("fmin(v%d, v%d)", a, b);
        break;
      default:
        expr = StrFormat("(v%d > v%d) ? v%d : (v%d * 0.5f)", a, b, a, b);
        break;
    }
    body += StrFormat("  float v%d = %s;\n", vars, expr.c_str());
    ++vars;
  }
  body += StrFormat("  out[i] = v%d;\n", vars - 1);
  return StrFormat(
      "__kernel void randk(__global float* in, __global float* out,"
      " int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i >= n) return;\n%s}\n",
      body.c_str());
}

StatusOr<std::vector<float>> RunKernelSource(const std::string& src,
                                             Dialect d, int n) {
  Device device(TitanProfile());
  DiagnosticEngine diags;
  auto m = Module::Compile(src, d, diags);
  if (!m.ok())
    return Status(m.status().code(),
                  m.status().message() + "\n" + diags.ToString());
  BRIDGECL_RETURN_IF_ERROR((*m)->LoadOn(device));
  std::vector<float> in(n);
  for (int i = 0; i < n; ++i) in[i] = 0.125f * i - 3.0f;
  BRIDGECL_ASSIGN_OR_RETURN(uint64_t din, device.vm().AllocGlobal(n * 4));
  BRIDGECL_ASSIGN_OR_RETURN(uint64_t dout, device.vm().AllocGlobal(n * 4));
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, device.vm().Resolve(din, n * 4));
  std::memcpy(p, in.data(), n * 4);
  interp::LaunchConfig cfg;
  cfg.grid = Dim3(n / 32);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(din),
                                 KernelArg::Pointer(dout),
                                 KernelArg::Value<int>(n)};
  BRIDGECL_RETURN_IF_ERROR(
      interp::LaunchKernel(device, **m, "randk", cfg, args).status());
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * q, device.vm().Resolve(dout, n * 4));
  std::vector<float> out(n);
  std::memcpy(out.data(), q, n * 4);
  return out;
}

class RandomKernelTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelTest, ::testing::Range(1, 17));

TEST_P(RandomKernelTest, TranslationPreservesSemantics) {
  std::string cl_src = RandomKernel(GetParam(), 8 + GetParam() % 5);
  DiagnosticEngine diags;
  auto tr = translator::TranslateOpenClToCuda(cl_src, diags);
  ASSERT_TRUE(tr.ok()) << diags.ToString() << "\n" << cl_src;
  auto orig = RunKernelSource(cl_src, Dialect::kOpenCL, 64);
  ASSERT_TRUE(orig.ok()) << orig.status().ToString() << "\n" << cl_src;
  auto trans = RunKernelSource(tr->source, Dialect::kCUDA, 64);
  ASSERT_TRUE(trans.ok()) << trans.status().ToString() << "\n" << tr->source;
  for (int i = 0; i < 64; ++i) {
    float a = (*orig)[i];
    float b = (*trans)[i];
    if (std::isnan(a)) {
      EXPECT_TRUE(std::isnan(b)) << "elem " << i << "\n" << cl_src;
    } else {
      EXPECT_EQ(a, b) << "elem " << i << "\n" << cl_src << "\n---\n"
                      << tr->source;
    }
  }
}

// ===========================================================================
// Swizzle patterns: CL→CU translation of swizzle loads/stores.
// ===========================================================================
struct SwizzleCase {
  const char* lhs;   // swizzle on the store target (or "" for plain)
  const char* rhs;   // swizzle on the loaded value
};

class SwizzleTranslationTest
    : public ::testing::TestWithParam<SwizzleCase> {};

INSTANTIATE_TEST_SUITE_P(
    Patterns, SwizzleTranslationTest,
    ::testing::Values(SwizzleCase{"lo", "hi"}, SwizzleCase{"hi", "lo"},
                      SwizzleCase{"even", "odd"}, SwizzleCase{"odd", "even"},
                      SwizzleCase{"lo", "even"}, SwizzleCase{"hi", "odd"}),
    [](const auto& info) {
      return std::string(info.param.lhs) + "_from_" + info.param.rhs;
    });

TEST_P(SwizzleTranslationTest, StorePatternsMatch) {
  const SwizzleCase& c = GetParam();
  std::string src = StrFormat(
      "__kernel void randk(__global float* in, __global float* out,"
      " int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i >= n / 4) return;\n"
      "  __global float4* vin = (__global float4*)in;\n"
      "  __global float4* vout = (__global float4*)out;\n"
      "  float4 v = vin[i];\n"
      "  float4 r = v;\n"
      "  r.%s = v.%s;\n"
      "  vout[i] = r;\n"
      "}\n",
      c.lhs, c.rhs);
  DiagnosticEngine diags;
  auto tr = translator::TranslateOpenClToCuda(src, diags);
  ASSERT_TRUE(tr.ok()) << diags.ToString();
  // The CUDA output must not contain OpenCL-only swizzles.
  EXPECT_EQ(tr->source.find(".lo"), std::string::npos) << tr->source;
  EXPECT_EQ(tr->source.find(".even"), std::string::npos) << tr->source;
  auto orig = RunKernelSource(src, Dialect::kOpenCL, 64);
  ASSERT_TRUE(orig.ok()) << orig.status().ToString();
  auto trans = RunKernelSource(tr->source, Dialect::kCUDA, 64);
  ASSERT_TRUE(trans.ok()) << trans.status().ToString() << "\n" << tr->source;
  EXPECT_EQ(*orig, *trans) << src << "\n---\n" << tr->source;
}

// ===========================================================================
// atomicInc wrap semantics sweep (§3.7) across limits, native CUDA vs the
// host-computed model.
// ===========================================================================
class AtomicWrapTest : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(Limits, AtomicWrapTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 16u, 255u));

TEST_P(AtomicWrapTest, IncMatchesModel) {
  unsigned limit = GetParam();
  const int increments = 37;
  Device device(TitanProfile());
  DiagnosticEngine diags;
  auto m = Module::Compile(
      StrFormat("__global__ void k(unsigned int* c) { atomicInc(c, %uu); }",
                limit),
      Dialect::kCUDA, diags);
  ASSERT_TRUE(m.ok()) << diags.ToString();
  ASSERT_TRUE((*m)->LoadOn(device).ok());
  auto va = device.vm().AllocGlobal(4);
  ASSERT_TRUE(va.ok());
  unsigned zero = 0;
  std::memcpy(*device.vm().Resolve(*va, 4), &zero, 4);
  interp::LaunchConfig cfg;
  cfg.grid = Dim3(increments);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(*va)};
  ASSERT_TRUE(interp::LaunchKernel(device, **m, "k", cfg, args).ok());
  unsigned got;
  std::memcpy(&got, *device.vm().Resolve(*va, 4), 4);
  // Reference model of CUDA's documented semantics.
  unsigned expect = 0;
  for (int i = 0; i < increments; ++i)
    expect = (expect >= limit) ? 0 : expect + 1;
  EXPECT_EQ(got, expect) << "limit " << limit;
}

// ===========================================================================
// Bank-word accounting invariants over an access sweep.
// ===========================================================================
TEST(BankWordProperty, ModeRelationsHold) {
  Device d(TitanProfile());
  for (uint64_t va = 0; va < 64; ++va) {
    for (size_t bytes : {1u, 2u, 4u, 8u, 12u, 16u, 32u}) {
      d.set_bank_mode(simgpu::BankMode::k32Bit);
      int w32 = d.SharedAccessBankWords(va, bytes);
      d.set_bank_mode(simgpu::BankMode::k64Bit);
      int w64 = d.SharedAccessBankWords(va, bytes);
      // 64-bit words are unions of two 32-bit words.
      EXPECT_LE(w64, w32) << va << "/" << bytes;
      EXPECT_LE(w32, 2 * w64) << va << "/" << bytes;
      // Aligned accesses: exact counts.
      if (va % 8 == 0 && bytes % 8 == 0) {
        EXPECT_EQ(w32, static_cast<int>(bytes / 4));
        EXPECT_EQ(w64, static_cast<int>(bytes / 8));
      }
    }
  }
}

// ===========================================================================
// NDRange ⇄ grid conversions across a size sweep.
// ===========================================================================
TEST(NdrangeProperty, RoundTripsWhenDivisible) {
  for (uint32_t lws : {1u, 2u, 8u, 32u, 64u, 128u}) {
    for (uint32_t groups : {1u, 2u, 3u, 7u, 16u}) {
      Dim3 gws(lws * groups, lws, 1);
      Dim3 local(lws, lws, 1);
      Dim3 grid;
      ASSERT_TRUE(simgpu::NdrangeToGrid(gws, local, &grid));
      EXPECT_EQ(grid.x, groups);
      EXPECT_EQ(simgpu::GridToNdrange(grid, local), gws);
    }
  }
  // Non-divisible sizes must be rejected (OpenCL 1.x rule).
  Dim3 grid;
  EXPECT_FALSE(simgpu::NdrangeToGrid(Dim3(33), Dim3(32), &grid));
  EXPECT_FALSE(simgpu::NdrangeToGrid(Dim3(0), Dim3(32), &grid));
}

// ===========================================================================
// Memory-allocator stress: allocate/free churn keeps accounting exact and
// never hands out overlapping buffers.
// ===========================================================================
TEST(VmStressProperty, ChurnKeepsAccountingExact) {
  simgpu::VirtualMemory vm(1 << 22);
  std::vector<std::pair<uint64_t, size_t>> live;
  uint64_t state = 12345;
  auto next = [&]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<uint32_t>(state >> 40);
  };
  size_t in_use = 0;
  for (int round = 0; round < 300; ++round) {
    if (live.empty() || next() % 3 != 0) {
      size_t bytes = 16 + next() % 2048;
      auto va = vm.AllocGlobal(bytes);
      ASSERT_TRUE(va.ok());
      // No overlap with any live allocation.
      for (const auto& [base, size] : live) {
        EXPECT_TRUE(*va + bytes <= base || base + size <= *va);
      }
      live.push_back({*va, bytes});
      in_use += bytes;
    } else {
      size_t pick = next() % live.size();
      ASSERT_TRUE(vm.FreeGlobal(live[pick].first).ok());
      in_use -= live[pick].second;
      live.erase(live.begin() + pick);
    }
    EXPECT_EQ(vm.global_in_use(), in_use);
  }
  for (const auto& [base, size] : live) {
    EXPECT_TRUE(vm.Resolve(base, size).ok());
    EXPECT_TRUE(vm.FreeGlobal(base).ok());
  }
  EXPECT_EQ(vm.global_in_use(), 0u);
}

}  // namespace
}  // namespace bridgecl
