#include <gtest/gtest.h>

#include <numeric>

#include "interp/executor.h"
#include "interp/module.h"
#include "simgpu/device.h"
#include "support/strings.h"
#include "translator/translate.h"

namespace bridgecl::translator {
namespace {

using interp::KernelArg;
using interp::Module;
using lang::Dialect;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

bool Contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TranslationResult MustTranslateClToCu(const std::string& src,
                                      TranslateOptions opts = {}) {
  DiagnosticEngine diags;
  auto r = TranslateOpenClToCuda(src, diags, opts);
  EXPECT_TRUE(r.ok()) << diags.ToString();
  return r.ok() ? std::move(*r) : TranslationResult{};
}

TranslationResult MustTranslateCuToCl(const std::string& src,
                                      TranslateOptions opts = {}) {
  DiagnosticEngine diags;
  auto r = TranslateCudaToOpenCl(src, diags, opts);
  EXPECT_TRUE(r.ok()) << diags.ToString();
  return r.ok() ? std::move(*r) : TranslationResult{};
}

/// The translated output must itself compile in the target dialect.
void ExpectCompiles(const std::string& src, Dialect d) {
  DiagnosticEngine diags;
  auto m = Module::Compile(src, d, diags);
  EXPECT_TRUE(m.ok()) << "translated source does not compile:\n"
                      << diags.ToString() << "\n--- source ---\n"
                      << src;
}

// ===========================================================================
// OpenCL → CUDA
// ===========================================================================

TEST(ClToCuTest, WorkItemFunctionMapping) {
  auto r = MustTranslateClToCu(
      "__kernel void k(__global int* out, int n) {"
      "  int i = get_global_id(0);"
      "  int l = get_local_id(1);"
      "  int g = get_group_id(2);"
      "  int s = (int)get_local_size(0);"
      "  int t = (int)get_global_size(0);"
      "  if (i < n) out[i] = l + g + s + t;"
      "}");
  EXPECT_TRUE(Contains(r.source, "__global__ void k(")) << r.source;
  EXPECT_TRUE(Contains(r.source, "blockIdx.x * blockDim.x + threadIdx.x"))
      << r.source;
  EXPECT_TRUE(Contains(r.source, "threadIdx.y")) << r.source;
  EXPECT_TRUE(Contains(r.source, "blockIdx.z")) << r.source;
  EXPECT_TRUE(Contains(r.source, "blockDim.x")) << r.source;
  EXPECT_TRUE(Contains(r.source, "gridDim.x * blockDim.x")) << r.source;
  EXPECT_FALSE(Contains(r.source, "get_global_id")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, BarrierAndFences) {
  auto r = MustTranslateClToCu(
      "__kernel void k(__global int* out) {"
      "  __local int t[8];"
      "  t[get_local_id(0)] = 1;"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  mem_fence(CLK_GLOBAL_MEM_FENCE);"
      "  out[0] = t[0];"
      "}");
  EXPECT_TRUE(Contains(r.source, "__syncthreads()")) << r.source;
  EXPECT_TRUE(Contains(r.source, "__threadfence_block()")) << r.source;
  EXPECT_TRUE(Contains(r.source, "__shared__ int t[8];")) << r.source;
  EXPECT_FALSE(Contains(r.source, "CLK_LOCAL_MEM_FENCE")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, DynamicLocalParamsFollowFig5) {
  auto r = MustTranslateClToCu(
      "__kernel void k(int n, __local int* dyn1, __local float* dyn2,"
      "                __global int* out) {"
      "  dyn1[0] = n;"
      "  out[0] = dyn1[0];"
      "}");
  // Parameters become sizes; the arena is carved with offsets (Fig 5).
  EXPECT_TRUE(Contains(r.source, "size_t dyn1__size")) << r.source;
  EXPECT_TRUE(Contains(r.source, "size_t dyn2__size")) << r.source;
  EXPECT_TRUE(Contains(r.source,
                       "extern __shared__ char __OC2CU_shared_mem[];"))
      << r.source;
  EXPECT_TRUE(Contains(r.source, "int* dyn1 = (int*)(__OC2CU_shared_mem)"))
      << r.source;
  EXPECT_TRUE(Contains(
      r.source, "float* dyn2 = (float*)(__OC2CU_shared_mem + dyn1__size)"))
      << r.source;
  ASSERT_EQ(r.kernels.size(), 1u);
  const auto& info = r.kernels[0];
  EXPECT_EQ(info.original_param_count, 4);
  using Role = KernelTranslationInfo::ParamRole;
  EXPECT_EQ(info.param_roles[0], Role::kPlain);
  EXPECT_EQ(info.param_roles[1], Role::kDynLocalSize);
  EXPECT_EQ(info.param_roles[2], Role::kDynLocalSize);
  EXPECT_EQ(info.param_roles[3], Role::kPlain);
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, DynamicConstantParamsFollowFig5) {
  auto r = MustTranslateClToCu(
      "__kernel void k(__constant float* coef, __global float* out) {"
      "  out[0] = coef[0];"
      "}");
  EXPECT_TRUE(Contains(r.source, "__constant__ char __OC2CU_const_mem["))
      << r.source;
  EXPECT_TRUE(Contains(r.source, "size_t coef__size")) << r.source;
  EXPECT_TRUE(Contains(r.source, "float* coef = (float*)(__OC2CU_const_mem)"))
      << r.source;
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_EQ(r.kernels[0].param_roles[0],
            KernelTranslationInfo::ParamRole::kDynConstSize);
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, SwizzleAssignmentExpansion) {
  // The paper's §3.6 example: v1.lo = v2.lo; → v1.x = v2.x; v1.y = v2.y;
  auto r = MustTranslateClToCu(
      "__kernel void k(__global float4* a) {"
      "  float4 v1 = a[0];"
      "  float4 v2 = a[1];"
      "  v1.lo = v2.lo;"
      "  a[2] = v1;"
      "}");
  EXPECT_TRUE(Contains(r.source, "v1.x = v2.x;")) << r.source;
  EXPECT_TRUE(Contains(r.source, "v1.y = v2.y;")) << r.source;
  EXPECT_FALSE(Contains(r.source, ".lo")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, NestedSwizzlesCompose) {
  // §3.6: "v.lo.x refers to the first component of the lower half of v" —
  // legal OpenCL, never legal CUDA. Composition gives plain .x/.w forms.
  auto r = MustTranslateClToCu(
      "__kernel void k(__global float4* a, __global float* out) {"
      "  float4 v = a[0];"
      "  out[0] = v.lo.x + v.hi.y;"
      "  out[1] = v.wzyx.lo.y;"
      "}");
  EXPECT_TRUE(Contains(r.source, "v.x + v.w")) << r.source;
  EXPECT_TRUE(Contains(r.source, "out[1] = v.z;")) << r.source;
  EXPECT_FALSE(Contains(r.source, ".lo")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);

  // And it executes identically.
  auto run = [&](const std::string& src, Dialect d) {
    Device dev(TitanProfile());
    DiagnosticEngine diags;
    auto m = Module::Compile(src, d, diags);
    EXPECT_TRUE(m.ok()) << diags.ToString();
    EXPECT_TRUE((*m)->LoadOn(dev).ok());
    auto va = dev.vm().AllocGlobal(16);
    auto vo = dev.vm().AllocGlobal(8);
    EXPECT_TRUE(va.ok() && vo.ok());
    float init[4] = {1, 2, 3, 4};
    std::memcpy(*dev.vm().Resolve(*va, 16), init, 16);
    interp::LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    std::vector<KernelArg> args = {KernelArg::Pointer(*va),
                                   KernelArg::Pointer(*vo)};
    EXPECT_TRUE(interp::LaunchKernel(dev, **m, "k", cfg, args).ok());
    std::vector<float> out(2);
    std::memcpy(out.data(), *dev.vm().Resolve(*vo, 8), 8);
    return out;
  };
  const std::string cl_src =
      "__kernel void k(__global float4* a, __global float* out) {"
      "  float4 v = a[0];"
      "  out[0] = v.lo.x + v.hi.y;"
      "  out[1] = v.wzyx.lo.y;"
      "}";
  auto orig = run(cl_src, Dialect::kOpenCL);
  auto trans = run(r.source, Dialect::kCUDA);
  EXPECT_EQ(orig, trans);
  EXPECT_FLOAT_EQ(orig[0], 5.0f);  // v.x + v.w = 1 + 4
  EXPECT_FLOAT_EQ(orig[1], 3.0f);  // wzyx = {4,3,2,1}; .lo.y = 3
}

TEST(ClToCuTest, RvalueSwizzleBecomesConstructor) {
  auto r = MustTranslateClToCu(
      "__kernel void k(__global float4* a, __global float2* out) {"
      "  out[0] = a[0].hi;"
      "}");
  EXPECT_TRUE(Contains(r.source, "make_float2(a[0].z, a[0].w)")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, DuplicatedComponentSwizzle) {
  // §3.6: "v.xx is a two-component vector expanded from the first
  // component of v" — allowed in OpenCL, not in CUDA.
  auto r = MustTranslateClToCu(
      "__kernel void k(__global float4* a, __global float2* out) {"
      "  out[0] = a[0].xx;"
      "}");
  EXPECT_TRUE(Contains(r.source, "make_float2(a[0].x, a[0].x)")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, WideVectorsLoweredToStructs) {
  auto r = MustTranslateClToCu(
      "__kernel void k(__global float8* a, __global float* out) {"
      "  float8 v = a[0];"
      "  float8 w = v + v;"
      "  out[0] = w.s0 + w.s7;"
      "}");
  EXPECT_TRUE(Contains(r.source, "typedef struct {")) << r.source;
  EXPECT_TRUE(Contains(r.source, "} __oc2cu_float8;")) << r.source;
  EXPECT_TRUE(Contains(r.source, "__oc2cu_float8 v = a[0];")) << r.source;
  EXPECT_TRUE(Contains(r.source, "w.s0 = v.s0 + v.s0;")) << r.source;
  EXPECT_TRUE(Contains(r.source, "w.s7 = v.s7 + v.s7;")) << r.source;
  // No bare float8 remains once the struct spellings are accounted for.
  std::string stripped = ReplaceAll(r.source, "__oc2cu_float8", "");
  EXPECT_FALSE(Contains(stripped, "float8")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, AtomicMapping) {
  auto r = MustTranslateClToCu(
      "__kernel void k(__global int* c, __global uint* u) {"
      "  atomic_add(c, 2);"
      "  atomic_inc(u);"
      "  atomic_cmpxchg(c, 0, 5);"
      "}");
  EXPECT_TRUE(Contains(r.source, "atomicAdd(c, 2)")) << r.source;
  EXPECT_TRUE(Contains(r.source, "atomicInc(u, 4294967295)")) << r.source;
  EXPECT_TRUE(Contains(r.source, "atomicCAS(c, 0, 5)")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, ImagesBecomeWrapperCalls) {
  auto r = MustTranslateClToCu(
      "__kernel void k(__read_only image2d_t img, sampler_t s,"
      "                __global float4* out) {"
      "  out[0] = read_imagef(img, s, (int2)(0, 0));"
      "}");
  EXPECT_TRUE(Contains(r.source, "__oc2cu_read_imagef(img, s,")) << r.source;
  ExpectCompiles(r.source, Dialect::kCUDA);
}

TEST(ClToCuTest, NonLiteralDimensionIsUntranslatable) {
  DiagnosticEngine diags;
  auto r = TranslateOpenClToCuda(
      "__kernel void k(__global int* out, int d) {"
      "  out[0] = (int)get_global_id(d);"
      "}",
      diags);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUntranslatable);
}

TEST(ClToCuTest, EndToEndEquivalence) {
  // Run the original under OpenCL and the translated code under CUDA and
  // compare the output buffers bit-for-bit.
  const std::string cl_src =
      "__kernel void work(__global float* data, __local float* tile,"
      "                   __constant float* coef, int n) {"
      "  int i = get_global_id(0);"
      "  int l = get_local_id(0);"
      "  tile[l] = data[i] * coef[0];"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  int peer = (int)get_local_size(0) - 1 - l;"
      "  if (i < n) data[i] = tile[peer] + coef[1];"
      "}";
  const int n = 64;
  const int block = 16;

  // --- native OpenCL execution ---
  Device dev_cl(TitanProfile());
  std::vector<float> init(n);
  std::iota(init.begin(), init.end(), 1.0f);
  std::vector<float> coef = {2.0f, 0.5f};
  std::vector<float> out_cl;
  {
    DiagnosticEngine diags;
    auto m = Module::Compile(cl_src, Dialect::kOpenCL, diags);
    ASSERT_TRUE(m.ok()) << diags.ToString();
    ASSERT_TRUE((*m)->LoadOn(dev_cl).ok());
    auto data = dev_cl.vm().AllocGlobal(n * 4);
    auto cbuf = dev_cl.vm().AllocGlobal(2 * 4);
    ASSERT_TRUE(data.ok() && cbuf.ok());
    std::memcpy(*dev_cl.vm().Resolve(*data, n * 4), init.data(), n * 4);
    std::memcpy(*dev_cl.vm().Resolve(*cbuf, 8), coef.data(), 8);
    interp::LaunchConfig cfg;
    cfg.grid = Dim3(n / block);
    cfg.block = Dim3(block);
    std::vector<KernelArg> args = {
        KernelArg::Pointer(*data), KernelArg::LocalAlloc(block * 4),
        KernelArg::Pointer(*cbuf), KernelArg::Value<int>(n)};
    auto lr = interp::LaunchKernel(dev_cl, **m, "work", cfg, args);
    ASSERT_TRUE(lr.ok()) << lr.status().ToString();
    out_cl.resize(n);
    std::memcpy(out_cl.data(), *dev_cl.vm().Resolve(*data, n * 4), n * 4);
  }

  // --- translated CUDA execution ---
  auto tr = MustTranslateClToCu(cl_src);
  ASSERT_FALSE(tr.source.empty());
  Device dev_cu(TitanProfile());
  std::vector<float> out_cu;
  {
    DiagnosticEngine diags;
    auto m = Module::Compile(tr.source, Dialect::kCUDA, diags);
    ASSERT_TRUE(m.ok()) << diags.ToString() << "\n" << tr.source;
    ASSERT_TRUE((*m)->LoadOn(dev_cu).ok());
    auto data = dev_cu.vm().AllocGlobal(n * 4);
    ASSERT_TRUE(data.ok());
    std::memcpy(*dev_cu.vm().Resolve(*data, n * 4), init.data(), n * 4);
    // The wrapper copies the dynamic-constant buffer into the arena.
    auto sym = (*m)->FindSymbol("__OC2CU_const_mem");
    ASSERT_TRUE(sym.ok());
    std::memcpy(*dev_cu.vm().Resolve(sym->va, 8), coef.data(), 8);
    interp::LaunchConfig cfg;
    cfg.grid = Dim3(n / block);
    cfg.block = Dim3(block);
    cfg.dynamic_shared_bytes = block * 4;  // wrapper-computed total
    size_t tile_size = block * 4;
    size_t coef_size = 8;
    std::vector<KernelArg> args = {
        KernelArg::Pointer(*data), KernelArg::Value<size_t>(tile_size),
        KernelArg::Value<size_t>(coef_size), KernelArg::Value<int>(n)};
    auto lr = interp::LaunchKernel(dev_cu, **m, "work", cfg, args);
    ASSERT_TRUE(lr.ok()) << lr.status().ToString() << "\n" << tr.source;
    out_cu.resize(n);
    std::memcpy(out_cu.data(), *dev_cu.vm().Resolve(*data, n * 4), n * 4);
  }
  EXPECT_EQ(out_cl, out_cu);
}

// ===========================================================================
// CUDA → OpenCL
// ===========================================================================

TEST(CuToClTest, BuiltinVariableMapping) {
  auto r = MustTranslateCuToCl(
      "__global__ void k(int* out, int n) {"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  if (i < n) out[i] = (int)gridDim.x;"
      "}");
  EXPECT_TRUE(Contains(r.source, "__kernel void k(")) << r.source;
  EXPECT_TRUE(Contains(r.source, "__global int* out")) << r.source;
  EXPECT_TRUE(Contains(
      r.source, "get_group_id(0) * get_local_size(0) + get_local_id(0)"))
      << r.source;
  EXPECT_TRUE(Contains(r.source, "get_num_groups(0)")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, SyncAndSharedMapping) {
  auto r = MustTranslateCuToCl(
      "__global__ void k(float* d) {"
      "  __shared__ float tile[32];"
      "  tile[threadIdx.x] = d[threadIdx.x];"
      "  __syncthreads();"
      "  d[threadIdx.x] = tile[31 - threadIdx.x];"
      "}");
  EXPECT_TRUE(Contains(r.source, "__local float tile[32];")) << r.source;
  EXPECT_TRUE(Contains(r.source, "barrier(CLK_LOCAL_MEM_FENCE)")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, ExternSharedBecomesParam) {
  auto r = MustTranslateCuToCl(
      "__global__ void k(float* d) {"
      "  extern __shared__ float tile[];"
      "  tile[threadIdx.x] = d[threadIdx.x];"
      "  __syncthreads();"
      "  d[threadIdx.x] = tile[0];"
      "}");
  EXPECT_TRUE(Contains(r.source, "__local float* tile")) << r.source;
  EXPECT_FALSE(Contains(r.source, "extern")) << r.source;
  ASSERT_EQ(r.kernels.size(), 1u);
  EXPECT_TRUE(r.kernels[0].has_dynamic_shared);
  EXPECT_EQ(r.kernels[0].original_param_count, 1);
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, TextureBecomesImageAndSampler) {
  auto r = MustTranslateCuToCl(
      "texture<float, 2, cudaReadModeElementType> tex;"
      "__global__ void k(float* out, int w) {"
      "  int x = threadIdx.x;"
      "  out[x] = tex2D(tex, (float)x, 1.0f);"
      "}");
  EXPECT_FALSE(Contains(r.source, "texture<")) << r.source;
  EXPECT_TRUE(Contains(r.source, "image2d_t tex__img")) << r.source;
  EXPECT_TRUE(Contains(r.source, "sampler_t tex__sampler")) << r.source;
  EXPECT_TRUE(Contains(r.source, "read_imagef(tex__img, tex__sampler,"))
      << r.source;
  EXPECT_TRUE(Contains(r.source, ".x")) << r.source;  // width-1 narrowing
  ASSERT_EQ(r.kernels.size(), 1u);
  ASSERT_EQ(r.kernels[0].texture_params.size(), 1u);
  EXPECT_EQ(r.kernels[0].texture_params[0], "tex");
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, DeviceGlobalBecomesParam) {
  auto r = MustTranslateCuToCl(
      "__device__ float bias[16];"
      "__device__ int flag;"
      "__global__ void k(float* out) {"
      "  out[threadIdx.x] = bias[threadIdx.x];"
      "  if (threadIdx.x == 0) flag = 1;"
      "}");
  EXPECT_TRUE(Contains(r.source, "__global float* bias")) << r.source;
  EXPECT_TRUE(Contains(r.source, "__global int* flag")) << r.source;
  EXPECT_TRUE(Contains(r.source, "(*flag) = 1")) << r.source;
  ASSERT_EQ(r.kernels.size(), 1u);
  ASSERT_EQ(r.kernels[0].symbol_params.size(), 2u);
  EXPECT_EQ(r.kernels[0].symbol_params[0].name, "bias");
  EXPECT_EQ(r.kernels[0].symbol_params[0].byte_size, 64u);
  EXPECT_FALSE(r.kernels[0].symbol_params[0].is_constant);
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, RuntimeInitConstantBecomesParam) {
  auto r = MustTranslateCuToCl(
      "__constant__ float lut_static[2] = {1.0f, 2.0f};"
      "__constant__ float lut_runtime[4];"
      "__global__ void k(float* out) {"
      "  out[0] = lut_static[0] + lut_runtime[0];"
      "}");
  // Statically initialized constants translate directly (§4.2).
  EXPECT_TRUE(Contains(r.source, "__constant float lut_static[2]"))
      << r.source;
  // Runtime-initialized constants become dynamic buffers.
  EXPECT_TRUE(Contains(r.source, "__constant float* lut_runtime"))
      << r.source;
  ASSERT_EQ(r.kernels.size(), 1u);
  ASSERT_EQ(r.kernels[0].symbol_params.size(), 1u);
  EXPECT_TRUE(r.kernels[0].symbol_params[0].is_constant);
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, CppFeaturesLowered) {
  auto r = MustTranslateCuToCl(
      "template <typename T> __device__ T tmax(T a, T b) {"
      "  return a > b ? a : b;"
      "}"
      "__device__ void bump(float& x) { x = x + 1.0f; }"
      "__global__ void k(float* out, int* iout) {"
      "  float v = tmax<float>(out[0], out[1]);"
      "  iout[0] = tmax<int>(iout[1], iout[2]);"
      "  bump(v);"
      "  out[2] = v + static_cast<float>(iout[0]);"
      "}");
  EXPECT_TRUE(Contains(r.source, "float tmax_float(float a, float b)"))
      << r.source;
  EXPECT_TRUE(Contains(r.source, "int tmax_int(int a, int b)")) << r.source;
  EXPECT_FALSE(Contains(r.source, "template")) << r.source;
  EXPECT_TRUE(Contains(r.source, "void bump(float* x)")) << r.source;
  EXPECT_TRUE(Contains(r.source, "(*x) = (*x) + 1.0f")) << r.source;
  EXPECT_TRUE(Contains(r.source, "bump(&v)")) << r.source;
  EXPECT_FALSE(Contains(r.source, "static_cast")) << r.source;
  EXPECT_TRUE(Contains(r.source, "(float)")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, MathAndMakeVectorMapping) {
  auto r = MustTranslateCuToCl(
      "__global__ void k(float* out, float4* v) {"
      "  out[0] = sqrtf(out[1]) + __expf(out[2]) + fminf(out[3], 1.0f);"
      "  v[0] = make_float4(1.0f, 2.0f, 3.0f, 4.0f);"
      "}");
  EXPECT_TRUE(Contains(r.source, "sqrt(")) << r.source;
  EXPECT_TRUE(Contains(r.source, "native_exp(")) << r.source;
  EXPECT_TRUE(Contains(r.source, "fmin(")) << r.source;
  EXPECT_TRUE(Contains(r.source, "(float4)(1.0f, 2.0f, 3.0f, 4.0f)"))
      << r.source;
  EXPECT_FALSE(Contains(r.source, "make_float4")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, OneComponentVectorAndLonglong) {
  auto r = MustTranslateCuToCl(
      "__global__ void k(float1* a, longlong2* b) {"
      "  float1 v = a[0];"
      "  float w = v.x;"
      "  a[1] = v;"
      "  b[0].x = b[1].x;"
      "  a[2].x = w;"
      "}");
  EXPECT_FALSE(Contains(r.source, "float1")) << r.source;
  EXPECT_TRUE(Contains(r.source, "__global float* a")) << r.source;
  EXPECT_TRUE(Contains(r.source, "long2")) << r.source;
  EXPECT_FALSE(Contains(r.source, "longlong")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, HardwareBuiltinsUntranslatable) {
  for (const char* body : {
           "out[0] = __shfl(1, 0);",
           "out[0] = __all(1);",
           "out[0] = (int)clock();",
           "assert(out[0] == 0);",
           "printf(\"%d\", out[0]);",
           "out[0] = warpSize;",
       }) {
    DiagnosticEngine diags;
    std::string src =
        std::string("__global__ void k(int* out) {") + body + "}";
    auto r = TranslateCudaToOpenCl(src, diags);
    ASSERT_FALSE(r.ok()) << body;
    EXPECT_EQ(r.status().code(), StatusCode::kUntranslatable) << body;
  }
}

TEST(CuToClTest, AtomicIncRejectedWithoutEmulation) {
  DiagnosticEngine diags;
  auto r = TranslateCudaToOpenCl(
      "__global__ void k(unsigned int* c) { atomicInc(c, 16u); }", diags);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUntranslatable);
}

TEST(CuToClTest, AtomicEmulationExtension) {
  TranslateOptions opts;
  opts.allow_atomic_emulation = true;
  auto r = MustTranslateCuToCl(
      "__global__ void k(unsigned int* c) { atomicInc(c, 3u); }", opts);
  EXPECT_TRUE(Contains(r.source, "__cu2cl_atomicInc(c, 3u)")) << r.source;
  EXPECT_TRUE(Contains(r.source, "atomic_cmpxchg")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, BuiltinCallsWithTooFewArgumentsAreRejected) {
  // The texture and make_T rewrites read the arguments their built-in
  // takes; sema rejects a shorter call before any pass runs.
  for (const char* src :
       {"texture<float, 2, cudaReadModeElementType> t;"
        "__global__ void k(float* a) { a[0] = tex2D(t, 1.0f); }",
        "__global__ void k(float* a) { float1 v = make_float1(); }"}) {
    DiagnosticEngine diags;
    auto r = TranslateCudaToOpenCl(src, diags);
    ASSERT_FALSE(r.ok()) << src;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << src;
    EXPECT_TRUE(Contains(diags.ToString(), "too few arguments to built-in"))
        << diags.ToString();
  }
}

TEST(CuToClTest, StructWithPointersRejected) {
  // The heartwall failure (§6.3).
  DiagnosticEngine diags;
  auto r = TranslateCudaToOpenCl(
      "struct Args { float* data; int n; };"
      "__global__ void k(struct Args a) { a.data[0] = 1.0f; }",
      diags);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUntranslatable);
  EXPECT_TRUE(Contains(diags.ToString(), "struct containing device"))
      << diags.ToString();
}

TEST(CuToClTest, MultiSpacePointerSplitInStraightLine) {
  // §3.6: "our translator generates a new pointer variable for each
  // address space" — the straight-line reuse pattern splits cleanly.
  auto r = MustTranslateCuToCl(
      "__global__ void k(float* g) {"
      "  __shared__ float tile[8];"
      "  int t = (int)threadIdx.x;"
      "  float* p = g;"
      "  tile[t] = p[t] * 2.0f;"
      "  __syncthreads();"
      "  p = tile;"        // same pointer, different space
      "  g[t] = p[7 - t];"
      "}");
  EXPECT_TRUE(Contains(r.source, "__global float* p__g0 = g;")) << r.source;
  EXPECT_TRUE(Contains(r.source, "__local float* p__l1 = tile;"))
      << r.source;
  EXPECT_TRUE(Contains(r.source, "p__g0[t]")) << r.source;
  EXPECT_TRUE(Contains(r.source, "p__l1[7 - t]")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, MultiSpaceSplitExecutesIdentically) {
  const std::string cu_src =
      "__global__ void k(float* g) {"
      "  __shared__ float tile[8];"
      "  int t = (int)threadIdx.x;"
      "  float* p = g;"
      "  tile[t] = p[t] * 2.0f;"
      "  __syncthreads();"
      "  p = tile;"
      "  g[t] = p[7 - t] + 1.0f;"
      "}";
  auto run = [&](const std::string& src, Dialect d) {
    Device dev(TitanProfile());
    DiagnosticEngine diags;
    auto m = Module::Compile(src, d, diags);
    EXPECT_TRUE(m.ok()) << diags.ToString() << "\n" << src;
    EXPECT_TRUE((*m)->LoadOn(dev).ok());
    auto data = dev.vm().AllocGlobal(8 * 4);
    EXPECT_TRUE(data.ok());
    float init[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::memcpy(*dev.vm().Resolve(*data, 32), init, 32);
    interp::LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(8);
    std::vector<KernelArg> args = {KernelArg::Pointer(*data)};
    EXPECT_TRUE(interp::LaunchKernel(dev, **m, "k", cfg, args).ok());
    std::vector<float> out(8);
    std::memcpy(out.data(), *dev.vm().Resolve(*data, 32), 32);
    return out;
  };
  auto cu = run(cu_src, Dialect::kCUDA);
  auto tr = MustTranslateCuToCl(cu_src);
  auto cl = run(tr.source, Dialect::kOpenCL);
  EXPECT_EQ(cu, cl);
  EXPECT_FLOAT_EQ(cu[0], 17.0f);  // 2*8 + 1
}

TEST(CuToClTest, MultiSpacePointerInControlFlowRejected) {
  DiagnosticEngine diags;
  auto r = TranslateCudaToOpenCl(
      "__global__ void k(float* g, int cond) {"
      "  __shared__ float tile[8];"
      "  float* p = g;"
      "  if (cond) { p = tile; }"  // reaching definition is ambiguous
      "  p[0] = 1.0f;"
      "}",
      diags);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUntranslatable);
}

TEST(CuToClTest, HelperSpecializedPerAddressSpace) {
  auto r = MustTranslateCuToCl(
      "__device__ float first(float* p) { return p[0]; }"
      "__global__ void k(float* g, float* out) {"
      "  __shared__ float tile[4];"
      "  tile[threadIdx.x] = g[threadIdx.x];"
      "  __syncthreads();"
      "  out[0] = first(g) + first(tile);"
      "}");
  EXPECT_TRUE(Contains(r.source, "first__g(__global float* p)")) << r.source;
  EXPECT_TRUE(Contains(r.source, "first__l(__local float* p)")) << r.source;
  EXPECT_TRUE(Contains(r.source, "first__g(g)")) << r.source;
  EXPECT_TRUE(Contains(r.source, "first__l(tile)")) << r.source;
  ExpectCompiles(r.source, Dialect::kOpenCL);
}

TEST(CuToClTest, EndToEndEquivalence) {
  const std::string cu_src =
      "__device__ float scale(float v, float s) { return v * s; }"
      "__global__ void work(float* data, int n) {"
      "  __shared__ float tile[16];"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  int l = threadIdx.x;"
      "  tile[l] = scale(data[i], 3.0f);"
      "  __syncthreads();"
      "  if (i < n) data[i] = tile[15 - l] + 1.0f;"
      "}";
  const int n = 64, block = 16;
  std::vector<float> init(n);
  std::iota(init.begin(), init.end(), 0.0f);

  auto run = [&](const std::string& src, Dialect d) {
    Device dev(TitanProfile());
    DiagnosticEngine diags;
    auto m = Module::Compile(src, d, diags);
    EXPECT_TRUE(m.ok()) << diags.ToString() << "\n" << src;
    EXPECT_TRUE((*m)->LoadOn(dev).ok());
    auto data = dev.vm().AllocGlobal(n * 4);
    EXPECT_TRUE(data.ok());
    std::memcpy(*dev.vm().Resolve(*data, n * 4), init.data(), n * 4);
    interp::LaunchConfig cfg;
    cfg.grid = Dim3(n / block);
    cfg.block = Dim3(block);
    std::vector<KernelArg> args = {KernelArg::Pointer(*data),
                                   KernelArg::Value<int>(n)};
    auto lr = interp::LaunchKernel(dev, **m, "work", cfg, args);
    EXPECT_TRUE(lr.ok()) << lr.status().ToString();
    std::vector<float> out(n);
    std::memcpy(out.data(), *dev.vm().Resolve(*data, n * 4), n * 4);
    return out;
  };

  std::vector<float> out_cu = run(cu_src, Dialect::kCUDA);
  auto tr = MustTranslateCuToCl(cu_src);
  std::vector<float> out_cl = run(tr.source, Dialect::kOpenCL);
  EXPECT_EQ(out_cu, out_cl);
}

TEST(CuToClTest, RoundTripThroughBothTranslators) {
  // OpenCL → CUDA → OpenCL must still compile and keep the kernel shape.
  const std::string cl_src =
      "__kernel void k(__global float* a, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) a[i] = a[i] * 2.0f + 1.0f;"
      "}";
  auto cu = MustTranslateClToCu(cl_src);
  auto cl = MustTranslateCuToCl(cu.source);
  EXPECT_TRUE(Contains(cl.source, "__kernel void k(")) << cl.source;
  EXPECT_TRUE(Contains(cl.source, "get_local_id(0)")) << cl.source;
  ExpectCompiles(cl.source, Dialect::kOpenCL);
}

}  // namespace
}  // namespace bridgecl::translator
