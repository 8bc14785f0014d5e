#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <type_traits>

#include "interp/executor.h"
#include "interp/image.h"
#include "interp/module.h"
#include "interp/value.h"
#include "simgpu/device.h"

// Every form of global operator new is replaced so that the allocation
// test below can count the heap allocations one launch makes. Counting is
// per thread and off except around the launch under test; the matching
// deletes free what malloc returned.
namespace {
thread_local bool t_count_news = false;
thread_local uint64_t t_news = 0;

void* CountedNew(std::size_t n, std::size_t align = 0) {
  if (t_count_news) ++t_news;
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedNewNoThrow(std::size_t n, std::size_t align = 0) noexcept {
  try {
    return CountedNew(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
}  // namespace

void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedNewNoThrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedNewNoThrow(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedNewNoThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedNewNoThrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bridgecl::interp {
namespace {

using lang::Dialect;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

class InterpTest : public ::testing::Test {
 protected:
  Device device_{TitanProfile()};

  std::unique_ptr<Module> Compile(const std::string& src, Dialect d) {
    DiagnosticEngine diags;
    auto m = Module::Compile(src, d, diags);
    EXPECT_TRUE(m.ok()) << diags.ToString();
    if (!m.ok()) return nullptr;
    Status st = (*m)->LoadOn(device_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return std::move(*m);
  }

  uint64_t Alloc(size_t bytes) {
    auto va = device_.vm().AllocGlobal(bytes);
    EXPECT_TRUE(va.ok());
    return *va;
  }

  template <typename T>
  void WriteBuf(uint64_t va, const std::vector<T>& data) {
    auto p = device_.vm().Resolve(va, data.size() * sizeof(T));
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    std::memcpy(*p, data.data(), data.size() * sizeof(T));
  }

  template <typename T>
  std::vector<T> ReadBuf(uint64_t va, size_t count) {
    auto p = device_.vm().Resolve(va, count * sizeof(T));
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    std::vector<T> out(count);
    if (p.ok()) std::memcpy(out.data(), *p, count * sizeof(T));
    return out;
  }
};

TEST_F(InterpTest, OpenClVectorAdd) {
  auto m = Compile(
      "__kernel void vadd(__global float* a, __global float* b,"
      "                   __global float* c, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int n = 64;
  std::vector<float> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = i * 1.0f;
    b[i] = i * 2.0f;
  }
  uint64_t va = Alloc(n * 4), vb = Alloc(n * 4), vc = Alloc(n * 4);
  WriteBuf(va, a);
  WriteBuf(vb, b);
  LaunchConfig cfg;
  cfg.grid = Dim3(2);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(va),
                                 KernelArg::Pointer(vb),
                                 KernelArg::Pointer(vc),
                                 KernelArg::Value<int>(n)};
  auto r = LaunchKernel(device_, *m, "vadd", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto c = ReadBuf<float>(vc, n);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(c[i], 3.0f * i);
  EXPECT_EQ(r->work_items, 64u);
  EXPECT_GT(r->total_cycles, 0.0);
}

TEST_F(InterpTest, CudaVectorAddWithBuiltinVars) {
  auto m = Compile(
      "__global__ void vadd(float* a, float* b, float* c, int n) {"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  const int n = 48;  // not a multiple of block size: guard must work
  std::vector<float> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = 1.5f * i;
    b[i] = 0.5f * i;
  }
  uint64_t va = Alloc(n * 4), vb = Alloc(n * 4), vc = Alloc(n * 4);
  WriteBuf(va, a);
  WriteBuf(vb, b);
  LaunchConfig cfg;
  cfg.grid = Dim3(2);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(va),
                                 KernelArg::Pointer(vb),
                                 KernelArg::Pointer(vc),
                                 KernelArg::Value<int>(n)};
  auto r = LaunchKernel(device_, *m, "vadd", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto c = ReadBuf<float>(vc, n);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(c[i], 2.0f * i);
}

TEST_F(InterpTest, BarrierReduction) {
  // Tree reduction in shared memory: requires true barrier semantics.
  auto m = Compile(
      "__kernel void reduce(__global float* in, __global float* out) {"
      "  __local float tile[64];"
      "  int lid = get_local_id(0);"
      "  int gid = get_global_id(0);"
      "  tile[lid] = in[gid];"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  for (int s = 32; s > 0; s >>= 1) {"
      "    if (lid < s) tile[lid] += tile[lid + s];"
      "    barrier(CLK_LOCAL_MEM_FENCE);"
      "  }"
      "  if (lid == 0) out[get_group_id(0)] = tile[0];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int n = 128;
  std::vector<float> in(n);
  std::iota(in.begin(), in.end(), 1.0f);
  uint64_t vin = Alloc(n * 4), vout = Alloc(2 * 4);
  WriteBuf(vin, in);
  LaunchConfig cfg;
  cfg.grid = Dim3(2);
  cfg.block = Dim3(64);
  std::vector<KernelArg> args = {KernelArg::Pointer(vin),
                                 KernelArg::Pointer(vout)};
  auto r = LaunchKernel(device_, *m, "reduce", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vout, 2);
  // 1..64 = 2080, 65..128 = 6176
  EXPECT_FLOAT_EQ(out[0], 2080.0f);
  EXPECT_FLOAT_EQ(out[1], 6176.0f);
  EXPECT_GT(device_.stats().barriers, 0u);
}

TEST_F(InterpTest, BarrierInsideAHelperSynchronizesTheBlock) {
  // The kernel's only barrier sits in a helper: the items wait there, in
  // the helper's frame, until the whole block arrives.
  auto m = Compile(
      "void tile_sync() { barrier(CLK_LOCAL_MEM_FENCE); }"
      "__kernel void rev(__global int* io) {"
      "  __local int tile[64];"
      "  int l = get_local_id(0);"
      "  tile[l] = io[l];"
      "  tile_sync();"
      "  io[l] = tile[63 - l];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  std::vector<int> in(64);
  std::iota(in.begin(), in.end(), 0);
  uint64_t vio = Alloc(64 * 4);
  WriteBuf(vio, in);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(64);
  std::vector<KernelArg> args = {KernelArg::Pointer(vio)};
  auto r = LaunchKernel(device_, *m, "rev", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vio, 64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], 63 - i) << i;
  EXPECT_EQ(device_.stats().barriers, 64u);
}

TEST_F(InterpTest, CudaDynamicSharedMemory) {
  auto m = Compile(
      "__global__ void rev(float* d) {"
      "  extern __shared__ float tile[];"
      "  int t = threadIdx.x;"
      "  int n = blockDim.x;"
      "  tile[t] = d[t];"
      "  __syncthreads();"
      "  d[t] = tile[n - 1 - t];"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  const int n = 32;
  std::vector<float> data(n);
  std::iota(data.begin(), data.end(), 0.0f);
  uint64_t vd = Alloc(n * 4);
  WriteBuf(vd, data);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(n);
  cfg.dynamic_shared_bytes = n * 4;
  std::vector<KernelArg> args = {KernelArg::Pointer(vd)};
  auto r = LaunchKernel(device_, *m, "rev", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vd, n);
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(out[i], float(n - 1 - i));
}

TEST_F(InterpTest, OpenClDynamicLocalArgs) {
  // Two dynamic __local allocations for one kernel — legal in OpenCL,
  // impossible directly in CUDA (§4.1).
  auto m = Compile(
      "__kernel void two(__global int* out, __local int* t1,"
      "                  __local int* t2) {"
      "  int l = get_local_id(0);"
      "  t1[l] = l;"
      "  t2[l] = 100 + l;"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  out[get_global_id(0)] = t1[l] + t2[l];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vout = Alloc(16 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(16);
  std::vector<KernelArg> args = {KernelArg::Pointer(vout),
                                 KernelArg::LocalAlloc(16 * 4),
                                 KernelArg::LocalAlloc(16 * 4)};
  auto r = LaunchKernel(device_, *m, "two", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vout, 16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], 100 + 2 * i);
}

TEST_F(InterpTest, ConstantMemoryStaticInit) {
  auto m = Compile(
      "__constant int lut[4] = {10, 20, 30, 40};"
      "__kernel void k(__global int* out) {"
      "  int i = get_global_id(0);"
      "  out[i] = lut[i % 4];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vout = Alloc(8 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(8);
  std::vector<KernelArg> args = {KernelArg::Pointer(vout)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vout, 8);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[5], 20);
  EXPECT_GT(device_.stats().constant_accesses, 0u);
}

TEST_F(InterpTest, DeviceGlobalSymbol) {
  // CUDA __device__ static + cudaMemcpyToSymbol-style host access (§4.3).
  auto m = Compile(
      "__device__ int bias[4];"
      "__global__ void k(int* out) {"
      "  int i = threadIdx.x;"
      "  out[i] = bias[i] * 2;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  auto sym = m->FindSymbol("bias");
  ASSERT_TRUE(sym.ok());
  EXPECT_EQ(sym->size, 16u);
  EXPECT_EQ(sym->space, lang::AddressSpace::kGlobal);
  WriteBuf(sym->va, std::vector<int>{7, 8, 9, 10});
  uint64_t vout = Alloc(4 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {KernelArg::Pointer(vout)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vout, 4);
  EXPECT_EQ(out[0], 14);
  EXPECT_EQ(out[3], 20);
}

TEST_F(InterpTest, AtomicSemanticsDiffer) {
  // §3.7: OpenCL atomic_inc is unconditional; CUDA atomicInc wraps.
  auto mcl = Compile(
      "__kernel void k(__global int* c) { atomic_inc(c); }",
      Dialect::kOpenCL);
  ASSERT_NE(mcl, nullptr);
  uint64_t vc = Alloc(4);
  WriteBuf(vc, std::vector<int>{0});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(10);
  std::vector<KernelArg> args = {KernelArg::Pointer(vc)};
  ASSERT_TRUE(LaunchKernel(device_, *mcl, "k", cfg, args).ok());
  EXPECT_EQ(ReadBuf<int>(vc, 1)[0], 10);

  auto mcu = Compile(
      "__global__ void k(unsigned int* c) { atomicInc(c, 3u); }",
      Dialect::kCUDA);
  ASSERT_NE(mcu, nullptr);
  uint64_t vc2 = Alloc(4);
  WriteBuf(vc2, std::vector<unsigned>{0});
  std::vector<KernelArg> args2 = {KernelArg::Pointer(vc2)};
  ASSERT_TRUE(LaunchKernel(device_, *mcu, "k", cfg, args2).ok());
  // 10 increments wrapping at 3: 0,1,2,3,0,1,2,3,0,1 -> final 2
  EXPECT_EQ(ReadBuf<unsigned>(vc2, 1)[0], 2u);
}

TEST_F(InterpTest, VectorSwizzlesInKernel) {
  auto m = Compile(
      "__kernel void k(__global float4* v, __global float2* out) {"
      "  float4 a = v[0];"
      "  out[0] = a.lo + a.hi;"
      "  float4 r = a.wzyx;"
      "  out[1] = r.xy;"
      "  a.odd = a.even;"
      "  out[2] = a.yw;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vv = Alloc(16), vo = Alloc(3 * 8);
  WriteBuf(vv, std::vector<float>{1, 2, 3, 4});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vv),
                                 KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 6);
  EXPECT_FLOAT_EQ(out[0], 4.0f);   // 1+3
  EXPECT_FLOAT_EQ(out[1], 6.0f);   // 2+4
  EXPECT_FLOAT_EQ(out[2], 4.0f);   // r.x = a.w
  EXPECT_FLOAT_EQ(out[3], 3.0f);   // r.y = a.z
  EXPECT_FLOAT_EQ(out[4], 1.0f);   // a.y = a.x
  EXPECT_FLOAT_EQ(out[5], 3.0f);   // a.w = a.z
}

TEST_F(InterpTest, WideVectorsAndBitcast) {
  auto m = Compile(
      "__kernel void k(__global float8* v, __global float* out) {"
      "  float8 a = v[0];"
      "  float8 b = a + a;"
      "  out[0] = b.s0 + b.s7;"
      "  out[1] = as_float(as_int(a.s1));"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vv = Alloc(32), vo = Alloc(8);
  WriteBuf(vv, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vv),
                                 KernelArg::Pointer(vo)};
  ASSERT_TRUE(LaunchKernel(device_, *m, "k", cfg, args).ok());
  auto out = ReadBuf<float>(vo, 2);
  EXPECT_FLOAT_EQ(out[0], 18.0f);  // 2*1 + 2*8
  EXPECT_FLOAT_EQ(out[1], 2.0f);
}

TEST_F(InterpTest, StructAccess) {
  auto m = Compile(
      "typedef struct { float x; float y; int w; } Pt;"
      "__kernel void k(__global Pt* pts, __global float* out) {"
      "  int i = get_global_id(0);"
      "  Pt p = pts[i];"
      "  out[i] = p.x * p.y + (float)p.w;"
      "  pts[i].w = i;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  struct Pt {
    float x, y;
    int w;
  };
  std::vector<Pt> pts = {{2, 3, 1}, {4, 5, 2}};
  uint64_t vp = Alloc(sizeof(Pt) * 2), vo = Alloc(8);
  WriteBuf(vp, pts);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(2);
  std::vector<KernelArg> args = {KernelArg::Pointer(vp),
                                 KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 2);
  EXPECT_FLOAT_EQ(out[0], 7.0f);
  EXPECT_FLOAT_EQ(out[1], 22.0f);
  auto back = ReadBuf<Pt>(vp, 2);
  EXPECT_EQ(back[0].w, 0);
  EXPECT_EQ(back[1].w, 1);
}

TEST_F(InterpTest, VectorMathBuiltinsWorkPerLane) {
  auto m = Compile(
      "__kernel void k(__global float* o) {"
      "  float4 s = sqrt((float4)(4.0f, 25.0f, 64.0f, 81.0f));"
      "  float2 p = pow((float2)(2.0f, 3.0f), (float2)(3.0f, 2.0f));"
      "  float2 f = fma((float2)(2.0f, 3.0f), (float2)(4.0f, 5.0f),"
      "                 (float2)(1.0f, 1.0f));"
      "  int4 sel = select((int4)(1, 2, 3, 4), (int4)(5, 6, 7, 8),"
      "                    (int4)(0, -1, 0, -1));"
      "  int4 mn = min((int4)(1, 7, 3, 9), (int4)(4, 2, 8, 5));"
      "  o[0] = s.x; o[1] = s.y; o[2] = s.z; o[3] = s.w;"
      "  o[4] = p.x; o[5] = p.y; o[6] = f.x; o[7] = f.y;"
      "  o[8] = sel.x; o[9] = sel.y; o[10] = sel.z; o[11] = sel.w;"
      "  o[12] = mn.x; o[13] = mn.y; o[14] = mn.z; o[15] = mn.w;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(16 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<float>(vo, 16),
            (std::vector<float>{2, 5, 8, 9, 8, 9, 9, 16, 1, 6, 3, 8, 1, 2, 3,
                                5}));
}

TEST_F(InterpTest, IntegerAndVectorOperatorPaths) {
  auto m = Compile(
      "__kernel void k(__global int* o) {"
      "  o[0]++;"
      "  --o[1];"
      "  int i = o[4] + 1;"
      "  int4 v = (int4)(1, 2, 3, 4);"
      "  v[i] = 30;"
      "  o[4] = v[i];"
      "  v.xy += (int2)(10, 20);"
      "  int4 n = -v;"
      "  int4 b = ~v;"
      "  o[5] = v.x; o[6] = v.y; o[7] = n.y; o[8] = b.x;"
      "  o[9] = !o[2];"
      "  o[10] = (o[2], 7);"
      "  o[11] = sizeof(int4);"
      "  int t[3] = {4, 5, 6};"
      "  o[12] = t[i] + t[2];"
      "  v.x++;"
      "  o[13] = v.x;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(14 * 4);
  WriteBuf(vo, std::vector<int>{5, 9, -3, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 14),
            (std::vector<int>{6, 8, -3, 12, 30, 11, 50, -50, -12, 0, 7, 16,
                              11, 12}));
}

// Every binary operator on two scalars of one kind that the usual
// arithmetic conversions keep (the op loop computes these on their
// payloads), against the host's arithmetic in that kind; comparisons yield
// int. Each kind's op count and cycles are pinned.
TEST_F(InterpTest, BinaryOperatorsOnEveryKeptScalarKind) {
  auto check = [&](const char* type, auto a, auto b, auto s, uint64_t ops,
                   double cycles) {
    using T = decltype(a);
    constexpr bool flt = std::is_floating_point_v<T>;
    std::string body =
        "  o[0] = a + b; o[1] = a - b; o[2] = a * b; o[3] = a / b;"
        "  o[4] = a % b;"
        "  c[0] = a == b; c[1] = a != b; c[2] = a < b; c[3] = a > b;"
        "  c[4] = a <= b; c[5] = a >= b;"
        // Were a comparison unsigned, the first would wrap; were it
        // floating, the second would keep the half.
        "  c[6] = ((a < b) - 2) / 2; c[7] = (a < b) / 2 * 2;";
    if (!flt)
      body +=
          "  o[5] = a << s; o[6] = a >> s; o[7] = a & b; o[8] = a | b;"
          "  o[9] = a ^ b;";
    auto m = Compile(std::string("__kernel void k(__global ") + type +
                         "* o, __global int* c, __global " + type +
                         "* in) {  " + type +
                         " a = in[0], b = in[1], s = in[2];" + body + "}",
                     Dialect::kOpenCL);
    ASSERT_NE(m, nullptr) << type;
    uint64_t vo = Alloc(10 * sizeof(T)), vc = Alloc(8 * 4),
             vin = Alloc(3 * sizeof(T));
    WriteBuf(vo, std::vector<T>(10, T{}));
    WriteBuf(vin, std::vector<T>{a, b, s});
    device_.ResetStats();
    LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                   KernelArg::Pointer(vc),
                                   KernelArg::Pointer(vin)};
    auto r = LaunchKernel(device_, *m, "k", cfg, args);
    ASSERT_TRUE(r.ok()) << type << ": " << r.status().ToString();
    std::vector<T> want = {T(a + b), T(a - b), T(a * b), T(a / b), T{},
                           T{},      T{},      T{},      T{},      T{}};
    if constexpr (flt) {
      want[4] = std::fmod(a, b);
    } else {
      want[4] = a % b;
      want[5] = T(a << s);
      want[6] = a >> s;
      want[7] = a & b;
      want[8] = a | b;
      want[9] = a ^ b;
    }
    EXPECT_EQ(ReadBuf<T>(vo, 10), want) << type;
    EXPECT_EQ(ReadBuf<int>(vc, 8),
              (std::vector<int>{a == b, a != b, a < b, a > b, a <= b, a >= b,
                                ((a < b) - 2) / 2, 0}))
        << type;
    EXPECT_EQ(device_.stats().ops_executed, ops) << type;
    EXPECT_EQ(r->total_cycles, cycles) << type;
  };
  check("int", int32_t{-47}, int32_t{5}, int32_t{2}, 43, 911);
  check("uint", uint32_t{3000000000u}, uint32_t{7}, uint32_t{3}, 43, 911);
  check("long", -(int64_t{1} << 40) - 7, int64_t{5}, int64_t{3}, 43, 911);
  check("ulong", uint64_t{0xF000000000000009u}, uint64_t{5}, uint64_t{4}, 43,
        911);
  check("float", -7.25f, 2.5f, 0.0f, 33, 701);
  check("double", 1e10 + 0.5, -3.0, 0.0, 33, 701);
}

// Operands the usual arithmetic conversions change: promoted and mixed
// kinds, and a float result kept between two ops.
TEST_F(InterpTest, BinaryOperatorsOnPromotedAndMixedKinds) {
  auto m = Compile(
      "__kernel void k(__global int* o, __global float* f, __global long* l,"
      "                __global int* in) {"
      "  char c1 = in[0], c2 = in[0];"
      "  short s1 = in[1], s2 = in[1];"
      "  int i = in[2];"
      "  uint u = in[3];"
      "  long big = in[4];"
      "  o[0] = c1 + c2;"
      "  o[1] = s1 * s2;"
      "  o[2] = (i + u) > 0u;"
      "  o[3] = (i + u) / 2u;"
      "  f[0] = i + 0.5f;"
      "  l[0] = (big << 40) + i;"
      // Float results stay doubles until stored or converted (the FOUND
      // line on float rounding in CHANGES.md), so this writes 1 where
      // IEEE single arithmetic gives 0.
      "  float x = 16777216.0f;"
      "  f[1] = (x + 1.0f) - x;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4 * 4), vf = Alloc(2 * 4), vl = Alloc(8),
           vin = Alloc(5 * 4);
  WriteBuf(vin, std::vector<int>{100, 300, -2, 1, 7});
  device_.ResetStats();
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {
      KernelArg::Pointer(vo), KernelArg::Pointer(vf), KernelArg::Pointer(vl),
      KernelArg::Pointer(vin)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 4),
            (std::vector<int>{200, 90000, 1, 2147483647}));
  EXPECT_EQ(ReadBuf<float>(vf, 2), (std::vector<float>{-1.5f, 1.0f}));
  EXPECT_EQ(ReadBuf<int64_t>(vl, 1)[0], (int64_t{7} << 40) - 2);
  EXPECT_EQ(device_.stats().ops_executed, 25u);
  EXPECT_EQ(r->total_cycles, 592);
}

// Integer division and remainder by zero fail the launch, on the payload
// path (int, uint), the promoted path (char) and vector lanes.
TEST_F(InterpTest, IntegerDivisionByZeroFailsOnEveryPath) {
  for (const char* body : {
           "o[0] = in[0] / in[1];",
           "o[0] = in[0] % in[1];",
           "uint x = in[0], y = in[1]; o[0] = x / y;",
           "uint x = in[0], y = in[1]; o[0] = x % y;",
           "char x = in[0], y = in[1]; o[0] = x / y;",
           "int4 v = (int4)(in[0]); int4 d = (int4)(1, in[1], 1, 1);"
           "  o[0] = (v / d).x;",
           "int4 v = (int4)(in[0]); int4 d = (int4)(1, in[1], 1, 1);"
           "  o[0] = (v % d).x;",
       }) {
    auto m = Compile(std::string("__kernel void k(__global int* o,"
                                 "                __global int* in) {") +
                         body + "}",
                     Dialect::kOpenCL);
    ASSERT_NE(m, nullptr) << body;
    uint64_t vo = Alloc(4), vin = Alloc(8);
    WriteBuf(vin, std::vector<int>{7, 0});
    LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                   KernelArg::Pointer(vin)};
    auto r = LaunchKernel(device_, *m, "k", cfg, args);
    ASSERT_FALSE(r.ok()) << body;
    EXPECT_NE(r.status().message().find("division by zero in kernel"),
              std::string::npos)
        << body << ": " << r.status().ToString();
  }
}

// The one signed quotient that overflows, the most negative long over -1,
// wraps to itself with remainder 0 (as +, - and * wrap) instead of
// trapping the host: as scalars, a compound assignment and vector lanes.
TEST_F(InterpTest, MostNegativeLongOverMinusOneWraps) {
  auto m = Compile(
      "__kernel void k(__global long* o, __global long* in) {"
      "  long a = in[0], b = in[1], c = in[2];"
      "  o[0] = a / b; o[1] = a % b;"
      "  long x = a; x /= b; o[2] = x;"
      "  long2 v = (long2)(a, c), d = (long2)(b, b);"
      "  o[3] = (v / d).x; o[4] = (v % d).x; o[5] = (v / d).y;"
      "  o[6] = c / b; o[7] = c % b;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(8 * 8), vin = Alloc(3 * 8);
  const int64_t lmin = std::numeric_limits<int64_t>::min();
  WriteBuf(vin, std::vector<int64_t>{lmin, -1, 5});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Pointer(vin)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int64_t>(vo, 8),
            (std::vector<int64_t>{lmin, 0, lmin, lmin, 0, -5, -5, 0}));
}

TEST_F(InterpTest, CallPointerAndUnsignedPaths) {
  auto m = Compile(
      "typedef struct { int a; int b; } P;"
      "int sum(P p) { return p.a + p.b; }"
      "int twice(int x) { int* q = &x; *q = *q * 2; return x; }"
      "__kernel void k(__global int* o, __global uint* u, P s) {"
      "  o[0] = sum(s);"
      "  o[1] = twice(21);"
      "  o[2] = &o[5] - &o[1];"
      "  o[3] = *(1 + o);"
      "  __global int* p = o;"
      "  ++p;"
      "  o[4] = *p;"
      "  float f = 1.5f;"
      "  f++;"
      "  o[5] = f * 2.0f;"
      "  o[6] = min(3u, 5u) * 10 + max(3u, 5u);"
      "  o[7] = clamp(o[1], 0, 5);"
      "  int4 v = (int4)((int2)(1, 2), (int2)(3, 4));"
      "  o[8] = v.w;"
      "  o[9] = atomic_min(&u[0], 2u) * 10 + atomic_max(&u[1], 9u);"
      "  int4 c = v > (int4)(2, 2, 2, 2);"
      "  o[10] = c.y * 10 + c.z;"
      "  float2 n = -(float2)(1.5f, 2.0f);"
      "  o[11] = n.x * 2.0f;"
      "  o[12] = ~o[1];"
      "  int x = 1;"
      "  o[13] = x + (x = 5);"  // left to right: x is read before it is set
      "  o[14] = sizeof(o[0]) + +o[1];"
      "  o[15] = get_num_groups(0);"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  struct P {
    int a, b;
  };
  uint64_t vo = Alloc(16 * 4), vu = Alloc(8);
  WriteBuf(vu, std::vector<uint32_t>{4, 7});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Pointer(vu),
                                 KernelArg::Value(P{30, 12})};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 16),
            (std::vector<int>{42, 42, 4, 42, 42, 5, 35, 5, 4, 47, -1, -3,
                              -43, 6, 46, 1}));
  EXPECT_EQ(ReadBuf<uint32_t>(vu, 2), (std::vector<uint32_t>{2, 9}));
}

TEST_F(InterpTest, CudaHardwareBuiltinsRunOnOneThread) {
  auto m = Compile(
      "__global__ void k(int* o) {"
      "  o[0] = printf(\"%d\\n\", 7);"
      "  o[1] = __ballot(1);"
      "  o[2] = clock64() > 0;"
      "  o[3] = warpSize;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4 * 4);
  WriteBuf(vo, std::vector<int>{9, 9, 9, 9});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // printf is not interpreted and returns 0; one thread's ballot is its
  // own predicate; the cycle counter has advanced.
  EXPECT_EQ(ReadBuf<int>(vo, 4),
            (std::vector<int>{0, 1, 1, device_.profile().warp_size}));
}

TEST_F(InterpTest, UserFunctionsAndTemplates) {
  auto m = Compile(
      "template <typename T> __device__ T tmax(T a, T b) {"
      "  return a > b ? a : b;"
      "}"
      "__device__ float scale(float v, float s) { return v * s; }"
      "__global__ void k(float* out, float* a, float* b) {"
      "  int i = threadIdx.x;"
      "  out[i] = scale(tmax<float>(a[i], b[i]), 10.0f);"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(16), va = Alloc(16), vb = Alloc(16);
  WriteBuf(va, std::vector<float>{1, 5, 2, 8});
  WriteBuf(vb, std::vector<float>{4, 3, 9, 6});
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Pointer(va),
                                 KernelArg::Pointer(vb)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 4);
  EXPECT_FLOAT_EQ(out[0], 40.0f);
  EXPECT_FLOAT_EQ(out[1], 50.0f);
  EXPECT_FLOAT_EQ(out[2], 90.0f);
  EXPECT_FLOAT_EQ(out[3], 80.0f);
}

TEST_F(InterpTest, ReferenceParams) {
  auto m = Compile(
      "__device__ void bump(int& x, int d) { x = x + d; }"
      "__global__ void k(int* out) {"
      "  int v = 5;"
      "  bump(v, 3);"
      "  out[threadIdx.x] = v;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 1)[0], 8);
}

TEST_F(InterpTest, PrivateArraysAndAddressOf) {
  auto m = Compile(
      "__device__ float sum3(float* p) { return p[0] + p[1] + p[2]; }"
      "__global__ void k(float* out) {"
      "  float acc[3];"
      "  acc[0] = 1.0f; acc[1] = 2.0f; acc[2] = 4.0f;"
      "  float x = 10.0f;"
      "  float* px = &x;"
      "  *px = *px + 1.0f;"
      "  out[0] = sum3(acc) + x;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FLOAT_EQ(ReadBuf<float>(vo, 1)[0], 18.0f);
}

TEST_F(InterpTest, ImageReadWrite) {
  // Build a 4x2 single-channel float image and sample it.
  const int w = 4, h = 2;
  uint64_t data_va = Alloc(w * h * 4);
  WriteBuf(data_va, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
  ImageDesc desc;
  desc.data_va = data_va;
  desc.width = w;
  desc.height = h;
  desc.channels = 1;
  desc.elem_kind = static_cast<uint32_t>(lang::ScalarKind::kFloat);
  desc.row_pitch = w * 4;
  desc.slice_pitch = w * h * 4;
  desc.dims = 2;
  uint64_t desc_va = Alloc(sizeof(desc));
  {
    auto p = device_.vm().Resolve(desc_va, sizeof(desc));
    ASSERT_TRUE(p.ok());
    std::memcpy(*p, &desc, sizeof(desc));
  }
  auto m = Compile(
      "__kernel void k(__read_only image2d_t img, sampler_t s,"
      "                __global float* out) {"
      "  int i = get_global_id(0);"
      "  float4 t = read_imagef(img, s, (int2)(i, 1));"
      "  out[i] = t.x;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {
      KernelArg::Pointer(desc_va),
      KernelArg::Value<uint64_t>(0),  // sampler: nearest, unnormalized
      KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 4);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[3], 8.0f);
  EXPECT_GT(device_.stats().image_accesses, 0u);
}

TEST_F(InterpTest, CudaTextureFetch) {
  const int n = 8;
  uint64_t data_va = Alloc(n * 4);
  WriteBuf(data_va, std::vector<float>{0, 10, 20, 30, 40, 50, 60, 70});
  ImageDesc desc;
  desc.data_va = data_va;
  desc.width = n;
  desc.height = 1;
  desc.channels = 1;
  desc.elem_kind = static_cast<uint32_t>(lang::ScalarKind::kFloat);
  desc.row_pitch = n * 4;
  desc.slice_pitch = n * 4;
  desc.dims = 1;
  uint64_t desc_va = Alloc(sizeof(desc));
  {
    auto p = device_.vm().Resolve(desc_va, sizeof(desc));
    ASSERT_TRUE(p.ok());
    std::memcpy(*p, &desc, sizeof(desc));
  }
  auto m = Compile(
      "texture<float, 1, cudaReadModeElementType> tex;"
      "__global__ void k(float* out) {"
      "  int i = threadIdx.x;"
      "  out[i] = tex1Dfetch(tex, i);"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->BindTexture("tex", desc_va).ok());
  uint64_t vo = Alloc(n * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(n);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, n);
  EXPECT_FLOAT_EQ(out[3], 30.0f);
  EXPECT_FLOAT_EQ(out[7], 70.0f);
}

TEST_F(InterpTest, UnboundTextureFails) {
  auto m = Compile(
      "texture<float, 1, cudaReadModeElementType> tex;"
      "__global__ void k(float* out) { out[0] = tex1Dfetch(tex, 0); }",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  EXPECT_FALSE(r.ok());
}

TEST_F(InterpTest, BankModeAffectsSharedCost) {
  const std::string src =
      "__kernel void k(__global double* g) {"
      "  __local double tile[32];"
      "  int l = get_local_id(0);"
      "  tile[l] = g[l];"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  g[l] = tile[31 - l] * 2.0;"
      "}";
  auto m = Compile(src, Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vg = Alloc(32 * 8);
  std::vector<double> init(32, 1.0);
  WriteBuf(vg, init);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(vg)};

  device_.set_bank_mode(simgpu::BankMode::k32Bit);
  device_.ResetStats();
  auto r32 = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r32.ok());
  uint64_t words32 = device_.stats().shared_bank_words;

  device_.set_bank_mode(simgpu::BankMode::k64Bit);
  device_.ResetStats();
  auto r64 = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r64.ok());
  uint64_t words64 = device_.stats().shared_bank_words;

  // 8-byte accesses span 2 words in 32-bit mode, 1 in 64-bit mode (§6.2).
  EXPECT_EQ(words32, 2 * words64);
  EXPECT_GT(r32->total_cycles, r64->total_cycles);
}

TEST_F(InterpTest, OccupancyFollowsRegisterOverride) {
  auto m = Compile(
      "__kernel void k(__global float* g) {"
      "  g[get_global_id(0)] *= 2.0f;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vg = Alloc(32 * 4);
  WriteBuf(vg, std::vector<float>(32, 1.0f));
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(32);
  std::vector<KernelArg> args = {KernelArg::Pointer(vg)};

  m->SetRegisterOverride("k", 85);  // cfd CUDA-side pressure
  auto lo = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(lo.ok());
  m->SetRegisterOverride("k", 68);  // cfd OpenCL-side pressure
  auto hi = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(hi.ok());
  EXPECT_NEAR(lo->occupancy, 0.375, 0.01);
  EXPECT_NEAR(hi->occupancy, 0.469, 0.01);
  EXPECT_GT(lo->kernel_time_us, hi->kernel_time_us);
}

TEST_F(InterpTest, OutOfBoundsAccessFaults) {
  auto m = Compile(
      "__kernel void k(__global int* g) { g[1000000] = 1; }",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vg = Alloc(16);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vg)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST_F(InterpTest, WrongArgCountRejected) {
  auto m = Compile("__kernel void k(__global int* g, int n) {}",
                   Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(Alloc(16))};
  EXPECT_FALSE(LaunchKernel(device_, *m, "k", cfg, args).ok());
}

TEST_F(InterpTest, DeclaredButUndefinedFunctionFailsAtLaunch) {
  // A prototype builds; the launch fails when a work-item reaches the call.
  auto m = Compile(
      "int helper(int x);"
      "__kernel void k(__global int* g) { g[0] = helper(1); }",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(Alloc(16))};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("'helper'"), std::string::npos)
      << r.status().ToString();
}

TEST_F(InterpTest, BlockTooLargeRejected) {
  auto m = Compile("__kernel void k() {}", Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4096);
  auto r = LaunchKernel(device_, *m, "k", cfg, {});
  EXPECT_FALSE(r.ok());
}

TEST_F(InterpTest, MathBuiltins) {
  auto m = Compile(
      "__kernel void k(__global float* out) {"
      "  out[0] = sqrt(16.0f);"
      "  out[1] = fmax(2.0f, 3.0f);"
      "  out[2] = exp(0.0f);"
      "  out[3] = pow(2.0f, 10.0f);"
      "  out[4] = fabs(-2.5f);"
      "  out[5] = clamp(5.0f, 0.0f, 1.0f);"
      "  out[6] = floor(2.9f);"
      "  out[7] = fmin(7.0f, (float)min(3, 9));"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(8 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 8);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
  EXPECT_FLOAT_EQ(out[2], 1.0f);
  EXPECT_FLOAT_EQ(out[3], 1024.0f);
  EXPECT_FLOAT_EQ(out[4], 2.5f);
  EXPECT_FLOAT_EQ(out[5], 1.0f);
  EXPECT_FLOAT_EQ(out[6], 2.0f);
  EXPECT_FLOAT_EQ(out[7], 3.0f);
}

TEST_F(InterpTest, StructByValueKernelArg) {
  // CUDA allows passing a struct (even containing pointers) by value —
  // the heartwall pattern that CU→CL translation must reject but native
  // execution must support.
  auto m = Compile(
      "struct Params { float scale; int n; };"
      "__global__ void k(float* out, struct Params p) {"
      "  int i = threadIdx.x;"
      "  if (i < p.n) out[i] = p.scale * i;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(m, nullptr);
  struct Params {
    float scale;
    int n;
  };
  Params p{2.5f, 4};
  uint64_t vo = Alloc(4 * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(4);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Value<Params>(p)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<float>(vo, 4);
  EXPECT_FLOAT_EQ(out[2], 5.0f);
  EXPECT_FLOAT_EQ(out[3], 7.5f);
}

TEST_F(InterpTest, MultiDimensionalGrid) {
  auto m = Compile(
      "__kernel void k(__global int* out, int w) {"
      "  int x = get_global_id(0);"
      "  int y = get_global_id(1);"
      "  out[y * w + x] = x + 10 * y;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int w = 8, h = 4;
  uint64_t vo = Alloc(w * h * 4);
  LaunchConfig cfg;
  cfg.grid = Dim3(2, 2);
  cfg.block = Dim3(4, 2);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Value<int>(w)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = ReadBuf<int>(vo, w * h);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3 * w + 7], 7 + 30);
}

// A launch's heap allocations do not grow with its work-items: once a
// kernel has run, interpreting one more item allocates nothing. Kernel
// `plain` covers int, uint and float scalars, float4 arithmetic with a
// swizzle read and store, pointer arithmetic on a __global buffer, a
// private array indexed in a loop and a helper with a scalar and a
// __global pointer parameter and locals; `tiled` adds a __local tile and
// a barrier, so all of its items are live at once.
TEST_F(InterpTest, LaunchAllocationsDoNotGrowWithWorkItems) {
  const std::string helper =
      "int mix_in(int x, __global const int* table) {"
      "  int doubled = x * 2;"
      "  uint mask = 0xffu;"
      "  return (doubled + table[x & 7]) & (int)mask;"
      "}";
  const std::string params =
      "(__global float4* vecs, __global const int* table,"
      " __global int* ints, __global float* out) {";
  const std::string body =
      "  int i = get_global_id(0);"
      "  uint u = (uint)i * 3u;"
      "  float f = (float)i * 0.5f;"
      "  float4 v = vecs[i] * 2.0f + (float4)(f, f, f, 1.0f);"
      "  v.xy = v.zw;"
      "  float2 hi = v.zw;"
      "  __global int* p = ints + i;"
      "  int a[8];"
      "  for (int k = 0; k < 8; ++k) a[k] = k * i;"
      "  int acc = 0;"
      "  for (int k = 0; k < 8; ++k) acc += a[k];"
      "  *p = acc + mix_in(i, table) + (int)(u % 7u);"
      "  vecs[i] = v;"
      "  float s = hi.x + hi.y + f;";
  auto m = Compile(helper + "__kernel void plain" + params + body +
                       "  out[i] = s;"
                       "}"
                       "__kernel void tiled" + params +
                       "  __local float tile[256];" + body +
                       "  int l = get_local_id(0);"
                       "  tile[l] = s;"
                       "  barrier(CLK_LOCAL_MEM_FENCE);"
                       "  out[i] = tile[(l + 1) % get_local_size(0)];"
                       "}",
                   Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int n = 256;
  uint64_t vvecs = Alloc(n * 16), vtable = Alloc(8 * 4), vints = Alloc(n * 4),
           vout = Alloc(n * 4);
  WriteBuf(vtable, std::vector<int>{3, 1, 4, 1, 5, 9, 2, 6});
  std::vector<KernelArg> args = {
      KernelArg::Pointer(vvecs), KernelArg::Pointer(vtable),
      KernelArg::Pointer(vints), KernelArg::Pointer(vout)};
  SetWorkerCount(1);
  auto news = [&](const char* kernel, uint32_t items) -> uint64_t {
    LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(items);
    t_news = 0;
    t_count_news = true;
    auto r = LaunchKernel(device_, *m, kernel, cfg, args);
    t_count_news = false;
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return t_news;
  };
  for (const char* kernel : {"plain", "tiled"}) {
    news(kernel, n);  // warm-up: sizes every per-worker pool
    EXPECT_EQ(news(kernel, 32), news(kernel, n)) << kernel;
  }
  EXPECT_GT(device_.stats().barriers, 0u);
  SetWorkerCount(0);
}


// Integer and selection built-ins apply per lane on vectors, as the
// scalar op computes one value; a scalar operand is broadcast.
TEST_F(InterpTest, VectorIntegerBuiltinsWorkPerLane) {
  auto m = Compile(
      "__kernel void k(__global float4* f, __global int4* i,"
      "                __global uint4* u) {"
      "  float4 a = (float4)(5.0f, 1.0f, 7.0f, -2.0f);"
      "  float4 b = (float4)(3.0f, 4.0f, 0.5f, 9.0f);"
      "  f[0] = min(a, b);"
      "  f[1] = max(a, b);"
      "  f[2] = clamp(a, (float4)(0.0f), (float4)(2.0f));"
      "  f[3] = mix(a, b, 0.5f);"
      "  i[0] = abs((int4)(-3, 4, -5, 0));"
      "  i[1] = mul24((int4)(2, 3, 4, 5), (int4)(10, 20, 30, 40));"
      "  i[2] = popcount((int4)(7, 8, 255, 0));"
      "  i[3] = clz((int4)(1, 16, 0, 0x00ff0000));"
      "  u[0] = abs((uint4)(3u, 4u, 5u, 0u));"
      "  u[1] = mul24((uint4)(2u, 3u, 4u, 5u), (uint4)(10u, 20u, 30u, 40u));"
      "  u[2] = popcount((uint4)(7u, 8u, 255u, 0xffffffffu));"
      "  u[3] = clz((uint4)(1u, 16u, 0u, 0x80000000u));"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vf = Alloc(4 * 16), vi = Alloc(4 * 16), vu = Alloc(4 * 16);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vf), KernelArg::Pointer(vi),
                                 KernelArg::Pointer(vu)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<float>(vf, 16),
            (std::vector<float>{3, 1, 0.5f, -2,  5, 4, 7, 9,  2, 1, 2, 0,
                                4, 2.5f, 3.75f, 3.5f}));
  EXPECT_EQ(ReadBuf<int>(vi, 16),
            (std::vector<int>{3, 4, 5, 0,  20, 60, 120, 200,  3, 1, 8, 0,
                              31, 27, 32, 8}));
  EXPECT_EQ(ReadBuf<uint32_t>(vu, 16),
            (std::vector<uint32_t>{3, 4, 5, 0,  20, 60, 120, 200,  3, 1, 8, 32,
                                   31, 27, 32, 0}));
}

// The executor's order of events, pinned as numbers. An armed fault plan
// forces one worker and makes the injector count every consult: one
// instruction consult per interpreted statement (compound statements and
// each entry to a loop body included) and one memory-access consult per
// resolved device access. Kernel `pinned_sync` has a __local tile, a
// loop, float4 arithmetic with a swizzle, an atomic and a helper that
// reaches a barrier from the middle of an expression; `pinned_plain` has
// no barrier. The counts, stats and cycles below were recorded from the
// recursive tree-walking evaluator with fiber-scheduled barriers, and the
// block loop must reproduce them exactly, as it must the work-item an
// instruction fault at the first, middle and last ordinal is charged to.
TEST_F(InterpTest, ConsultOrderIsPinned) {
  auto m = Compile(
      "float weigh(__local float* t, int l) {"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  return t[(l + 1) % 8] * 0.5f;"
      "}"
      "__kernel void pinned_sync(__global float4* v, __global float* out,"
      "                          __global int* hits) {"
      "  __local float tile[8];"
      "  int l = get_local_id(0);"
      "  int g = get_global_id(0);"
      "  float4 a = v[g] * 2.0f + (float4)(1.0f, 2.0f, 3.0f, 4.0f);"
      "  a.xy = a.wz;"
      "  float acc = 0.0f;"
      "  for (int k = 0; k < 4; ++k) {"
      "    tile[l] = a.x + k;"
      "    acc += 1.0f + weigh(tile, l) * 2.0f;"
      "    barrier(CLK_LOCAL_MEM_FENCE);"
      "  }"
      "  atomic_add(hits, (int)acc);"
      "  out[g] = acc + a.y;"
      "}"
      "__kernel void pinned_plain(__global float* out, __global int* hits) {"
      "  int g = get_global_id(0);"
      "  float s = 0.0f;"
      "  for (int k = 0; k <= g % 3; ++k) s += (float)k * 1.5f;"
      "  if (g & 1) atomic_inc(hits);"
      "  out[g] = s;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  const int n = 16;
  uint64_t vv = Alloc(n * 16), vout = Alloc(n * 4), vhits = Alloc(4);
  std::vector<float> init(n * 4);
  for (int i = 0; i < n * 4; ++i) init[i] = 0.25f * i;
  struct Run {
    bool ok = false;
    uint64_t instructions = 0, accesses = 0;
    simgpu::DeviceStats stats;
    double cycles = 0;
    std::string culprit;  // the message's work-item suffix on failure
  };
  auto launch = [&](const char* kernel, uint64_t nth) {
    device_.faults().set_plan({});
    WriteBuf(vv, init);
    WriteBuf(vout, std::vector<float>(n, 0.0f));
    WriteBuf(vhits, std::vector<int>{0});
    device_.ResetStats();
    simgpu::FaultPlan plan;
    plan.points.push_back(simgpu::FaultPoint{simgpu::FaultSite::kInstruction,
                                             nth, simgpu::FaultKind::kError,
                                             false, 0});
    device_.faults().set_plan(plan);
    LaunchConfig cfg;
    cfg.grid = Dim3(2);
    cfg.block = Dim3(8);
    std::vector<KernelArg> args = {KernelArg::Pointer(vv),
                                   KernelArg::Pointer(vout),
                                   KernelArg::Pointer(vhits)};
    if (std::string(kernel) == "pinned_plain") args.erase(args.begin());
    auto r = LaunchKernel(device_, *m, kernel, cfg, args);
    Run out;
    out.ok = r.ok();
    out.instructions = device_.faults().count(simgpu::FaultSite::kInstruction);
    out.accesses = device_.faults().count(simgpu::FaultSite::kMemoryAccess);
    out.stats = device_.stats();
    if (r.ok()) out.cycles = r->total_cycles;
    if (!r.ok()) {
      const std::string& msg = r.status().message();
      size_t at = msg.find(" [work-item");
      out.culprit = at == std::string::npos ? msg : msg.substr(at);
    }
    device_.faults().set_plan({});
    return out;
  };
  struct Pinned {
    const char* kernel;
    uint64_t instructions, accesses, ops, global, shared, bank_words, atomics,
        barriers;
    double cycles;
    // Instruction faults at the first, middle and last ordinal: the
    // work-item each is charged to, and the ops the failed launch counted.
    const char* culprit[3];
    uint64_t failed_ops[3];
  };
  const Pinned pinned[] = {
      {"pinned_sync", 624, 192, 976, 64, 128, 128, 16, 128, 0x1.0d4p+13,
       {" [work-item global (0,0,0), local (0,0,0), block (0,0,0)]",
        " [work-item global (8,0,0), local (0,0,0), block (1,0,0)]",
        " [work-item global (15,0,0), local (7,0,0), block (1,0,0)]"},
       {427, 915, 974}},
      {"pinned_plain", 151, 32, 313, 32, 0, 0, 8, 0, 0x1.2a5p+11,
       {" [work-item global (0,0,0), local (0,0,0), block (0,0,0)]",
        " [work-item global (8,0,0), local (0,0,0), block (1,0,0)]",
        " [work-item global (15,0,0), local (7,0,0), block (1,0,0)]"},
       {140, 286, 312}},
  };
  for (const Pinned& p : pinned) {
    Run full = launch(p.kernel, ~uint64_t{0});
    ASSERT_TRUE(full.ok) << p.kernel;
    EXPECT_EQ(full.instructions, p.instructions) << p.kernel;
    EXPECT_EQ(full.accesses, p.accesses) << p.kernel;
    EXPECT_EQ(full.stats.ops_executed, p.ops) << p.kernel;
    EXPECT_EQ(full.stats.global_accesses, p.global) << p.kernel;
    EXPECT_EQ(full.stats.shared_accesses, p.shared) << p.kernel;
    EXPECT_EQ(full.stats.shared_bank_words, p.bank_words) << p.kernel;
    EXPECT_EQ(full.stats.atomics, p.atomics) << p.kernel;
    EXPECT_EQ(full.stats.barriers, p.barriers) << p.kernel;
    EXPECT_EQ(full.cycles, p.cycles) << p.kernel;
    const uint64_t nths[3] = {0, p.instructions / 2, p.instructions - 1};
    for (int i = 0; i < 3; ++i) {
      Run f = launch(p.kernel, nths[i]);
      EXPECT_FALSE(f.ok) << p.kernel << " " << nths[i];
      EXPECT_EQ(f.culprit, p.culprit[i]) << p.kernel << " " << nths[i];
      EXPECT_EQ(f.stats.ops_executed, p.failed_ops[i])
          << p.kernel << " " << nths[i];
    }
  }
}


// A member of an rvalue base is read from the aggregate the base
// evaluates to, once: `make(3).b` reads the returned struct. A member of
// an lvalue is read through its location, and a fault there ends the
// work-item as any access fault does: a kError at every memory-access
// consult, the load of `idx[0]` in `arr[idx[0]].a` included, fails the
// launch and names the work-item. The fault-free run is the tree-walking
// evaluator's: 607, from 7 consults.
TEST_F(InterpTest, FaultInAStructMemberLocationFailsTheItem) {
  auto m = Compile(
      "typedef struct { int a; int b; } S;"
      "S make(int v) { S s; s.a = v; s.b = 2 * v; return s; }"
      "__kernel void k(__global int* o, __global const int* idx,"
      "                __global const S* arr) {"
      "  o[0] = make(3).b * 100 + arr[idx[0]].a;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(4), vidx = Alloc(4), varr = Alloc(16);
  WriteBuf(vidx, std::vector<int>{1});
  WriteBuf(varr, std::vector<int>{5, 6, 7, 8});
  auto launch = [&](uint64_t nth, uint64_t* consults) {
    device_.faults().set_plan({});
    WriteBuf(vo, std::vector<int>{0});
    simgpu::FaultPlan plan;
    plan.points.push_back(simgpu::FaultPoint{simgpu::FaultSite::kMemoryAccess,
                                             nth, simgpu::FaultKind::kError,
                                             false, 0});
    device_.faults().set_plan(plan);
    LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                   KernelArg::Pointer(vidx),
                                   KernelArg::Pointer(varr)};
    auto r = LaunchKernel(device_, *m, "k", cfg, args);
    *consults = device_.faults().count(simgpu::FaultSite::kMemoryAccess);
    device_.faults().set_plan({});
    return r.ok() ? OkStatus() : r.status();
  };
  uint64_t total = 0;
  ASSERT_TRUE(launch(~uint64_t{0}, &total).ok());
  EXPECT_EQ(ReadBuf<int>(vo, 1)[0], 607);
  EXPECT_EQ(total, 7u);
  for (uint64_t nth = 0; nth < total; ++nth) {
    uint64_t consults = 0;
    Status st = launch(nth, &consults);
    EXPECT_FALSE(st.ok()) << nth;
    EXPECT_NE(st.message().find(
                  " [work-item global (0,0,0), local (0,0,0), block (0,0,0)]"),
              std::string::npos)
        << nth << ": " << st.ToString();
  }
}

// Struct member reads of lvalue and rvalue bases. An lvalue base (a
// variable, `*p`, a subscript, `->` or a member of one) is read through
// the member's location; any other base (a call, `?:`) is evaluated once
// as an aggregate and the field read from its bytes. Outputs, stats,
// cycles and consult counts recorded from the tree-walking evaluator.
TEST_F(InterpTest, StructMembersOfLvalueAndRvalueBases) {
  auto m = Compile(
      "typedef struct { int a; int b; } In;"
      "typedef struct { int a; int b; In in; } S;"
      "S make(int v) {"
      "  S s; s.a = v; s.b = 2 * v; s.in.a = 3 * v; s.in.b = 4 * v;"
      "  return s;"
      "}"
      "__kernel void k(__global int* o, __global const int* idx,"
      "                __global S* arr, int c) {"
      "  S s = make(5);"
      "  S t = make(7);"
      "  __global S* p = arr + idx[1];"
      "  o[0] = make(3).b;"
      "  o[1] = make(3).in.a;"
      "  o[2] = (c ? s : t).a;"
      "  o[3] = arr[idx[0]].a;"
      "  o[4] = p->a;"
      "  o[5] = (*p).a;"
      "  o[6] = s.in.a;"
      "  o[7] = p->in.b + (c ? t : s).in.b;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(8 * 4), vidx = Alloc(8), varr = Alloc(2 * 16);
  WriteBuf(vidx, std::vector<int>{1, 0});
  WriteBuf(varr, std::vector<int>{10, 11, 12, 13, 20, 21, 22, 23});
  WriteBuf(vo, std::vector<int>(8, 0));
  device_.ResetStats();
  simgpu::FaultPlan plan;  // never fires; arms the consult counters
  plan.points.push_back(simgpu::FaultPoint{simgpu::FaultSite::kMemoryAccess,
                                           ~uint64_t{0},
                                           simgpu::FaultKind::kError, false,
                                           0});
  device_.faults().set_plan(plan);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(2);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo),
                                 KernelArg::Pointer(vidx),
                                 KernelArg::Pointer(varr),
                                 KernelArg::Value<int>(1)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  EXPECT_EQ(device_.faults().count(simgpu::FaultSite::kInstruction), 80u);
  EXPECT_EQ(device_.faults().count(simgpu::FaultSite::kMemoryAccess), 90u);
  device_.faults().set_plan({});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 8),
            (std::vector<int>{6, 9, 5, 20, 10, 10, 15, 13 + 28}));
  const simgpu::DeviceStats& s = device_.stats();
  EXPECT_EQ(s.ops_executed, 62u);
  EXPECT_EQ(s.global_accesses, 28u);
  EXPECT_EQ(s.shared_accesses, 0u);
  EXPECT_EQ(s.constant_accesses, 0u);
  EXPECT_EQ(r->total_cycles, 0x1.2dcp+10);
}

// A declaration in a loop body reuses, on each iteration, the private
// storage the previous iteration gave it, zeroed again: 5000 iterations
// of a 16-byte array would otherwise need 80 KB of the 64 KB stack. The
// second kernel leaves iterations by `break` and `continue`, nests a loop
// with its own array, and ends with a do-while.
TEST_F(InterpTest, LoopBodyReusesItsPrivateStorage) {
  auto m = Compile(
      "__kernel void simple(__global int* o) {"
      "  int s = 0;"
      "  for (int i = 0; i < 5000; ++i) { int t[4]; t[0] = i; s += t[0] & 1; }"
      "  o[0] = s;"
      "}"
      "__kernel void mixed(__global int* o) {"
      "  int s = 0;"
      "  int i = 0;"
      "  while (1) {"
      "    int t[4];"
      "    s += t[1];"
      "    t[1] = 7;"
      "    t[0] = i;"
      "    ++i;"
      "    if (i > 5000) break;"
      "    if (t[0] & 1) continue;"
      "    for (int j = 0; j < 3; ++j) { int u[2]; u[0] = j; s += u[0] == 1; }"
      "  }"
      "  int k = 0;"
      "  do { int w[4]; w[3] = k; k = w[3] + 1; } while (k < 5000);"
      "  o[0] = s;"
      "  o[1] = k;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  uint64_t vo = Alloc(8);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo)};
  auto r = LaunchKernel(device_, *m, "simple", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 1)[0], 2500);
  r = LaunchKernel(device_, *m, "mixed", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 2), (std::vector<int>{2500, 5000}));
}

// popcount and clz count in the operand's own width, on scalars and on
// each vector lane, and abs of a float is |x| (CUDA's abs(float)).
TEST_F(InterpTest, IntegerBuiltinsUseTheOperandWidth) {
  auto m = Compile(
      "__kernel void k(__global int* o, __global uchar4* c,"
      "                __global int4* v) {"
      "  int m1 = -1;"
      "  uchar one = (uchar)1;"
      "  long lm1 = -1;"
      "  o[0] = popcount(m1);"
      "  o[1] = clz(one);"
      "  o[2] = popcount(lm1);"
      "  o[3] = clz((long)1);"
      "  o[4] = clz((uchar)0);"
      "  o[5] = popcount((uchar)0xff);"
      "  o[6] = clz(0);"
      "  c[0] = clz((uchar4)((uchar)1, (uchar)0x80, (uchar)0, (uchar)0x0f));"
      "  c[1] = popcount((uchar4)((uchar)0xff, (uchar)1, (uchar)0,"
      "                           (uchar)0x0f));"
      "  v[0] = popcount((int4)(-1, 1, 0, -2));"
      "  v[1] = clz((int4)(-1, 1, 0, 0x100));"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  auto cu = Compile(
      "__global__ void k(float* f, int* o) {"
      "  f[0] = abs(-2.5f);"
      "  o[0] = (int)abs(-2.5f);"
      "  o[1] = abs(-7);"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(cu, nullptr);
  uint64_t vo = Alloc(7 * 4), vc = Alloc(8), vv = Alloc(32), vf = Alloc(4),
           vi = Alloc(8);
  LaunchConfig cfg;
  cfg.grid = Dim3(1);
  cfg.block = Dim3(1);
  std::vector<KernelArg> args = {KernelArg::Pointer(vo), KernelArg::Pointer(vc),
                                 KernelArg::Pointer(vv)};
  auto r = LaunchKernel(device_, *m, "k", cfg, args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<int>(vo, 7), (std::vector<int>{32, 7, 64, 63, 8, 8, 32}));
  EXPECT_EQ(ReadBuf<uint8_t>(vc, 8),
            (std::vector<uint8_t>{7, 0, 8, 4, 8, 1, 0, 4}));
  EXPECT_EQ(ReadBuf<int>(vv, 8),
            (std::vector<int>{32, 1, 0, 31, 0, 31, 32, 23}));
  std::vector<KernelArg> cu_args = {KernelArg::Pointer(vf),
                                    KernelArg::Pointer(vi)};
  r = LaunchKernel(device_, *cu, "k", cfg, cu_args);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ReadBuf<float>(vf, 1)[0], 2.5f);
  EXPECT_EQ(ReadBuf<int>(vi, 2), (std::vector<int>{2, 7}));
}

// Every device access a work-item makes names it when it faults: the
// zero-fill of a private array, image descriptor loads, texel reads and
// image writes as much as loads and stores. A kError at each
// memory-access consult of the kernel fails the launch with the
// work-item in the message.
TEST_F(InterpTest, EveryKernelAccessFaultNamesTheWorkItem) {
  auto image = [&](int w, int h) {
    ImageDesc d;
    d.data_va = Alloc(w * h * 4);
    d.width = w;
    d.height = h;
    d.channels = 1;
    d.elem_kind = static_cast<uint32_t>(lang::ScalarKind::kFloat);
    d.row_pitch = w * 4;
    d.slice_pitch = w * h * 4;
    d.dims = 2;
    WriteBuf(d.data_va, std::vector<float>(w * h, 3.0f));
    uint64_t va = Alloc(sizeof(d));
    auto p = device_.vm().Resolve(va, sizeof(d));
    EXPECT_TRUE(p.ok());
    if (p.ok()) std::memcpy(*p, &d, sizeof(d));
    return va;
  };
  uint64_t src = image(4, 2), dst = image(4, 2), vo = Alloc(4);
  auto m = Compile(
      "__kernel void k(__read_only image2d_t src, sampler_t s,"
      "                __write_only image2d_t dst, __global float* o) {"
      "  float t[4];"
      "  t[0] = read_imagef(src, s, (int2)(1, 0)).x;"
      "  write_imagef(dst, (int2)(0, 0), (float4)(t[0], 0.0f, 0.0f, 1.0f));"
      "  o[0] = t[0] + t[1];"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(m, nullptr);
  auto launch = [&](uint64_t nth, uint64_t* consults) {
    simgpu::FaultPlan plan;
    plan.points.push_back(simgpu::FaultPoint{simgpu::FaultSite::kMemoryAccess,
                                             nth, simgpu::FaultKind::kError,
                                             false, 0});
    device_.faults().set_plan(plan);
    LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(1);
    std::vector<KernelArg> args = {KernelArg::Pointer(src),
                                   KernelArg::Value<uint64_t>(0),
                                   KernelArg::Pointer(dst),
                                   KernelArg::Pointer(vo)};
    auto r = LaunchKernel(device_, *m, "k", cfg, args);
    *consults = device_.faults().count(simgpu::FaultSite::kMemoryAccess);
    device_.faults().set_plan({});
    return r.ok() ? OkStatus() : r.status();
  };
  uint64_t total = 0;
  ASSERT_TRUE(launch(~uint64_t{0}, &total).ok());
  EXPECT_EQ(ReadBuf<float>(vo, 1)[0], 3.0f);
  // The zero-fill, two descriptor loads, a texel read, an image write,
  // three private loads, a private store and a global store.
  EXPECT_EQ(total, 10u);
  for (uint64_t nth = 0; nth < total; ++nth) {
    uint64_t consults = 0;
    Status st = launch(nth, &consults);
    EXPECT_FALSE(st.ok()) << nth;
    EXPECT_NE(st.message().find(
                  " [work-item global (0,0,0), local (0,0,0), block (0,0,0)]"),
              std::string::npos)
        << nth << ": " << st.ToString();
  }
}

}  // namespace
}  // namespace bridgecl::interp
