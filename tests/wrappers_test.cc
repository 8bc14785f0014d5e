// End-to-end tests of the hybrid wrapper libraries: the same host-driver
// logic runs against a native binding and against the paper's wrapper
// binding, and results must agree bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "cl2cu/cl_on_cuda.h"
#include "cu2cl/cuda_on_cl.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "simgpu/device.h"

namespace bridgecl {
namespace {

using mcuda::LaunchArg;
using mcuda::MemcpyKind;
using mocl::ClMem;
using mocl::MemFlags;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

// ---------------------------------------------------------------------------
// A reusable OpenCL host driver (the "untouched host code" of §3.2). It is
// written once against the abstract API and runs under both bindings.
// ---------------------------------------------------------------------------
StatusOr<std::vector<float>> RunClVadd(mocl::OpenClApi& cl, int n) {
  const char* src =
      "__kernel void vadd(__global float* a, __global float* b,"
      "                   __global float* c, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}";
  std::vector<float> a(n), b(n), c(n);
  for (int i = 0; i < n; ++i) {
    a[i] = 0.25f * i;
    b[i] = 1.5f * i;
  }
  BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(src));
  BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
  BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "vadd"));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem ma, cl.CreateBuffer(MemFlags::kReadOnly, n * 4, a.data()));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem mb, cl.CreateBuffer(MemFlags::kReadOnly, n * 4, b.data()));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem mc, cl.CreateBuffer(MemFlags::kWriteOnly, n * 4, nullptr));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem), &ma));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, sizeof(ClMem), &mb));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 2, sizeof(ClMem), &mc));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 3, sizeof(int), &n));
  size_t gws = n, lws = 32;
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBuffer(mc, 0, n * 4, c.data()));
  return c;
}

TEST(Cl2CuTest, VaddMatchesNativeOpenCl) {
  const int n = 128;
  Device dev_native(TitanProfile());
  auto native = mocl::CreateNativeClApi(dev_native);
  auto r_native = RunClVadd(*native, n);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();

  Device dev_wrapped(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev_wrapped);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  auto r_wrapped = RunClVadd(*wrapped, n);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();

  EXPECT_EQ(*r_native, *r_wrapped);
}

TEST(Cl2CuTest, DynamicLocalAndConstantThroughFig5) {
  // Exercises the full Fig 5 path: two dynamic __local objects plus a
  // dynamic __constant object, under both bindings.
  const char* src =
      "__kernel void mixup(__global float* data, __local float* t1,"
      "                    __local float* t2, __constant float* coef) {"
      "  int l = get_local_id(0);"
      "  int i = get_global_id(0);"
      "  t1[l] = data[i] * coef[0];"
      "  t2[l] = data[i] + coef[1];"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  int n = (int)get_local_size(0);"
      "  data[i] = t1[n - 1 - l] + t2[(l + 1) % n];"
      "}";
  const int n = 32, block = 8;
  std::vector<float> init(n);
  std::iota(init.begin(), init.end(), 1.0f);
  std::vector<float> coef = {3.0f, 10.0f};

  auto run = [&](mocl::OpenClApi& cl) -> StatusOr<std::vector<float>> {
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "mixup"));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem data, cl.CreateBuffer(MemFlags::kReadWrite, n * 4,
                                    init.data()));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem cbuf, cl.CreateBuffer(MemFlags::kReadOnly, 8, coef.data()));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem),
                                             &data));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, block * 4, nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 2, block * 4, nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 3, sizeof(ClMem),
                                             &cbuf));
    size_t gws = n, lws = block;
    BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    std::vector<float> out(n);
    BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBuffer(data, 0, n * 4,
                                                  out.data()));
    return out;
  };

  Device dev_native(TitanProfile());
  auto native = mocl::CreateNativeClApi(dev_native);
  auto r_native = run(*native);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();

  Device dev_wrapped(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev_wrapped);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  auto r_wrapped = run(*wrapped);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();

  EXPECT_EQ(*r_native, *r_wrapped);
}

TEST(Cl2CuTest, ImageThroughCLImage) {
  const char* src =
      "__kernel void sample(__read_only image2d_t img, sampler_t s,"
      "                     __global float* out) {"
      "  int x = get_global_id(0);"
      "  float4 t = read_imagef(img, s, (int2)(x, 0));"
      "  out[x] = t.x * 2.0f;"
      "}";
  std::vector<float> texels = {1, 2, 3, 4};
  auto run = [&](mocl::OpenClApi& cl) -> StatusOr<std::vector<float>> {
    BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
    BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "sample"));
    mocl::ClImageFormat fmt;
    fmt.elem = lang::ScalarKind::kFloat;
    fmt.channels = 1;
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem img, cl.CreateImage2D(MemFlags::kReadOnly, fmt, 4, 1,
                                    texels.data()));
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t sampler, cl.CreateSampler({}));
    BRIDGECL_ASSIGN_OR_RETURN(
        ClMem out, cl.CreateBuffer(MemFlags::kWriteOnly, 16, nullptr));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem), &img));
    BRIDGECL_RETURN_IF_ERROR(
        cl.SetKernelArg(kernel, 1, sizeof(uint64_t), &sampler));
    BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 2, sizeof(ClMem), &out));
    size_t gws = 4, lws = 4;
    BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &gws, &lws));
    std::vector<float> result(4);
    BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBuffer(out, 0, 16,
                                                  result.data()));
    return result;
  };
  Device dev_native(TitanProfile());
  auto native = mocl::CreateNativeClApi(dev_native);
  auto r_native = run(*native);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();
  Device dev_wrapped(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev_wrapped);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  auto r_wrapped = run(*wrapped);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
  EXPECT_FLOAT_EQ((*r_wrapped)[2], 6.0f);
}

TEST(Cl2CuTest, DoubleArgDoesNotCollideWithImageHandles) {
  // Regression: a double kernel argument of exactly 2.0 has the bit
  // pattern 0x4000000000000000, which coincides with the wrapper's first
  // image-handle id. The wrapper must identify image parameters from the
  // translation metadata, never from the argument's value.
  Device dev(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev);
  auto cl = cl2cu::CreateClOnCudaApi(*cuda);
  auto prog = cl->CreateProgramWithSource(
      "__kernel void scale_img(__read_only image2d_t img, sampler_t s,"
      "                        __global double* out, double factor) {"
      "  float4 t = read_imagef(img, s, (int2)(0, 0));"
      "  out[0] = (double)t.x * factor;"
      "}");
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(cl->BuildProgram(*prog).ok());
  auto kernel = cl->CreateKernel(*prog, "scale_img");
  ASSERT_TRUE(kernel.ok());
  mocl::ClImageFormat fmt;
  fmt.elem = lang::ScalarKind::kFloat;
  fmt.channels = 1;
  float texel = 3.0f;
  auto img = cl->CreateImage2D(MemFlags::kReadOnly, fmt, 1, 1, &texel);
  ASSERT_TRUE(img.ok());
  auto sampler = cl->CreateSampler({});
  ASSERT_TRUE(sampler.ok());
  auto out = cl->CreateBuffer(MemFlags::kWriteOnly, 8, nullptr);
  ASSERT_TRUE(out.ok());
  double factor = 2.0;  // bit pattern == first image id
  ASSERT_TRUE(cl->SetKernelArg(*kernel, 0, sizeof(ClMem), &*img).ok());
  ASSERT_TRUE(cl->SetKernelArg(*kernel, 1, sizeof(uint64_t), &*sampler).ok());
  ASSERT_TRUE(cl->SetKernelArg(*kernel, 2, sizeof(ClMem), &*out).ok());
  ASSERT_TRUE(cl->SetKernelArg(*kernel, 3, sizeof(double), &factor).ok());
  size_t one = 1;
  ASSERT_TRUE(cl->EnqueueNDRangeKernel(*kernel, 1, &one, &one).ok());
  double got = 0;
  ASSERT_TRUE(cl->EnqueueReadBuffer(*out, 0, 8, &got).ok());
  EXPECT_DOUBLE_EQ(got, 6.0);
}

TEST(Cl2CuTest, SubDevicesUnimplementable) {
  Device dev(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  auto r = wrapped->CreateSubDevices(2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(Cl2CuTest, SnapshotAndRestoreAreUnimplemented) {
  // The wrapper forwards neither call: both fail, write no file, charge
  // nothing, and leave live buffers as they were.
  Device dev(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 5);
  auto mem = wrapped->CreateBuffer(MemFlags::kReadWrite, 64, data.data());
  ASSERT_TRUE(mem.ok());
  const uint64_t calls = dev.stats().api_calls;
  const double now = wrapped->NowUs();
  const std::string path = ::testing::TempDir() + "bridgecl_cl2cu_image";
  EXPECT_EQ(wrapped->Snapshot(path).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(wrapped->Restore(path).code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(dev.stats().api_calls, calls);
  EXPECT_EQ(wrapped->NowUs(), now);
  std::vector<int> back(16);
  ASSERT_TRUE(wrapped->EnqueueReadBuffer(*mem, 0, 64, back.data()).ok());
  EXPECT_EQ(back, data);
}

TEST(Cl2CuTest, RunsUnderCudaBankMode) {
  // §6.2: an OpenCL app executed through the CUDA wrapper inherits CUDA's
  // 64-bit shared-memory bank mode — the FT speedup mechanism.
  Device dev(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  (void)wrapped;
  EXPECT_EQ(dev.bank_mode(), simgpu::BankMode::k64Bit);
}

TEST(Cl2CuTest, BuildFailurePropagates) {
  Device dev(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  auto prog = wrapped->CreateProgramWithSource(
      "__kernel void k(__global int* o, int d) {"
      "  o[0] = (int)get_global_id(d);"  // non-literal dim: untranslatable
      "}");
  ASSERT_TRUE(prog.ok());
  Status st = wrapped->BuildProgram(*prog);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUntranslatable);
  auto log = wrapped->GetProgramBuildLog(*prog);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(log->empty());
}

// ---------------------------------------------------------------------------
// CUDA host drivers under both bindings.
// ---------------------------------------------------------------------------
StatusOr<std::vector<float>> RunCuSaxpy(mcuda::CudaApi& cu, int n) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
      "__global__ void saxpy(float* y, float* x, float a, int n) {"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  if (i < n) y[i] = a * x[i] + y[i];"
      "}"));
  std::vector<float> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = i;
    y[i] = 2 * i;
  }
  BRIDGECL_ASSIGN_OR_RETURN(void* dx, cu.Malloc(n * 4));
  BRIDGECL_ASSIGN_OR_RETURN(void* dy, cu.Malloc(n * 4));
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(dx, x.data(), n * 4, MemcpyKind::kHostToDevice));
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(dy, y.data(), n * 4, MemcpyKind::kHostToDevice));
  float a = 0.5f;
  std::vector<LaunchArg> args = {LaunchArg::Ptr(dy), LaunchArg::Ptr(dx),
                                 LaunchArg::Value<float>(a),
                                 LaunchArg::Value<int>(n)};
  BRIDGECL_RETURN_IF_ERROR(
      cu.LaunchKernel("saxpy", Dim3((n + 31) / 32), Dim3(32), 0, args));
  std::vector<float> out(n);
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(out.data(), dy, n * 4, MemcpyKind::kDeviceToHost));
  return out;
}

TEST(Cu2ClTest, SaxpyMatchesNativeCuda) {
  const int n = 96;
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  auto r_native = RunCuSaxpy(*native, n);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  auto r_wrapped = RunCuSaxpy(*wrapped, n);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
}

StatusOr<std::vector<float>> RunCuSymbolKernel(mcuda::CudaApi& cu) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
      "__constant__ float coef[4];"
      "__device__ int counter;"
      "__global__ void k(float* out) {"
      "  int i = threadIdx.x;"
      "  out[i] = coef[i] * 100.0f;"
      "  if (i == 0) counter = counter + 7;"
      "}"));
  std::vector<float> coef = {1, 2, 3, 4};
  BRIDGECL_RETURN_IF_ERROR(cu.MemcpyToSymbol("coef", coef.data(), 16));
  int zero = 0;
  BRIDGECL_RETURN_IF_ERROR(cu.MemcpyToSymbol("counter", &zero, 4));
  BRIDGECL_ASSIGN_OR_RETURN(void* out, cu.Malloc(16));
  std::vector<LaunchArg> args = {LaunchArg::Ptr(out)};
  BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel("k", Dim3(1), Dim3(4), 0, args));
  std::vector<float> result(5);
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(result.data(), out, 16, MemcpyKind::kDeviceToHost));
  int counter = 0;
  BRIDGECL_RETURN_IF_ERROR(cu.MemcpyFromSymbol(&counter, "counter", 4));
  result[4] = static_cast<float>(counter);
  return result;
}

TEST(Cu2ClTest, MemcpyToSymbolThroughDynamicBuffers) {
  // §4.2/§4.3: static symbols become dynamically allocated buffers bound
  // as extra kernel arguments.
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  auto r_native = RunCuSymbolKernel(*native);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  auto r_wrapped = RunCuSymbolKernel(*wrapped);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
  EXPECT_FLOAT_EQ((*r_wrapped)[4], 7.0f);
}

StatusOr<std::vector<float>> RunCuTexture(mcuda::CudaApi& cu, int n) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
      "texture<float, 1, cudaReadModeElementType> tex;"
      "__global__ void k(float* out, int n) {"
      "  int i = threadIdx.x;"
      "  if (i < n) out[i] = tex1Dfetch(tex, n - 1 - i) * 10.0f;"
      "}"));
  std::vector<float> data(n);
  std::iota(data.begin(), data.end(), 0.0f);
  BRIDGECL_ASSIGN_OR_RETURN(void* src, cu.Malloc(n * 4));
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(src, data.data(), n * 4, MemcpyKind::kHostToDevice));
  mcuda::ChannelDesc desc;
  desc.elem = lang::ScalarKind::kFloat;
  desc.channels = 1;
  BRIDGECL_RETURN_IF_ERROR(cu.BindTexture("tex", src, n * 4, desc));
  BRIDGECL_ASSIGN_OR_RETURN(void* out, cu.Malloc(n * 4));
  std::vector<LaunchArg> args = {LaunchArg::Ptr(out),
                                 LaunchArg::Value<int>(n)};
  BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel("k", Dim3(1), Dim3(n), 0, args));
  std::vector<float> result(n);
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(result.data(), out, n * 4, MemcpyKind::kDeviceToHost));
  return result;
}

TEST(Cu2ClTest, TextureBecomesImagePlusSampler) {
  const int n = 8;
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  auto r_native = RunCuTexture(*native, n);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  auto r_wrapped = RunCuTexture(*wrapped, n);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
}

StatusOr<std::vector<float>> RunCuLinearTexture(mcuda::CudaApi& cu) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
      "texture<float, 2, cudaReadModeElementType> tex;"
      "__global__ void k(float* out) {"
      "  int x = threadIdx.x;"
      "  out[x] = tex2D(tex, 0.75f + x, 0.5f);"
      "}"));
  mcuda::ChannelDesc desc;
  desc.elem = lang::ScalarKind::kFloat;
  desc.channels = 1;
  BRIDGECL_ASSIGN_OR_RETURN(void* arr, cu.MallocArray(desc, 4, 1));
  std::vector<float> texels = {0, 10, 20, 30};
  BRIDGECL_RETURN_IF_ERROR(cu.MemcpyToArray(arr, texels.data(), 16));
  BRIDGECL_RETURN_IF_ERROR(
      cu.BindTextureToArray("tex", arr, /*filter_linear=*/true));
  BRIDGECL_ASSIGN_OR_RETURN(void* out, cu.Malloc(12));
  std::vector<LaunchArg> args = {LaunchArg::Ptr(out)};
  BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel("k", Dim3(1), Dim3(3), 0, args));
  std::vector<float> result(3);
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(result.data(), out, 12, MemcpyKind::kDeviceToHost));
  return result;
}

TEST(Cu2ClTest, LinearFilteredTextureMatchesNativeCuda) {
  // A texture bound with linear filtering interpolates between texel
  // centres natively as it does through the translated read_imagef.
  const std::vector<float> want = {2.5f, 12.5f, 22.5f};
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  auto r_native = RunCuLinearTexture(*native);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();
  EXPECT_EQ(*r_native, want);

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  auto r_wrapped = RunCuLinearTexture(*wrapped);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_wrapped, want);
}

TEST(Cu2ClTest, LargeLinearTextureFails) {
  // §5 / Fig 8(a): CUDA 1D linear textures reach 2^27 texels; OpenCL 1D
  // image buffers stop at 65536. kmeans/leukocyte/hybridsort fail here.
  Device dev(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  ASSERT_TRUE(wrapped
                  ->RegisterModule(
                      "texture<float, 1, cudaReadModeElementType> tex;"
                      "__global__ void k(float* out) {"
                      "  out[0] = tex1Dfetch(tex, 0);"
                      "}")
                  .ok());
  const size_t n = 100000;  // > 65536
  auto src = wrapped->Malloc(n * 4);
  ASSERT_TRUE(src.ok());
  mcuda::ChannelDesc desc;
  desc.elem = lang::ScalarKind::kFloat;
  desc.channels = 1;
  Status st = wrapped->BindTexture("tex", *src, n * 4, desc);
  ASSERT_FALSE(st.ok());
}

TEST(Cu2ClTest, DynamicSharedThroughAppendedParam) {
  auto run = [&](mcuda::CudaApi& cu) -> StatusOr<std::vector<int>> {
    BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
        "__global__ void rev(int* d) {"
        "  extern __shared__ int tile[];"
        "  int t = threadIdx.x;"
        "  tile[t] = d[t];"
        "  __syncthreads();"
        "  d[t] = tile[(int)blockDim.x - 1 - t];"
        "}"));
    const int n = 16;
    std::vector<int> data(n);
    std::iota(data.begin(), data.end(), 0);
    BRIDGECL_ASSIGN_OR_RETURN(void* p, cu.Malloc(n * 4));
    BRIDGECL_RETURN_IF_ERROR(
        cu.Memcpy(p, data.data(), n * 4, MemcpyKind::kHostToDevice));
    std::vector<LaunchArg> args = {LaunchArg::Ptr(p)};
    BRIDGECL_RETURN_IF_ERROR(
        cu.LaunchKernel("rev", Dim3(1), Dim3(n), n * 4, args));
    std::vector<int> out(n);
    BRIDGECL_RETURN_IF_ERROR(
        cu.Memcpy(out.data(), p, n * 4, MemcpyKind::kDeviceToHost));
    return out;
  };
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  auto r_native = run(*native);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();
  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  auto r_wrapped = run(*wrapped);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
}

TEST(Cu2ClTest, MemGetInfoUnimplementable) {
  Device dev(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  auto r = wrapped->MemGetInfo();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
}

TEST(Cu2ClTest, SnapshotAndRestoreAreUnimplemented) {
  // The wrapper forwards neither call: both fail, write no file, charge
  // nothing, and leave live allocations as they were.
  Device dev(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 5);
  auto p = wrapped->Malloc(64);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      wrapped->Memcpy(*p, data.data(), 64, MemcpyKind::kHostToDevice).ok());
  const uint64_t calls = dev.stats().api_calls;
  const double now = wrapped->NowUs();
  const std::string path = ::testing::TempDir() + "bridgecl_cu2cl_image";
  EXPECT_EQ(wrapped->Snapshot(path).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(wrapped->Restore(path).code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(dev.stats().api_calls, calls);
  EXPECT_EQ(wrapped->NowUs(), now);
  std::vector<int> back(16);
  ASSERT_TRUE(
      wrapped->Memcpy(back.data(), *p, 64, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, data);
}

TEST(Cu2ClTest, DevicePropertiesSlowerThroughWrapper) {
  // §6.3 deviceQuery: the wrapper issues many clGetDeviceInfo calls.
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  double t0 = native->NowUs();
  ASSERT_TRUE(native->GetDeviceProperties().ok());
  double native_cost = native->NowUs() - t0;

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  double t1 = wrapped->NowUs();
  ASSERT_TRUE(wrapped->GetDeviceProperties().ok());
  double wrapped_cost = wrapped->NowUs() - t1;
  EXPECT_GT(wrapped_cost, 3 * native_cost);
}

TEST(Cu2ClTest, UntranslatableModuleRejectedAtRegister) {
  Device dev(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  Status st = wrapped->RegisterModule(
      "__global__ void k(int* out) { out[0] = __shfl(1, 0); }");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUntranslatable);
}

TEST(Cu2ClTest, AtomicEmulationMatchesNativeSemantics) {
  auto run = [&](mcuda::CudaApi& cu) -> StatusOr<unsigned> {
    BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
        "__global__ void k(unsigned int* c) { atomicInc(c, 4u); }"));
    BRIDGECL_ASSIGN_OR_RETURN(void* c, cu.Malloc(4));
    unsigned zero = 0;
    BRIDGECL_RETURN_IF_ERROR(
        cu.Memcpy(c, &zero, 4, MemcpyKind::kHostToDevice));
    std::vector<LaunchArg> args = {LaunchArg::Ptr(c)};
    // 13 increments wrapping at 4 → 13 % 5 = 3.
    BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel("k", Dim3(13), Dim3(1), 0,
                                             args));
    unsigned out = 0;
    BRIDGECL_RETURN_IF_ERROR(
        cu.Memcpy(&out, c, 4, MemcpyKind::kDeviceToHost));
    return out;
  };
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  auto r_native = run(*native);
  ASSERT_TRUE(r_native.ok());

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  cu2cl::CudaOnClOptions opts;
  opts.translate.allow_atomic_emulation = true;
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl, opts);
  auto r_wrapped = run(*wrapped);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
  EXPECT_EQ(*r_wrapped, 3u);
}

// ---------------------------------------------------------------------------
// Cross-direction queue semantics (docs/CONCURRENCY.md): stream- and
// queue-based host drivers run under both bindings and must agree.
// ---------------------------------------------------------------------------

/// A two-stream CUDA pipeline with a cross-stream event dependency:
/// uploads on separate streams, stream 2's kernel waits on stream 1's
/// upload via cudaStreamWaitEvent, results drain with per-stream syncs.
StatusOr<std::vector<float>> RunCuTwoStream(mcuda::CudaApi& cu, int n) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
      "__global__ void scale(float* d, float f, int n) {"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  if (i < n) d[i] = d[i] * f;"
      "}"));
  std::vector<float> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[i] = i + 1.0f;
    y[i] = 2.0f * i + 1.0f;
  }
  BRIDGECL_ASSIGN_OR_RETURN(void* dx, cu.Malloc(n * 4));
  BRIDGECL_ASSIGN_OR_RETURN(void* dy, cu.Malloc(n * 4));
  BRIDGECL_ASSIGN_OR_RETURN(void* s1, cu.StreamCreate());
  BRIDGECL_ASSIGN_OR_RETURN(void* s2, cu.StreamCreate());
  BRIDGECL_RETURN_IF_ERROR(
      cu.MemcpyAsync(dx, x.data(), n * 4, MemcpyKind::kHostToDevice, s1));
  BRIDGECL_RETURN_IF_ERROR(
      cu.MemcpyAsync(dy, y.data(), n * 4, MemcpyKind::kHostToDevice, s2));
  BRIDGECL_ASSIGN_OR_RETURN(void* up1, cu.EventCreate());
  BRIDGECL_RETURN_IF_ERROR(cu.EventRecordOnStream(up1, s1));
  BRIDGECL_RETURN_IF_ERROR(cu.StreamWaitEvent(s2, up1));
  std::vector<LaunchArg> a1 = {LaunchArg::Ptr(dx),
                               LaunchArg::Value<float>(0.5f),
                               LaunchArg::Value<int>(n)};
  std::vector<LaunchArg> a2 = {LaunchArg::Ptr(dy),
                               LaunchArg::Value<float>(4.0f),
                               LaunchArg::Value<int>(n)};
  BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernelOnStream(
      "scale", Dim3((n + 31) / 32), Dim3(32), 0, a1, s1));
  BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernelOnStream(
      "scale", Dim3((n + 31) / 32), Dim3(32), 0, a2, s2));
  BRIDGECL_RETURN_IF_ERROR(
      cu.MemcpyAsync(x.data(), dx, n * 4, MemcpyKind::kDeviceToHost, s1));
  BRIDGECL_RETURN_IF_ERROR(
      cu.MemcpyAsync(y.data(), dy, n * 4, MemcpyKind::kDeviceToHost, s2));
  BRIDGECL_RETURN_IF_ERROR(cu.StreamSynchronize(s1));
  BRIDGECL_RETURN_IF_ERROR(cu.StreamSynchronize(s2));
  BRIDGECL_RETURN_IF_ERROR(cu.EventDestroy(up1));
  BRIDGECL_RETURN_IF_ERROR(cu.StreamDestroy(s1));
  BRIDGECL_RETURN_IF_ERROR(cu.StreamDestroy(s2));
  BRIDGECL_RETURN_IF_ERROR(cu.Free(dx));
  BRIDGECL_RETURN_IF_ERROR(cu.Free(dy));
  x.insert(x.end(), y.begin(), y.end());
  return x;
}

TEST(Cu2ClTest, TwoStreamPipelineMatchesNativeCuda) {
  const int n = 64;
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  auto r_native = RunCuTwoStream(*native, n);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  auto r_wrapped = RunCuTwoStream(*wrapped, n);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
  EXPECT_FLOAT_EQ((*r_wrapped)[0], 0.5f);           // x[0] = 1 * 0.5
  EXPECT_FLOAT_EQ((*r_wrapped)[n], 4.0f);           // y[0] = 1 * 4
}

/// vadd on an out-of-order queue: non-blocking uploads with out events,
/// the kernel waits on both via its wait list, a barrier orders the
/// non-blocking read, and clFinish drains the queue.
StatusOr<std::vector<float>> RunClVaddOoo(mocl::OpenClApi& cl, int n) {
  const char* src =
      "__kernel void vadd(__global float* a, __global float* b,"
      "                   __global float* c, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) c[i] = a[i] + b[i];"
      "}";
  std::vector<float> a(n), b(n), c(n);
  for (int i = 0; i < n; ++i) {
    a[i] = 0.25f * i;
    b[i] = 1.5f * i;
  }
  BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(src));
  BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
  BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "vadd"));
  BRIDGECL_ASSIGN_OR_RETURN(
      auto q, cl.CreateCommandQueue(
                  mocl::CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem ma, cl.CreateBuffer(MemFlags::kReadOnly, n * 4, nullptr));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem mb, cl.CreateBuffer(MemFlags::kReadOnly, n * 4, nullptr));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem mc, cl.CreateBuffer(MemFlags::kWriteOnly, n * 4, nullptr));
  mocl::ClEvent ea{}, eb{};
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueWriteBufferOn(
      q, ma, 0, n * 4, a.data(), /*blocking=*/false, {}, &ea));
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueWriteBufferOn(
      q, mb, 0, n * 4, b.data(), /*blocking=*/false, {}, &eb));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem), &ma));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, sizeof(ClMem), &mb));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 2, sizeof(ClMem), &mc));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 3, sizeof(int), &n));
  size_t gws = n, lws = 32;
  std::vector<mocl::ClEvent> deps = {ea, eb};
  BRIDGECL_RETURN_IF_ERROR(
      cl.EnqueueNDRangeKernelOn(q, kernel, 1, &gws, &lws, deps, nullptr));
  BRIDGECL_ASSIGN_OR_RETURN(auto bar, cl.EnqueueBarrier(q));
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBufferOn(
      q, mc, 0, n * 4, c.data(), /*blocking=*/false, {}, nullptr));
  BRIDGECL_RETURN_IF_ERROR(cl.Finish(q));
  BRIDGECL_RETURN_IF_ERROR(cl.ReleaseEvent(bar));
  BRIDGECL_RETURN_IF_ERROR(cl.ReleaseEvent(ea));
  BRIDGECL_RETURN_IF_ERROR(cl.ReleaseEvent(eb));
  BRIDGECL_RETURN_IF_ERROR(cl.ReleaseCommandQueue(q));
  return c;
}

TEST(Cl2CuTest, OutOfOrderQueueMatchesNativeOpenCl) {
  const int n = 128;
  Device dev_native(TitanProfile());
  auto native = mocl::CreateNativeClApi(dev_native);
  auto r_native = RunClVaddOoo(*native, n);
  ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();

  Device dev_wrapped(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev_wrapped);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  auto r_wrapped = RunClVaddOoo(*wrapped, n);
  ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
  EXPECT_EQ(*r_native, *r_wrapped);
  // And the out-of-order path agrees with the plain in-order driver.
  auto r_inorder = RunClVadd(*native, n);
  ASSERT_TRUE(r_inorder.ok());
  EXPECT_EQ(*r_native, *r_inorder);
}

TEST(WrapperQueueTest, PerQueueAndDeviceWideSyncAgree) {
  // clFinish(queue) / cudaStreamSynchronize and the device-wide drains
  // (legacy clFinish / cudaDeviceSynchronize) are equivalent barriers for
  // a fully enqueued workload — same results through every binding.
  const int n = 64;
  auto cu_variant = [&](mcuda::CudaApi& cu, bool device_wide)
      -> StatusOr<std::vector<float>> {
    BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(
        "__global__ void scale(float* d, float f, int n) {"
        "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
        "  if (i < n) d[i] = d[i] * f;"
        "}"));
    std::vector<float> x(n);
    for (int i = 0; i < n; ++i) x[i] = i + 1.0f;
    BRIDGECL_ASSIGN_OR_RETURN(void* dx, cu.Malloc(n * 4));
    BRIDGECL_ASSIGN_OR_RETURN(void* s, cu.StreamCreate());
    BRIDGECL_RETURN_IF_ERROR(
        cu.MemcpyAsync(dx, x.data(), n * 4, MemcpyKind::kHostToDevice, s));
    std::vector<LaunchArg> args = {LaunchArg::Ptr(dx),
                                   LaunchArg::Value<float>(3.0f),
                                   LaunchArg::Value<int>(n)};
    BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernelOnStream(
        "scale", Dim3((n + 31) / 32), Dim3(32), 0, args, s));
    BRIDGECL_RETURN_IF_ERROR(
        cu.MemcpyAsync(x.data(), dx, n * 4, MemcpyKind::kDeviceToHost, s));
    BRIDGECL_RETURN_IF_ERROR(device_wide ? cu.DeviceSynchronize()
                                         : cu.StreamSynchronize(s));
    BRIDGECL_RETURN_IF_ERROR(cu.StreamDestroy(s));
    BRIDGECL_RETURN_IF_ERROR(cu.Free(dx));
    return x;
  };
  for (bool device_wide : {false, true}) {
    Device dev_native(TitanProfile());
    auto native = mcuda::CreateNativeCudaApi(dev_native);
    auto r_native = cu_variant(*native, device_wide);
    ASSERT_TRUE(r_native.ok()) << r_native.status().ToString();
    EXPECT_FLOAT_EQ((*r_native)[1], 6.0f);

    Device dev_wrapped(TitanProfile());
    auto cl = mocl::CreateNativeClApi(dev_wrapped);
    auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
    auto r_wrapped = cu_variant(*wrapped, device_wide);
    ASSERT_TRUE(r_wrapped.ok()) << r_wrapped.status().ToString();
    EXPECT_EQ(*r_native, *r_wrapped) << "device_wide=" << device_wide;
  }
}

TEST(Cu2ClTest, WrapperOverheadIsSmall) {
  // §6: "the overhead of wrapper functions is negligible" — compare total
  // simulated time of the same workload under native CUDA vs the wrapper
  // (excluding the one-time build).
  const int n = 256;
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  ASSERT_TRUE(RunCuSaxpy(*native, n).ok());
  double native_time = native->NowUs();

  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  ASSERT_TRUE(RunCuSaxpy(*wrapped, n).ok());
  double wrapped_time = wrapped->NowUs() - cl->BuildTimeUs();

  // Within ~25% of native (launch-path costs differ slightly by design).
  EXPECT_LT(wrapped_time, native_time * 1.25)
      << "native=" << native_time << " wrapped=" << wrapped_time;
}

// ---------------------------------------------------------------------------
// One-work-item snippets, each run natively and through the other model's
// wrapper: the two must agree, or both must reject the snippet.
// ---------------------------------------------------------------------------

struct BothRuns {
  StatusOr<std::vector<float>> native, wrapped;
};

/// Registers `src` and runs its kernel `k(float* out, float* in)` on one
/// work-item, with `in` holding `in` (4 floats); returns out[0..3].
StatusOr<std::vector<float>> RunCuItem(mcuda::CudaApi& cu,
                                       const std::string& src,
                                       std::vector<float> in) {
  BRIDGECL_RETURN_IF_ERROR(cu.RegisterModule(src));
  in.resize(4);
  BRIDGECL_ASSIGN_OR_RETURN(void* dout, cu.Malloc(16));
  BRIDGECL_ASSIGN_OR_RETURN(void* din, cu.Malloc(16));
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(din, in.data(), 16, MemcpyKind::kHostToDevice));
  std::vector<LaunchArg> args = {LaunchArg::Ptr(dout), LaunchArg::Ptr(din)};
  BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel("k", Dim3(1), Dim3(1), 0, args));
  std::vector<float> out(4);
  BRIDGECL_RETURN_IF_ERROR(
      cu.Memcpy(out.data(), dout, 16, MemcpyKind::kDeviceToHost));
  return out;
}

/// RunCuItem natively (mcuda) and through cu2cl over mocl.
BothRuns RunCuBoth(const std::string& src, const std::vector<float>& in) {
  Device dev_native(TitanProfile());
  auto native = mcuda::CreateNativeCudaApi(dev_native);
  Device dev_wrapped(TitanProfile());
  auto cl = mocl::CreateNativeClApi(dev_wrapped);
  auto wrapped = cu2cl::CreateCudaOnClApi(*cl);
  return {RunCuItem(*native, src, in), RunCuItem(*wrapped, src, in)};
}

/// The OpenCL counterpart of RunCuItem: `k(__global float* out,
/// __global float* in)`, where `out` has as many floats as `in`, and at
/// least 4.
StatusOr<std::vector<float>> RunClItem(mocl::OpenClApi& cl,
                                       const std::string& src,
                                       std::vector<float> in) {
  in.resize(std::max<size_t>(in.size(), 4));
  const size_t bytes = in.size() * sizeof(float);
  BRIDGECL_ASSIGN_OR_RETURN(auto prog, cl.CreateProgramWithSource(src));
  BRIDGECL_RETURN_IF_ERROR(cl.BuildProgram(prog));
  BRIDGECL_ASSIGN_OR_RETURN(auto kernel, cl.CreateKernel(prog, "k"));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem mout, cl.CreateBuffer(MemFlags::kReadWrite, bytes, nullptr));
  BRIDGECL_ASSIGN_OR_RETURN(
      ClMem min, cl.CreateBuffer(MemFlags::kReadWrite, bytes, in.data()));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 0, sizeof(ClMem), &mout));
  BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(kernel, 1, sizeof(ClMem), &min));
  size_t one = 1;
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(kernel, 1, &one, &one));
  std::vector<float> out(in.size());
  BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBuffer(mout, 0, bytes, out.data()));
  return out;
}

/// RunClItem natively (mocl) and through cl2cu over mcuda.
BothRuns RunClBoth(const std::string& src, const std::vector<float>& in) {
  Device dev_native(TitanProfile());
  auto native = mocl::CreateNativeClApi(dev_native);
  Device dev_wrapped(TitanProfile());
  auto cuda = mcuda::CreateNativeCudaApi(dev_wrapped);
  auto wrapped = cl2cu::CreateClOnCudaApi(*cuda);
  return {RunClItem(*native, src, in), RunClItem(*wrapped, src, in)};
}

std::string Msg(const StatusOr<std::vector<float>>& r) {
  return r.ok() ? "ok" : r.status().ToString();
}

TEST(Cl2CuTest, AtomicsReturnTheOldValueInBothPaths) {
  BothRuns r = RunClBoth(
      "__kernel void k(__global float* out, __global float* in) {"
      "  __global int* o = (__global int*)in;"
      "  for (int j = 0; j < 8; ++j) o[j] = (int)in[j];"
      "  int a = atomic_min(&o[0], 3);"
      "  int b = atomic_max(&o[1], 20);"
      "  atomic_and(&o[2], 6);"
      "  atomic_or(&o[3], 1);"
      "  int c = atomic_xchg(&o[4], 42);"
      "  atomic_sub(&o[5], 2);"
      "  atomic_dec(&o[6]);"
      "  atomic_xor(&o[7], 5);"
      "  for (int j = 0; j < 8; ++j) out[j] = o[j];"
      "  out[8] = a; out[9] = b; out[10] = c;"
      "}",
      {5, 9, -3, 12, 0, 0, 0, 0, 0, 0, 0});
  ASSERT_TRUE(r.native.ok()) << Msg(r.native);
  ASSERT_TRUE(r.wrapped.ok()) << Msg(r.wrapped);
  EXPECT_EQ(*r.native,
            (std::vector<float>{3, 20, 4, 13, 42, -2, -1, 5, 5, 9, 0}));
  EXPECT_EQ(*r.native, *r.wrapped);
}

// CUDA's C++ device features have one meaning, lang::LowerCppFeatures, in
// both paths (lang/cpp_lowering.h).

const char kTmax[] =
    "template <typename T> __device__ T tmax(T a, T b) {"
    "  return a > b ? a : b;"
    "}";

TEST(CppLoweringTest, TemplateCallConvertsItsArgumentsInBothPaths) {
  BothRuns r = RunCuBoth(std::string(kTmax) +
                             "template <typename T> __device__ float"
                             "    bytes(float a) { return (T)a * sizeof(T); }"
                             "__global__ void k(float* out, float* in) {"
                             "  int i = in[0];"
                             "  int j = in[1];"
                             "  out[0] = tmax<float>(i, j) / 2;"
                             "  out[1] = bytes<int>(in[2]);"
                             "}",
                         {3, 1, 3.7f});
  ASSERT_TRUE(r.native.ok()) << Msg(r.native);
  ASSERT_TRUE(r.wrapped.ok()) << Msg(r.wrapped);
  EXPECT_EQ((*r.native)[0], 1.5f);
  EXPECT_EQ((*r.native)[1], 12.0f);  // (int)3.7f * sizeof(int)
  EXPECT_EQ(*r.native, *r.wrapped);
}

TEST(CppLoweringTest, ReferenceParameterWritesTheCallersVariableInBothPaths) {
  // bump3 forwards its reference to bump.
  for (const char* call : {"bump(v, 3);", "bump((v), 3);", "bump3(v);"}) {
    BothRuns r = RunCuBoth(
        "__device__ void bump(int& x, int d) { x = x + d; }"
        "__device__ void bump3(int& x) { bump(x, 1); bump(x, 2); }"
        "__global__ void k(float* out, float* in) {"
        "  int v = 5;" +
            std::string(call) +
            "  out[0] = v;"
            "}",
        {});
    ASSERT_TRUE(r.native.ok()) << call << ": " << Msg(r.native);
    ASSERT_TRUE(r.wrapped.ok()) << call << ": " << Msg(r.wrapped);
    EXPECT_EQ((*r.native)[0], 8.0f) << call;
    EXPECT_EQ(*r.native, *r.wrapped) << call;
  }
}

TEST(CppLoweringTest, ReferenceToAComponentOrAValueFailsToBuildInBoth) {
  for (const char* body : {
           "float4 v = make_float4(1, 2, 3, 4); bump(v.y, 3);",
           "float4 vs[1]; vs[0] = make_float4(1, 2, 3, 4); bump(vs[0].y, 3);",
           "float4* vs = (float4*)in; bump(vs[0].y, 3);",
           "bump(in[0] + 1, 3);",
       }) {
    BothRuns r = RunCuBoth(
        "__device__ void bump(float& x, float d) { x = x + d; }"
        "__global__ void k(float* out, float* in) {" +
            std::string(body) + "}",
        {});
    for (const auto* run : {&r.native, &r.wrapped}) {
      ASSERT_FALSE(run->ok()) << body;
      EXPECT_NE(run->status().message().find("cannot take the address of"),
                std::string::npos)
          << body << ": " << Msg(*run);
    }
  }
}

TEST(CppLoweringTest, LocalReferenceFailsToBuildInBoth) {
  BothRuns r = RunCuBoth(
      "__global__ void k(float* out, float* in) {"
      "  int a = 1; int& r = a; r = 5; out[0] = a;"
      "}",
      {});
  for (const auto* run : {&r.native, &r.wrapped}) {
    ASSERT_FALSE(run->ok());
    EXPECT_NE(run->status().message().find(
                  "reference variable 'r' is not supported"),
              std::string::npos)
        << Msg(*run);
  }
}

TEST(CppLoweringTest, TemplateCallWithoutTypeArgumentsFailsToBuildInBoth) {
  BothRuns r = RunCuBoth(std::string(kTmax) +
                             "__global__ void k(float* out, float* in) {"
                             "  out[0] = tmax(4, 9);"
                             "}",
                         {});
  for (const auto* run : {&r.native, &r.wrapped}) {
    ASSERT_FALSE(run->ok());
    EXPECT_NE(run->status().message().find(
                  "call to template 'tmax' names no type arguments"),
              std::string::npos)
        << Msg(*run);
  }
}

TEST(CppLoweringTest, TemplatedKernelIsUntranslatableAndCannotBeLaunched) {
  BothRuns r = RunCuBoth(
      "template <typename T> __global__ void k(float* out, T* in) {"
      "  out[0] = in[0];"
      "}",
      {});
  ASSERT_FALSE(r.wrapped.ok());
  EXPECT_EQ(r.wrapped.status().code(), StatusCode::kUntranslatable);
  // Natively the module builds, and each launch names the template.
  ASSERT_FALSE(r.native.ok());
  EXPECT_NE(r.native.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.native.status().message().find("kernel 'k' is a template"),
            std::string::npos)
      << Msg(r.native);
}

TEST(CppLoweringTest, ReinterpretCastOfAValueIsRejectedInBothPaths) {
  BothRuns r = RunCuBoth(
      "__global__ void k(float* out, float* in) {"
      "  int i = in[0];"
      "  float f = i;"
      "  out[0] = reinterpret_cast<int>(f);"
      "}",
      {3});
  for (const auto* run : {&r.native, &r.wrapped}) {
    ASSERT_FALSE(run->ok());
    EXPECT_NE(run->status().message().find(
                  "reinterpret_cast from 'float' to 'int' is not allowed"),
              std::string::npos)
        << Msg(*run);
  }
}

TEST(CppLoweringTest, PointerReinterpretCastsAgreeInBothPaths) {
  BothRuns r = RunCuBoth(
      "__global__ void k(float* out, float* in) {"
      "  int* bits = reinterpret_cast<int*>(in);"
      "  out[0] = bits[0];"
      "  size_t a = reinterpret_cast<size_t>(in + 2);"
      "  out[1] = a - reinterpret_cast<size_t>(in);"
      "}",
      {3});
  ASSERT_TRUE(r.native.ok()) << Msg(r.native);
  ASSERT_TRUE(r.wrapped.ok()) << Msg(r.wrapped);
  EXPECT_EQ((*r.native)[0], 1077936128.0f);  // the bits of 3.0f
  EXPECT_EQ((*r.native)[1], 8.0f);
  EXPECT_EQ(*r.native, *r.wrapped);
}

// A compound assignment or `++` on a component of a vector in memory reads
// the whole vector through its location and writes the lanes back.
TEST(VectorComponentTest, CompoundAssignmentToALaneOfAMemoryVector) {
  auto src = [](const std::string& body) {
    return "__kernel void k(__global float* o, __global float4* vs) {" +
           body +
           "  for (int i = 0; i < 3; ++i) {"
           "    o[4 * i] = vs[i].x; o[4 * i + 1] = vs[i].y;"
           "    o[4 * i + 2] = vs[i].z; o[4 * i + 3] = vs[i].w;"
           "  }"
           "}";
  };
  const std::vector<float> in = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  BothRuns all = RunClBoth(
      src("vs[0].y += 2.0f; vs[1].xy += (float2)(1.0f, 2.0f); vs[2].w++;"),
      in);
  ASSERT_TRUE(all.native.ok()) << Msg(all.native);
  EXPECT_EQ(*all.native,
            (std::vector<float>{1, 4, 3, 4, 6, 8, 7, 8, 9, 10, 11, 13}));
  // CL->CU refuses a compound assignment to a multi-component swizzle.
  ASSERT_FALSE(all.wrapped.ok());
  EXPECT_EQ(all.wrapped.status().code(), StatusCode::kUntranslatable)
      << Msg(all.wrapped);
  BothRuns lanes = RunClBoth(src("vs[0].y += 2.0f; vs[2].w++;"), in);
  for (const auto* run : {&lanes.native, &lanes.wrapped})
    ASSERT_TRUE(run->ok()) << Msg(*run);
  EXPECT_EQ(*lanes.native,
            (std::vector<float>{1, 4, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13}));
  EXPECT_EQ(*lanes.wrapped, *lanes.native);
}

// `->` on a pointer to a vector swizzles the vector it points to.

TEST(VectorArrowTest, OpenClArrowSwizzlesEqualTheirDerefForm) {
  struct Case {
    std::string arrow, deref;
    std::vector<float> want;
  };
  for (const Case& c : std::vector<Case>{
           {"o[0] = v->y;", "o[0] = (*v).y;", {2, 0, 0, 0}},
           {"float2 t = v->xy; o[0] = t.x; o[1] = t.y;",
            "float2 t = (*v).xy; o[0] = t.x; o[1] = t.y;",
            {1, 2, 0, 0}},
           {"v->y = 7.0f; o[0] = (*v).y;", "(*v).y = 7.0f; o[0] = (*v).y;",
            {7, 0, 0, 0}},
       }) {
    auto src = [](const std::string& body) {
      return "__kernel void k(__global float* o, __global float4* v) {" +
             body + "}";
    };
    BothRuns a = RunClBoth(src(c.arrow), {1, 2, 3, 4});
    BothRuns d = RunClBoth(src(c.deref), {1, 2, 3, 4});
    for (const auto* run : {&a.native, &a.wrapped, &d.native, &d.wrapped})
      ASSERT_TRUE(run->ok()) << c.arrow << ": " << Msg(*run);
    EXPECT_EQ(*a.native, c.want) << c.arrow;
    EXPECT_EQ(*d.native, c.want) << c.deref;
    EXPECT_EQ(*a.wrapped, c.want) << c.arrow;
    EXPECT_EQ(*d.wrapped, c.want) << c.deref;
  }
}

TEST(VectorArrowTest, CudaArrowOnAFloat4PointerEqualsItsDerefForm) {
  auto src = [](const std::string& read) {
    return "__global__ void k(float* o, float4* v) { o[0] = " + read + "; }";
  };
  BothRuns a = RunCuBoth(src("v->y"), {1, 2, 3, 4});
  BothRuns d = RunCuBoth(src("(*v).y"), {1, 2, 3, 4});
  for (const auto* run : {&a.native, &a.wrapped, &d.native, &d.wrapped})
    ASSERT_TRUE(run->ok()) << Msg(*run);
  EXPECT_EQ((*a.native)[0], 2.0f);
  EXPECT_EQ(*a.native, *d.native);
  EXPECT_EQ(*a.wrapped, *d.wrapped);
}

}  // namespace
}  // namespace bridgecl
