#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "mcuda/cuda_api.h"
#include "simgpu/device.h"

namespace bridgecl::mcuda {
namespace {

using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

class McudaTest : public ::testing::Test {
 protected:
  McudaTest() : device_(TitanProfile()), cu_(CreateNativeCudaApi(device_)) {}

  Device device_;
  std::unique_ptr<CudaApi> cu_;
};

TEST_F(McudaTest, MallocMemcpyFree) {
  auto p = cu_->Malloc(256);
  ASSERT_TRUE(p.ok());
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 100);
  ASSERT_TRUE(
      cu_->Memcpy(*p, data.data(), 256, MemcpyKind::kHostToDevice).ok());
  std::vector<int> back(64);
  ASSERT_TRUE(
      cu_->Memcpy(back.data(), *p, 256, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, data);
  auto q = cu_->Malloc(256);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(cu_->Memcpy(*q, *p, 256, MemcpyKind::kDeviceToDevice).ok());
  ASSERT_TRUE(
      cu_->Memcpy(back.data(), *q, 256, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, data);
  EXPECT_TRUE(cu_->Free(*p).ok());
  EXPECT_FALSE(cu_->Free(*p).ok());  // double free detected
}

TEST_F(McudaTest, LaunchVadd) {
  ASSERT_TRUE(cu_->RegisterModule(
                     "__global__ void vadd(float* a, float* b, float* c,"
                     "                     int n) {"
                     "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
                     "  if (i < n) c[i] = a[i] + b[i];"
                     "}")
                  .ok());
  const int n = 96;
  std::vector<float> a(n, 2.0f), b(n, 5.0f), c(n);
  auto pa = cu_->Malloc(n * 4), pb = cu_->Malloc(n * 4),
       pc = cu_->Malloc(n * 4);
  ASSERT_TRUE(pa.ok() && pb.ok() && pc.ok());
  ASSERT_TRUE(
      cu_->Memcpy(*pa, a.data(), n * 4, MemcpyKind::kHostToDevice).ok());
  ASSERT_TRUE(
      cu_->Memcpy(*pb, b.data(), n * 4, MemcpyKind::kHostToDevice).ok());
  std::vector<LaunchArg> args = {LaunchArg::Ptr(*pa), LaunchArg::Ptr(*pb),
                                 LaunchArg::Ptr(*pc),
                                 LaunchArg::Value<int>(n)};
  ASSERT_TRUE(cu_->LaunchKernel("vadd", Dim3(3), Dim3(32), 0, args).ok());
  ASSERT_TRUE(
      cu_->Memcpy(c.data(), *pc, n * 4, MemcpyKind::kDeviceToHost).ok());
  for (float v : c) EXPECT_FLOAT_EQ(v, 7.0f);
}

TEST_F(McudaTest, MemcpyToFromSymbol) {
  ASSERT_TRUE(cu_->RegisterModule(
                     "__constant__ float coef[4];"
                     "__device__ int counter;"
                     "__global__ void k(float* out) {"
                     "  int i = threadIdx.x;"
                     "  out[i] = coef[i] * 10.0f;"
                     "  if (i == 0) counter = 42;"
                     "}")
                  .ok());
  std::vector<float> coef = {1, 2, 3, 4};
  ASSERT_TRUE(cu_->MemcpyToSymbol("coef", coef.data(), 16).ok());
  auto out = cu_->Malloc(16);
  ASSERT_TRUE(out.ok());
  std::vector<LaunchArg> args = {LaunchArg::Ptr(*out)};
  ASSERT_TRUE(cu_->LaunchKernel("k", Dim3(1), Dim3(4), 0, args).ok());
  std::vector<float> result(4);
  ASSERT_TRUE(
      cu_->Memcpy(result.data(), *out, 16, MemcpyKind::kDeviceToHost).ok());
  EXPECT_FLOAT_EQ(result[0], 10.0f);
  EXPECT_FLOAT_EQ(result[3], 40.0f);
  int counter = 0;
  ASSERT_TRUE(cu_->MemcpyFromSymbol(&counter, "counter", 4).ok());
  EXPECT_EQ(counter, 42);
  // Unknown symbols and overruns are rejected.
  EXPECT_FALSE(cu_->MemcpyToSymbol("nope", coef.data(), 4).ok());
  EXPECT_FALSE(cu_->MemcpyToSymbol("coef", coef.data(), 64).ok());
}

TEST_F(McudaTest, MemGetInfo) {
  auto info0 = cu_->MemGetInfo();
  ASSERT_TRUE(info0.ok());
  auto p = cu_->Malloc(1 << 20);
  ASSERT_TRUE(p.ok());
  auto info1 = cu_->MemGetInfo();
  ASSERT_TRUE(info1.ok());
  EXPECT_EQ(info0->first - info1->first, 1u << 20);
  EXPECT_EQ(info0->second, info1->second);
}

TEST_F(McudaTest, DevicePropertiesSingleQuery) {
  double t0 = cu_->NowUs();
  auto props = cu_->GetDeviceProperties();
  ASSERT_TRUE(props.ok());
  EXPECT_NE(props->name.find("Titan"), std::string::npos);
  EXPECT_EQ(props->warp_size, 32);
  EXPECT_EQ(props->multi_processor_count, 14);
  EXPECT_EQ(props->major, 3);
  EXPECT_EQ(props->minor, 5);
  // Native CUDA fills the whole struct with one device query.
  double elapsed = cu_->NowUs() - t0;
  EXPECT_LT(elapsed, 3 * TitanProfile().device_query_us);
}

TEST_F(McudaTest, DynamicSharedLaunch) {
  ASSERT_TRUE(cu_->RegisterModule(
                     "__global__ void rot(int* d) {"
                     "  extern __shared__ int tile[];"
                     "  int t = threadIdx.x;"
                     "  tile[t] = d[t];"
                     "  __syncthreads();"
                     "  d[t] = tile[(t + 1) % blockDim.x];"
                     "}")
                  .ok());
  const int n = 16;
  std::vector<int> data(n);
  std::iota(data.begin(), data.end(), 0);
  auto p = cu_->Malloc(n * 4);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      cu_->Memcpy(*p, data.data(), n * 4, MemcpyKind::kHostToDevice).ok());
  std::vector<LaunchArg> args = {LaunchArg::Ptr(*p)};
  ASSERT_TRUE(cu_->LaunchKernel("rot", Dim3(1), Dim3(n), n * 4, args).ok());
  std::vector<int> back(n);
  ASSERT_TRUE(
      cu_->Memcpy(back.data(), *p, n * 4, MemcpyKind::kDeviceToHost).ok());
  for (int i = 0; i < n; ++i) EXPECT_EQ(back[i], (i + 1) % n);
}

TEST_F(McudaTest, Texture1DLinear) {
  ASSERT_TRUE(cu_->RegisterModule(
                     "texture<float, 1, cudaReadModeElementType> tex;"
                     "__global__ void k(float* out, int n) {"
                     "  int i = threadIdx.x;"
                     "  if (i < n) out[i] = tex1Dfetch(tex, n - 1 - i);"
                     "}")
                  .ok());
  const int n = 8;
  std::vector<float> data = {0, 1, 2, 3, 4, 5, 6, 7};
  auto p = cu_->Malloc(n * 4);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      cu_->Memcpy(*p, data.data(), n * 4, MemcpyKind::kHostToDevice).ok());
  ChannelDesc desc;
  desc.elem = lang::ScalarKind::kFloat;
  desc.channels = 1;
  ASSERT_TRUE(cu_->BindTexture("tex", *p, n * 4, desc).ok());
  auto out = cu_->Malloc(n * 4);
  ASSERT_TRUE(out.ok());
  std::vector<LaunchArg> args = {LaunchArg::Ptr(*out),
                                 LaunchArg::Value<int>(n)};
  ASSERT_TRUE(cu_->LaunchKernel("k", Dim3(1), Dim3(n), 0, args).ok());
  std::vector<float> back(n);
  ASSERT_TRUE(
      cu_->Memcpy(back.data(), *out, n * 4, MemcpyKind::kDeviceToHost).ok());
  for (int i = 0; i < n; ++i) EXPECT_FLOAT_EQ(back[i], float(n - 1 - i));
  ASSERT_TRUE(cu_->UnbindTexture("tex").ok());
}

TEST_F(McudaTest, Texture2DViaArray) {
  ASSERT_TRUE(cu_->RegisterModule(
                     "texture<float, 2, cudaReadModeElementType> tex2;"
                     "__global__ void k(float* out, int w) {"
                     "  int x = threadIdx.x;"
                     "  int y = threadIdx.y;"
                     "  out[y * w + x] = tex2D(tex2, (float)x, (float)y);"
                     "}")
                  .ok());
  const int w = 4, h = 2;
  std::vector<float> img = {1, 2, 3, 4, 5, 6, 7, 8};
  ChannelDesc desc;
  desc.elem = lang::ScalarKind::kFloat;
  desc.channels = 1;
  auto arr = cu_->MallocArray(desc, w, h);
  ASSERT_TRUE(arr.ok());
  ASSERT_TRUE(cu_->MemcpyToArray(*arr, img.data(), w * h * 4).ok());
  ASSERT_TRUE(cu_->BindTextureToArray("tex2", *arr).ok());
  auto out = cu_->Malloc(w * h * 4);
  ASSERT_TRUE(out.ok());
  std::vector<LaunchArg> args = {LaunchArg::Ptr(*out),
                                 LaunchArg::Value<int>(w)};
  ASSERT_TRUE(cu_->LaunchKernel("k", Dim3(1), Dim3(w, h), 0, args).ok());
  std::vector<float> back(w * h);
  ASSERT_TRUE(cu_->Memcpy(back.data(), *out, w * h * 4,
                          MemcpyKind::kDeviceToHost)
                  .ok());
  EXPECT_EQ(back, img);
}

TEST_F(McudaTest, Tex1DLinearLimitIsHuge) {
  // CUDA's linear 1D texture limit is 2^27 texels (§5): binding ~100K
  // floats must succeed where OpenCL's 1D image (65536) could not.
  ASSERT_TRUE(cu_->RegisterModule(
                     "texture<float, 1, cudaReadModeElementType> tbig;"
                     "__global__ void k(float* out) {"
                     "  out[0] = tex1Dfetch(tbig, 100000);"
                     "}")
                  .ok());
  const size_t n = 120000;
  auto p = cu_->Malloc(n * 4);
  ASSERT_TRUE(p.ok());
  ChannelDesc desc;
  desc.elem = lang::ScalarKind::kFloat;
  desc.channels = 1;
  EXPECT_TRUE(cu_->BindTexture("tbig", *p, n * 4, desc).ok());
}

TEST_F(McudaTest, CudaBankModeIsActive) {
  EXPECT_EQ(device_.bank_mode(), simgpu::BankMode::k64Bit);  // §6.2
}

TEST_F(McudaTest, RegisterOverrideAffectsOccupancy) {
  ASSERT_TRUE(
      cu_->RegisterModule("__global__ void k(float* g) {"
                          "  g[threadIdx.x] *= 2.0f;"
                          "}")
          .ok());
  ASSERT_TRUE(cu_->SetKernelRegisters("k", 85).ok());
  EXPECT_FALSE(cu_->SetKernelRegisters("missing", 85).ok());
  EXPECT_NEAR(device_.OccupancyFor(85), 0.375, 0.01);
}

TEST_F(McudaTest, SnapshotAndRestoreAreUnimplemented) {
  // No binding checkpoints a context: both calls fail, write no file,
  // charge nothing, and leave live allocations as they were.
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 5);
  auto p = cu_->Malloc(64);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      cu_->Memcpy(*p, data.data(), 64, MemcpyKind::kHostToDevice).ok());
  const uint64_t calls = device_.stats().api_calls;
  const double now = cu_->NowUs();
  const std::string path = ::testing::TempDir() + "bridgecl_mcuda_image";
  EXPECT_EQ(cu_->Snapshot(path).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(cu_->Restore(path).code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(device_.stats().api_calls, calls);
  EXPECT_EQ(cu_->NowUs(), now);
  std::vector<int> back(16);
  ASSERT_TRUE(
      cu_->Memcpy(back.data(), *p, 64, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, data);
}

TEST_F(McudaTest, UnknownKernelRejected) {
  EXPECT_FALSE(cu_->LaunchKernel("ghost", Dim3(1), Dim3(1), 0, {}).ok());
}

TEST_F(McudaTest, CudaOnlyBuiltinsExecuteNatively) {
  // §3.7: __shfl/__all/clock exist only in CUDA. They must run on the
  // native binding (and be rejected by the CU→CL translator, tested in
  // translator tests).
  ASSERT_TRUE(cu_->RegisterModule(
                     "__global__ void k(int* out) {"
                     "  int v = threadIdx.x + 1;"
                     "  out[0] = __all(v > 0);"
                     "  out[1] = __shfl(v, 0);"
                     "  out[2] = (int)(clock() >= 0);"
                     "  out[3] = __popc(0xF0);"
                     "}")
                  .ok());
  auto out = cu_->Malloc(16);
  ASSERT_TRUE(out.ok());
  std::vector<LaunchArg> args = {LaunchArg::Ptr(*out)};
  ASSERT_TRUE(cu_->LaunchKernel("k", Dim3(1), Dim3(1), 0, args).ok());
  std::vector<int> back(4);
  ASSERT_TRUE(
      cu_->Memcpy(back.data(), *out, 16, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back[0], 1);
  EXPECT_EQ(back[1], 1);
  EXPECT_EQ(back[2], 1);
  EXPECT_EQ(back[3], 4);
}

}  // namespace
}  // namespace bridgecl::mcuda
