#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "mocl/cl_api.h"
#include "simgpu/device.h"

namespace bridgecl::mocl {
namespace {

using simgpu::Device;
using simgpu::TitanProfile;

constexpr char kVaddSource[] =
    "__kernel void vadd(__global float* a, __global float* b,"
    "                   __global float* c, int n) {"
    "  int i = get_global_id(0);"
    "  if (i < n) c[i] = a[i] + b[i];"
    "}";

class MoclTest : public ::testing::Test {
 protected:
  MoclTest() : device_(TitanProfile()), cl_(CreateNativeClApi(device_)) {}

  StatusOr<ClKernel> BuildKernel(const std::string& src,
                                 const std::string& name) {
    BRIDGECL_ASSIGN_OR_RETURN(ClProgram p, cl_->CreateProgramWithSource(src));
    BRIDGECL_RETURN_IF_ERROR(cl_->BuildProgram(p));
    return cl_->CreateKernel(p, name);
  }

  Device device_;
  std::unique_ptr<OpenClApi> cl_;
};

TEST_F(MoclTest, BufferRoundTrip) {
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto mem = cl_->CreateBuffer(MemFlags::kReadWrite, 400, data.data());
  ASSERT_TRUE(mem.ok());
  std::vector<int> back(100);
  ASSERT_TRUE(cl_->EnqueueReadBuffer(*mem, 0, 400, back.data()).ok());
  EXPECT_EQ(back, data);
  // Partial write/read with offsets.
  int v = 777;
  ASSERT_TRUE(cl_->EnqueueWriteBuffer(*mem, 40, 4, &v).ok());
  int got = 0;
  ASSERT_TRUE(cl_->EnqueueReadBuffer(*mem, 40, 4, &got).ok());
  EXPECT_EQ(got, 777);
  ASSERT_TRUE(cl_->ReleaseMemObject(*mem).ok());
  EXPECT_FALSE(cl_->EnqueueReadBuffer(*mem, 0, 4, &got).ok());
}

TEST_F(MoclTest, OutOfBoundsBufferOpsRejected) {
  auto mem = cl_->CreateBuffer(MemFlags::kReadWrite, 64, nullptr);
  ASSERT_TRUE(mem.ok());
  char buf[128];
  EXPECT_FALSE(cl_->EnqueueReadBuffer(*mem, 0, 128, buf).ok());
  EXPECT_FALSE(cl_->EnqueueWriteBuffer(*mem, 60, 8, buf).ok());
}

TEST_F(MoclTest, CopyBuffer) {
  std::vector<float> a(16, 3.5f);
  auto src = cl_->CreateBuffer(MemFlags::kReadOnly, 64, a.data());
  auto dst = cl_->CreateBuffer(MemFlags::kReadWrite, 64, nullptr);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  ASSERT_TRUE(cl_->EnqueueCopyBuffer(*src, *dst, 0, 0, 64).ok());
  std::vector<float> back(16);
  ASSERT_TRUE(cl_->EnqueueReadBuffer(*dst, 0, 64, back.data()).ok());
  EXPECT_EQ(back, a);
}

TEST_F(MoclTest, BuildAndRunVadd) {
  auto kernel = BuildKernel(kVaddSource, "vadd");
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const int n = 128;
  std::vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 0.0f);
  auto ma = cl_->CreateBuffer(MemFlags::kReadOnly, n * 4, a.data());
  auto mb = cl_->CreateBuffer(MemFlags::kReadOnly, n * 4, b.data());
  auto mc = cl_->CreateBuffer(MemFlags::kWriteOnly, n * 4, nullptr);
  ASSERT_TRUE(ma.ok() && mb.ok() && mc.ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 0, sizeof(ClMem), &*ma).ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 1, sizeof(ClMem), &*mb).ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 2, sizeof(ClMem), &*mc).ok());
  int nn = n;
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 3, sizeof(int), &nn).ok());
  size_t gws = n, lws = 32;
  ASSERT_TRUE(cl_->EnqueueNDRangeKernel(*kernel, 1, &gws, &lws).ok());
  ASSERT_TRUE(cl_->EnqueueReadBuffer(*mc, 0, n * 4, c.data()).ok());
  for (float v : c) EXPECT_FLOAT_EQ(v, 3.0f);
}

TEST_F(MoclTest, BuildFailureReportsLog) {
  auto p = cl_->CreateProgramWithSource("__kernel void broken( {");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(cl_->BuildProgram(*p).ok());
  auto log = cl_->GetProgramBuildLog(*p);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(log->empty());
}

TEST_F(MoclTest, MissingArgRejectedAtLaunch) {
  auto kernel = BuildKernel(kVaddSource, "vadd");
  ASSERT_TRUE(kernel.ok());
  size_t gws = 32, lws = 32;
  auto st = cl_->EnqueueNDRangeKernel(*kernel, 1, &gws, &lws);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(MoclTest, NdrangeMustDivide) {
  auto kernel = BuildKernel("__kernel void nop() {}", "nop");
  ASSERT_TRUE(kernel.ok());
  size_t gws = 100, lws = 32;
  EXPECT_FALSE(cl_->EnqueueNDRangeKernel(*kernel, 1, &gws, &lws).ok());
}

TEST_F(MoclTest, DynamicLocalViaNullArg) {
  auto kernel = BuildKernel(
      "__kernel void k(__global int* out, __local int* tmp) {"
      "  int l = get_local_id(0);"
      "  tmp[l] = l * 3;"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  out[get_global_id(0)] = tmp[(l + 1) % 8];"
      "}",
      "k");
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  auto out = cl_->CreateBuffer(MemFlags::kWriteOnly, 8 * 4, nullptr);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 0, sizeof(ClMem), &*out).ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 1, 8 * 4, nullptr).ok());
  size_t gws = 8, lws = 8;
  ASSERT_TRUE(cl_->EnqueueNDRangeKernel(*kernel, 1, &gws, &lws).ok());
  std::vector<int> result(8);
  ASSERT_TRUE(cl_->EnqueueReadBuffer(*out, 0, 32, result.data()).ok());
  EXPECT_EQ(result[0], 3);
  EXPECT_EQ(result[7], 0);
}

TEST_F(MoclTest, Image2DReadInKernel) {
  auto kernel = BuildKernel(
      "__kernel void k(__read_only image2d_t img, sampler_t s,"
      "                __global float* out) {"
      "  int x = get_global_id(0);"
      "  float4 t = read_imagef(img, s, (int2)(x, 0));"
      "  out[x] = t.x + t.y;"
      "}",
      "k");
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  ClImageFormat fmt;
  fmt.elem = lang::ScalarKind::kFloat;
  fmt.channels = 2;
  std::vector<float> texels = {1, 10, 2, 20, 3, 30, 4, 40};
  auto img = cl_->CreateImage2D(MemFlags::kReadOnly, fmt, 4, 1, texels.data());
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  auto sampler = cl_->CreateSampler({});
  ASSERT_TRUE(sampler.ok());
  auto out = cl_->CreateBuffer(MemFlags::kWriteOnly, 16, nullptr);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 0, sizeof(ClMem), &*img).ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 1, sizeof(uint64_t), &*sampler).ok());
  ASSERT_TRUE(cl_->SetKernelArg(*kernel, 2, sizeof(ClMem), &*out).ok());
  size_t gws = 4, lws = 4;
  ASSERT_TRUE(cl_->EnqueueNDRangeKernel(*kernel, 1, &gws, &lws).ok());
  std::vector<float> result(4);
  ASSERT_TRUE(cl_->EnqueueReadBuffer(*out, 0, 16, result.data()).ok());
  EXPECT_FLOAT_EQ(result[0], 11.0f);
  EXPECT_FLOAT_EQ(result[3], 44.0f);
}

TEST_F(MoclTest, Image1DWidthLimitEnforced) {
  // §5: OpenCL 1D images stop at the 2D max width; CUDA linear textures
  // reach 2^27. This is the kmeans/leukocyte/hybridsort failure.
  ClImageFormat fmt;
  fmt.elem = lang::ScalarKind::kFloat;
  fmt.channels = 1;
  auto too_big =
      cl_->CreateImage1D(MemFlags::kReadOnly, fmt, 65537, nullptr);
  EXPECT_FALSE(too_big.ok());
  auto ok = cl_->CreateImage1D(MemFlags::kReadOnly, fmt, 65536, nullptr);
  EXPECT_TRUE(ok.ok());
}

TEST_F(MoclTest, Image1DFromBuffer) {
  std::vector<float> data = {5, 6, 7, 8};
  auto buf = cl_->CreateBuffer(MemFlags::kReadWrite, 16, data.data());
  ASSERT_TRUE(buf.ok());
  ClImageFormat fmt;
  fmt.elem = lang::ScalarKind::kFloat;
  fmt.channels = 1;
  auto img = cl_->CreateImage1DFromBuffer(fmt, 4, *buf);
  ASSERT_TRUE(img.ok()) << img.status().ToString();
  std::vector<float> back(4);
  ASSERT_TRUE(cl_->EnqueueReadImage(*img, back.data()).ok());
  EXPECT_EQ(back, data);
  // A view wider than the backing buffer is invalid.
  EXPECT_FALSE(cl_->CreateImage1DFromBuffer(fmt, 8, *buf).ok());
}

TEST_F(MoclTest, DeviceInfoQueries) {
  auto name = cl_->QueryDeviceInfoString(ClDeviceAttr::kName);
  ASSERT_TRUE(name.ok());
  EXPECT_NE(name->find("Titan"), std::string::npos);
  auto cus = cl_->QueryDeviceInfoUint(ClDeviceAttr::kMaxComputeUnits);
  ASSERT_TRUE(cus.ok());
  EXPECT_EQ(*cus, 14u);
  // Each query costs a device round-trip (the §6.3 deviceQuery effect).
  double t0 = cl_->NowUs();
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(cl_->QueryDeviceInfoUint(ClDeviceAttr::kLocalMemSize).ok());
  EXPECT_GT(cl_->NowUs() - t0, 10 * TitanProfile().device_query_us * 0.9);
}

TEST_F(MoclTest, SubDevicesSupportedNatively) {
  auto r = cl_->CreateSubDevices(2);
  ASSERT_TRUE(r.ok());  // §3.7: OpenCL-only feature, fine natively
  EXPECT_EQ(*r, 2);
  EXPECT_FALSE(cl_->CreateSubDevices(1000).ok());
}

TEST_F(MoclTest, OpenClBankModeIsActive) {
  // Creating the native OpenCL binding on a Titan selects the 32-bit
  // shared-memory addressing mode (§6.2).
  EXPECT_EQ(device_.bank_mode(), simgpu::BankMode::k32Bit);
}

TEST_F(MoclTest, SnapshotAndRestoreAreUnimplemented) {
  // No binding checkpoints a context: both calls fail, write no file,
  // charge nothing, and leave live buffers as they were.
  std::vector<int> data(16);
  std::iota(data.begin(), data.end(), 5);
  auto mem = cl_->CreateBuffer(MemFlags::kReadWrite, 64, data.data());
  ASSERT_TRUE(mem.ok());
  const uint64_t calls = device_.stats().api_calls;
  const double now = cl_->NowUs();
  const std::string path = ::testing::TempDir() + "bridgecl_mocl_image";
  EXPECT_EQ(cl_->Snapshot(path).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(cl_->Restore(path).code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(device_.stats().api_calls, calls);
  EXPECT_EQ(cl_->NowUs(), now);
  std::vector<int> back(16);
  ASSERT_TRUE(cl_->EnqueueReadBuffer(*mem, 0, 64, back.data()).ok());
  EXPECT_EQ(back, data);
}

TEST_F(MoclTest, BuildTimeTrackedSeparately) {
  double t0 = cl_->BuildTimeUs();
  auto k = BuildKernel("__kernel void nop() {}", "nop");
  ASSERT_TRUE(k.ok());
  EXPECT_GT(cl_->BuildTimeUs(), t0);
}

}  // namespace
}  // namespace bridgecl::mocl
