// Work-group barriers as kernels see them. The executor runs a block's
// work-items round-robin between barriers: each sweep runs every ready
// item, in index order, to its next barrier or its end, and the barrier
// releases once every live item waits. These kernels pin that schedule
// through interp::LaunchKernel: barrier phases, early exits, failures,
// barriers reached inside helpers (from the middle of an expression and
// through two levels of calls), and the call-depth limit with and
// without a barrier.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "interp/executor.h"
#include "interp/module.h"
#include "simgpu/device.h"

namespace bridgecl::interp {
namespace {

using lang::Dialect;
using simgpu::Device;
using simgpu::Dim3;
using simgpu::TitanProfile;

class KernelBarrierTest : public ::testing::Test {
 protected:
  Device device_{TitanProfile()};

  std::unique_ptr<Module> Compile(const std::string& src,
                                  Dialect d = Dialect::kOpenCL) {
    DiagnosticEngine diags;
    auto m = Module::Compile(src, d, diags);
    EXPECT_TRUE(m.ok()) << diags.ToString();
    if (!m.ok()) return nullptr;
    Status st = (*m)->LoadOn(device_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return std::move(*m);
  }

  /// A zeroed global buffer of `n` ints.
  uint64_t Ints(size_t n) {
    auto va = device_.vm().AllocGlobal(n * 4);
    EXPECT_TRUE(va.ok());
    Write(*va, std::vector<int>(n, 0));
    return *va;
  }

  void Write(uint64_t va, const std::vector<int>& data) {
    auto p = device_.vm().Resolve(va, data.size() * 4);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    std::memcpy(*p, data.data(), data.size() * 4);
  }

  std::vector<int> Read(uint64_t va, size_t n) {
    auto p = device_.vm().Resolve(va, n * 4);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    std::vector<int> out(n);
    if (p.ok()) std::memcpy(out.data(), *p, n * 4);
    return out;
  }

  /// One block of `items` work-items.
  StatusOr<LaunchResult> Launch(Module& m, const std::string& kernel,
                                uint32_t items, std::vector<KernelArg> args) {
    LaunchConfig cfg;
    cfg.grid = Dim3(1);
    cfg.block = Dim3(items);
    return LaunchKernel(device_, m, kernel, cfg, args);
  }
};

TEST_F(KernelBarrierTest, ItemsWithoutBarriersComplete) {
  auto m = Compile(
      "__kernel void k(__global int* done) {"
      "  int i = get_local_id(0);"
      "  done[i] = i + 1;"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t done = Ints(8);
  auto r = Launch(*m, "k", 8, {KernelArg::Pointer(done)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = Read(done, 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i + 1);
  EXPECT_EQ(device_.stats().barriers, 0u);
}

TEST_F(KernelBarrierTest, BarrierSynchronizes) {
  // Every item writes its phase-1 value before any reads a sibling's.
  auto m = Compile(
      "__kernel void k(__global int* b) {"
      "  __local int a[16];"
      "  int i = get_local_id(0);"
      "  a[i] = i * 2;"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  b[i] = a[15 - i];"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t b = Ints(16);
  auto r = Launch(*m, "k", 16, {KernelArg::Pointer(b)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = Read(b, 16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], (15 - i) * 2) << i;
  EXPECT_EQ(device_.stats().barriers, 16u);
}

TEST_F(KernelBarrierTest, MultipleBarriers) {
  auto m = Compile(
      "__kernel void k(__global int* counter) {"
      "  for (int round = 0; round < 5; ++round) {"
      "    atomic_inc(counter);"
      "    barrier(CLK_GLOBAL_MEM_FENCE);"
      "  }"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t counter = Ints(1);
  auto r = Launch(*m, "k", 4, {KernelArg::Pointer(counter)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Read(counter, 1)[0], 20);
  EXPECT_EQ(device_.stats().barriers, 20u);
}

TEST_F(KernelBarrierTest, FailureDoesNotStopSiblings) {
  // Item 2 fails after the barrier; its siblings still finish, and the
  // block's status is the failure.
  auto m = Compile(
      "__kernel void k(__global int* o, int zero) {"
      "  int l = get_local_id(0);"
      "  o[l] = 1;"
      "  barrier(CLK_GLOBAL_MEM_FENCE);"
      "  o[l] = l == 2 ? 1 / zero : 2;"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t o = Ints(4);
  auto r = Launch(*m, "k", 4,
                  {KernelArg::Pointer(o), KernelArg::Value<int>(0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "division by zero in kernel");
  EXPECT_EQ(Read(o, 4), (std::vector<int>{2, 2, 1, 2}));
}

TEST_F(KernelBarrierTest, FirstFailureInExecutionOrderWins) {
  // Item 3 fails in the first sweep, item 0 only after the barrier: the
  // block reports item 3's failure although item 0 has the lower index.
  auto m = Compile(
      "__kernel void k(__global int* o) {"
      "  int l = get_local_id(0);"
      "  if (l == 3) o[1 << 30] = 1;"
      "  barrier(CLK_GLOBAL_MEM_FENCE);"
      "  if (l == 0) o[1 << 29] = 1;"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t o = Ints(4);
  auto r = Launch(*m, "k", 4, {KernelArg::Pointer(o)});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("local (3,0,0)"), std::string::npos)
      << r.status().ToString();
}

TEST_F(KernelBarrierTest, EarlyExitTolerated) {
  // Items that returned before the barrier are not waited for.
  auto m = Compile(
      "__kernel void k(__global int* reached) {"
      "  if (get_local_id(0) >= 4) return;"
      "  barrier(CLK_GLOBAL_MEM_FENCE);"
      "  atomic_inc(reached);"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t reached = Ints(1);
  auto r = Launch(*m, "k", 8, {KernelArg::Pointer(reached)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Read(reached, 1)[0], 4);
  EXPECT_EQ(device_.stats().barriers, 4u);
}

TEST_F(KernelBarrierTest, BarrierInAHelperCalledMidExpression) {
  // The item yields inside `sync_then_read` with `1 +` pending in its
  // caller and resumes there.
  auto m = Compile(
      "int sync_then_read(__local int* t, int l) {"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  return t[(l + 1) % 32];"
      "}"
      "__kernel void k(__global int* o) {"
      "  __local int t[32];"
      "  int l = get_local_id(0);"
      "  t[l] = l * 10;"
      "  o[l] = 1 + sync_then_read(t, l);"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t o = Ints(32);
  auto r = Launch(*m, "k", 32, {KernelArg::Pointer(o)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = Read(o, 32);
  for (int l = 0; l < 32; ++l) EXPECT_EQ(out[l], 1 + ((l + 1) % 32) * 10) << l;
}

TEST_F(KernelBarrierTest, BarrierThroughTwoLevelsOfCalls) {
  auto m = Compile(
      "void inner() { barrier(CLK_GLOBAL_MEM_FENCE); }"
      "void outer(int x) { if (x > 0) inner(); }"
      "__kernel void k(__global int* a) {"
      "  int l = get_local_id(0);"
      "  a[l] = l + 100;"
      "  outer(a[l]);"
      "  a[16 + l] = a[15 - l];"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t a = Ints(32);
  auto r = Launch(*m, "k", 16, {KernelArg::Pointer(a)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto out = Read(a, 32);
  for (int l = 0; l < 16; ++l) EXPECT_EQ(out[16 + l], 115 - l) << l;
  EXPECT_EQ(device_.stats().barriers, 16u);
}

TEST_F(KernelBarrierTest, KernelRecursesToTheCallDepthLimit) {
  // The kernel's frame plus 63 calls pass and 64 fail, whether or not the
  // kernel has a barrier.
  auto m = Compile(
      "int down(int n, __global int* c, float4 v) {"
      "  if (n == 0) return 1;"
      "  float4 w = clamp(v, (float4)(0.0f), (float4)(1.0f)) + (float4)(1.0f);"
      "  return atomic_add(c, max(down(n - 1, c, w.wzyx),"
      "                           (int)fma(w.x, w.y, w.z)));"
      "}"
      "__kernel void tiled(__global int* c, int depth) {"
      "  __local int t[4];"
      "  int l = get_local_id(0);"
      "  t[l] = down(depth, c, (float4)(l));"
      "  barrier(CLK_LOCAL_MEM_FENCE);"
      "  c[1 + l] = t[(l + 1) % 4];"
      "}"
      "__kernel void plain(__global int* c, int depth) {"
      "  int l = get_local_id(0);"
      "  c[1 + l] = down(depth, c, (float4)(l));"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t c = Ints(5);
  for (const char* kernel : {"tiled", "plain"}) {
    auto launch = [&](int depth) {
      return Launch(*m, kernel, 4,
                    {KernelArg::Pointer(c), KernelArg::Value<int>(depth)});
    };
    auto deepest = launch(63);
    EXPECT_TRUE(deepest.ok()) << kernel << ": " << deepest.status().ToString();
    auto too_deep = launch(64);
    ASSERT_FALSE(too_deep.ok()) << kernel;
    EXPECT_NE(too_deep.status().message().find(
                  "device call stack overflow (recursion too deep)"),
              std::string::npos)
        << kernel << ": " << too_deep.status().ToString();
  }
}

// Many group sizes, two barriers per phase: every item's neighbour has
// finished the phase's write before any item starts the next phase.
class KernelBarrierStressTest : public KernelBarrierTest,
                                public ::testing::WithParamInterface<int> {};

INSTANTIATE_TEST_SUITE_P(GroupSizes, KernelBarrierStressTest,
                         ::testing::Values(1, 2, 3, 17, 64, 128));

TEST_P(KernelBarrierStressTest, PhasedCountersStayCoherent) {
  const int n = GetParam();
  auto m = Compile(
      "__kernel void k(__global int* data) {"
      "  int i = get_local_id(0);"
      "  int n = get_local_size(0);"
      "  for (int phase = 0; phase < 4; ++phase) {"
      "    data[i] = data[(i + 1) % n] + 1;"
      "    barrier(CLK_GLOBAL_MEM_FENCE);"
      "    barrier(CLK_GLOBAL_MEM_FENCE);"
      "  }"
      "}");
  ASSERT_NE(m, nullptr);
  uint64_t data = Ints(n);
  auto r = Launch(*m, "k", n, {KernelArg::Pointer(data)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Within a phase items run in index order, so item i sees its
  // neighbour's write from this phase only when the neighbour is item 0.
  std::vector<int> want(n, 0);
  for (int phase = 0; phase < 4; ++phase)
    for (int i = 0; i < n; ++i) want[i] = want[(i + 1) % n] + 1;
  EXPECT_EQ(Read(data, n), want);
  EXPECT_EQ(device_.stats().barriers, static_cast<uint64_t>(8 * n));
}

}  // namespace
}  // namespace bridgecl::interp
