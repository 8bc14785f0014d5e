#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "simgpu/device.h"

namespace bridgecl::simgpu {
namespace {

TEST(Dim3Test, NdrangeGridConversion) {
  Dim3 grid;
  ASSERT_TRUE(NdrangeToGrid(Dim3(256, 64), Dim3(32, 8), &grid));
  EXPECT_EQ(grid, Dim3(8, 8));
  EXPECT_FALSE(NdrangeToGrid(Dim3(100), Dim3(32), &grid));  // not divisible
  EXPECT_FALSE(NdrangeToGrid(Dim3(100), Dim3(0), &grid));
  EXPECT_EQ(GridToNdrange(Dim3(8, 8), Dim3(32, 8)), Dim3(256, 64));
}

TEST(VirtualMemoryTest, AllocResolveFree) {
  VirtualMemory vm(1 << 20);
  auto a = vm.AllocGlobal(256);
  ASSERT_TRUE(a.ok());
  auto b = vm.AllocGlobal(256);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(vm.global_in_use(), 512u);
  auto p = vm.Resolve(*a + 100, 8);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(vm.Resolve(*a + 250, 8).ok() == false);  // crosses the end
  ASSERT_TRUE(vm.FreeGlobal(*a).ok());
  EXPECT_EQ(vm.global_in_use(), 256u);
  EXPECT_FALSE(vm.FreeGlobal(*a).ok());  // double free
  EXPECT_FALSE(vm.Resolve(*a, 8).ok());  // use after free
}

TEST(VirtualMemoryTest, CapacityEnforced) {
  VirtualMemory vm(1024);
  EXPECT_TRUE(vm.AllocGlobal(1000).ok());
  auto r = vm.AllocGlobal(100);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(VirtualMemoryTest, SegmentsDistinct) {
  VirtualMemory vm(1 << 20);
  auto g = vm.AllocGlobal(64);
  ASSERT_TRUE(g.ok());
  vm.MapConstant(64);
  EXPECT_EQ(*vm.SegmentOf(*g), Segment::kGlobal);
  EXPECT_EQ(*vm.SegmentOf(vm.constant_base()), Segment::kConstant);
  EXPECT_EQ(*vm.SegmentOf(vm.shared_base()), Segment::kShared);
  EXPECT_EQ(*vm.SegmentOf(vm.private_base()), Segment::kPrivate);
  EXPECT_TRUE(vm.Resolve(vm.constant_base(), 64).ok());
  EXPECT_FALSE(vm.Resolve(vm.constant_base() + 32, 64).ok());
  EXPECT_FALSE(vm.SegmentOf(4).ok());  // inside the null guard
}

TEST(VirtualMemoryTest, SharedAndPrivateResolveIntoTheRunningBlock) {
  VirtualMemory vm(1 << 20);
  BlockMemory a, b;
  a.Reset(16, 1, 64);
  b.Reset(16, 0, 0);
  // One shared VA is a byte of whichever block resolves it.
  const uint64_t va = vm.shared_base() + 8;
  auto in_a = vm.Resolve(va, 4, &a);
  auto in_b = vm.Resolve(va, 4, &b);
  ASSERT_TRUE(in_a.ok()) << in_a.status().ToString();
  ASSERT_TRUE(in_b.ok()) << in_b.status().ToString();
  EXPECT_EQ(*in_a, a.shared.data() + 8);
  EXPECT_EQ(*in_b, b.shared.data() + 8);
  auto priv = vm.Resolve(vm.private_base() + 60, 4, &a);
  ASSERT_TRUE(priv.ok()) << priv.status().ToString();
  EXPECT_EQ(*priv, a.priv.data() + 60);

  // With no block (the host's view) both segments are unmapped.
  auto no_shared = vm.Resolve(va, 4);
  ASSERT_FALSE(no_shared.ok());
  EXPECT_NE(no_shared.status().message().find("segment shared"),
            std::string::npos)
      << no_shared.status().ToString();
  auto no_private = vm.Resolve(vm.private_base(), 4);
  ASSERT_FALSE(no_private.ok());
  EXPECT_NE(no_private.status().message().find("segment private"),
            std::string::npos)
      << no_private.status().ToString();

  // The block's shared size bounds the segment.
  auto over = vm.Resolve(vm.shared_base() + 14, 4, &a);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("overruns the shared segment"),
            std::string::npos)
      << over.status().ToString();
}

TEST(VirtualMemoryTest, BlockMemoryResetZeroesWhatTheBlockResolved) {
  VirtualMemory vm(1 << 20);
  constexpr size_t kSlot = 1024;
  const uint64_t priv = vm.private_base();
  const uint64_t shared = vm.shared_base();
  BlockMemory m;
  EXPECT_EQ(m.Reset(256, 4, kSlot), 0u);
  // Resolve and scribble over known ranges; each Reset must zero exactly
  // the high-water marks: 108 bytes of slot 0, all of slot 1 (the
  // straddling range), 304 bytes of slot 2 and 48 bytes of shared.
  auto scribble = [&] {
    const std::pair<uint64_t, size_t> ranges[] = {
        {priv + 100, 8},                 // inside slot 0
        {priv + 2 * kSlot + 300, 4},     // at an offset in slot 2
        {priv + 2 * kSlot - 8, 16},      // straddles slots 1 and 2
        {shared + 40, 8},                // shared
    };
    for (auto [va, len] : ranges) {
      auto p = vm.Resolve(va, len, &m);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      std::memset(*p, 0xAB, len);
    }
  };
  constexpr size_t kMarked = 108 + kSlot + 304 + 48;
  auto expect_all_zero = [&](const BlockArena& arena) {
    for (size_t i = 0; i < arena.size(); ++i)
      ASSERT_EQ(arena.data()[i], std::byte{0}) << "byte " << i;
  };

  scribble();
  EXPECT_EQ(m.Reset(256, 8, kSlot), kMarked);  // a block of more items
  EXPECT_EQ(m.priv.size(), 8 * kSlot);
  expect_all_zero(m.shared);
  expect_all_zero(m.priv);

  scribble();
  EXPECT_EQ(m.Reset(64, 2, kSlot), kMarked);  // a block of fewer items
  EXPECT_EQ(m.shared.size(), 64u);
  EXPECT_EQ(m.priv.size(), 2 * kSlot);
  expect_all_zero(m.shared);
  expect_all_zero(m.priv);

  // Slot 2 lay outside the smaller block but was zeroed all the same.
  EXPECT_EQ(m.Reset(256, 4, kSlot), 0u);
  expect_all_zero(m.shared);
  expect_all_zero(m.priv);
}

TEST(DeviceTest, BankWordAccounting) {
  Device d(TitanProfile());
  d.set_bank_mode(BankMode::k32Bit);
  EXPECT_EQ(d.SharedAccessBankWords(0, 4), 1);
  EXPECT_EQ(d.SharedAccessBankWords(0, 8), 2);   // double spans 2 words
  EXPECT_EQ(d.SharedAccessBankWords(2, 4), 2);   // misaligned
  d.set_bank_mode(BankMode::k64Bit);
  EXPECT_EQ(d.SharedAccessBankWords(0, 8), 1);   // the §6.2 effect
  EXPECT_EQ(d.SharedAccessBankWords(0, 4), 1);
  EXPECT_EQ(d.SharedAccessBankWords(4, 8), 2);   // straddles two banks
}

TEST(DeviceTest, OccupancyModel) {
  Device d(TitanProfile());
  // 65536 regs / 2048 threads = 32 regs for full occupancy.
  EXPECT_DOUBLE_EQ(d.OccupancyFor(32), 1.0);
  EXPECT_NEAR(d.OccupancyFor(85), 0.375, 0.01);  // cfd CUDA variant
  EXPECT_NEAR(d.OccupancyFor(68), 0.469, 0.01);  // cfd OpenCL variant
  EXPECT_GT(d.OccupancyFor(16), 0.99);           // capped at 1.0
}

TEST(DeviceTest, ClockAdvances) {
  Device d(TitanProfile());
  EXPECT_DOUBLE_EQ(d.now_us(), 0.0);
  d.ChargeApiCall();
  double t1 = d.now_us();
  EXPECT_GT(t1, 0.0);
  d.ChargeCopy(1 << 20);
  EXPECT_GT(d.now_us(), t1 + 50.0);  // 1MB over ~10GB/s ≈ 100us
  EXPECT_EQ(d.stats().api_calls, 1u);
}

TEST(EngineTimelineTest, OverlapAndBusyMatchABruteForceReference) {
  // Random reservations on both engines, with the clock moving between
  // them. Every time is a multiple of 0.25 us, so each sum is exact and
  // the incremental accounting must equal the O(n^2) reference exactly.
  Device d(TitanProfile());
  uint64_t s = 12345;
  auto next = [&](uint64_t n) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return (s >> 33) % n;
  };
  std::vector<std::pair<double, double>> held[2];
  double overlap = 0, busy[2] = {0, 0}, free_at[2] = {0, 0};
  for (int i = 0; i < 2000; ++i) {
    const int e = static_cast<int>(next(2));
    const double ready = d.now_us() + 0.5 * static_cast<double>(next(40));
    const double dur = next(5) == 0 ? 0 : 0.25 * static_cast<double>(next(80));
    const double start = d.ReserveEngine(static_cast<EngineId>(e), ready, dur);
    ASSERT_EQ(start, std::max(ready, free_at[e])) << i;
    for (const auto& [a, b] : held[1 - e])
      overlap += std::max(0.0, std::min(start + dur, b) - std::max(start, a));
    if (dur > 0) held[e].emplace_back(start, start + dur);
    free_at[e] = start + dur;
    busy[e] += dur;
    if (next(10) == 0) d.AdvanceUs(0.25 * static_cast<double>(next(200)));
  }
  EXPECT_EQ(d.EngineOverlapUs(), overlap);
  EXPECT_EQ(d.EngineBusyUs(EngineId::kCopy), busy[0]);
  EXPECT_EQ(d.EngineBusyUs(EngineId::kCompute), busy[1]);
  EXPECT_GT(overlap, 0.0);
}

TEST(EngineTimelineTest, HeldIntervalsDoNotGrow) {
  // A long-lived device: copy then kernel on one in-order queue, synced
  // every 16 pairs, then kernels alone. The intervals held stay bounded.
  Device d(TitanProfile());
  size_t most = 0;
  double end = 0;
  for (int i = 0; i < 50000; ++i) {
    double copied = d.ReserveEngine(EngineId::kCopy, std::max(d.now_us(), end), 3) + 3;
    end = d.ReserveEngine(EngineId::kCompute, copied, 5) + 5;
    if (i % 16 == 15) d.AdvanceUs(end - d.now_us());
    most = std::max({most, d.EngineIntervalsHeld(EngineId::kCopy),
                     d.EngineIntervalsHeld(EngineId::kCompute)});
  }
  for (int i = 0; i < 50000; ++i) {
    end = d.ReserveEngine(EngineId::kCompute, std::max(d.now_us(), end), 5) + 5;
    if (i % 16 == 15) d.AdvanceUs(end - d.now_us());
    most = std::max(most, d.EngineIntervalsHeld(EngineId::kCompute));
  }
  EXPECT_LE(most, 17u);
  EXPECT_EQ(d.EngineBusyUs(EngineId::kCompute), 5.0 * 100000);
}

TEST(ProfileTest, TableTwoProfiles) {
  const DeviceProfile& t = TitanProfile();
  EXPECT_EQ(t.warp_size, 32);
  EXPECT_EQ(t.opencl_bank_mode, BankMode::k32Bit);
  EXPECT_EQ(t.cuda_bank_mode, BankMode::k64Bit);
  const DeviceProfile& a = HD7970Profile();
  EXPECT_EQ(a.warp_size, 64);
  EXPECT_EQ(a.opencl_bank_mode, a.cuda_bank_mode);  // no CUDA on AMD
  EXPECT_FALSE(SystemConfigurationTable().empty());
}

}  // namespace
}  // namespace bridgecl::simgpu
