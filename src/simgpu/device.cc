#include "simgpu/device.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bridgecl::simgpu {

void Device::ChargeCopy(size_t bytes) {
  AdvanceUs(profile_.copy_latency_us +
            static_cast<double>(bytes) /
                (profile_.copy_bandwidth_gbps * 1e3));  // GB/s → bytes/us
}

double Device::ReserveEngine(EngineId e, double ready_us, double dur_us) {
  assert(ready_us >= clock_us_);
  const int self = static_cast<int>(e);
  const int other = 1 - self;
  const double start = std::max(ready_us, engine_free_us_[self]);
  const double end = start + dur_us;
  // Overlap accounting: intersect the new interval with the other
  // engine's reservations. Its intervals are sorted, so walk from the
  // back and stop once they end before our start.
  const auto& peer = engine_intervals_[other];
  for (auto it = peer.rbegin(); it != peer.rend(); ++it) {
    if (it->second <= start) break;
    engine_overlap_us_ +=
        std::max(0.0, std::min(end, it->second) - std::max(start, it->first));
  }
  if (dur_us > 0) engine_intervals_[self].emplace_back(start, end);
  engine_free_us_[self] = end;
  engine_busy_us_[self] += dur_us;
  // Drop the intervals no later reservation can overlap. One on engine Y
  // is only read by reservations on the other engine X, which start no
  // earlier than engine_free_us_[X] nor than the clock; the walk above
  // stops before reaching an interval that ends by then.
  for (int y = 0; y < kEngineCount; ++y) {
    const double horizon = std::max(engine_free_us_[1 - y], clock_us_);
    auto& held = engine_intervals_[y];
    while (!held.empty() && held.front().second <= horizon) held.pop_front();
  }
  return start;
}

double Device::OccupancyFor(int regs_per_thread) const {
  if (regs_per_thread <= 0) regs_per_thread = 16;
  int by_regs = profile_.max_registers_per_cu / regs_per_thread;
  // Warp-granular allocation.
  by_regs = by_regs / profile_.warp_size * profile_.warp_size;
  int active = std::clamp(by_regs, profile_.warp_size,
                          profile_.max_threads_per_cu);
  return static_cast<double>(active) / profile_.max_threads_per_cu;
}

void Device::ChargeKernel(double total_cycles, int regs_per_thread,
                          uint64_t work_items) {
  ++stats_.kernels_launched;
  stats_.work_items_executed += work_items;
  double occupancy = OccupancyFor(regs_per_thread);
  // Machine throughput: CUs x effective lanes, derated by occupancy
  // (latency hiding). Cycles are per-work-item-summed, so dividing by
  // parallel lanes yields elapsed cycles.
  double lanes = static_cast<double>(profile_.compute_units) *
                 profile_.effective_lanes_per_cu * occupancy;
  double elapsed_cycles = total_cycles / std::max(1.0, lanes);
  double us = elapsed_cycles / (profile_.clock_ghz * 1e3);
  AdvanceUs(profile_.launch_overhead_us + us);
}

int Device::SharedAccessBankWords(uint64_t va, size_t bytes) const {
  if (bytes == 0) return 0;
  size_t word = bank_mode_ == BankMode::k32Bit ? 4 : 8;
  uint64_t first = va / word;
  uint64_t last = (va + bytes - 1) / word;
  return static_cast<int>(last - first + 1);
}

}  // namespace bridgecl::simgpu
