#include "trace/trace.h"

#include <cassert>

namespace bridgecl::trace {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kApiCall: return "api-call";
    case TraceKind::kH2D: return "h2d";
    case TraceKind::kD2H: return "d2h";
    case TraceKind::kD2D: return "d2d";
    case TraceKind::kKernelLaunch: return "kernel-launch";
    case TraceKind::kDeviceCopy: return "device-copy";
    case TraceKind::kDeviceCompute: return "device-compute";
  }
  return "?";
}

simgpu::DeviceStats StatsDelta(const simgpu::DeviceStats& after,
                               const simgpu::DeviceStats& before) {
  simgpu::DeviceStats d;
  d.kernels_launched = after.kernels_launched - before.kernels_launched;
  d.work_items_executed =
      after.work_items_executed - before.work_items_executed;
  d.global_accesses = after.global_accesses - before.global_accesses;
  d.shared_accesses = after.shared_accesses - before.shared_accesses;
  d.shared_bank_words = after.shared_bank_words - before.shared_bank_words;
  d.constant_accesses = after.constant_accesses - before.constant_accesses;
  d.image_accesses = after.image_accesses - before.image_accesses;
  d.atomics = after.atomics - before.atomics;
  d.barriers = after.barriers - before.barriers;
  d.host_to_device_bytes =
      after.host_to_device_bytes - before.host_to_device_bytes;
  d.device_to_host_bytes =
      after.device_to_host_bytes - before.device_to_host_bytes;
  d.device_to_device_bytes =
      after.device_to_device_bytes - before.device_to_device_bytes;
  d.api_calls = after.api_calls - before.api_calls;
  d.ops_executed = after.ops_executed - before.ops_executed;
  return d;
}

size_t TraceRecorder::OpenSpan(TraceKind kind, const char* layer,
                               const char* name) {
  TraceEvent e;
  e.kind = kind;
  e.layer = layer;
  e.name = name;
  e.begin_us = device_.now_us();
  e.depth = static_cast<int>(open_.size());
  e.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  size_t index = events_.size();
  events_.push_back(std::move(e));
  open_.push_back(index);
  snapshots_.push_back(device_.stats());
  return index;
}

void TraceRecorder::CloseSpan(size_t index, bool failed) {
  // Spans are RAII-scoped, so closes are strictly LIFO.
  assert(!open_.empty() && open_.back() == index);
  if (open_.empty() || open_.back() != index) return;
  TraceEvent& e = events_[index];
  e.end_us = device_.now_us();
  e.failed = failed;
  e.delta = StatsDelta(device_.stats(), snapshots_.back());
  open_.pop_back();
  snapshots_.pop_back();
}

void TraceRecorder::AppendCompleted(TraceKind kind, const char* layer,
                                    const char* name, double begin_us,
                                    double end_us, int lane, uint64_t stream,
                                    uint64_t bytes, const std::string& kernel,
                                    bool failed) {
  TraceEvent e;
  e.kind = kind;
  e.layer = layer;
  e.name = name;
  e.kernel = kernel;
  e.begin_us = begin_us;
  e.end_us = end_us;
  e.lane = lane;
  e.stream = stream;
  e.bytes = bytes;
  e.failed = failed;
  e.depth = static_cast<int>(open_.size());
  e.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  events_.push_back(std::move(e));
}

std::vector<size_t> TraceRecorder::ChildrenOf(size_t index) const {
  std::vector<size_t> kids;
  for (size_t i = index + 1; i < events_.size(); ++i)
    if (events_[i].parent == static_cast<int64_t>(index)) kids.push_back(i);
  return kids;
}

}  // namespace bridgecl::trace
