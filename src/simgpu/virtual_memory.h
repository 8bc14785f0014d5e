// A flat 64-bit virtual address space for one simulated device. Device
// pointers are plain virtual addresses, which is what lets translated
// kernels do everything real GPU code does with pointers: arithmetic,
// casts, pointers embedded in structs (the heartwall failure case), and
// the paper's cl_mem ⇄ void* handle casting in wrappers (§4).
//
// Layout:
//   [kGlobalBase ...)     dynamically allocated global-memory buffers
//   [kConstantBase ...)   per-module constant memory region
//   [kSharedBase ...)     the shared/local memory of the block each host
//                         worker is executing, one slot per worker
//   [kPrivateBase ...)    per-work-item private stacks of those blocks
//
// Two accuracy modes, mirroring real allocator behavior:
//   * unguarded (default): each allocation's backing store is padded to the
//     256-byte allocation granule, like a real device allocator. Writes a
//     few bytes past the requested size land in the slack and corrupt
//     silently — exactly the failure mode real GPU code exhibits. Accesses
//     crossing the granule still hit unmapped space and fault.
//   * guarded: strict bounds. Poisoned redzones surround each allocation,
//     frees leave poisoned tombstones with generation tags, and every
//     out-of-bounds / use-after-free / double-free access fails with a
//     diagnostic naming the VA, segment, allocation extent and generation
//     (the device-side half of a cuda-memcheck-style tool).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "support/status.h"

namespace bridgecl::simgpu {

class FaultInjector;

enum class Segment : uint8_t { kGlobal, kConstant, kShared, kPrivate };

/// Human-readable segment name ("global", "constant", ...).
const char* SegmentName(Segment seg);

class VirtualMemory {
 public:
  static constexpr uint64_t kNullGuard = 0x1000;  // VA 0..4K never mapped
  static constexpr uint64_t kGlobalBase = 0x0000'0001'0000'0000ull;
  static constexpr uint64_t kConstantBase = 0x0000'7F00'0000'0000ull;
  static constexpr uint64_t kSharedBase = 0x0000'7E00'0000'0000ull;
  static constexpr uint64_t kPrivateBase = 0x0000'7D00'0000'0000ull;

  /// Worker slots: the block-parallel launcher gives each host worker its
  /// own shared/private window inside the 1 TiB segment span, at
  /// `segment base + slot * kWorkerSlotStride`. The stride is a power of
  /// two and a multiple of every bank-word size, so a VA rebased into
  /// slot w keeps its offset modulo any bank word — bank-conflict counts
  /// are bit-identical across slots (SharedAccessBankWords depends only
  /// on va modulo the word size). Slot 0 is the legacy single-threaded
  /// window.
  static constexpr uint64_t kWorkerSlotStride = 1ull << 33;  // 8 GiB
  static constexpr int kMaxWorkerSlots =
      static_cast<int>((kSharedBase - kPrivateBase) / kWorkerSlotStride);

  /// Allocation granule: base alignment and the unit backing stores are
  /// padded to in unguarded mode.
  static constexpr size_t kGranule = 256;
  /// Poisoned guard band around each guarded allocation.
  static constexpr size_t kRedzone = 64;
  static constexpr std::byte kRedzonePoison{0xA5};
  static constexpr std::byte kFreePoison{0xDD};

  explicit VirtualMemory(size_t global_capacity)
      : global_capacity_(global_capacity) {}

  /// Guarded mode applies to allocations made after the switch; existing
  /// regions keep the layout they were created with.
  void set_guarded(bool guarded) { guarded_ = guarded; }
  bool guarded() const { return guarded_; }

  /// Injector consulted (when armed) on every alloc/free/resolve; owned by
  /// the Device. May be null.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Allocate a global-memory buffer; returns its base VA.
  StatusOr<uint64_t> AllocGlobal(size_t bytes);
  /// Free a buffer previously returned by AllocGlobal.
  Status FreeGlobal(uint64_t va);

  /// (Re)map the fixed regions. Shared/private are remapped per block by
  /// the launcher; constant is mapped once per loaded module. The
  /// slot-less forms map worker slot 0 (the serial engine's window).
  void MapConstant(size_t bytes);
  void MapShared(size_t bytes) { MapSharedSlot(0, bytes); }
  void MapPrivate(size_t bytes) { MapPrivateSlot(0, bytes); }
  void MapSharedSlot(int slot, size_t bytes);
  void MapPrivateSlot(int slot, size_t bytes);

  /// Pre-size the per-slot region tables so that workers can remap their
  /// own slots without synchronization. Must be called before (never
  /// during) a parallel phase; existing slot contents are preserved.
  void EnsureWorkerSlots(int slots);
  int worker_slots() const { return static_cast<int>(shared_slots_.size()); }

  /// Resolve `va..va+len` to host memory. Fails on unmapped or
  /// out-of-bounds accesses (the simulated segfault); in guarded mode the
  /// failure names the allocation, its extent and generation.
  StatusOr<std::byte*> Resolve(uint64_t va, size_t len);

  /// Segment of a mapped address (for access-cost classification).
  StatusOr<Segment> SegmentOf(uint64_t va) const;

  size_t global_in_use() const { return global_in_use_; }
  size_t global_capacity() const { return global_capacity_; }
  /// Number of live global allocations (leak checks in tests).
  size_t global_allocation_count() const { return live_global_count_; }

  uint64_t constant_base() const { return kConstantBase; }
  uint64_t shared_base(int slot = 0) const {
    return kSharedBase + static_cast<uint64_t>(slot) * kWorkerSlotStride;
  }
  uint64_t private_base(int slot = 0) const {
    return kPrivateBase + static_cast<uint64_t>(slot) * kWorkerSlotStride;
  }

 private:
  struct Region {
    std::vector<std::byte> storage;
    size_t user_size = 0;   // bytes the program requested
    size_t span = 0;        // bytes addressable from the base VA
    size_t front_pad = 0;   // offset of the base VA inside `storage`
    uint64_t generation = 0;
    bool freed = false;     // guarded tombstone (storage poisoned)
  };

  StatusOr<std::byte*> ResolveGlobal(uint64_t va, size_t len);
  StatusOr<std::byte*> ResolveSlotted(uint64_t va, size_t len, uint64_t seg_base,
                                      std::vector<Region>& slots, Segment seg);

  bool guarded_ = false;
  FaultInjector* injector_ = nullptr;
  size_t global_capacity_;
  size_t global_in_use_ = 0;
  size_t live_global_count_ = 0;
  uint64_t next_global_ = kGlobalBase;
  // Atomic so that future device-side allocation events stay safe under
  // the block-parallel engine (generation tags are part of the guarded
  // use-after-free diagnostics and must never tear).
  std::atomic<uint64_t> next_generation_{0};
  std::map<uint64_t, Region> global_allocs_;  // base VA -> region
  Region constant_;
  // Worker-slot shared/private windows; index = slot. Sized by
  // EnsureWorkerSlots before a parallel phase so workers touch only their
  // own element.
  std::vector<Region> shared_slots_ = std::vector<Region>(1);
  std::vector<Region> private_slots_ = std::vector<Region>(1);
};

}  // namespace bridgecl::simgpu
