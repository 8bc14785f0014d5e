// A flat 64-bit virtual address space for one simulated device. Device
// pointers are plain virtual addresses, which is what lets translated
// kernels do everything real GPU code does with pointers: arithmetic,
// casts, pointers embedded in structs (the heartwall failure case), and
// the paper's cl_mem ⇄ void* handle casting in wrappers (§4).
//
// Layout:
//   [kGlobalBase ...)     dynamically allocated global-memory buffers
//   [kConstantBase ...)   per-module constant memory region
//   [kSharedBase ...)     the shared/local memory of a running block
//   [kPrivateBase ...)    the per-work-item private stacks of that block
//
// Only global and constant memory belong to the device. Shared and
// private memory belong to one block: the launcher runs each block in a
// BlockMemory, resets it for the block and passes it to Resolve, so every
// block sees the same shared and private VAs, zero-filled, whichever host
// worker runs it.
//
// Concurrency: no VirtualMemory member changes while a launch's workers
// run. Workers only resolve global memory, constant memory and their own
// BlockMemory; allocation, freeing and MapConstant happen between
// launches.
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

/// One segment of block memory: `size()` zero-filled bytes laid out as
/// equal slots, backed lazily by anonymous pages that read as zero until
/// written, so resident memory follows the bytes blocks touch. The mapping
/// grows and never shrinks. Per slot it keeps a high-water mark: the end
/// of the highest range Take handed out, measured from the slot's start.
class BlockArena {
 public:
  BlockArena() = default;
  BlockArena(const BlockArena&) = delete;
  BlockArena& operator=(const BlockArena&) = delete;
  ~BlockArena();

  /// Zero every marked byte of the previous layout, then lay out `slots`
  /// slots of `slot_bytes` with no marks. Returns the bytes zeroed.
  size_t Reset(size_t slots, size_t slot_bytes);

  /// Host address of the `len` bytes at `offset`, which the caller has
  /// checked lie inside `size()`; marks them for the next Reset.
  std::byte* Take(size_t offset, size_t len);

  std::byte* data() const { return base_; }
  size_t size() const { return marks_.size() * slot_bytes_; }

 private:
  std::byte* base_ = nullptr;
  size_t mapped_ = 0;
  size_t slot_bytes_ = 0;
  std::vector<size_t> marks_;  // one per slot
};

/// The shared and private memory of one running block. Byte i of
/// `shared` is VA `kSharedBase + i`, byte i of `priv` is VA
/// `kPrivateBase + i`. A launcher keeps one per host worker across blocks
/// and launches. Every host pointer into it comes from Resolve, which
/// marks what it hands out, so the marked bytes cover every byte a block
/// wrote and every unmarked byte is still zero: Reset re-zeroes only the
/// marked ones, and the next block cannot tell it from fresh memory.
struct BlockMemory {
  BlockArena shared;  // one slot
  BlockArena priv;    // one slot per work-item

  /// Prepare for a block with `shared_bytes` of shared memory and
  /// `items` private slots of `bytes_per_item`; returns the bytes zeroed.
  size_t Reset(size_t shared_bytes, size_t items, size_t bytes_per_item) {
    return shared.Reset(1, shared_bytes) + priv.Reset(items, bytes_per_item);
  }
};

class VirtualMemory {
 public:
  static constexpr uint64_t kNullGuard = 0x1000;  // VA 0..4K never mapped
  static constexpr uint64_t kGlobalBase = 0x0000'0001'0000'0000ull;
  static constexpr uint64_t kConstantBase = 0x0000'7F00'0000'0000ull;
  static constexpr uint64_t kSharedBase = 0x0000'7E00'0000'0000ull;
  static constexpr uint64_t kPrivateBase = 0x0000'7D00'0000'0000ull;

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

  /// (Re)map the zero-filled constant region; done once per loaded
  /// module.
  void MapConstant(size_t bytes);

  /// Resolve `va..va+len` to host memory. Shared and private VAs resolve
  /// into `block`, which marks the range for its next Reset; with no
  /// block (the host's view) they are unmapped.
  /// Fails on unmapped or out-of-bounds accesses (the simulated
  /// segfault); in guarded mode the failure names the allocation, its
  /// extent and generation.
  StatusOr<std::byte*> Resolve(uint64_t va, size_t len,
                               BlockMemory* block = nullptr);

  /// Segment of a mapped address (for access-cost classification).
  StatusOr<Segment> SegmentOf(uint64_t va) const;

  size_t global_in_use() const { return global_in_use_; }
  size_t global_capacity() const { return global_capacity_; }
  /// Number of live global allocations (leak checks in tests).
  size_t global_allocation_count() const { return live_global_count_; }

  uint64_t constant_base() const { return kConstantBase; }
  uint64_t shared_base() const { return kSharedBase; }
  uint64_t private_base() const { return kPrivateBase; }

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

  bool guarded_ = false;
  FaultInjector* injector_ = nullptr;
  size_t global_capacity_;
  size_t global_in_use_ = 0;
  size_t live_global_count_ = 0;
  uint64_t next_global_ = kGlobalBase;
  uint64_t next_generation_ = 0;
  std::map<uint64_t, Region> global_allocs_;  // base VA -> region
  std::vector<std::byte> constant_;
};

}  // namespace bridgecl::simgpu
