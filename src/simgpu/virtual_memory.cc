#include "simgpu/virtual_memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "simgpu/fault_injector.h"
#include "support/strings.h"

namespace bridgecl::simgpu {

const char* SegmentName(Segment seg) {
  switch (seg) {
    case Segment::kGlobal: return "global";
    case Segment::kConstant: return "constant";
    case Segment::kShared: return "shared";
    case Segment::kPrivate: return "private";
  }
  return "unknown";
}

namespace {
size_t RoundUpToGranule(size_t bytes) {
  return (bytes + VirtualMemory::kGranule - 1) &
         ~(VirtualMemory::kGranule - 1);
}

/// The fault for an access past the `size` bytes of segment `seg`, which
/// starts at VA `base`.
Status OverrunFault(uint64_t va, size_t len, uint64_t base, size_t size,
                    Segment seg) {
  return InternalError(StrFormat(
      "device memory fault: access of %zu bytes at 0x%llx overruns the"
      " %s segment [0x%llx, +%zu)",
      len, static_cast<unsigned long long>(va), SegmentName(seg),
      static_cast<unsigned long long>(base), size));
}

/// Resolve into a block segment that starts at VA `base`; a null `arena`
/// is an unmapped segment.
StatusOr<std::byte*> ResolveInBlock(uint64_t va, size_t len, uint64_t base,
                                    BlockArena* arena, Segment seg) {
  if (arena == nullptr)
    return InternalError(StrFormat(
        "device memory fault: access of %zu bytes at 0x%llx (segment %s,"
        " unmapped)",
        len, static_cast<unsigned long long>(va), SegmentName(seg)));
  if (va + len <= base + arena->size()) return arena->Take(va - base, len);
  return OverrunFault(va, len, base, arena->size(), seg);
}
}  // namespace

BlockArena::~BlockArena() {
  if (base_ != nullptr) munmap(base_, mapped_);
}

size_t BlockArena::Reset(size_t slots, size_t slot_bytes) {
  size_t zeroed = 0;
  for (size_t s = 0; s < marks_.size(); ++s) {
    if (marks_[s] == 0) continue;
    std::memset(base_ + s * slot_bytes_, 0, marks_[s]);
    zeroed += marks_[s];
  }
  const size_t bytes = slots * slot_bytes;
  if (bytes > mapped_) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    if (base_ != nullptr) munmap(base_, mapped_);
    base_ = static_cast<std::byte*>(p);
    mapped_ = bytes;
  }
  marks_.assign(slots, 0);
  slot_bytes_ = slot_bytes;
  return zeroed;
}

std::byte* BlockArena::Take(size_t offset, size_t len) {
  if (len == 0) return base_ + offset;
  // A range may straddle slots: each slot it covers is marked.
  const size_t end = offset + len;
  for (size_t s = offset / slot_bytes_; s * slot_bytes_ < end; ++s)
    marks_[s] = std::max(marks_[s],
                         std::min(end - s * slot_bytes_, slot_bytes_));
  return base_ + offset;
}

StatusOr<uint64_t> VirtualMemory::AllocGlobal(size_t bytes) {
  if (injector_ != nullptr && injector_->armed())
    BRIDGECL_RETURN_IF_ERROR(injector_->OnGlobalAlloc(bytes));
  if (bytes == 0) return InvalidArgumentError("zero-size allocation");
  if (global_in_use_ + bytes > global_capacity_)
    return ResourceExhaustedError(
        StrFormat("device global memory exhausted: %zu in use, %zu requested,"
                  " %zu capacity",
                  global_in_use_, bytes, global_capacity_));
  // Bump allocation with a granule-aligned base and a guard gap so that
  // accesses past an allocation's span fall into unmapped space.
  uint64_t base = (next_global_ + kGranule - 1) & ~uint64_t{kGranule - 1};
  Region r;
  r.user_size = bytes;
  r.generation = ++next_generation_;
  if (guarded_) {
    // Strict span plus poisoned redzones on both sides of the user bytes.
    r.span = bytes;
    r.front_pad = kRedzone;
    r.storage.assign(kRedzone + bytes + kRedzone, kRedzonePoison);
    std::fill_n(r.storage.begin() + kRedzone, bytes, std::byte{0});
  } else {
    // Real allocators hand out whole granules: the slack past the
    // requested size is addressable and corrupts silently.
    r.span = RoundUpToGranule(bytes);
    r.front_pad = 0;
    r.storage.assign(r.span, std::byte{0});
  }
  next_global_ = base + r.span + kGranule;
  global_allocs_.emplace(base, std::move(r));
  global_in_use_ += bytes;
  ++live_global_count_;
  return base;
}

Status VirtualMemory::FreeGlobal(uint64_t va) {
  if (injector_ != nullptr && injector_->armed())
    BRIDGECL_RETURN_IF_ERROR(injector_->OnGlobalFree());
  auto it = global_allocs_.find(va);
  if (it == global_allocs_.end())
    return InvalidArgumentError(
        StrFormat("free of unknown device pointer 0x%llx",
                  static_cast<unsigned long long>(va)));
  Region& r = it->second;
  if (r.freed)
    return InvalidArgumentError(StrFormat(
        "double free of device pointer 0x%llx (global allocation of %zu"
        " bytes, generation %llu, already freed)",
        static_cast<unsigned long long>(va), r.user_size,
        static_cast<unsigned long long>(r.generation)));
  global_in_use_ -= r.user_size;
  --live_global_count_;
  if (r.front_pad > 0) {
    // Guarded: leave a poisoned tombstone so later accesses are diagnosed
    // as use-after-free (with the generation tag) instead of "unmapped".
    std::fill(r.storage.begin(), r.storage.end(), kFreePoison);
    r.freed = true;
  } else {
    global_allocs_.erase(it);
  }
  return OkStatus();
}

void VirtualMemory::MapConstant(size_t bytes) {
  constant_.assign(bytes, std::byte{0});
}

StatusOr<std::byte*> VirtualMemory::ResolveGlobal(uint64_t va, size_t len) {
  auto it = global_allocs_.upper_bound(va);
  if (it != global_allocs_.begin()) {
    auto prev = std::prev(it);
    uint64_t base = prev->first;
    Region& r = prev->second;
    if (r.freed) {
      if (va + len <= base + r.span + kRedzone)
        return InternalError(StrFormat(
            "guarded-memory fault: use-after-free access of %zu bytes at"
            " 0x%llx, %llu bytes into freed global allocation"
            " [0x%llx, +%zu) generation %llu",
            len, static_cast<unsigned long long>(va),
            static_cast<unsigned long long>(va - base),
            static_cast<unsigned long long>(base), r.user_size,
            static_cast<unsigned long long>(r.generation)));
    } else if (va + len <= base + r.span) {
      return r.storage.data() + r.front_pad + (va - base);
    } else if (r.front_pad > 0 && va < base + r.span + kRedzone) {
      return InternalError(StrFormat(
          "guarded-memory fault: access of %zu bytes at 0x%llx overruns"
          " global allocation [0x%llx, +%zu) generation %llu by %llu"
          " byte(s) into the redzone",
          len, static_cast<unsigned long long>(va),
          static_cast<unsigned long long>(base), r.user_size,
          static_cast<unsigned long long>(r.generation),
          static_cast<unsigned long long>(va + len - (base + r.span))));
    }
  }
  if (it != global_allocs_.end() && it->second.front_pad > 0 &&
      va + len > it->first - kRedzone)
    return InternalError(StrFormat(
        "guarded-memory fault: access of %zu bytes at 0x%llx underruns"
        " global allocation [0x%llx, +%zu) generation %llu (front"
        " redzone)",
        len, static_cast<unsigned long long>(va),
        static_cast<unsigned long long>(it->first), it->second.user_size,
        static_cast<unsigned long long>(it->second.generation)));
  return InternalError(StrFormat(
      "device memory fault: access of %zu bytes at 0x%llx (segment global,"
      " unmapped)",
      len, static_cast<unsigned long long>(va)));
}

StatusOr<std::byte*> VirtualMemory::Resolve(uint64_t va, size_t len,
                                             BlockMemory* block) {
  if (injector_ != nullptr && injector_->armed())
    BRIDGECL_RETURN_IF_ERROR(injector_->OnMemoryAccess(va, len));
  // Order: constant (highest base) > shared > private > global.
  if (va >= kConstantBase) {
    if (va + len <= kConstantBase + constant_.size())
      return constant_.data() + (va - kConstantBase);
    return OverrunFault(va, len, kConstantBase, constant_.size(),
                        Segment::kConstant);
  }
  if (va >= kSharedBase)
    return ResolveInBlock(va, len, kSharedBase,
                          block != nullptr ? &block->shared : nullptr,
                          Segment::kShared);
  if (va >= kPrivateBase)
    return ResolveInBlock(va, len, kPrivateBase,
                          block != nullptr ? &block->priv : nullptr,
                          Segment::kPrivate);
  if (va >= kGlobalBase) return ResolveGlobal(va, len);
  return InternalError(
      StrFormat("device memory fault: access of %zu bytes at 0x%llx"
                " (null-guard / unmapped low memory)",
                len, static_cast<unsigned long long>(va)));
}

StatusOr<Segment> VirtualMemory::SegmentOf(uint64_t va) const {
  if (va >= kConstantBase) return Segment::kConstant;
  if (va >= kSharedBase) return Segment::kShared;
  if (va >= kPrivateBase) return Segment::kPrivate;
  if (va >= kGlobalBase) return Segment::kGlobal;
  return InternalError(StrFormat("address 0x%llx is in no segment",
                                 static_cast<unsigned long long>(va)));
}

}  // namespace bridgecl::simgpu
