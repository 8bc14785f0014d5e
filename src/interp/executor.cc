#include "interp/executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>

#include "interp/constants.h"
#include "interp/image.h"
#include "interp/lower.h"
#include "interp/value.h"
#include "interp/worker_pool.h"
#include "lang/builtins.h"
#include "lang/sema.h"
#include "support/strings.h"

namespace bridgecl::interp {

using lang::AddressSpace;
using lang::ArithmeticResultType;
using lang::BinaryOp;
using lang::BuiltinOp;
using lang::CallExpr;
using lang::CastExpr;
using lang::DeclRefExpr;
using lang::Dialect;
using lang::FunctionDecl;
using lang::IsFloatScalar;
using lang::IsSignedScalar;
using lang::MemberExpr;
using lang::ScalarKind;
using lang::Type;
using lang::UnaryOp;
using lang::VarDecl;
using simgpu::Dim3;
using simgpu::Segment;

namespace {

constexpr size_t kPrivateBytesPerItem = 64 * 1024;
constexpr int kMaxCallDepth = 64;

/// Each host worker's block memory, kept across its blocks and launches.
thread_local simgpu::BlockMemory t_block_memory;

/// Location of an assignable value.
struct LV {
  enum class Kind { kMem, kReg };
  Kind kind = Kind::kReg;
  uint64_t va = 0;            // kMem
  uint32_t slot = 0;          // kReg: index into the item's registers
  Type::Ptr type = nullptr;   // type stored at the location (pre-swizzle)
  /// Component selection on a vector location: `lanes` of `swizzle`, or
  /// the whole location when `lanes` is 0.
  uint8_t lanes = 0;
  uint8_t swizzle[Value::kMaxLanes] = {};
};

/// One active call: its code, where it resumes, its registers and
/// locations, and what returning restores in the caller.
struct Frame {
  const LoweredFunction* fn = nullptr;
  uint32_t pc = 0;     // the next op once a callee returns or a barrier
  uint32_t base = 0;   // first register
  uint32_t lbase = 0;  // first location
  int32_t dst = kNoReg;       // the caller's register for the result
  uint64_t private_top = 0;   // the caller's private-stack top
};

/// One work-item between its start and its end: plain data, so a barrier
/// only saves the pc and returns to the block loop. Workers keep their
/// items, with the capacity of every vector, across blocks and launches.
struct Item {
  Dim3 lid, gid;
  uint64_t private_base = 0, private_top = 0;
  double cycles = 0;
  std::vector<Frame> frames;
  std::vector<Value> regs;
  std::vector<LV> lvs;
  Value ret;  // the last value a call returned
};

/// Bytes of 8-byte words: word address -> mask, bit i for byte i.
using WordMasks = std::unordered_map<uint64_t, uint8_t>;

/// What one block of a multi-worker launch does to the memory every
/// block shares (global and constant). The block runs against that
/// memory as it was before the launch: its stores are buffered per 8-byte
/// word with a byte mask, its own loads see them, and every byte a load
/// takes from memory is recorded. LaunchKernel then checks and commits
/// the logs in block order.
class BlockLog {
 public:
  /// Copy the `n` bytes at `va` (host `mem`) into `out` as the block sees
  /// them.
  void Load(uint64_t va, const std::byte* mem, size_t n, std::byte* out) {
    std::memcpy(out, mem, n);
    for (uint64_t w = va & ~(kWord - 1); w < va + n; w += kWord) {
      uint8_t want = Mask(va, n, w), own = 0;
      if (auto it = writes_.find(w); it != writes_.end()) {
        own = it->second.mask & want;
        for (uint64_t i = 0; i < kWord; ++i)
          if (own >> i & 1) out[w + i - va] = it->second.bytes[i];
      }
      if (own != want) reads_[w] |= want & ~own;
    }
  }

  /// Buffer a store of the `n` bytes at `src` to `va` (host `mem`).
  void Store(uint64_t va, std::byte* mem, const std::byte* src, size_t n) {
    for (uint64_t w = va & ~(kWord - 1); w < va + n; w += kWord) {
      Word& e = writes_[w];
      e.mem = w >= va ? mem + (w - va) : mem - (va - w);
      uint8_t m = Mask(va, n, w);
      for (uint64_t i = 0; i < kWord; ++i)
        if (m >> i & 1) e.bytes[i] = src[w + i - va];
      e.mask |= m;
    }
  }

  /// Whether the block read a byte of `written` from memory.
  bool ReadAny(const WordMasks& written) const {
    const WordMasks& small = written.size() < reads_.size() ? written : reads_;
    const WordMasks& large = &small == &reads_ ? written : reads_;
    return std::any_of(small.begin(), small.end(), [&](const auto& wm) {
      auto it = large.find(wm.first);
      return it != large.end() && (it->second & wm.second) != 0;
    });
  }

  void AddWrites(WordMasks& written) const {
    for (const auto& [w, e] : writes_) written[w] |= e.mask;
  }

  void Commit() const {
    for (const auto& [w, e] : writes_)
      for (uint64_t i = 0; i < kWord; ++i)
        if (e.mask >> i & 1) e.mem[i] = e.bytes[i];
  }

 private:
  static constexpr uint64_t kWord = 8;

  /// Bit i set: byte w + i lies in [va, va + n).
  static uint8_t Mask(uint64_t va, size_t n, uint64_t w) {
    uint64_t lo = std::max(va, w), hi = std::min(va + n, w + kWord);
    return static_cast<uint8_t>(((1u << (hi - lo)) - 1) << (lo - w));
  }

  struct Word {
    std::byte* mem = nullptr;  // host address of the word
    std::byte bytes[kWord] = {};
    uint8_t mask = 0;
  };
  std::unordered_map<uint64_t, Word> writes_;
  WordMasks reads_;
};

/// What every block of one launch shares: the kernel and its code, its
/// configuration, the decoded arguments and the shared-memory layout.
/// LaunchKernel builds it once; while blocks run, every worker only
/// reads it.
struct LaunchState {
  simgpu::Device* device = nullptr;
  Module* module = nullptr;
  const FunctionDecl* kernel = nullptr;
  const LoweredFunction* code = nullptr;
  LaunchConfig cfg;
  Dialect dialect = Dialect::kOpenCL;

  uint64_t dynamic_shared_va = 0;  // CUDA extern __shared__ area
  size_t shared_total = 0;
  /// Per param (dyn-local → pointer); a register parameter's value is
  /// already converted to its type.
  std::vector<Value> arg_values;
};

/// One block as a worker runs it: its id, its shared and private memory
/// (the worker's BlockMemory, reset for the block), and the block's own
/// sinks, so workers never touch the device's counters, or its memory on
/// multi-worker launches, during execution.
struct BlockState {
  Dim3 group_id;
  simgpu::BlockMemory* memory = nullptr;
  simgpu::DeviceStats* stats = nullptr;  // per-block accumulation sink
  BlockLog* log = nullptr;  // multi-worker launches: the block's log
};

/// `a op b` on two payloads of kind `k`. A failure sets `*error` to its
/// message, so the caller builds a Status only when the op fails.
ScalarVal ApplyScalarOp(BinaryOp op, ScalarVal a, ScalarVal b, ScalarKind k,
                        const char** error) {
  ScalarVal out{};
  bool flt = IsFloatScalar(k);
  bool sgn = IsSignedScalar(k);
  auto div0 = [&] {
    *error = "division by zero in kernel";
    return out;
  };
  // Integer +, - and * wrap: computed on the unsigned lanes, they give
  // the two's-complement result signed overflow would leave undefined.
  // The one signed quotient that overflows, the most negative value over
  // -1, wraps the same way (and its remainder is 0) instead of trapping
  // the host.
  switch (op) {
    case BinaryOp::kAdd:
      if (flt) out.f = a.f + b.f; else out.u = a.u + b.u;
      return out;
    case BinaryOp::kSub:
      if (flt) out.f = a.f - b.f; else out.u = a.u - b.u;
      return out;
    case BinaryOp::kMul:
      if (flt) out.f = a.f * b.f; else out.u = a.u * b.u;
      return out;
    case BinaryOp::kDiv:
      if (flt) {
        out.f = a.f / b.f;
      } else if (sgn) {
        if (b.i == 0) return div0();
        if (b.i == -1) out.u = 0 - a.u; else out.i = a.i / b.i;
      } else {
        if (b.u == 0) return div0();
        out.u = a.u / b.u;
      }
      return out;
    case BinaryOp::kRem:
      if (flt) {
        out.f = std::fmod(a.f, b.f);
      } else if (sgn) {
        if (b.i == 0) return div0();
        out.i = b.i == -1 ? 0 : a.i % b.i;
      } else {
        if (b.u == 0) return div0();
        out.u = a.u % b.u;
      }
      return out;
    case BinaryOp::kShl:
      out.u = a.u << (b.u & 63);
      return out;
    case BinaryOp::kShr:
      if (sgn) out.i = a.i >> (b.u & 63);
      else out.u = a.u >> (b.u & 63);
      return out;
    case BinaryOp::kAnd: out.u = a.u & b.u; return out;
    case BinaryOp::kOr: out.u = a.u | b.u; return out;
    case BinaryOp::kXor: out.u = a.u ^ b.u; return out;
    case BinaryOp::kEQ:
      out.i = flt ? (a.f == b.f) : (a.u == b.u);
      return out;
    case BinaryOp::kNE:
      out.i = flt ? (a.f != b.f) : (a.u != b.u);
      return out;
    case BinaryOp::kLT:
      out.i = flt ? (a.f < b.f) : sgn ? (a.i < b.i) : (a.u < b.u);
      return out;
    case BinaryOp::kGT:
      out.i = flt ? (a.f > b.f) : sgn ? (a.i > b.i) : (a.u > b.u);
      return out;
    case BinaryOp::kLE:
      out.i = flt ? (a.f <= b.f) : sgn ? (a.i <= b.i) : (a.u <= b.u);
      return out;
    case BinaryOp::kGE:
      out.i = flt ? (a.f >= b.f) : sgn ? (a.i >= b.i) : (a.u >= b.u);
      return out;
    default:
      *error = "unhandled scalar binary op";
      return out;
  }
}

/// Whether `a` and `b` are scalars of one type that the usual arithmetic
/// conversions keep: a kind from kInt on. Types are interned, so one
/// pointer compare tells; ArithmeticResultType would return that type and
/// convert neither operand.
bool SameKeptScalar(const Value& a, const Value& b) {
  Type::Ptr t = a.type();
  return t == b.type() && t != nullptr && t->is_scalar() &&
         t->scalar_kind() >= ScalarKind::kInt;
}

/// Integer `v`'s bits in its own width, and that width.
std::pair<uint64_t, int> OwnBits(const Value& v) {
  int width = 8 * static_cast<int>(lang::ScalarByteSize(
                      v.type() ? v.type()->scalar_kind() : ScalarKind::kInt));
  uint64_t bits = v.AsU64();
  if (width < 64) bits &= (uint64_t{1} << width) - 1;
  return {bits, width};
}

/// The integer and selection built-ins on scalars; vectors apply them per
/// lane.
Value ScalarIntOp(BuiltinOp op, const Value& a, const Value& b,
                  const Value& c) {
  switch (op) {
    case BuiltinOp::kMin:
    case BuiltinOp::kMax: {
      bool is_min = op == BuiltinOp::kMin;
      bool take_a;
      if (a.type() && (a.type()->is_float() || (b.type() && b.type()->is_float()))) {
        take_a = is_min ? a.AsF64() <= b.AsF64() : a.AsF64() >= b.AsF64();
      } else if (a.type() && !IsSignedScalar(a.type()->scalar_kind())) {
        take_a = is_min ? a.AsU64() <= b.AsU64() : a.AsU64() >= b.AsU64();
      } else {
        take_a = is_min ? a.AsI64() <= b.AsI64() : a.AsI64() >= b.AsI64();
      }
      return take_a ? a : b;
    }
    case BuiltinOp::kAbs:
      if (a.type() && a.type()->is_float())
        return Value::Float(std::fabs(a.AsF64()), a.type()->scalar_kind());
      return Value::Int(std::llabs(a.AsI64()),
                        a.type() ? a.type()->scalar_kind() : ScalarKind::kInt);
    case BuiltinOp::kClamp: {
      if (a.type() && a.type()->is_float()) {
        double v = a.AsF64(), lo = b.AsF64(), hi = c.AsF64();
        return Value::Float(v < lo ? lo : (v > hi ? hi : v),
                            a.type()->scalar_kind());
      }
      int64_t v = a.AsI64(), lo = b.AsI64(), hi = c.AsI64();
      return Value::Int(v < lo ? lo : (v > hi ? hi : v));
    }
    case BuiltinOp::kMix: {
      double x = a.AsF64(), y = b.AsF64(), t = c.AsF64();
      return Value::Float(x + (y - x) * t, a.type() ? a.type()->scalar_kind()
                                                    : ScalarKind::kFloat);
    }
    case BuiltinOp::kMul24:
      return Value::Int((a.AsI64() & 0xFFFFFF) * (b.AsI64() & 0xFFFFFF));
    case BuiltinOp::kPopcount:
      return Value::Int(std::popcount(OwnBits(a).first));
    case BuiltinOp::kClz: {
      auto [bits, width] = OwnBits(a);
      return Value::Int(std::countl_zero(bits) - (64 - width));
    }
    default:
      return Value::Void();
  }
}

/// Runs the blocks a host worker claims. Each block's work-items run
/// round-robin between barriers: a sweep runs every ready item, in index
/// order, to its next barrier or its end, and once every live item waits
/// the barrier releases them all. Items that returned are not waited for,
/// and waits at different barriers are not told apart (a divergent
/// barrier, which hangs a real GPU, passes; reporting it is the "sync"
/// kernel checker on ROADMAP.md). One item's failure does not stop its
/// siblings; the block's status is the first failure in execution order.
class Executor {
 public:
  Status RunBlock(const LaunchState& L, BlockState& B, double* item_cycles) {
    L_ = &L;
    B_ = &B;
    const Dim3& blk = L.cfg.block;
    const int items = static_cast<int>(blk.Count());
    std::vector<Slot>& slots = slots_;
    slots.assign(items, Slot{nullptr, kReady});
    Status first;
    for (bool waiting = true; waiting;) {
      for (int i = 0; i < items; ++i) {
        Slot& s = slots[i];
        if (s.state != kReady) continue;
        bool yielded = false;
        Status st;
        if (s.item == nullptr) {
          s.item = Take();
          st = Begin(*s.item, Dim3(i % blk.x, (i / blk.x) % blk.y,
                                   i / (blk.x * blk.y)),
                     i);
        }
        if (st.ok()) st = Resume(*s.item, &yielded);
        if (yielded) {
          s.state = kWaiting;
          continue;
        }
        s.state = kDone;
        item_cycles[i] = s.item->cycles;
        free_.push_back(s.item);
        if (!st.ok() && first.ok()) first = std::move(st);
      }
      waiting = false;
      for (Slot& s : slots)
        if (s.state == kWaiting) {
          s.state = kReady;
          waiting = true;
        }
    }
    return first;
  }

 private:
  Item* Take() {
    if (free_.empty()) {
      items_.push_back(std::make_unique<Item>());
      return items_.back().get();
    }
    Item* it = free_.back();
    free_.pop_back();
    return it;
  }

  /// Start work-item `lid` (`index` in its block): its kernel frame, with
  /// the kernel's parameters bound.
  Status Begin(Item& it, Dim3 lid, int index) {
    it_ = &it;
    const Dim3& blk = L_->cfg.block;
    it.lid = lid;
    it.gid = Dim3(B_->group_id.x * blk.x + lid.x,
                  B_->group_id.y * blk.y + lid.y,
                  B_->group_id.z * blk.z + lid.z);
    it.private_base = L_->device->vm().private_base() +
                      static_cast<uint64_t>(index) * kPrivateBytesPerItem;
    it.private_top = it.private_base;
    it.cycles = 0;
    it.frames.assign(1, Frame{L_->code, 0, 0, 0, kNoReg, it.private_top});
    Reserve(it, 0, 0, *L_->code);
    const auto& params = L_->kernel->params;
    for (size_t i = 0; i < params.size(); ++i) {
      if (L_->code->params[i] == ParamBinding::kRegister)
        it.regs[i] = L_->arg_values[i];
      else
        BRIDGECL_RETURN_IF_ERROR(
            BindMemoryParam(params[i].get(), static_cast<uint32_t>(i),
                            L_->arg_values[i]));
    }
    return OkStatus();
  }

  static void Reserve(Item& it, uint32_t base, uint32_t lbase,
                      const LoweredFunction& fn) {
    if (it.regs.size() < base + fn.regs) it.regs.resize(base + fn.regs);
    if (it.lvs.size() < lbase + fn.lvs) it.lvs.resize(lbase + fn.lvs);
  }

  Status Err(std::string msg) { return InternalError(std::move(msg)); }

  // -- cost accounting -----------------------------------------------------
  void ChargeOp(double c) {
    it_->cycles += c;
    ++B_->stats->ops_executed;
  }

  Status ChargeAccess(uint64_t va, size_t bytes) {
    BRIDGECL_ASSIGN_OR_RETURN(Segment seg, L_->device->vm().SegmentOf(va));
    const auto& prof = L_->device->profile();
    auto& st = *B_->stats;
    switch (seg) {
      case Segment::kGlobal:
        ++st.global_accesses;
        it_->cycles += prof.cost_global_access *
                       std::max<size_t>(1, (bytes + 15) / 16);
        break;
      case Segment::kShared: {
        int words = L_->device->SharedAccessBankWords(va, bytes);
        ++st.shared_accesses;
        st.shared_bank_words += words;
        it_->cycles += prof.cost_shared_access * words;
        break;
      }
      case Segment::kConstant:
        ++st.constant_accesses;
        it_->cycles += prof.cost_constant_access;
        break;
      case Segment::kPrivate:
        it_->cycles += prof.cost_alu * 0.5;
        break;
    }
    return OkStatus();
  }

  // -- memory --------------------------------------------------------------

  /// Re-state a device fault with the coordinates of the work-item that
  /// performed the access, so guarded-memory and injected-fault
  /// diagnostics name the culprit. Device-lost passes through untouched
  /// (the loss is asynchronous, not attributable to one work-item).
  Status FaultAt(const Status& st) {
    if (st.ok() || st.code() == StatusCode::kDeviceLost) return st;
    const Item& it = *it_;
    Status out(st.code(),
               st.message() +
                   StrFormat(" [work-item global (%u,%u,%u), local (%u,%u,%u),"
                             " block %s]",
                             it.gid.x, it.gid.y, it.gid.z, it.lid.x, it.lid.y,
                             it.lid.z, B_->group_id.ToString().c_str()));
    out.set_api_code(st.api_code());
    return out;
  }

  /// Resolve `va..va+n` as this block sees the address space: its own
  /// shared and private memory, and the device's global and constant.
  /// Every device access the executor makes resolves here, so each
  /// fault names the work-item.
  StatusOr<std::byte*> Resolve(uint64_t va, size_t n) {
    auto p = L_->device->vm().Resolve(va, n, B_->memory);
    if (!p.ok()) return FaultAt(p.status());
    return p;
  }

  // Every access to global or constant memory, which all blocks share,
  // goes through Seen (loads) or Put (stores). In a multi-worker launch
  // they route it through the block's log; otherwise, and for the
  // block's own shared and private memory, they touch memory directly.
  bool Logged(uint64_t va) const {
    if (B_->log == nullptr) return false;
    auto seg = L_->device->vm().SegmentOf(va);
    return seg.ok() && (*seg == Segment::kGlobal || *seg == Segment::kConstant);
  }

  /// The `n` bytes at `va` (resolved to host `p`) as this block sees them.
  const std::byte* Seen(uint64_t va, const std::byte* p, size_t n) {
    if (!Logged(va)) return p;
    staged_.resize(n);
    B_->log->Load(va, p, n, staged_.data());
    return staged_.data();
  }

  /// Store `n` bytes at `va` (resolved to host `p`); `encode(dst)` writes
  /// them to `dst`.
  template <typename Encode>
  Status Put(uint64_t va, std::byte* p, size_t n, const Encode& encode) {
    if (!Logged(va)) return encode(p);
    staged_.resize(n);
    BRIDGECL_RETURN_IF_ERROR(encode(staged_.data()));
    B_->log->Store(va, p, staged_.data(), n);
    return OkStatus();
  }

  Status LoadMem(uint64_t va, Type::Ptr type, Value& out) {
    size_t n = type->ByteSize();
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, n));
    BRIDGECL_RETURN_IF_ERROR(ChargeAccess(va, n));
    return DecodeValue(type, Seen(va, p, n), &out);
  }

  Status StoreMem(uint64_t va, const Value& v) {
    const Type& t = *v.type();
    size_t n = t.ByteSize();
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, n));
    BRIDGECL_RETURN_IF_ERROR(ChargeAccess(va, n));
    // A 3-component vector store leaves the padding lane untouched.
    if (t.is_vector() && t.vector_width() == 3) n = n / 4 * 3;
    return Put(va, p, n, [&](std::byte* dst) { return EncodeValue(v, dst); });
  }

  StatusOr<uint64_t> StackAlloc(size_t bytes, size_t align) {
    uint64_t top = (it_->private_top + align - 1) / align * align;
    if (top + bytes > it_->private_base + kPrivateBytesPerItem)
      return ResourceExhaustedError("work-item private memory exhausted");
    it_->private_top = top + bytes;
    return top;
  }

  /// Store `v` as the current frame's ParamBinding::kMemory parameter
  /// `param` (slot `slot`), in private memory.
  Status BindMemoryParam(const VarDecl* param, uint32_t slot, const Value& v) {
    Type::Ptr t = param->type;
    size_t size = t->ByteSize();
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, StackAlloc(size, t->Alignment()));
    it_->lvs[it_->frames.back().lbase + slot] = LV{LV::Kind::kMem, va, 0, t};
    Value stored = v.is_aggregate() ? v : v.ConvertTo(t);
    stored.set_type(t);
    if (stored.is_aggregate()) stored.PadBytesTo(size);
    return StoreMem(va, stored);
  }

  // -- locations -------------------------------------------------------------
  // A register location always selects components: lowering makes one
  // (kRegLV) only as the base of a swizzle or a run-time vector subscript.
  Status Read(const LV& lv, Value& out) {
    if (lv.lanes == 0) return LoadMem(lv.va, lv.type, out);
    Value whole;
    if (lv.kind == LV::Kind::kMem) {
      BRIDGECL_RETURN_IF_ERROR(LoadMem(lv.va, lv.type, whole));
    } else {
      whole = it_->regs[lv.slot];
    }
    if (!whole.is_vector()) return Err("swizzle read of non-vector");
    if (lv.lanes == 1) {
      out = whole.Component(lv.swizzle[0]);
      return OkStatus();
    }
    out = Value::Vector(Type::Vector(whole.type()->scalar_kind(), lv.lanes));
    for (int i = 0; i < lv.lanes; ++i)
      out.comps()[i] = whole.comps()[lv.swizzle[i]];
    return OkStatus();
  }

  Status Write(const LV& lv, const Value& v) {
    if (lv.lanes == 0)
      return v.type() == lv.type ? StoreMem(lv.va, v)
                                 : StoreMem(lv.va, v.ConvertTo(lv.type));
    // Swizzled store: read-modify-write the base vector.
    Value whole;
    if (lv.kind == LV::Kind::kMem) {
      BRIDGECL_RETURN_IF_ERROR(LoadMem(lv.va, lv.type, whole));
    } else {
      whole = it_->regs[lv.slot];
    }
    if (!whole.is_vector()) return Err("swizzle write of non-vector");
    ScalarKind ek = whole.type()->scalar_kind();
    if (lv.lanes == 1) {
      Value c = v.ConvertTo(Type::Scalar(ek));
      whole.comps()[lv.swizzle[0]] = c.scalar();
    } else {
      Value src = v.ConvertTo(Type::Vector(ek, lv.lanes));
      for (int i = 0; i < lv.lanes; ++i)
        whole.comps()[lv.swizzle[i]] = src.comps()[i];
    }
    if (lv.kind == LV::Kind::kMem) return StoreMem(lv.va, whole);
    it_->regs[lv.slot] = std::move(whole);
    return OkStatus();
  }

  /// The location `op` builds from its operands.
  Status MakeLocation(const Op& op, const Value* regs, const LV* lvs,
                      const Value* consts, LV& out) {
    auto V = [&](Operand o) -> const Value& {
      return o >= 0 ? regs[o] : consts[~o];
    };
    switch (op.code) {
      case OpCode::kGlobalLV: {
        const auto* var = static_cast<const VarDecl*>(op.p);
        uint64_t va = L_->module->VaOf(var);
        if (va == 0) return Err("unbound variable '" + var->name + "'");
        out = LV{LV::Kind::kMem, va, 0, var->type};
        return OkStatus();
      }
      case OpCode::kDerefLV: {
        const Value& p = V(op.a);
        out = LV{};
        out.kind = LV::Kind::kMem;
        out.va = p.AsVa();
        out.type = op.p ? static_cast<Type::Ptr>(op.p)
                        : (p.type() && p.type()->is_pointer()
                               ? p.type()->pointee()
                               : Type::IntTy());
        return OkStatus();
      }
      case OpCode::kIndexLV: {
        if (op.flag & kIndexCharge)
          ChargeOp(L_->device->profile().cost_alu);
        uint64_t base_va;
        if (op.flag & kIndexBaseIsLocation) {
          // Multi-dimensional arrays: the base is itself an aggregate
          // location (tile[ty][tx]); index into its address directly.
          const LV& b = lvs[op.a];
          if (b.kind != LV::Kind::kMem)
            return Err("subscript on non-addressable array");
          base_va = b.va;
        } else {
          base_va = V(op.a).AsVa();
        }
        auto elem = static_cast<Type::Ptr>(op.p);
        out = LV{LV::Kind::kMem, base_va + V(op.b).AsI64() * elem->ByteSize(),
                 0, elem};
        return OkStatus();
      }
      case OpCode::kVecIndexLV: {
        out = lvs[op.a];
        int64_t i = V(op.b).AsI64();
        if (i < 0 || i >= op.n) return Err("vector component index out of range");
        out.lanes = 1;
        out.swizzle[0] = static_cast<uint8_t>(i);
        return OkStatus();
      }
      case OpCode::kSwizzleLV: {
        const auto* m = static_cast<const MemberExpr*>(op.p);
        out = lvs[op.a];
        if (out.lanes != 0)
          return Err("nested swizzle assignment is not supported");
        out.lanes = static_cast<uint8_t>(m->swizzle.size());
        std::copy(m->swizzle.begin(), m->swizzle.end(), out.swizzle);
        return OkStatus();
      }
      case OpCode::kArrowLV:
      case OpCode::kDotLV: {
        // A struct lives in memory: InReg never holds one.
        const auto* f = static_cast<const lang::StructField*>(op.p);
        uint64_t base_va =
            op.code == OpCode::kArrowLV ? V(op.a).AsVa() : lvs[op.a].va;
        out = LV{LV::Kind::kMem, base_va + f->offset, 0, f->type};
        return OkStatus();
      }
      default:
        return Err("not a location op");
    }
  }

  // -- operators -------------------------------------------------------------
  static bool IsComparison(BinaryOp op) {
    return op == BinaryOp::kEQ || op == BinaryOp::kNE || op == BinaryOp::kLT ||
           op == BinaryOp::kGT || op == BinaryOp::kLE || op == BinaryOp::kGE;
  }

  double CostOf(BinaryOp op) const {
    const auto& prof = L_->device->profile();
    return op == BinaryOp::kDiv || op == BinaryOp::kRem ? prof.cost_div
                                                        : prof.cost_alu;
  }

  /// `a op b` into `out`: pointer arithmetic, vectors elementwise, and
  /// scalars under the usual arithmetic conversions. The op loop computes
  /// two scalars of one kept type (SameKeptScalar) itself.
  Status ApplyBinary(BinaryOp op, const Value& a, const Value& b, Value& out) {
    double c = CostOf(op);
    bool cmp = IsComparison(op);
    // Pointer arithmetic.
    if (a.type() && a.type()->is_pointer() && !cmp) {
      ChargeOp(c);
      size_t esz = a.type()->pointee()->ByteSize();
      if (op == BinaryOp::kSub && b.type() && b.type()->is_pointer()) {
        out = Value::Int(static_cast<int64_t>(a.AsVa() - b.AsVa()) /
                             static_cast<int64_t>(esz),
                         ScalarKind::kLong);
        return OkStatus();
      }
      int64_t off = b.AsI64();
      uint64_t va = op == BinaryOp::kSub ? a.AsVa() - off * esz
                                         : a.AsVa() + off * esz;
      out = Value::Pointer(va, a.type());
      return OkStatus();
    }
    if (b.type() && b.type()->is_pointer() && op == BinaryOp::kAdd)
      return ApplyBinary(op, b, a, out);
    // Vector / scalar elementwise.
    if (a.is_vector() || b.is_vector()) {
      const Value& vec = a.is_vector() ? a : b;
      int w = vec.type()->vector_width();
      ScalarKind ek = ArithmeticResultType(a.type(), b.type())->scalar_kind();
      Value av = a.ConvertTo(Type::Vector(ek, w));
      Value bv = b.ConvertTo(Type::Vector(ek, w));
      out = Value::Vector(Type::Vector(cmp ? ScalarKind::kInt : ek, w));
      std::span<ScalarVal> comps = out.comps();
      const char* error = nullptr;
      for (int i = 0; i < w; ++i) {
        comps[i] = ApplyScalarOp(op, av.comps()[i], bv.comps()[i], ek, &error);
        if (error) return Err(error);
      }
      ChargeOp(c * w);
      // Vector comparisons produce an int vector of 0/-1 per OpenCL.
      if (cmp)
        for (auto& s : comps) s.i = s.i ? -1 : 0;
      return OkStatus();
    }
    // Scalars: usual conversions; comparisons compute in the common type
    // but return int.
    Type::Ptr kt = SameKeptScalar(a, b)
                       ? a.type()
                       : Type::Scalar(ArithmeticResultType(a.type(), b.type())
                                          ->scalar_kind());
    const char* error = nullptr;
    ScalarVal r = ApplyScalarOp(op, a.ConvertTo(kt).scalar(),
                                b.ConvertTo(kt).scalar(), kt->scalar_kind(),
                                &error);
    if (error) return Err(error);
    ChargeOp(c);
    out.SetScalar(cmp ? Type::IntTy() : kt, r);
    return OkStatus();
  }

  void ApplyUnary(UnaryOp op, const Value& v, Value& out) {
    ChargeOp(L_->device->profile().cost_alu);
    switch (op) {
      case UnaryOp::kMinus:
        if (v.is_vector()) {
          out = v;
          bool flt = IsFloatScalar(v.type()->scalar_kind());
          for (auto& c : out.comps()) {
            if (flt)
              c.f = -c.f;
            else
              c.i = -c.i;
          }
        } else if (v.type() && v.type()->is_float()) {
          out = Value::Float(-v.AsF64(), v.type()->scalar_kind());
        } else {
          out = Value::Int(-v.AsI64(), v.type() ? v.type()->scalar_kind()
                                                : ScalarKind::kInt);
        }
        return;
      case UnaryOp::kNot:
        out = Value::Int(v.AsBool() ? 0 : 1);
        return;
      default:  // kBitNot
        if (v.is_vector()) {
          Value flipped = v;
          for (auto& c : flipped.comps()) c.u = ~c.u;
          out = flipped.ConvertTo(v.type());
        } else {
          out = Value::Int(~v.AsI64(), v.type() ? v.type()->scalar_kind()
                                                : ScalarKind::kInt);
        }
        return;
    }
  }

  /// ++/-- on the value `old`: the value stored back.
  static Value Stepped(UnaryOp op, const Value& old) {
    int64_t delta = (op == UnaryOp::kPreInc || op == UnaryOp::kPostInc) ? 1 : -1;
    if (old.type() && old.type()->is_pointer())
      return Value::Pointer(
          old.AsVa() + delta * old.type()->pointee()->ByteSize(), old.type());
    if (old.type() && old.type()->is_float())
      return Value::Float(old.AsF64() + delta, old.type()->scalar_kind());
    return Value::Int(old.AsI64() + delta, old.type() ? old.type()->scalar_kind()
                                                      : ScalarKind::kInt);
  }

  // -- built-ins -------------------------------------------------------------
  Status CallBuiltin(const DeclRefExpr& ref, const Operand* args, int argc,
                     const Value* regs, const Value* consts, Value& out);
  Status AtomicStore(const Op& op, const Value* regs, const Value* consts,
                     Value& out);
  Status LoadImageDesc(uint64_t va, ImageDesc* d);
  static ImageDesc DescOf(const Value& v) {
    ImageDesc d;
    std::memcpy(static_cast<void*>(&d), v.comps().data(), sizeof(d));
    return d;
  }
  StatusOr<Value> ReadTexel(const ImageDesc& d, int x, int y, int z,
                            ScalarKind out_kind);
  Status ImageRead(const ImageDesc& d, const Value* sampler,
                   const Value& coord, ScalarKind out_kind, Value& out);
  Status ImageWrite(const ImageDesc& d, const Value& coord,
                    const Value& color);
  Status TexFetch(const ImageDesc& d, const CallExpr& c,
                  std::span<const Value* const> coords, Value& out);

  // -- the interpreter loop ----------------------------------------------------
  /// Run `it` to its next barrier (`*yielded` set) or its end.
  Status Resume(Item& it, bool* yielded);

  enum : uint8_t { kReady, kWaiting, kDone };
  struct Slot {
    Item* item;  // null until the item starts
    uint8_t state;
  };

  const LaunchState* L_ = nullptr;
  BlockState* B_ = nullptr;
  Item* it_ = nullptr;  // the item running
  std::vector<std::unique_ptr<Item>> items_;  // every item this worker made
  std::vector<Item*> free_;                   // items not running
  std::vector<Slot> slots_;                   // the block's items, by index
  std::vector<std::byte> staged_;  // logged accesses: bytes in flight
  Value sink_;                     // results nobody reads
};

Status Executor::Resume(Item& it, bool* yielded) {
  it_ = &it;
  const auto& prof = L_->device->profile();
  simgpu::FaultInjector& inj = L_->device->faults();
  const LoweredFunction* fn = nullptr;
  const Op* ops = nullptr;
  const Value* consts = nullptr;
  Value* regs = nullptr;
  LV* lvs = nullptr;
  uint32_t pc = 0;
  // Make the innermost frame current.
  auto enter = [&] {
    const Frame& f = it.frames.back();
    fn = f.fn;
    ops = fn->ops.data();
    consts = fn->consts.data();
    regs = it.regs.data() + f.base;
    lvs = it.lvs.data() + f.lbase;
    pc = f.pc;
  };
  auto V = [&](Operand o) -> const Value& {
    return o >= 0 ? regs[o] : consts[~o];
  };
  auto R = [&](int32_t dst) -> Value& {
    return dst == kNoReg ? sink_ : regs[dst];
  };
  enter();
  // A failing op ends the item: its status is returned as it stands.
  for (;;) {
    {
      const Op& op = ops[pc++];
      switch (op.code) {
        case OpCode::kTick:
          // Deterministic instruction trap: one interpreted statement is
          // one "instruction" for FaultSite::kInstruction plans.
          if (inj.armed())
            BRIDGECL_RETURN_IF_ERROR(FaultAt(inj.OnInstruction()));
          break;
        case OpCode::kJump:
          pc = op.n;
          break;
        case OpCode::kCharge:
          ChargeOp(prof.cost_alu);
          break;
        case OpCode::kBranch:
          ChargeOp(prof.cost_alu);
          if (V(op.a).AsBool() == static_cast<bool>(op.flag)) pc = op.n;
          break;
        case OpCode::kLogic: {
          ChargeOp(prof.cost_alu);
          bool l = V(op.a).AsBool();
          if (op.sub ? !l : l) {
            regs[op.dst].SetScalar(Type::IntTy(), {.i = op.sub ? 0 : 1});
            pc = op.n;
          }
          break;
        }
        case OpCode::kToBool:
          regs[op.dst].SetScalar(Type::IntTy(),
                                 {.i = V(op.a).AsBool() ? 1 : 0});
          break;
        case OpCode::kMove:
          regs[op.dst] = V(op.a);
          break;
        case OpCode::kFail:
          return Err(fn->messages[op.n]);
        case OpCode::kStackSave:
          regs[op.dst] = Value::UInt(it.private_top, ScalarKind::kULong);
          break;
        case OpCode::kStackRestore:
          it.private_top = V(op.a).AsU64();
          break;
        case OpCode::kCallCheck:
          if (it.frames.size() > static_cast<size_t>(kMaxCallDepth))
            return Err("device call stack overflow (recursion too deep)");
          break;
        case OpCode::kCall: {
          const auto* callee = static_cast<const LoweredFunction*>(op.p);
          const Frame caller = it.frames.back();
          it.frames.back().pc = pc;
          const uint32_t base = caller.base + caller.fn->regs;
          const uint32_t lbase = caller.lbase + caller.fn->lvs;
          Reserve(it, base, lbase, *callee);
          it.frames.push_back(
              Frame{callee, 0, base, lbase, op.dst, it.private_top});
          // The callee's parameters bind in its frame from operands of
          // the caller's.
          const Operand* args = fn->lists.data() + op.n;
          regs = it.regs.data() + caller.base;
          for (int i = 0; i < op.c; ++i) {
            const VarDecl* p = callee->decl->params[i].get();
            const Value& arg = V(args[i]);
            if (callee->params[i] != ParamBinding::kRegister)
              BRIDGECL_RETURN_IF_ERROR(BindMemoryParam(p, i, arg));
            else if (arg.type() == p->type)
              it.regs[base + i] = arg;
            else
              it.regs[base + i] = arg.ConvertTo(p->type);
          }
          it.ret = Value::Void();
          enter();
          break;
        }
        case OpCode::kReturn:
          it.ret = V(op.a);
          goto ret;
        case OpCode::kReturnVoid:
          it.ret = Value::Void();
          goto ret;
        case OpCode::kReturnEnd:
          goto ret;
        case OpCode::kBarrier:
          ++B_->stats->barriers;
          it.cycles += prof.cost_barrier;
          it.frames.back().pc = pc;
          *yielded = true;
          return OkStatus();

        case OpCode::kBuiltinVar: {
          auto vec3 = [&](const Dim3& d) {
            Value v = Value::Vector(Type::Vector(ScalarKind::kUInt, 3));
            std::span<ScalarVal> c = v.comps();
            c[0].u = d.x;
            c[1].u = d.y;
            c[2].u = d.z;
            return v;
          };
          switch (static_cast<BuiltinOp>(op.sub)) {
            case BuiltinOp::kThreadIdx: regs[op.dst] = vec3(it.lid); break;
            case BuiltinOp::kBlockIdx: regs[op.dst] = vec3(B_->group_id); break;
            case BuiltinOp::kBlockDim: regs[op.dst] = vec3(L_->cfg.block); break;
            case BuiltinOp::kGridDim: regs[op.dst] = vec3(L_->cfg.grid); break;
            default: regs[op.dst] = Value::Int(prof.warp_size); break;
          }
          break;
        }
        case OpCode::kWorkItem: {
          int d = op.a == kNoReg ? 0 : static_cast<int>(V(op.a).AsI64());
          const Dim3& grid = L_->cfg.grid;
          const Dim3& block = L_->cfg.block;
          auto b = static_cast<BuiltinOp>(op.sub);
          uint64_t v = b == BuiltinOp::kGlobalId  ? it.gid[d]
                       : b == BuiltinOp::kLocalId ? it.lid[d]
                       : b == BuiltinOp::kGroupId ? B_->group_id[d]
                       : b == BuiltinOp::kGlobalSize
                           ? static_cast<uint64_t>(grid[d]) * block[d]
                       : b == BuiltinOp::kLocalSize ? block[d]
                                                    : grid[d];
          regs[op.dst].SetScalar(Type::SizeTy(), {.u = v});
          break;
        }
        case OpCode::kTexRef: {
          const auto* r = static_cast<const DeclRefExpr*>(op.p);
          BRIDGECL_ASSIGN_OR_RETURN(uint64_t desc_va,
                                    L_->module->TextureBinding(r->name));
          regs[op.dst] =
              Value::Pointer(desc_va, r->type ? r->type : Type::IntTy());
          break;
        }
        case OpCode::kUnary:
          ApplyUnary(static_cast<UnaryOp>(op.sub), V(op.a), regs[op.dst]);
          break;
        case OpCode::kBinary: {
          // Nearly every binary op is on two scalars of one kept type:
          // ApplyBinary's scalar case with no conversion, done in place.
          const Value& a = V(op.a);
          const Value& b = V(op.b);
          auto bop = static_cast<BinaryOp>(op.sub);
          if (!SameKeptScalar(a, b)) {
            BRIDGECL_RETURN_IF_ERROR(ApplyBinary(bop, a, b, regs[op.dst]));
            break;
          }
          const char* error = nullptr;
          ScalarVal r = ApplyScalarOp(bop, a.scalar(), b.scalar(),
                                      a.type()->scalar_kind(), &error);
          if (error) return Err(error);
          ChargeOp(CostOf(bop));
          regs[op.dst].SetScalar(IsComparison(bop) ? Type::IntTy() : a.type(),
                                 r);
          break;
        }
        case OpCode::kCast:
          // Every cast style converts the value: sema admits only the
          // reinterpret_casts that are conversions (pointers and integers).
          ChargeOp(prof.cost_alu * 0.5);
          regs[op.dst] =
              V(op.a).ConvertTo(static_cast<const CastExpr*>(op.p)->target);
          break;
        case OpCode::kSwizzle: {
          const auto* m = static_cast<const MemberExpr*>(op.p);
          const Value& base = V(op.a);
          if (!base.is_vector()) return Err("swizzle on non-vector");
          if (m->swizzle.size() == 1) {
            regs[op.dst].SetScalar(Type::Scalar(base.type()->scalar_kind()),
                                   base.comps()[m->swizzle[0]]);
            break;
          }
          Value& out = regs[op.dst];
          out = Value::Vector(Type::Vector(base.type()->scalar_kind(),
                                           static_cast<int>(m->swizzle.size())));
          for (size_t i = 0; i < m->swizzle.size(); ++i) {
            if (m->swizzle[i] >= static_cast<int>(base.comps().size()))
              return Err("swizzle component out of range");
            out.comps()[i] = base.comps()[m->swizzle[i]];
          }
          break;
        }
        case OpCode::kVecIndex: {
          const Value& base = V(op.a);
          int i = static_cast<int>(V(op.b).AsI64());
          if (i < 0 || i >= static_cast<int>(base.comps().size()))
            return Err("vector component index out of range");
          regs[op.dst] = base.Component(i);
          break;
        }
        case OpCode::kVectorLit: {
          const auto* v = static_cast<const lang::VectorLitExpr*>(op.p);
          const Operand* elems = fn->lists.data() + op.n;
          int w = v->vec_type->vector_width();
          Type::Ptr et = Type::Scalar(v->vec_type->scalar_kind());
          Value& out = regs[op.dst];
          out = Value::Vector(v->vec_type);
          std::span<ScalarVal> comps = out.comps();
          if (op.c == 1) {
            ScalarVal c = V(elems[0]).ConvertTo(et).scalar();
            for (int i = 0; i < w; ++i) comps[i] = c;
          } else {
            int at = 0;
            for (int e = 0; e < op.c; ++e) {
              const Value& ev = V(elems[e]);
              if (ev.is_vector()) {
                for (int i = 0; i < ev.type()->vector_width() && at < w; ++i)
                  comps[at++] = ev.Component(i).ConvertTo(et).scalar();
              } else if (at < w) {
                comps[at++] = ev.ConvertTo(et).scalar();
              }
            }
            if (at != w)
              return Err("wrong number of vector literal components");
          }
          ChargeOp(prof.cost_alu);
          break;
        }
        case OpCode::kBuiltin:
          BRIDGECL_RETURN_IF_ERROR(
              CallBuiltin(*static_cast<const DeclRefExpr*>(op.p),
                          fn->lists.data() + op.n, op.c, regs, consts,
                          R(op.dst)));
          break;
        case OpCode::kDeref: {
          const Value& p = V(op.a);
          Type::Ptr t = p.type() && p.type()->is_pointer() ? p.type()->pointee()
                                                           : Type::IntTy();
          BRIDGECL_RETURN_IF_ERROR(LoadMem(p.AsVa(), t, regs[op.dst]));
          break;
        }
        case OpCode::kAddrOf: {
          const LV& lv = lvs[op.a];
          if (lv.kind != LV::Kind::kMem)
            return Err("address of non-addressable value");
          regs[op.dst] = Value::Pointer(lv.va, static_cast<Type::Ptr>(op.p));
          break;
        }
        case OpCode::kMemberAgg: {
          const auto* f = static_cast<const lang::StructField*>(op.p);
          std::span<const std::byte> bytes = V(op.a).bytes();
          if (bytes.size() < f->offset + f->type->ByteSize())
            return Err("member '" + f->name +
                       "' of a value that is not its struct");
          BRIDGECL_RETURN_IF_ERROR(
              DecodeValue(f->type, bytes.data() + f->offset, &regs[op.dst]));
          break;
        }

        case OpCode::kRegLV:
          lvs[op.dst] = LV{LV::Kind::kReg, 0,
                           it.frames.back().base + static_cast<uint32_t>(op.n),
                           static_cast<Type::Ptr>(op.p)};
          break;
        case OpCode::kIndexLV:
          if (op.flag & kIndexRead) {
            LV lv;
            BRIDGECL_RETURN_IF_ERROR(MakeLocation(op, regs, lvs, consts, lv));
            BRIDGECL_RETURN_IF_ERROR(Read(lv, regs[op.dst]));
            break;
          }
          [[fallthrough]];
        case OpCode::kGlobalLV:
        case OpCode::kDerefLV:
        case OpCode::kVecIndexLV:
        case OpCode::kSwizzleLV:
        case OpCode::kArrowLV:
        case OpCode::kDotLV:
          BRIDGECL_RETURN_IF_ERROR(
              MakeLocation(op, regs, lvs, consts, lvs[op.dst]));
          break;
        case OpCode::kReadLV:
          BRIDGECL_RETURN_IF_ERROR(Read(lvs[op.a], regs[op.dst]));
          break;
        case OpCode::kDecayLV:
          // Arrays live in memory, never in registers.
          regs[op.dst] =
              Value::Pointer(lvs[op.a].va, static_cast<Type::Ptr>(op.p));
          break;
        case OpCode::kIncDec: {
          const LV& lv = lvs[op.a];
          Value old;
          BRIDGECL_RETURN_IF_ERROR(Read(lv, old));
          ChargeOp(prof.cost_alu);
          auto u = static_cast<UnaryOp>(op.sub);
          Value next = Stepped(u, old);
          BRIDGECL_RETURN_IF_ERROR(Write(lv, next));
          bool pre = u == UnaryOp::kPreInc || u == UnaryOp::kPreDec;
          R(op.dst) = pre ? std::move(next) : std::move(old);
          break;
        }
        case OpCode::kIncDecReg: {
          Value& var = regs[op.n];
          auto t = static_cast<Type::Ptr>(op.p);
          ChargeOp(prof.cost_alu);
          auto u = static_cast<UnaryOp>(op.sub);
          Value next = Stepped(u, var);
          bool pre = u == UnaryOp::kPreInc || u == UnaryOp::kPreDec;
          if (op.dst != kNoReg) regs[op.dst] = pre ? next : var;
          if (next.type() == t) var = std::move(next); else var = next.ConvertTo(t);
          break;
        }
        case OpCode::kAssign: {
          const Value& rhs = V(op.a);
          const LV& lv = lvs[op.b];
          if (op.flag) {
            Value old, r;
            BRIDGECL_RETURN_IF_ERROR(Read(lv, old));
            BRIDGECL_RETURN_IF_ERROR(
                ApplyBinary(static_cast<BinaryOp>(op.sub), old, rhs, r));
            BRIDGECL_RETURN_IF_ERROR(Write(lv, r));
            R(op.dst) = std::move(r);
          } else {
            if (op.dst != kNoReg) regs[op.dst] = rhs;
            BRIDGECL_RETURN_IF_ERROR(Write(lv, rhs));
          }
          break;
        }
        case OpCode::kAssignReg: {
          Value& var = regs[op.n];
          auto t = static_cast<Type::Ptr>(op.p);
          if (op.flag) {
            Value r;
            BRIDGECL_RETURN_IF_ERROR(
                ApplyBinary(static_cast<BinaryOp>(op.sub), var, V(op.a), r));
            if (r.type() == t) var = r; else var = r.ConvertTo(t);
            R(op.dst) = std::move(r);
          } else {
            const Value& rhs = V(op.a);
            if (op.dst != kNoReg) regs[op.dst] = rhs;
            if (rhs.type() == t) var = rhs; else var = rhs.ConvertTo(t);
          }
          break;
        }

        case OpCode::kDeclShared: {
          const auto* var = static_cast<const VarDecl*>(op.p);
          uint64_t va;
          if (op.flag) {
            va = L_->dynamic_shared_va;
          } else if (fn->decl == L_->kernel) {
            va = L_->device->vm().shared_base() + static_cast<uint64_t>(op.a);
          } else {
            return Err("unlaid-out shared variable '" + var->name + "'");
          }
          lvs[op.n] = LV{LV::Kind::kMem, va, 0, var->type};
          break;
        }
        case OpCode::kDeclMem: {
          const auto* var = static_cast<const VarDecl*>(op.p);
          Type::Ptr t = var->type;
          size_t size = t->ByteSize();
          BRIDGECL_ASSIGN_OR_RETURN(uint64_t va,
                                    StackAlloc(size, t->Alignment()));
          lvs[op.n] = LV{LV::Kind::kMem, va, 0, t};
          BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, size));
          std::memset(p, 0, size);
          break;
        }
        case OpCode::kStoreVar: {
          const Value& v = V(op.a);
          auto t = static_cast<Type::Ptr>(op.p);
          uint64_t va = lvs[op.n].va + static_cast<uint64_t>(op.b);
          BRIDGECL_RETURN_IF_ERROR(
              v.type() == t ? StoreMem(va, v) : StoreMem(va, v.ConvertTo(t)));
          break;
        }
        case OpCode::kInitReg: {
          const Value& v = V(op.a);
          auto t = static_cast<Type::Ptr>(op.p);
          if (v.type() == t) regs[op.n] = v; else regs[op.n] = v.ConvertTo(t);
          break;
        }

        case OpCode::kAtomicLoad: {
          const Value& ptr = V(op.a);
          Type::Ptr elem = ptr.type() && ptr.type()->is_pointer()
                               ? ptr.type()->pointee()
                               : Type::IntTy();
          ++B_->stats->atomics;
          it.cycles += prof.cost_atomic;
          BRIDGECL_RETURN_IF_ERROR(LoadMem(ptr.AsVa(), elem, regs[op.dst]));
          break;
        }
        case OpCode::kAtomicStore:
          BRIDGECL_RETURN_IF_ERROR(AtomicStore(op, regs, consts, regs[op.dst]));
          break;
        case OpCode::kImageDesc: {
          ImageDesc d;
          BRIDGECL_RETURN_IF_ERROR(LoadImageDesc(V(op.a).AsVa(), &d));
          static_assert(sizeof(d) <= 8 * sizeof(ScalarVal));
          Value& out = regs[op.dst];
          out = Value::Vector(Type::Vector(ScalarKind::kULong, 8));
          std::memcpy(out.comps().data(), &d, sizeof(d));
          break;
        }
        case OpCode::kImageRead:
          BRIDGECL_RETURN_IF_ERROR(
              ImageRead(DescOf(V(op.a)), op.b == kNoReg ? nullptr : &V(op.b),
                        V(op.c), static_cast<ScalarKind>(op.sub),
                        regs[op.dst]));
          break;
        case OpCode::kImageWrite:
          BRIDGECL_RETURN_IF_ERROR(
              ImageWrite(DescOf(V(op.a)), V(op.b), V(op.c)));
          break;
        case OpCode::kImageSize: {
          ImageDesc d = DescOf(V(op.a));
          regs[op.dst] = Value::Int(
              static_cast<BuiltinOp>(op.sub) == BuiltinOp::kImageWidth
                  ? d.width
                  : d.height);
          break;
        }
        case OpCode::kTexFetch: {
          const Value* coords[3] = {};
          for (int i = 0; i < op.c; ++i) coords[i] = &V(fn->lists[op.n + i]);
          BRIDGECL_RETURN_IF_ERROR(
              TexFetch(DescOf(V(op.a)), *static_cast<const CallExpr*>(op.p),
                       {coords, static_cast<size_t>(op.c)}, regs[op.dst]));
          break;
        }
      }
      continue;
    }
  ret: {
    // Leave the innermost frame. The kernel's ends the item; a call's
    // charges its overhead once the callee has returned.
    if (it.frames.size() == 1) return OkStatus();
    const Frame done = it.frames.back();
    it.frames.pop_back();
    it.private_top = done.private_top;
    enter();
    ChargeOp(prof.cost_alu);  // call overhead
    if (done.dst != kNoReg) regs[done.dst] = it.ret;
    continue;
  }
  }
}

Status Executor::LoadImageDesc(uint64_t va, ImageDesc* d) {
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, sizeof(ImageDesc)));
  std::memcpy(d, Seen(va, p, sizeof(*d)), sizeof(*d));
  return OkStatus();
}

StatusOr<Value> Executor::ReadTexel(const ImageDesc& d, int x, int y, int z,
                                    ScalarKind out_kind) {
  auto clampi = [](int v, int lo, int hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  x = clampi(x, 0, static_cast<int>(d.width) - 1);
  y = clampi(y, 0, static_cast<int>(d.height) - 1);
  z = clampi(z, 0, static_cast<int>(d.depth) - 1);
  uint32_t texel = ImageTexelBytes(d);
  uint64_t va = d.data_va + static_cast<uint64_t>(z) * d.slice_pitch +
                static_cast<uint64_t>(y) * d.row_pitch +
                static_cast<uint64_t>(x) * texel;
  ScalarKind ek = static_cast<ScalarKind>(d.elem_kind);
  size_t esz = lang::ScalarByteSize(ek);
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * mem, Resolve(va, texel));
  const std::byte* p = Seen(va, mem, texel);
  ++B_->stats->image_accesses;
  it_->cycles += L_->device->profile().cost_image_access;
  Value out = Value::Vector(Type::Vector(out_kind, 4));
  std::span<ScalarVal> comps = out.comps();
  for (uint32_t ch = 0; ch < 4; ++ch) {
    if (ch < d.channels) {
      Value v;
      BRIDGECL_RETURN_IF_ERROR(DecodeValue(Type::Scalar(ek), p + ch * esz, &v));
      comps[ch] = v.ConvertTo(Type::Scalar(out_kind)).scalar();
    } else {
      // Missing channels read as 0 (alpha as 1.0 for floats).
      if (ch == 3 && IsFloatScalar(out_kind)) comps[ch].f = 1.0;
    }
  }
  return out;
}

Status Executor::ImageRead(const ImageDesc& d, const Value* sampler,
                           const Value& coord, ScalarKind out_kind,
                           Value& out) {
  uint32_t sampler_bits =
      sampler ? static_cast<uint32_t>(sampler->AsU64()) : d.sampler_bits;
  bool float_coords =
      coord.type() && IsFloatScalar(coord.type()->scalar_kind());
  double fx = 0, fy = 0, fz = 0;
  if (coord.is_vector()) {
    fx = coord.Component(0).AsF64();
    if (coord.type()->vector_width() > 1) fy = coord.Component(1).AsF64();
    if (coord.type()->vector_width() > 2) fz = coord.Component(2).AsF64();
  } else {
    fx = coord.AsF64();
  }
  if (float_coords && (sampler_bits & kSamplerNormalizedCoords)) {
    fx *= d.width;
    fy *= d.height;
    fz *= d.depth;
  }
  if (float_coords && (sampler_bits & kSamplerFilterLinear)) {
    // Bilinear filtering (2D path; 1D degenerates, 3D uses nearest z).
    double u = fx - 0.5, v = fy - 0.5;
    int x0 = static_cast<int>(std::floor(u));
    int y0 = static_cast<int>(std::floor(v));
    double a = u - x0, b = v - y0;
    int z = static_cast<int>(fz);
    BRIDGECL_ASSIGN_OR_RETURN(Value t00, ReadTexel(d, x0, y0, z, out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(Value t10, ReadTexel(d, x0 + 1, y0, z, out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(Value t01, ReadTexel(d, x0, y0 + 1, z, out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(Value t11,
                              ReadTexel(d, x0 + 1, y0 + 1, z, out_kind));
    out = Value::Vector(Type::Vector(out_kind, 4));
    for (int i = 0; i < 4; ++i) {
      double r = t00.comps()[i].f * (1 - a) * (1 - b) +
                 t10.comps()[i].f * a * (1 - b) +
                 t01.comps()[i].f * (1 - a) * b + t11.comps()[i].f * a * b;
      out.comps()[i].f = r;
    }
    return OkStatus();
  }
  BRIDGECL_ASSIGN_OR_RETURN(
      out, ReadTexel(d, static_cast<int>(fx), static_cast<int>(fy),
                     static_cast<int>(fz), out_kind));
  return OkStatus();
}

Status Executor::ImageWrite(const ImageDesc& d, const Value& coord,
                            const Value& color) {
  int x = 0, y = 0, z = 0;
  if (coord.is_vector()) {
    x = static_cast<int>(coord.Component(0).AsI64());
    if (coord.type()->vector_width() > 1)
      y = static_cast<int>(coord.Component(1).AsI64());
    if (coord.type()->vector_width() > 2)
      z = static_cast<int>(coord.Component(2).AsI64());
  } else {
    x = static_cast<int>(coord.AsI64());
  }
  if (x < 0 || x >= static_cast<int>(d.width) || y < 0 ||
      y >= static_cast<int>(d.height) || z < 0 ||
      z >= static_cast<int>(d.depth))
    return OkStatus();  // out-of-bounds writes are dropped (CL rule)
  ScalarKind ek = static_cast<ScalarKind>(d.elem_kind);
  size_t esz = lang::ScalarByteSize(ek);
  uint64_t va = d.data_va + static_cast<uint64_t>(z) * d.slice_pitch +
                static_cast<uint64_t>(y) * d.row_pitch +
                static_cast<uint64_t>(x) * ImageTexelBytes(d);
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, ImageTexelBytes(d)));
  ++B_->stats->image_accesses;
  it_->cycles += L_->device->profile().cost_image_access;
  return Put(va, p, ImageTexelBytes(d), [&](std::byte* dst) -> Status {
    for (uint32_t ch = 0; ch < d.channels; ++ch) {
      Value comp = color.is_vector() ? color.Component(ch) : color;
      BRIDGECL_RETURN_IF_ERROR(
          EncodeValue(comp.ConvertTo(Type::Scalar(ek)), dst + ch * esz));
    }
    return OkStatus();
  });
}

Status Executor::TexFetch(const ImageDesc& d, const CallExpr& c,
                          std::span<const Value* const> coords, Value& out) {
  Type::Ptr tex_t = c.args[0]->type;
  ScalarKind out_kind =
      tex_t && tex_t->is_texture() ? tex_t->scalar_kind() : ScalarKind::kFloat;
  int out_width = tex_t && tex_t->is_texture() ? tex_t->vector_width() : 1;
  // Sample with the bound sampler state, the coordinate passed as the
  // cu2cl translation passes it to read_image: tex1D's and tex1Dfetch's
  // as it is, tex2D's and tex3D's as a float vector.
  Value coord = *coords[0];
  if (coords.size() > 1) {
    coord = Value::Vector(
        Type::Vector(ScalarKind::kFloat, static_cast<int>(coords.size())));
    for (size_t i = 0; i < coords.size(); ++i)
      coord.comps()[i] = coords[i]->ConvertTo(Type::FloatTy()).scalar();
  }
  Value texel;
  BRIDGECL_RETURN_IF_ERROR(ImageRead(
      d, nullptr, coord,
      IsFloatScalar(out_kind) ? ScalarKind::kFloat : out_kind, texel));
  if (out_width == 1) {
    out = texel.Component(0).ConvertTo(Type::Scalar(out_kind));
    return OkStatus();
  }
  out = Value::Vector(Type::Vector(out_kind, out_width));
  for (int i = 0; i < out_width; ++i)
    out.comps()[i] =
        texel.Component(i).ConvertTo(Type::Scalar(out_kind)).scalar();
  return OkStatus();
}

Status Executor::AtomicStore(const Op& op, const Value* regs,
                             const Value* consts, Value& out) {
  auto V = [&](Operand o) -> const Value& {
    return o >= 0 ? regs[o] : consts[~o];
  };
  const auto& ref = *static_cast<const DeclRefExpr*>(op.p);
  const Value& ptr = V(op.a);
  Type::Ptr elem = ptr.type() && ptr.type()->is_pointer()
                       ? ptr.type()->pointee()
                       : Type::IntTy();
  const Value& old = V(op.b);
  Value operand;
  if (op.c != kNoReg) operand = V(op.c).ConvertTo(elem);
  bool flt = elem->is_float();
  ScalarKind k = elem->scalar_kind();
  Value next;
  switch (ref.builtin.op()) {
    // OpenCL atomic_inc/atomic_dec: unconditional +-1 (no operand).
    case BuiltinOp::kAtomicInc:
      next = Value::Int(old.AsI64() + 1, k);
      break;
    case BuiltinOp::kAtomicDec:
      next = Value::Int(old.AsI64() - 1, k);
      break;
    // CUDA atomicInc/atomicDec: wrap semantics against args[1] (§3.7).
    case BuiltinOp::kAtomicIncWrap:
      next = Value::UInt(old.AsU64() >= operand.AsU64() ? 0 : old.AsU64() + 1,
                         k);
      break;
    case BuiltinOp::kAtomicDecWrap: {
      uint64_t limit = operand.AsU64();
      uint64_t ov = old.AsU64();
      next = Value::UInt((ov == 0 || ov > limit) ? limit : ov - 1, k);
      break;
    }
    case BuiltinOp::kAtomicAdd:
      next = flt ? Value::Float(old.AsF64() + operand.AsF64(), k)
                 : Value::Int(old.AsI64() + operand.AsI64(), k);
      break;
    case BuiltinOp::kAtomicSub:
      next = Value::Int(old.AsI64() - operand.AsI64(), k);
      break;
    case BuiltinOp::kAtomicXchg:
      next = operand;
      break;
    case BuiltinOp::kAtomicMin: {
      bool less = IsSignedScalar(k) ? operand.AsI64() < old.AsI64()
                                    : operand.AsU64() < old.AsU64();
      if (flt) less = operand.AsF64() < old.AsF64();
      next = less ? operand : old;
      break;
    }
    case BuiltinOp::kAtomicMax: {
      bool greater = IsSignedScalar(k) ? operand.AsI64() > old.AsI64()
                                       : operand.AsU64() > old.AsU64();
      if (flt) greater = operand.AsF64() > old.AsF64();
      next = greater ? operand : old;
      break;
    }
    case BuiltinOp::kAtomicAnd:
      next = Value::UInt(old.AsU64() & operand.AsU64(), k);
      break;
    case BuiltinOp::kAtomicOr:
      next = Value::UInt(old.AsU64() | operand.AsU64(), k);
      break;
    case BuiltinOp::kAtomicXor:
      next = Value::UInt(old.AsU64() ^ operand.AsU64(), k);
      break;
    default:  // kAtomicCmpxchg; lowering rejected the rest
      next = old.AsU64() == operand.AsU64() ? V(op.n).ConvertTo(elem) : old;
      break;
  }
  BRIDGECL_RETURN_IF_ERROR(StoreMem(ptr.AsVa(), next.ConvertTo(elem)));
  out = old;
  return OkStatus();
}

Status Executor::CallBuiltin(const DeclRefExpr& ref, const Operand* args,
                             int argc, const Value* regs, const Value* consts,
                             Value& out) {
  static const Value kAbsent{};
  auto arg = [&](int i) -> const Value& {
    if (i >= argc) return kAbsent;
    Operand o = args[i];
    return o >= 0 ? regs[o] : consts[~o];
  };
  const lang::BuiltinRef& b = ref.builtin;
  const auto& prof = L_->device->profile();
  switch (b.op()) {
    case BuiltinOp::kFence:
    case BuiltinOp::kDeviceFence:
      it_->cycles += prof.cost_alu;
      return OkStatus();
    case BuiltinOp::kMakeVector: {
      out = Value::Vector(Type::Vector(b.elem, b.width));
      for (int i = 0; i < argc; ++i)
        out.comps()[i] = arg(i).ConvertTo(Type::Scalar(b.elem)).scalar();
      ChargeOp(prof.cost_alu);
      return OkStatus();
    }
    case BuiltinOp::kConvert:
      ChargeOp(prof.cost_alu);
      out = arg(0).ConvertTo(b.width > 0 ? Type::Vector(b.elem, b.width)
                                         : Type::Scalar(b.elem));
      return OkStatus();
    case BuiltinOp::kAs: {
      BRIDGECL_ASSIGN_OR_RETURN(
          out, arg(0).BitcastTo(b.width > 0 ? Type::Vector(b.elem, b.width)
                                            : Type::Scalar(b.elem)));
      return OkStatus();
    }
    case BuiltinOp::kVload: {
      int w = b.width;
      const Value& off = arg(0);
      const Value& ptr = arg(1);
      Type::Ptr elem = ptr.type()->is_pointer() ? ptr.type()->pointee()
                                                : Type::FloatTy();
      uint64_t va = ptr.AsVa() + off.AsU64() * w * elem->ByteSize();
      // vload reads w packed elements (no vec3 padding).
      Value v, vec = Value::Vector(Type::Vector(elem->scalar_kind(), w));
      for (int i = 0; i < w; ++i) {
        BRIDGECL_RETURN_IF_ERROR(LoadMem(va + i * elem->ByteSize(), elem, v));
        vec.comps()[i] = v.scalar();
      }
      out = std::move(vec);
      return OkStatus();
    }
    case BuiltinOp::kVstore: {
      int w = b.width;
      const Value& data = arg(0);
      const Value& ptr = arg(2);
      Type::Ptr elem = ptr.type()->is_pointer() ? ptr.type()->pointee()
                                                : Type::FloatTy();
      uint64_t va = ptr.AsVa() + arg(1).AsU64() * w * elem->ByteSize();
      for (int i = 0; i < w; ++i)
        BRIDGECL_RETURN_IF_ERROR(StoreMem(va + i * elem->ByteSize(),
                                          data.Component(i).ConvertTo(elem)));
      out = Value::Void();
      return OkStatus();
    }

    // ---- warp-level CUDA built-ins: degenerate single-lane semantics.
    // These exist so that mcuda can *run* CUDA-only samples natively; the
    // CU→CL translator rejects them (§3.7 / Table 3).
    case BuiltinOp::kShfl:
      ChargeOp(prof.cost_alu);
      out = arg(0);
      return OkStatus();
    case BuiltinOp::kVote:
      ChargeOp(prof.cost_alu);
      out = Value::Int(arg(0).AsBool() ? 1 : 0);
      return OkStatus();
    case BuiltinOp::kBallot:
      ChargeOp(prof.cost_alu);
      out = Value::UInt(arg(0).AsBool() ? 1u : 0u);
      return OkStatus();
    case BuiltinOp::kClock:
      out = Value::Int(static_cast<int64_t>(it_->cycles));
      return OkStatus();
    case BuiltinOp::kClock64:
      out = Value::Int(static_cast<int64_t>(it_->cycles), ScalarKind::kLongLong);
      return OkStatus();
    case BuiltinOp::kAssert:
      if (!arg(0).AsBool()) return Err("device-side assert failed");
      out = Value::Void();
      return OkStatus();
    case BuiltinOp::kPrintf:
      // Arguments are evaluated for side effects; output is suppressed in
      // the simulator (matches running with stdout redirected).
      out = Value::Int(0);
      return OkStatus();

    // ---- math & integer builtins (elementwise over vectors) ----
    case BuiltinOp::kMathUnary: {
      it_->cycles += prof.cost_math;
      const Value& a = arg(0);
      bool is_float_res =
          b.info->float_result() ||
          (a.type() && (a.type()->is_vector() || a.type()->is_scalar()) &&
           a.type()->scalar_kind() == ScalarKind::kFloat);
      ScalarKind k = is_float_res ? ScalarKind::kFloat : ScalarKind::kDouble;
      auto fn = b.info->unary;
      if (a.is_vector()) {
        Value r = a;
        for (auto& cmp : r.comps()) {
          double x = IsFloatScalar(a.type()->scalar_kind())
                         ? cmp.f
                         : static_cast<double>(cmp.i);
          cmp.f = k == ScalarKind::kFloat ? static_cast<float>(fn(x)) : fn(x);
        }
        r.set_type(Type::Vector(k, a.type()->vector_width()));
        out = std::move(r);
        return OkStatus();
      }
      out = Value::Float(fn(a.AsF64()), k);
      return OkStatus();
    }
    case BuiltinOp::kMathBinary: {
      it_->cycles += prof.cost_math;
      const Value& a = arg(0);
      const Value& bv = arg(1);
      bool use_float =
          b.info->float_result() ||
          (a.type() && a.type()->scalar_kind() == ScalarKind::kFloat);
      ScalarKind k = use_float ? ScalarKind::kFloat : ScalarKind::kDouble;
      auto fn = b.info->binary;
      if (a.is_vector()) {
        int w = a.type()->vector_width();
        Value bb = bv.ConvertTo(Type::Vector(k, w));
        Value r = a.ConvertTo(Type::Vector(k, w));
        for (int i = 0; i < w; ++i)
          r.comps()[i].f = fn(r.comps()[i].f, bb.comps()[i].f);
        out = std::move(r);
        return OkStatus();
      }
      out = Value::Float(fn(a.AsF64(), bv.AsF64()), k);
      return OkStatus();
    }
    case BuiltinOp::kFma: {
      it_->cycles += prof.cost_alu;
      if (arg(0).is_vector()) {
        Type::Ptr vt = arg(0).type();
        Value a = arg(0), m = arg(1).ConvertTo(vt), d = arg(2).ConvertTo(vt);
        Value r = a;
        for (int i = 0; i < vt->vector_width(); ++i)
          r.comps()[i].f = a.comps()[i].f * m.comps()[i].f + d.comps()[i].f;
        out = std::move(r);
        return OkStatus();
      }
      ScalarKind k = arg(0).type() &&
                             arg(0).type()->scalar_kind() == ScalarKind::kFloat
                         ? ScalarKind::kFloat
                         : ScalarKind::kDouble;
      out = Value::Float(arg(0).AsF64() * arg(1).AsF64() + arg(2).AsF64(), k);
      return OkStatus();
    }
    case BuiltinOp::kMin:
    case BuiltinOp::kMax:
    case BuiltinOp::kAbs:
    case BuiltinOp::kClamp:
    case BuiltinOp::kMix:
    case BuiltinOp::kMul24:
    case BuiltinOp::kPopcount:
    case BuiltinOp::kClz: {
      if (b.op() == BuiltinOp::kMix)
        it_->cycles += prof.cost_alu;
      else
        ChargeOp(prof.cost_alu);
      const Value* vec = nullptr;
      for (int i = 0; i < 3 && vec == nullptr; ++i)
        if (arg(i).is_vector()) vec = &arg(i);
      if (vec == nullptr) {
        out = ScalarIntOp(b.op(), arg(0), arg(1), arg(2));
        return OkStatus();
      }
      // Each lane as the scalar op computes one value; a scalar operand
      // is broadcast, and the result has the first vector operand's type.
      Value r = Value::Vector(vec->type());
      Type::Ptr et = Type::Scalar(vec->type()->scalar_kind());
      auto lane = [&](int a, int i) {
        const Value& v = arg(a);
        if (!v.is_vector()) return v;
        return i < static_cast<int>(v.comps().size()) ? v.Component(i)
                                                      : Value::Int(0);
      };
      for (size_t i = 0; i < r.comps().size(); ++i) {
        int li = static_cast<int>(i);
        r.comps()[i] = ScalarIntOp(b.op(), lane(0, li), lane(1, li), lane(2, li))
                           .ConvertTo(et)
                           .scalar();
      }
      out = std::move(r);
      return OkStatus();
    }
    case BuiltinOp::kSelect: {
      // OpenCL select(a, b, c): c chooses b (per-component MSB for vectors).
      ChargeOp(prof.cost_alu);
      const Value& a = arg(0);
      const Value& bv = arg(1);
      const Value& cv = arg(2);
      if (a.is_vector()) {
        Value r = a;
        for (int i = 0; i < a.type()->vector_width(); ++i) {
          bool take_b = cv.is_vector() ? (cv.comps()[i].i < 0) : cv.AsBool();
          if (take_b)
            r.comps()[i] = i < static_cast<int>(bv.comps().size())
                               ? bv.comps()[i]
                               : ScalarVal{};
        }
        out = std::move(r);
        return OkStatus();
      }
      out = cv.AsBool() ? bv : a;
      return OkStatus();
    }
    default:
      break;
  }
  return Err("unimplemented builtin '" + ref.name + "' in " +
             std::string(lang::DialectName(L_->dialect)) + " device code");
}

/// Each host worker's executor, with its items, kept across its blocks
/// and launches.
thread_local Executor t_executor;

// ---------------------------------------------------------------------------
// Block-parallel grid scheduler support
// ---------------------------------------------------------------------------

/// Field-wise merge of a block's counter delta into the device totals.
/// Integer adds commute, but the reduction still runs in canonical block
/// order so a future non-commutative counter cannot silently diverge.
void AccumulateStats(simgpu::DeviceStats& into,
                     const simgpu::DeviceStats& d) {
  into.kernels_launched += d.kernels_launched;
  into.work_items_executed += d.work_items_executed;
  into.global_accesses += d.global_accesses;
  into.shared_accesses += d.shared_accesses;
  into.shared_bank_words += d.shared_bank_words;
  into.constant_accesses += d.constant_accesses;
  into.image_accesses += d.image_accesses;
  into.atomics += d.atomics;
  into.barriers += d.barriers;
  into.host_to_device_bytes += d.host_to_device_bytes;
  into.device_to_host_bytes += d.device_to_host_bytes;
  into.device_to_device_bytes += d.device_to_device_bytes;
  into.api_calls += d.api_calls;
  into.ops_executed += d.ops_executed;
}

std::atomic<int> g_worker_override{0};

}  // namespace

int WorkerCount() {
  int pinned = g_worker_override.load(std::memory_order_relaxed);
  if (pinned > 0) return pinned;
  static const int from_env = ResolveWorkerCountFromEnv();
  return from_env;
}

void SetWorkerCount(int workers) {
  g_worker_override.store(std::clamp(workers, 0, kMaxWorkers),
                          std::memory_order_relaxed);
}

StatusOr<LaunchResult> LaunchKernel(simgpu::Device& device, Module& module,
                                    const std::string& kernel_name,
                                    const LaunchConfig& config,
                                    std::span<const KernelArg> args) {
  const FunctionDecl* kernel = module.FindKernel(kernel_name);
  if (kernel == nullptr)
    return NotFoundError("no kernel named '" + kernel_name + "' in module");
  if (!kernel->template_params.empty())
    return InvalidArgumentError(
        "kernel '" + kernel_name +
        "' is a template: a launch by name cannot give its type arguments");
  if (!module.loaded() || module.loaded_device() != &device)
    return FailedPreconditionError("module is not loaded on this device");
  const auto& prof = device.profile();
  if (config.block.Count() == 0 || config.grid.Count() == 0)
    return InvalidArgumentError("empty grid or block");
  if (config.block.Count() > static_cast<uint64_t>(prof.max_threads_per_block))
    return InvalidArgumentError(
        StrFormat("block size %llu exceeds device limit %d",
                  static_cast<unsigned long long>(config.block.Count()),
                  prof.max_threads_per_block));
  if (args.size() != kernel->params.size())
    return InvalidArgumentError(StrFormat(
        "kernel '%s' expects %zu arguments, got %zu", kernel_name.c_str(),
        kernel->params.size(), args.size()));

  LaunchState L;
  L.device = &device;
  L.module = &module;
  L.kernel = kernel;
  L.code = module.program().Find(kernel);
  L.cfg = config;
  L.dialect = module.dialect();

  // ---- shared-memory layout: static __local vars (laid out when the
  // kernel was lowered), then dynamic-local arguments (OpenCL §4.1), then
  // the CUDA extern __shared__ area. ----
  size_t offset = L.code->static_shared_bytes;
  auto align_to = [&](size_t a) { offset = (offset + a - 1) / a * a; };

  // ---- bind arguments ----
  L.arg_values.resize(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    const VarDecl* p = kernel->params[i].get();
    const KernelArg& a = args[i];
    if (a.kind == KernelArg::Kind::kLocalAlloc) {
      if (!p->type->is_pointer() ||
          p->type->pointee_space() != AddressSpace::kLocal)
        return InvalidArgumentError(StrFormat(
            "argument %zu: dynamic local allocation bound to a non-__local "
            "parameter of kernel '%s'",
            i, kernel_name.c_str()));
      align_to(16);
      uint64_t va = device.vm().shared_base() + offset;
      offset += a.local_size;
      L.arg_values[i] = Value::Pointer(va, p->type);
    } else {
      size_t want = p->type->ByteSize();
      if (a.bytes.size() < want)
        return InvalidArgumentError(StrFormat(
            "argument %zu: %zu bytes provided, parameter '%s' needs %zu",
            i, a.bytes.size(), p->name.c_str(), want));
      BRIDGECL_RETURN_IF_ERROR(
          DecodeValue(p->type, a.bytes.data(), &L.arg_values[i]));
    }
    if (L.code->params[i] == ParamBinding::kRegister)
      L.arg_values[i] = L.arg_values[i].ConvertTo(p->type);
  }
  align_to(16);
  L.dynamic_shared_va = device.vm().shared_base() + offset;
  L.shared_total = offset + config.dynamic_shared_bytes;
  if (L.shared_total > prof.shared_mem_per_block)
    return ResourceExhaustedError(StrFormat(
        "kernel '%s' needs %zu bytes of shared memory per block; device "
        "provides %zu",
        kernel_name.c_str(), L.shared_total, prof.shared_mem_per_block));

  // ---- execute blocks on the worker pool ----
  // The grid is claimed block-by-block from an atomic counter by `workers`
  // host threads. Each worker runs its blocks in its own BlockMemory,
  // kept across launches and reset per block, at the serial engine's
  // shared and private VAs, and its items round-robin between barriers.
  // Each block records into a private BlockResult; the reduction below
  // then replays the serial engine's bookkeeping in canonical block
  // order, so stats, cycle totals (flat FP fold), timestamps and traces
  // are bit-identical for every worker count. Memory is too: with more
  // than one worker every block runs against pre-launch memory through
  // its BlockLog, and the logs commit in block order unless a block read
  // a byte an earlier block wrote, in which case the launch reruns
  // serially on the untouched memory.
  const int items = static_cast<int>(config.block.Count());
  uint64_t total_blocks = config.grid.Count();
  int workers = WorkerCount();
  // An armed fault plan counts per-site consults in execution order.
  if (device.faults().armed()) workers = 1;
  if (static_cast<uint64_t>(workers) > total_blocks)
    workers = static_cast<int>(total_blocks);

  struct BlockResult {
    simgpu::DeviceStats delta;
    std::vector<double> item_cycles;  // canonical per-item fold order
    Status status;
    bool executed = false;
    BlockLog log;  // multi-worker runs only
  };
  std::vector<BlockResult> results;

  // Runs the grid on `n` workers into fresh `results`; returns the lowest
  // failing block, or UINT64_MAX.
  auto execute = [&](int n) {
    results.clear();
    results.resize(total_blocks);
    std::atomic<uint64_t> next_block{0};
    std::atomic<uint64_t> first_error_block{
        std::numeric_limits<uint64_t>::max()};
    auto fail = [&](uint64_t b, Status st) {
      results[b].status = std::move(st);
      uint64_t prev = first_error_block.load(std::memory_order_relaxed);
      while (b < prev && !first_error_block.compare_exchange_weak(
                             prev, b, std::memory_order_release,
                             std::memory_order_relaxed)) {
      }
    };
    WorkerPool::Instance().Run(n, [&](int) {
      for (;;) {
        uint64_t b = next_block.fetch_add(1, std::memory_order_relaxed);
        if (b >= total_blocks) break;
        // Blocks past an already-failed one will be discarded by the
        // reduction; skip them instead of burning cycles.
        if (b > first_error_block.load(std::memory_order_acquire)) continue;
        BlockResult& r = results[b];
        r.executed = true;
        // Per-block shared-memory mapping is an allocation event for the
        // fault plan (FaultSite::kSharedAlloc); only reachable serially.
        if (device.faults().armed()) {
          Status fs = device.faults().OnSharedAlloc(
              std::max<size_t>(L.shared_total, 1));
          if (!fs.ok()) {
            fail(b, std::move(fs));
            continue;
          }
        }
        t_block_memory.Reset(std::max<size_t>(L.shared_total, 1), items,
                             kPrivateBytesPerItem);
        BlockState B;
        B.group_id = Dim3(static_cast<uint32_t>(b % config.grid.x),
                          static_cast<uint32_t>((b / config.grid.x) %
                                                config.grid.y),
                          static_cast<uint32_t>(b / (uint64_t{config.grid.x} *
                                                     config.grid.y)));
        B.memory = &t_block_memory;
        B.stats = &r.delta;
        B.log = n > 1 ? &r.log : nullptr;
        r.item_cycles.assign(items, 0.0);
        Status st = t_executor.RunBlock(L, B, r.item_cycles.data());
        if (!st.ok()) fail(b, std::move(st));
      }
    });
    return first_error_block.load(std::memory_order_acquire);
  };

  LaunchPath path = LaunchPath::kSerial;
  uint64_t err_block = execute(workers);
  if (workers > 1) {
    // Blocks past the first failure are discarded, as the serial engine
    // never runs them; a failing block's partial log still commits.
    uint64_t last = std::min(err_block, total_blocks - 1);
    WordMasks written;
    bool conflict = false;
    for (uint64_t b = 0; b <= last && !conflict; ++b) {
      conflict = results[b].log.ReadAny(written);
      results[b].log.AddWrites(written);
    }
    if (conflict) {
      path = LaunchPath::kRerun;
      err_block = execute(1);
    } else {
      path = LaunchPath::kCommitted;
      for (uint64_t b = 0; b <= last; ++b) results[b].log.Commit();
    }
  }

  // ---- canonical-order reduction ----
  // Fold block results exactly as the serial loop would have: stats and
  // per-item cycle contributions for blocks 0..b accumulate before block
  // b's error (if any) is returned, matching the serial engine's
  // early-return with partial stats.
  double total_cycles = 0.0;
  for (uint64_t b = 0; b < total_blocks; ++b) {
    if (b > err_block) break;
    BlockResult& r = results[b];
    if (!r.executed) break;  // unclaimed tail after an error
    AccumulateStats(device.stats(), r.delta);
    for (double c : r.item_cycles) total_cycles += c;
    if (!r.status.ok()) return std::move(r.status);
  }

  int regs = module.RegistersFor(kernel);
  uint64_t total_items = config.grid.Count() * items;
  double before = device.now_us();
  device.ChargeKernel(total_cycles, regs, total_items);
  LaunchResult result;
  result.total_cycles = total_cycles;
  result.occupancy = device.OccupancyFor(regs);
  result.work_items = total_items;
  result.kernel_time_us = device.now_us() - before;
  result.path = path;
  return result;
}

}  // namespace bridgecl::interp
