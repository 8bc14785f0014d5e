#include "interp/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <unordered_map>

#include "interp/constants.h"
#include "interp/image.h"
#include "interp/value.h"
#include "interp/worker_pool.h"
#include "lang/builtins.h"
#include "lang/sema.h"
#include "simgpu/fiber.h"
#include "support/strings.h"

namespace bridgecl::interp {

using lang::AddressSpace;
using lang::ArithmeticResultType;
using lang::AssignExpr;
using lang::BinaryExpr;
using lang::BinaryOp;
using lang::BuiltinOp;
using lang::CallExpr;
using lang::CastExpr;
using lang::CompoundStmt;
using lang::ConditionalExpr;
using lang::DeclRefExpr;
using lang::DeclStmt;
using lang::Dialect;
using lang::Expr;
using lang::ExprKind;
using lang::ExprStmt;
using lang::FloatLitExpr;
using lang::ForStmt;
using lang::FunctionDecl;
using lang::IfStmt;
using lang::IndexExpr;
using lang::InitListExpr;
using lang::IntLitExpr;
using lang::IsFloatScalar;
using lang::IsSignedScalar;
using lang::MemberExpr;
using lang::ParenExpr;
using lang::ReturnStmt;
using lang::ScalarKind;
using lang::SizeofExpr;
using lang::Stmt;
using lang::StmtKind;
using lang::Type;
using lang::UnaryExpr;
using lang::UnaryOp;
using lang::VarDecl;
using lang::VectorLitExpr;
using lang::WhileStmt;
using simgpu::Dim3;
using simgpu::Segment;

namespace {

constexpr size_t kPrivateBytesPerItem = 64 * 1024;
// The evaluator's frames hold Values with their lanes inline, 8-12 KiB of
// host stack per device call: the call-depth limit below needs up to
// ~800 KiB, and ASan's redzones grow the frames several-fold. A kernel
// touches only as much of its stack as its calls use.
#if defined(__SANITIZE_ADDRESS__)
constexpr size_t kFiberStackBytes = 8 * 1024 * 1024;
#else
constexpr size_t kFiberStackBytes = 1024 * 1024;
#endif
constexpr int kMaxCallDepth = 64;

/// Each host worker's block memory, kept across its blocks and launches.
thread_local simgpu::BlockMemory t_block_memory;

/// Location of an assignable value.
struct LV {
  enum class Kind { kMem, kReg };
  Kind kind = Kind::kReg;
  uint64_t va = 0;            // kMem
  uint32_t slot = 0;          // kReg: index into the evaluator's slots
  Type::Ptr type = nullptr;   // type stored at the location (pre-swizzle)
  /// Component selection on a vector location: `lanes` of `swizzle`, or
  /// the whole location when `lanes` is 0.
  uint8_t lanes = 0;
  uint8_t swizzle[Value::kMaxLanes] = {};
};

/// One slot of a call's frame: a parameter or local, held in a register
/// (`reg`, at `loc`), in private or shared memory (at `loc`), or, for a
/// C++ reference parameter, at its argument's location `loc`.
struct Slot {
  bool bound = false;
  Value reg;
  LV loc;
};

enum class FlowKind { kNormal, kReturn, kBreak, kContinue };

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

/// What every block of one launch shares: the kernel, its configuration,
/// the decoded arguments and the shared-memory layout. LaunchKernel builds
/// it once; while blocks run, every worker only reads it.
struct LaunchState {
  simgpu::Device* device = nullptr;
  Module* module = nullptr;
  const FunctionDecl* kernel = nullptr;
  LaunchConfig cfg;
  Dialect dialect = Dialect::kOpenCL;

  std::unordered_map<const VarDecl*, uint64_t> shared_va;  // static __local
  uint64_t dynamic_shared_va = 0;  // CUDA extern __shared__ area
  size_t shared_total = 0;
  std::vector<Value> arg_values;   // decoded per param (dyn-local → pointer)
};

/// One block as a worker runs it: its id, its fibers (none for a kernel
/// that cannot reach a barrier), its shared and private memory (the
/// worker's BlockMemory, reset for the block), and the block's own sinks,
/// so workers never touch the device's counters, or its memory on
/// multi-worker launches, during execution.
struct BlockState {
  Dim3 group_id;
  simgpu::FiberGroup* group = nullptr;
  simgpu::BlockMemory* memory = nullptr;
  simgpu::DeviceStats* stats = nullptr;  // per-block accumulation sink
  BlockLog* log = nullptr;  // multi-worker launches: the block's log
};

/// Collect every __local/__shared__ variable declared in a statement tree.
void CollectSharedVars(const Stmt* s, std::vector<const VarDecl*>* out) {
  if (s == nullptr) return;
  switch (s->kind) {
    case StmtKind::kCompound:
      for (const auto& st : s->As<CompoundStmt>()->body)
        CollectSharedVars(st.get(), out);
      return;
    case StmtKind::kDecl:
      for (const auto& v : s->As<DeclStmt>()->vars)
        if (v->quals.space == AddressSpace::kLocal) out->push_back(v.get());
      return;
    case StmtKind::kIf: {
      const auto* i = s->As<IfStmt>();
      CollectSharedVars(i->then_stmt.get(), out);
      CollectSharedVars(i->else_stmt.get(), out);
      return;
    }
    case StmtKind::kFor: {
      const auto* f = s->As<ForStmt>();
      CollectSharedVars(f->init.get(), out);
      CollectSharedVars(f->body.get(), out);
      return;
    }
    case StmtKind::kWhile:
      CollectSharedVars(s->As<WhileStmt>()->body.get(), out);
      return;
    case StmtKind::kDo:
      CollectSharedVars(s->As<lang::DoStmt>()->body.get(), out);
      return;
    default:
      return;
  }
}

/// Runs work-items one at a time. An evaluator keeps its frame slots
/// across items, so after its first items running one allocates nothing.
class Evaluator {
 public:
  /// Run the work-item `lid` (`linear_index` in its block) of block `B`.
  Status Run(const LaunchState& L, BlockState& B, Dim3 lid, int linear_index) {
    L_ = &L;
    B_ = &B;
    lid_ = lid;
    const Dim3& blk = L.cfg.block;
    gid_ = Dim3(B.group_id.x * blk.x + lid.x, B.group_id.y * blk.y + lid.y,
                B.group_id.z * blk.z + lid.z);
    private_base_ = L.device->vm().private_base() +
                    static_cast<uint64_t>(linear_index) * kPrivateBytesPerItem;
    private_top_ = private_base_;
    cycles_ = 0;
    base_ = top_ = 0;
    ReserveFrame(*L.kernel);
    depth_ = 1;
    BRIDGECL_RETURN_IF_ERROR(BindKernelParams());
    auto flow = Exec(*L.kernel->body);
    if (!flow.ok()) return flow.status();
    return OkStatus();
  }

  double cycles() const { return cycles_; }

 private:
  /// Reserve `fn`'s frame above the current top, every slot unbound, and
  /// return its base.
  uint32_t ReserveFrame(const FunctionDecl& fn) {
    uint32_t base = top_;
    top_ += static_cast<uint32_t>(fn.frame_slots);
    if (slots_.size() < top_) slots_.resize(top_);
    for (uint32_t i = base; i < top_; ++i) slots_[i].bound = false;
    return base;
  }

  /// The current frame's slot for a parameter or local.
  Slot& SlotOf(const VarDecl* var) {
    assert(var->slot >= 0 && base_ + var->slot < top_);
    return slots_[base_ + var->slot];
  }

  void BindMem(const VarDecl* var, uint64_t va) {
    Slot& s = SlotOf(var);
    s.bound = true;
    s.loc = LV{LV::Kind::kMem, va, 0, var->type};
  }

  void BindReg(const VarDecl* var, Value v) {
    Slot& s = SlotOf(var);
    s.bound = true;
    s.reg = std::move(v);
    s.loc = LV{LV::Kind::kReg, 0, base_ + static_cast<uint32_t>(var->slot),
               s.reg.type() ? s.reg.type() : var->type};
  }

  /// Where the variable `r` names lives: its slot in the current frame,
  /// else module-scope memory.
  StatusOr<LV> VarLocation(const DeclRefExpr& r) {
    const VarDecl* var = r.var;
    if (var->slot >= 0 && SlotOf(var).bound) return SlotOf(var).loc;
    if (uint64_t va = L_->module->VaOf(var))
      return LV{LV::Kind::kMem, va, 0, var->type};
    return Err("unbound variable '" + r.name + "'");
  }

  Status Err(std::string msg) { return InternalError(std::move(msg)); }

  // -- cost accounting -----------------------------------------------------
  void ChargeOp(double c) {
    cycles_ += c;
    ++B_->stats->ops_executed;
  }

  Status ChargeAccess(uint64_t va, size_t bytes) {
    BRIDGECL_ASSIGN_OR_RETURN(Segment seg, L_->device->vm().SegmentOf(va));
    const auto& prof = L_->device->profile();
    auto& st = *B_->stats;
    switch (seg) {
      case Segment::kGlobal:
        ++st.global_accesses;
        cycles_ += prof.cost_global_access *
                   std::max<size_t>(1, (bytes + 15) / 16);
        break;
      case Segment::kShared: {
        int words = L_->device->SharedAccessBankWords(va, bytes);
        ++st.shared_accesses;
        st.shared_bank_words += words;
        cycles_ += prof.cost_shared_access * words;
        break;
      }
      case Segment::kConstant:
        ++st.constant_accesses;
        cycles_ += prof.cost_constant_access;
        break;
      case Segment::kPrivate:
        cycles_ += prof.cost_alu * 0.5;
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
    Status out(st.code(),
               st.message() +
                   StrFormat(" [work-item global (%u,%u,%u), local (%u,%u,%u),"
                             " block %s]",
                             gid_.x, gid_.y, gid_.z, lid_.x, lid_.y, lid_.z,
                             B_->group_id.ToString().c_str()));
    out.set_api_code(st.api_code());
    return out;
  }

  /// Resolve `va..va+n` as this block sees the address space: its own
  /// shared and private memory, and the device's global and constant.
  StatusOr<std::byte*> Resolve(uint64_t va, size_t n) {
    return L_->device->vm().Resolve(va, n, B_->memory);
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

  StatusOr<Value> LoadMem(uint64_t va, const Type::Ptr& type) {
    size_t n = type->ByteSize();
    auto p = Resolve(va, n);
    if (!p.ok()) return FaultAt(p.status());
    BRIDGECL_RETURN_IF_ERROR(ChargeAccess(va, n));
    return DecodeValue(type, Seen(va, *p, n));
  }

  Status StoreMem(uint64_t va, const Value& v) {
    const Type& t = *v.type();
    size_t n = t.ByteSize();
    auto p = Resolve(va, n);
    if (!p.ok()) return FaultAt(p.status());
    BRIDGECL_RETURN_IF_ERROR(ChargeAccess(va, n));
    // A 3-component vector store leaves the padding lane untouched.
    if (t.is_vector() && t.vector_width() == 3) n = n / 4 * 3;
    return Put(va, *p, n, [&](std::byte* dst) { return EncodeValue(v, dst); });
  }

  StatusOr<uint64_t> StackAlloc(size_t bytes, size_t align) {
    uint64_t top = (private_top_ + align - 1) / align * align;
    if (top + bytes > private_base_ + kPrivateBytesPerItem)
      return ResourceExhaustedError("work-item private memory exhausted");
    private_top_ = top + bytes;
    return top;
  }

  // -- kernel parameter binding ---------------------------------------------
  Status BindKernelParams() {
    const auto& params = L_->kernel->params;
    for (size_t i = 0; i < params.size(); ++i) {
      VarDecl* p = params[i].get();
      const Value& v = L_->arg_values[i];
      BRIDGECL_RETURN_IF_ERROR(BindVar(p, v));
    }
    return OkStatus();
  }

  /// Bind a value to a variable, spilling aggregates / address-taken
  /// variables to private memory.
  Status BindVar(const VarDecl* var, const Value& v) {
    Type::Ptr t = var->type;
    if (t && t->is_named() && v.type()) t = v.type();  // template params
    bool needs_mem = var->address_taken ||
                     (t && (t->is_struct() || t->is_array()));
    if (needs_mem) {
      size_t size = t->ByteSize();
      BRIDGECL_ASSIGN_OR_RETURN(uint64_t va,
                                StackAlloc(size, t->Alignment()));
      BindMem(var, va);
      Value stored = v.is_aggregate() ? v : v.ConvertTo(t);
      stored.set_type(t);
      if (stored.is_aggregate() && stored.bytes().size() < size)
        stored.bytes().resize(size);
      return StoreMem(va, stored);
    }
    BindReg(var, v.ConvertTo(t));
    return OkStatus();
  }

  // -- statements ------------------------------------------------------------
  StatusOr<FlowKind> Exec(const Stmt& s) {
    // Deterministic instruction trap: one interpreted statement is one
    // "instruction" for FaultSite::kInstruction plans.
    if (simgpu::FaultInjector& inj = L_->device->faults(); inj.armed())
      BRIDGECL_RETURN_IF_ERROR(FaultAt(inj.OnInstruction()));
    switch (s.kind) {
      case StmtKind::kCompound: {
        for (const auto& st : s.As<CompoundStmt>()->body) {
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind f, Exec(*st));
          if (f != FlowKind::kNormal) return f;
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kDecl: {
        for (const auto& v : s.As<DeclStmt>()->vars)
          BRIDGECL_RETURN_IF_ERROR(ExecVarDecl(v.get()));
        return FlowKind::kNormal;
      }
      case StmtKind::kExpr: {
        BRIDGECL_RETURN_IF_ERROR(Eval(*s.As<ExprStmt>()->expr).status());
        return FlowKind::kNormal;
      }
      case StmtKind::kIf: {
        const auto* i = s.As<IfStmt>();
        BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*i->cond));
        ChargeOp(L_->device->profile().cost_alu);
        if (c.AsBool()) return Exec(*i->then_stmt);
        if (i->else_stmt) return Exec(*i->else_stmt);
        return FlowKind::kNormal;
      }
      case StmtKind::kFor: {
        const auto* f = s.As<ForStmt>();
        if (f->init) {
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fi, Exec(*f->init));
          (void)fi;
        }
        while (true) {
          if (f->cond) {
            BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*f->cond));
            ChargeOp(L_->device->profile().cost_alu);
            if (!c.AsBool()) break;
          }
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fb, Exec(*f->body));
          if (fb == FlowKind::kReturn) return fb;
          if (fb == FlowKind::kBreak) break;
          if (f->step) BRIDGECL_RETURN_IF_ERROR(Eval(*f->step).status());
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kWhile: {
        const auto* w = s.As<WhileStmt>();
        while (true) {
          BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*w->cond));
          ChargeOp(L_->device->profile().cost_alu);
          if (!c.AsBool()) break;
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fb, Exec(*w->body));
          if (fb == FlowKind::kReturn) return fb;
          if (fb == FlowKind::kBreak) break;
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kDo: {
        const auto* d = s.As<lang::DoStmt>();
        while (true) {
          BRIDGECL_ASSIGN_OR_RETURN(FlowKind fb, Exec(*d->body));
          if (fb == FlowKind::kReturn) return fb;
          if (fb == FlowKind::kBreak) break;
          BRIDGECL_ASSIGN_OR_RETURN(Value c, Eval(*d->cond));
          ChargeOp(L_->device->profile().cost_alu);
          if (!c.AsBool()) break;
        }
        return FlowKind::kNormal;
      }
      case StmtKind::kReturn: {
        const auto* r = s.As<ReturnStmt>();
        if (r->value) {
          BRIDGECL_ASSIGN_OR_RETURN(ret_, Eval(*r->value));
        } else {
          ret_ = Value::Void();
        }
        return FlowKind::kReturn;
      }
      case StmtKind::kBreak:
        return FlowKind::kBreak;
      case StmtKind::kContinue:
        return FlowKind::kContinue;
      case StmtKind::kEmpty:
        return FlowKind::kNormal;
    }
    return FlowKind::kNormal;
  }

  Status ExecVarDecl(const VarDecl* var) {
    // Static __local/__shared__ variables: bound to the block's shared
    // region at the pre-computed offset; initialization is not allowed in
    // either model, and the extern dynamic variable maps to the dynamic
    // area start.
    if (var->quals.space == AddressSpace::kLocal) {
      if (var->quals.is_extern) {
        BindMem(var, L_->dynamic_shared_va);
        return OkStatus();
      }
      auto it = L_->shared_va.find(var);
      if (it == L_->shared_va.end())
        return Err("unlaid-out shared variable '" + var->name + "'");
      BindMem(var, it->second);
      return OkStatus();
    }
    Type::Ptr t = var->type;
    bool needs_mem =
        var->address_taken || (t && (t->is_struct() || t->is_array()));
    if (needs_mem) {
      size_t size = t->ByteSize();
      BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, StackAlloc(size, t->Alignment()));
      BindMem(var, va);
      BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, size));
      std::memset(p, 0, size);
      if (var->init) {
        if (var->init->kind == ExprKind::kInitList) {
          const auto* list = var->init->As<InitListExpr>();
          if (!t->is_array())
            return Err("initializer list on non-array local");
          Type::Ptr elem = t->element();
          size_t esz = elem->ByteSize();
          for (size_t i = 0; i < list->elems.size(); ++i) {
            BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*list->elems[i]));
            BRIDGECL_RETURN_IF_ERROR(StoreMem(va + i * esz,
                                              ev.ConvertTo(elem)));
          }
        } else {
          BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*var->init));
          BRIDGECL_RETURN_IF_ERROR(StoreMem(va, ev.ConvertTo(t)));
        }
      }
      return OkStatus();
    }
    Value init;
    if (var->init) {
      BRIDGECL_ASSIGN_OR_RETURN(init, Eval(*var->init));
      if (t && t->is_named() && init.type()) {
        // Template-typed local: adopt the runtime type.
        BindReg(var, std::move(init));
        return OkStatus();
      }
      init = init.ConvertTo(t);
    } else {
      // Zero-initialized register (deterministic simulation).
      if (t && t->is_vector()) {
        init = Value::Vector(t);
      } else {
        init = Value::Int(0).ConvertTo(t ? t : Type::IntTy());
      }
    }
    BindReg(var, std::move(init));
    return OkStatus();
  }

  // -- lvalues ---------------------------------------------------------------
  StatusOr<LV> Lval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kDeclRef: {
        const auto* r = e.As<DeclRefExpr>();
        if (r->var == nullptr)
          return Err("assignment to non-variable '" + r->name + "'");
        return VarLocation(*r);
      }
      case ExprKind::kParen:
        return Lval(*e.As<ParenExpr>()->inner);
      case ExprKind::kUnary: {
        const auto* u = e.As<UnaryExpr>();
        if (u->op != UnaryOp::kDeref)
          return Err("expression is not assignable");
        BRIDGECL_ASSIGN_OR_RETURN(Value p, Eval(*u->operand));
        LV lv;
        lv.kind = LV::Kind::kMem;
        lv.va = p.AsVa();
        lv.type = e.type ? e.type
                         : (p.type() && p.type()->is_pointer()
                                ? p.type()->pointee()
                                : Type::IntTy());
        return lv;
      }
      case ExprKind::kIndex: {
        const auto* ix = e.As<IndexExpr>();
        Type::Ptr bt = ix->base->type;
        // Vector component via dynamic index: v[i].
        if (bt && bt->is_vector()) {
          BRIDGECL_ASSIGN_OR_RETURN(LV base, Lval(*ix->base));
          BRIDGECL_ASSIGN_OR_RETURN(Value idx, Eval(*ix->index));
          int64_t i = idx.AsI64();
          if (i < 0 || i >= bt->vector_width())
            return Err("vector component index out of range");
          base.lanes = 1;
          base.swizzle[0] = static_cast<uint8_t>(i);
          return base;
        }
        BRIDGECL_ASSIGN_OR_RETURN(Value idx, Eval(*ix->index));
        Type::Ptr elem = e.type;
        if (!elem) return Err("untyped subscript");
        ChargeOp(L_->device->profile().cost_alu);
        uint64_t base_va;
        if (bt && bt->is_array()) {
          // Multi-dimensional arrays: the base is itself an aggregate
          // location (tile[ty][tx]); index into its address directly.
          BRIDGECL_ASSIGN_OR_RETURN(LV base_lv, Lval(*ix->base));
          if (base_lv.kind != LV::Kind::kMem)
            return Err("subscript on non-addressable array");
          base_va = base_lv.va;
        } else {
          BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*ix->base));
          base_va = base.AsVa();
        }
        LV lv;
        lv.kind = LV::Kind::kMem;
        lv.va = base_va + idx.AsI64() * elem->ByteSize();
        lv.type = elem;
        return lv;
      }
      case ExprKind::kMember: {
        const auto* m = e.As<MemberExpr>();
        if (m->is_swizzle) {
          BRIDGECL_ASSIGN_OR_RETURN(LV base, Lval(*m->base));
          if (base.lanes != 0)
            return Err("nested swizzle assignment is not supported");
          base.lanes = static_cast<uint8_t>(m->swizzle.size());
          std::copy(m->swizzle.begin(), m->swizzle.end(), base.swizzle);
          return base;
        }
        // Struct member.
        Type::Ptr agg_t = nullptr;
        uint64_t base_va = 0;
        if (m->is_arrow) {
          BRIDGECL_ASSIGN_OR_RETURN(Value p, Eval(*m->base));
          agg_t = p.type() && p.type()->is_pointer() ? p.type()->pointee()
                                                     : nullptr;
          base_va = p.AsVa();
        } else {
          BRIDGECL_ASSIGN_OR_RETURN(LV base, Lval(*m->base));
          if (base.kind != LV::Kind::kMem)
            return Err("struct member write requires memory-backed struct");
          agg_t = base.type;
          base_va = base.va;
        }
        if (!agg_t || !agg_t->is_struct())
          return Err("member access on non-struct");
        const lang::StructField* f = agg_t->struct_decl()->FindField(m->member);
        if (f == nullptr) return Err("no field '" + m->member + "'");
        LV lv;
        lv.kind = LV::Kind::kMem;
        lv.va = base_va + f->offset;
        lv.type = f->type;
        return lv;
      }
      default:
        return Err("expression is not assignable");
    }
  }

  StatusOr<Value> Read(const LV& lv) {
    Value whole;
    if (lv.kind == LV::Kind::kMem) {
      BRIDGECL_ASSIGN_OR_RETURN(whole, LoadMem(lv.va, lv.type));
    } else {
      whole = slots_[lv.slot].reg;
    }
    if (lv.lanes == 0) return whole;
    if (!whole.is_vector()) return Err("swizzle read of non-vector");
    if (lv.lanes == 1) return whole.Component(lv.swizzle[0]);
    Value out =
        Value::Vector(Type::Vector(whole.type()->scalar_kind(), lv.lanes));
    for (int i = 0; i < lv.lanes; ++i)
      out.comps()[i] = whole.comps()[lv.swizzle[i]];
    return out;
  }

  Status Write(const LV& lv, const Value& v) {
    if (lv.lanes == 0) {
      Value stored = v.ConvertTo(lv.type);
      if (lv.kind == LV::Kind::kMem) return StoreMem(lv.va, stored);
      slots_[lv.slot].reg = std::move(stored);
      return OkStatus();
    }
    // Swizzled store: read-modify-write the base vector.
    Value whole;
    if (lv.kind == LV::Kind::kMem) {
      BRIDGECL_ASSIGN_OR_RETURN(whole, LoadMem(lv.va, lv.type));
    } else {
      whole = slots_[lv.slot].reg;
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
    slots_[lv.slot].reg = std::move(whole);
    return OkStatus();
  }

  // -- expression evaluation ---------------------------------------------------
  StatusOr<Value> Eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const auto* i = e.As<IntLitExpr>();
        if (e.type) return Value::UInt(i->value).ConvertTo(e.type);
        return Value::Int(static_cast<int64_t>(i->value));
      }
      case ExprKind::kFloatLit: {
        const auto* f = e.As<FloatLitExpr>();
        return Value::Float(f->value, f->is_float ? ScalarKind::kFloat
                                                  : ScalarKind::kDouble);
      }
      case ExprKind::kDeclRef:
        return EvalDeclRef(*e.As<DeclRefExpr>());
      case ExprKind::kStringLit:
        // Format strings are only consumed by printf/assert, which the
        // simulator does not interpret; an opaque handle suffices.
        return Value::Pointer(0, e.type ? e.type : Type::IntTy());
      case ExprKind::kParen:
        return Eval(*e.As<ParenExpr>()->inner);
      case ExprKind::kUnary:
        return EvalUnary(*e.As<UnaryExpr>());
      case ExprKind::kBinary:
        return EvalBinary(*e.As<BinaryExpr>());
      case ExprKind::kAssign:
        return EvalAssign(*e.As<AssignExpr>());
      case ExprKind::kConditional: {
        const auto* c = e.As<ConditionalExpr>();
        BRIDGECL_ASSIGN_OR_RETURN(Value cond, Eval(*c->cond));
        ChargeOp(L_->device->profile().cost_alu);
        return cond.AsBool() ? Eval(*c->then_expr) : Eval(*c->else_expr);
      }
      case ExprKind::kCall:
        return EvalCall(*e.As<CallExpr>());
      case ExprKind::kIndex: {
        const auto* ix = e.As<IndexExpr>();
        Type::Ptr bt = ix->base->type;
        if (bt && bt->is_vector()) {
          BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*ix->base));
          BRIDGECL_ASSIGN_OR_RETURN(Value idx, Eval(*ix->index));
          int i = static_cast<int>(idx.AsI64());
          if (i < 0 || i >= static_cast<int>(base.comps().size()))
            return Err("vector component index out of range");
          return base.Component(i);
        }
        BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(e));
        return Read(lv);
      }
      case ExprKind::kMember:
        return EvalMember(*e.As<MemberExpr>());
      case ExprKind::kCast: {
        const auto* c = e.As<CastExpr>();
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c->operand));
        ChargeOp(L_->device->profile().cost_alu * 0.5);
        if (c->style == lang::CastStyle::kReinterpret && c->target &&
            !c->target->is_pointer() && v.type() &&
            v.type()->ByteSize() == c->target->ByteSize()) {
          return v.BitcastTo(c->target);
        }
        return v.ConvertTo(c->target);
      }
      case ExprKind::kInitList:
        return Err("brace initializer outside a declaration");
      case ExprKind::kSizeof: {
        const auto* s = e.As<SizeofExpr>();
        size_t n = s->arg_type ? s->arg_type->ByteSize()
                               : (s->arg_expr->type
                                      ? s->arg_expr->type->ByteSize()
                                      : 0);
        return Value::UInt(n, ScalarKind::kSizeT);
      }
      case ExprKind::kVectorLit: {
        const auto* v = e.As<VectorLitExpr>();
        int w = v->vec_type->vector_width();
        ScalarKind ek = v->vec_type->scalar_kind();
        Value out = Value::Vector(v->vec_type);
        std::span<ScalarVal> comps = out.comps();
        if (v->elems.size() == 1) {
          BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*v->elems[0]));
          ScalarVal c = ev.ConvertTo(Type::Scalar(ek)).scalar();
          for (int i = 0; i < w; ++i) comps[i] = c;
        } else {
          int at = 0;
          for (const auto& el : v->elems) {
            BRIDGECL_ASSIGN_OR_RETURN(Value ev, Eval(*el));
            if (ev.is_vector()) {
              for (int i = 0; i < ev.type()->vector_width() && at < w; ++i)
                comps[at++] =
                    ev.Component(i).ConvertTo(Type::Scalar(ek)).scalar();
            } else if (at < w) {
              comps[at++] = ev.ConvertTo(Type::Scalar(ek)).scalar();
            }
          }
          if (at != w)
            return Err("wrong number of vector literal components");
        }
        ChargeOp(L_->device->profile().cost_alu);
        return out;
      }
    }
    return Err("unhandled expression kind");
  }

  StatusOr<Value> EvalDeclRef(const DeclRefExpr& r) {
    if (r.var != nullptr) {
      BRIDGECL_ASSIGN_OR_RETURN(LV lv, VarLocation(r));
      // Arrays in memory decay to a pointer to their first element.
      Type::Ptr t = r.var->type;
      if (lv.kind == LV::Kind::kMem && t && t->is_array())
        return Value::Pointer(lv.va,
                              Type::Pointer(t->element(), r.var->quals.space));
      return Read(lv);
    }
    // CUDA built-in index variables.
    if (r.builtin) {
      auto vec3 = [&](const Dim3& d) {
        Value v = Value::Vector(Type::Vector(ScalarKind::kUInt, 3));
        std::span<ScalarVal> c = v.comps();
        c[0].u = d.x;
        c[1].u = d.y;
        c[2].u = d.z;
        return v;
      };
      switch (r.builtin.op()) {
        case BuiltinOp::kThreadIdx: return vec3(lid_);
        case BuiltinOp::kBlockIdx: return vec3(B_->group_id);
        case BuiltinOp::kBlockDim: return vec3(L_->cfg.block);
        case BuiltinOp::kGridDim: return vec3(L_->cfg.grid);
        case BuiltinOp::kWarpSize:
          return Value::Int(L_->device->profile().warp_size);
        default:
          return Err("built-in function '" + r.name + "' used as a value");
      }
    }
    if (r.is_constant) {
      if (auto c = NamedConstantValue(r.name)) return Value::UInt(*c);
      return Err("unknown builtin constant '" + r.name + "'");
    }
    // Texture reference.
    if (L_->module->FindTextureRef(r.name) != nullptr) {
      BRIDGECL_ASSIGN_OR_RETURN(uint64_t desc_va,
                                L_->module->TextureBinding(r.name));
      return Value::Pointer(desc_va, r.type ? r.type : Type::IntTy());
    }
    return Err("unresolved identifier '" + r.name + "'");
  }

  StatusOr<Value> EvalMember(const MemberExpr& m) {
    if (m.is_swizzle) {
      BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*m.base));
      if (!base.is_vector()) return Err("swizzle on non-vector");
      if (m.swizzle.size() == 1) return base.Component(m.swizzle[0]);
      Value out = Value::Vector(
          Type::Vector(base.type()->scalar_kind(),
                       static_cast<int>(m.swizzle.size())));
      for (size_t i = 0; i < m.swizzle.size(); ++i) {
        if (m.swizzle[i] >= static_cast<int>(base.comps().size()))
          return Err("swizzle component out of range");
        out.comps()[i] = base.comps()[m.swizzle[i]];
      }
      return out;
    }
    // Struct member.
    Type::Ptr bt = m.base->type;
    if (m.is_arrow || (bt && bt->is_struct())) {
      // Try the lvalue path (memory-backed) first.
      auto lv = Lval(m);
      if (lv.ok()) return Read(*lv);
      // Rvalue aggregate: extract from the byte image.
      BRIDGECL_ASSIGN_OR_RETURN(Value base, Eval(*m.base));
      if (!base.is_aggregate()) return lv.status();
      const lang::StructDecl* sd = base.type()->struct_decl();
      const lang::StructField* f = sd->FindField(m.member);
      if (f == nullptr) return Err("no field '" + m.member + "'");
      return DecodeValue(f->type, base.bytes().data() + f->offset);
    }
    return Err("member access on unsupported base");
  }

  StatusOr<Value> EvalUnary(const UnaryExpr& u) {
    const auto& prof = L_->device->profile();
    switch (u.op) {
      case UnaryOp::kAddrOf: {
        BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(*u.operand));
        if (lv.kind != LV::Kind::kMem)
          return Err("address of non-addressable value");
        Type::Ptr pt =
            u.operand->type
                ? Type::Pointer(u.operand->type, AddressSpace::kPrivate)
                : Type::Pointer(Type::IntTy(), AddressSpace::kPrivate);
        return Value::Pointer(lv.va, pt);
      }
      case UnaryOp::kDeref: {
        BRIDGECL_ASSIGN_OR_RETURN(Value p, Eval(*u.operand));
        Type::Ptr t = p.type() && p.type()->is_pointer()
                          ? p.type()->pointee()
                          : Type::IntTy();
        return LoadMem(p.AsVa(), t);
      }
      case UnaryOp::kPreInc:
      case UnaryOp::kPreDec:
      case UnaryOp::kPostInc:
      case UnaryOp::kPostDec: {
        BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(*u.operand));
        BRIDGECL_ASSIGN_OR_RETURN(Value old, Read(lv));
        ChargeOp(prof.cost_alu);
        int64_t delta =
            (u.op == UnaryOp::kPreInc || u.op == UnaryOp::kPostInc) ? 1 : -1;
        Value next;
        if (old.type() && old.type()->is_pointer()) {
          next = Value::Pointer(
              old.AsVa() + delta * old.type()->pointee()->ByteSize(),
              old.type());
        } else if (old.type() && old.type()->is_float()) {
          next = Value::Float(old.AsF64() + delta, old.type()->scalar_kind());
        } else {
          next = Value::Int(old.AsI64() + delta,
                            old.type() ? old.type()->scalar_kind()
                                       : ScalarKind::kInt);
        }
        BRIDGECL_RETURN_IF_ERROR(Write(lv, next));
        bool pre = u.op == UnaryOp::kPreInc || u.op == UnaryOp::kPreDec;
        return pre ? next : old;
      }
      case UnaryOp::kPlus:
        return Eval(*u.operand);
      case UnaryOp::kMinus: {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand));
        ChargeOp(prof.cost_alu);
        if (v.is_vector()) {
          Value out = v;
          bool flt = IsFloatScalar(v.type()->scalar_kind());
          for (auto& c : out.comps()) {
            if (flt)
              c.f = -c.f;
            else
              c.i = -c.i;
          }
          return out;
        }
        if (v.type() && v.type()->is_float())
          return Value::Float(-v.AsF64(), v.type()->scalar_kind());
        return Value::Int(-v.AsI64(), v.type() ? v.type()->scalar_kind()
                                               : ScalarKind::kInt);
      }
      case UnaryOp::kNot: {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand));
        ChargeOp(prof.cost_alu);
        return Value::Int(v.AsBool() ? 0 : 1);
      }
      case UnaryOp::kBitNot: {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*u.operand));
        ChargeOp(prof.cost_alu);
        if (v.is_vector()) {
          Value out = v;
          for (auto& c : out.comps()) c.u = ~c.u;
          return out.ConvertTo(v.type());
        }
        return Value::Int(~v.AsI64(), v.type() ? v.type()->scalar_kind()
                                               : ScalarKind::kInt);
      }
    }
    return Err("unhandled unary operator");
  }

  static ScalarVal ApplyScalarOp(BinaryOp op, ScalarVal a, ScalarVal b,
                                 ScalarKind k, Status* err) {
    ScalarVal out{};
    bool flt = IsFloatScalar(k);
    bool sgn = IsSignedScalar(k);
    auto div0 = [&] {
      *err = InternalError("division by zero in kernel");
      return out;
    };
    // Integer +, - and * wrap: computed on the unsigned lanes, they give
    // the two's-complement result signed overflow would leave undefined.
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
          out.i = a.i / b.i;
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
          out.i = a.i % b.i;
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
        *err = InternalError("unhandled scalar binary op");
        return out;
    }
  }

  StatusOr<Value> ApplyBinary(BinaryOp op, const Value& a, const Value& b) {
    const auto& prof = L_->device->profile();
    double c = (op == BinaryOp::kDiv || op == BinaryOp::kRem)
                   ? prof.cost_div
                   : prof.cost_alu;
    // Pointer arithmetic.
    bool cmp = op == BinaryOp::kEQ || op == BinaryOp::kNE ||
               op == BinaryOp::kLT || op == BinaryOp::kGT ||
               op == BinaryOp::kLE || op == BinaryOp::kGE;
    if (a.type() && a.type()->is_pointer() && !cmp) {
      ChargeOp(c);
      size_t esz = a.type()->pointee()->ByteSize();
      if (op == BinaryOp::kSub && b.type() && b.type()->is_pointer()) {
        return Value::Int(
            static_cast<int64_t>(a.AsVa() - b.AsVa()) /
                static_cast<int64_t>(esz),
            ScalarKind::kLong);
      }
      int64_t off = b.AsI64();
      uint64_t va = op == BinaryOp::kSub ? a.AsVa() - off * esz
                                         : a.AsVa() + off * esz;
      return Value::Pointer(va, a.type());
    }
    if (b.type() && b.type()->is_pointer() && op == BinaryOp::kAdd) {
      return ApplyBinary(op, b, a);
    }
    // Vector / scalar elementwise.
    if ((a.is_vector() || b.is_vector())) {
      const Value& vec = a.is_vector() ? a : b;
      int w = vec.type()->vector_width();
      ScalarKind ek = ArithmeticResultType(a.type(), b.type())
                          ->scalar_kind();
      Value av = a.ConvertTo(Type::Vector(ek, w));
      Value bv = b.ConvertTo(Type::Vector(ek, w));
      Value out = Value::Vector(
          Type::Vector(cmp ? ScalarKind::kInt : ek, w));
      std::span<ScalarVal> comps = out.comps();
      Status err;
      for (int i = 0; i < w; ++i) {
        comps[i] = ApplyScalarOp(op, av.comps()[i], bv.comps()[i], ek, &err);
        if (!err.ok()) return err;
      }
      ChargeOp(c * w);
      // Vector comparisons produce an int vector of 0/-1 per OpenCL.
      if (cmp)
        for (auto& s : comps) s.i = s.i ? -1 : 0;
      return out;
    }
    // Scalars: usual conversions.
    Type::Ptr rt = ArithmeticResultType(a.type(), b.type());
    ScalarKind k = rt->scalar_kind();
    if (cmp) {
      // Compare in the common type but return int.
      Value ac = a.ConvertTo(Type::Scalar(k));
      Value bc = b.ConvertTo(Type::Scalar(k));
      Status err;
      ScalarVal r = ApplyScalarOp(op, ac.scalar(), bc.scalar(), k, &err);
      if (!err.ok()) return err;
      ChargeOp(c);
      return Value::Int(r.i);
    }
    Value ac = a.ConvertTo(Type::Scalar(k));
    Value bc = b.ConvertTo(Type::Scalar(k));
    Status err;
    ScalarVal r = ApplyScalarOp(op, ac.scalar(), bc.scalar(), k, &err);
    if (!err.ok()) return err;
    ChargeOp(c);
    Value out;
    out.set_type(Type::Scalar(k));
    out.set_scalar(r);
    return out;
  }

  StatusOr<Value> EvalBinary(const BinaryExpr& b) {
    if (b.op == BinaryOp::kLAnd) {
      BRIDGECL_ASSIGN_OR_RETURN(Value l, Eval(*b.lhs));
      ChargeOp(L_->device->profile().cost_alu);
      if (!l.AsBool()) return Value::Int(0);
      BRIDGECL_ASSIGN_OR_RETURN(Value r, Eval(*b.rhs));
      return Value::Int(r.AsBool() ? 1 : 0);
    }
    if (b.op == BinaryOp::kLOr) {
      BRIDGECL_ASSIGN_OR_RETURN(Value l, Eval(*b.lhs));
      ChargeOp(L_->device->profile().cost_alu);
      if (l.AsBool()) return Value::Int(1);
      BRIDGECL_ASSIGN_OR_RETURN(Value r, Eval(*b.rhs));
      return Value::Int(r.AsBool() ? 1 : 0);
    }
    if (b.op == BinaryOp::kComma) {
      BRIDGECL_RETURN_IF_ERROR(Eval(*b.lhs).status());
      return Eval(*b.rhs);
    }
    BRIDGECL_ASSIGN_OR_RETURN(Value l, Eval(*b.lhs));
    BRIDGECL_ASSIGN_OR_RETURN(Value r, Eval(*b.rhs));
    return ApplyBinary(b.op, l, r);
  }

  StatusOr<Value> EvalAssign(const AssignExpr& a) {
    BRIDGECL_ASSIGN_OR_RETURN(Value rhs, Eval(*a.rhs));
    BRIDGECL_ASSIGN_OR_RETURN(LV lv, Lval(*a.lhs));
    if (a.compound) {
      BRIDGECL_ASSIGN_OR_RETURN(Value old, Read(lv));
      BRIDGECL_ASSIGN_OR_RETURN(rhs, ApplyBinary(a.op, old, rhs));
    }
    BRIDGECL_RETURN_IF_ERROR(Write(lv, rhs));
    return rhs;
  }

  // -- calls ---------------------------------------------------------------
  StatusOr<Value> EvalCall(const CallExpr& c) {
    // Sema rejects indirect calls, so the callee is a resolved name.
    const DeclRefExpr& ref = *c.callee->As<DeclRefExpr>();
    if (ref.function != nullptr && ref.function->body)
      return CallFunction(ref.function, c);
    if (ref.builtin) return CallBuiltin(ref, c);
    return Err("call to '" + ref.name +
               "', which is declared but never defined");
  }

  StatusOr<Value> CallFunction(const FunctionDecl* fn, const CallExpr& c) {
    if (depth_ > kMaxCallDepth)
      return Err("device call stack overflow (recursion too deep)");
    if (c.args.size() != fn->params.size())
      return Err("wrong argument count calling '" + fn->name + "'");
    const uint32_t caller_base = base_, callee_base = ReserveFrame(*fn);
    const int caller_depth = depth_;
    const uint64_t caller_private_top = private_top_;
    Status st = RunCall(*fn, c, callee_base);
    // The caller's frame is current again however the call ended: a failed
    // struct-member lvalue is retried as an rvalue (EvalMember).
    base_ = caller_base;
    top_ = callee_base;
    depth_ = caller_depth;
    private_top_ = caller_private_top;
    BRIDGECL_RETURN_IF_ERROR(st);
    ChargeOp(L_->device->profile().cost_alu);  // call overhead
    return ret_;
  }

  /// Bind `c`'s arguments into `fn`'s frame at `base` and run its body.
  Status RunCall(const FunctionDecl& fn, const CallExpr& c, uint32_t base) {
    // Evaluate the arguments in the caller's frame, straight into the
    // callee's slots; a reference parameter takes its argument's location.
    for (size_t i = 0; i < c.args.size(); ++i) {
      if (i < fn.param_is_reference.size() && fn.param_is_reference[i]) {
        BRIDGECL_ASSIGN_OR_RETURN(slots_[base + i].loc, Lval(*c.args[i]));
        slots_[base + i].bound = true;
      } else {
        BRIDGECL_ASSIGN_OR_RETURN(slots_[base + i].reg, Eval(*c.args[i]));
      }
    }
    base_ = base;
    ++depth_;
    for (size_t i = 0; i < c.args.size(); ++i) {
      if (slots_[base + i].bound) continue;  // a reference
      BRIDGECL_RETURN_IF_ERROR(
          BindVar(fn.params[i].get(), slots_[base + i].reg));
    }
    ret_ = Value::Void();
    return Exec(*fn.body).status();
  }

  // ---- builtin implementations ----
  // `ref` is the call's callee, resolved by sema to a catalog entry. Kept
  // out of line: inlined, their locals would grow every Eval frame.
  [[gnu::noinline]] StatusOr<Value> CallBuiltin(const DeclRefExpr& ref,
                                                const CallExpr& c);
  StatusOr<Value> EvalImageRead(ScalarKind out_kind, const CallExpr& c);
  StatusOr<Value> EvalImageWrite(const DeclRefExpr& ref, const CallExpr& c);
  StatusOr<Value> EvalTexFetch(const CallExpr& c);
  [[gnu::noinline]] StatusOr<Value> EvalAtomic(const DeclRefExpr& ref,
                                               const CallExpr& c);
  StatusOr<ImageDesc> LoadImageDesc(uint64_t va);
  StatusOr<Value> ReadTexel(const ImageDesc& d, int x, int y, int z,
                            ScalarKind out_kind);

  const LaunchState* L_ = nullptr;
  BlockState* B_ = nullptr;
  Dim3 lid_;
  Dim3 gid_;
  uint64_t private_base_ = 0;
  uint64_t private_top_ = 0;
  double cycles_ = 0;
  /// Every frame's slots, the kernel's at 0 and each call's above its
  /// caller's; kept across items. The current frame is [base_, top_).
  std::vector<Slot> slots_;
  uint32_t base_ = 0;
  uint32_t top_ = 0;
  int depth_ = 0;  // frames live: the kernel's and one per call
  Value ret_;
  std::vector<std::byte> staged_;  // logged accesses: bytes in flight
};

/// Each host worker's evaluators, kept across its blocks and launches:
/// the plain loop runs every item on the first, and a fiber block gives
/// each item its own.
thread_local std::vector<Evaluator> t_evaluators;

StatusOr<ImageDesc> Evaluator::LoadImageDesc(uint64_t va) {
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, sizeof(ImageDesc)));
  ImageDesc d;
  std::memcpy(&d, Seen(va, p, sizeof(d)), sizeof(d));
  return d;
}

StatusOr<Value> Evaluator::ReadTexel(const ImageDesc& d, int x, int y, int z,
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
  cycles_ += L_->device->profile().cost_image_access;
  Value out = Value::Vector(Type::Vector(out_kind, 4));
  std::span<ScalarVal> comps = out.comps();
  for (uint32_t ch = 0; ch < 4; ++ch) {
    if (ch < d.channels) {
      BRIDGECL_ASSIGN_OR_RETURN(Value v,
                                DecodeValue(Type::Scalar(ek), p + ch * esz));
      comps[ch] = v.ConvertTo(Type::Scalar(out_kind)).scalar();
    } else {
      // Missing channels read as 0 (alpha as 1.0 for floats).
      if (ch == 3 && IsFloatScalar(out_kind)) comps[ch].f = 1.0;
    }
  }
  return out;
}

StatusOr<Value> Evaluator::EvalImageRead(ScalarKind out_kind,
                                         const CallExpr& c) {
  BRIDGECL_ASSIGN_OR_RETURN(Value img, Eval(*c.args[0]));
  BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(img.AsVa()));
  uint32_t sampler_bits = d.sampler_bits;
  const Expr* coord_expr = c.args.back().get();
  if (c.args.size() == 3) {
    BRIDGECL_ASSIGN_OR_RETURN(Value s, Eval(*c.args[1]));
    sampler_bits = static_cast<uint32_t>(s.AsU64());
  }
  BRIDGECL_ASSIGN_OR_RETURN(Value coord, Eval(*coord_expr));
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
    Value t00, t10, t01, t11;
    BRIDGECL_ASSIGN_OR_RETURN(
        t00, ReadTexel(d, x0, y0, static_cast<int>(fz), out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(
        t10, ReadTexel(d, x0 + 1, y0, static_cast<int>(fz), out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(
        t01, ReadTexel(d, x0, y0 + 1, static_cast<int>(fz), out_kind));
    BRIDGECL_ASSIGN_OR_RETURN(
        t11, ReadTexel(d, x0 + 1, y0 + 1, static_cast<int>(fz), out_kind));
    Value out = Value::Vector(Type::Vector(out_kind, 4));
    for (int i = 0; i < 4; ++i) {
      double r = t00.comps()[i].f * (1 - a) * (1 - b) +
                 t10.comps()[i].f * a * (1 - b) +
                 t01.comps()[i].f * (1 - a) * b + t11.comps()[i].f * a * b;
      out.comps()[i].f = r;
    }
    return out;
  }
  return ReadTexel(d, static_cast<int>(fx), static_cast<int>(fy),
                   static_cast<int>(fz), out_kind);
}

StatusOr<Value> Evaluator::EvalImageWrite(const DeclRefExpr& ref,
                                          const CallExpr& c) {
  if (c.args.size() != 3) return Err(ref.name + ": expected 3 arguments");
  BRIDGECL_ASSIGN_OR_RETURN(Value img, Eval(*c.args[0]));
  BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(img.AsVa()));
  BRIDGECL_ASSIGN_OR_RETURN(Value coord, Eval(*c.args[1]));
  BRIDGECL_ASSIGN_OR_RETURN(Value color, Eval(*c.args[2]));
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
    return Value::Void();  // out-of-bounds writes are dropped (CL rule)
  ScalarKind ek = static_cast<ScalarKind>(d.elem_kind);
  size_t esz = lang::ScalarByteSize(ek);
  uint64_t va = d.data_va + static_cast<uint64_t>(z) * d.slice_pitch +
                static_cast<uint64_t>(y) * d.row_pitch +
                static_cast<uint64_t>(x) * ImageTexelBytes(d);
  BRIDGECL_ASSIGN_OR_RETURN(std::byte * p, Resolve(va, ImageTexelBytes(d)));
  ++B_->stats->image_accesses;
  cycles_ += L_->device->profile().cost_image_access;
  BRIDGECL_RETURN_IF_ERROR(
      Put(va, p, ImageTexelBytes(d), [&](std::byte* dst) -> Status {
        for (uint32_t ch = 0; ch < d.channels; ++ch) {
          Value comp = color.is_vector() ? color.Component(ch) : color;
          BRIDGECL_RETURN_IF_ERROR(
              EncodeValue(comp.ConvertTo(Type::Scalar(ek)), dst + ch * esz));
        }
        return OkStatus();
      }));
  return Value::Void();
}

StatusOr<Value> Evaluator::EvalTexFetch(const CallExpr& c) {
  BRIDGECL_ASSIGN_OR_RETURN(Value tex, Eval(*c.args[0]));
  BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(tex.AsVa()));
  Type::Ptr tex_t = c.args[0]->type;
  ScalarKind out_kind =
      tex_t && tex_t->is_texture() ? tex_t->scalar_kind() : ScalarKind::kFloat;
  int out_width = tex_t && tex_t->is_texture() ? tex_t->vector_width() : 1;

  double fx = 0, fy = 0, fz = 0;
  BRIDGECL_ASSIGN_OR_RETURN(Value cx, Eval(*c.args[1]));
  fx = cx.AsF64();
  if (c.args.size() > 2) {
    BRIDGECL_ASSIGN_OR_RETURN(Value cy, Eval(*c.args[2]));
    fy = cy.AsF64();
  }
  if (c.args.size() > 3) {
    BRIDGECL_ASSIGN_OR_RETURN(Value cz, Eval(*c.args[3]));
    fz = cz.AsF64();
  }
  if (d.sampler_bits & kSamplerNormalizedCoords) {
    fx *= d.width;
    fy *= d.height;
    fz *= d.depth;
  }
  ScalarKind fetch_kind =
      IsFloatScalar(out_kind) ? ScalarKind::kFloat : out_kind;
  BRIDGECL_ASSIGN_OR_RETURN(
      Value texel, ReadTexel(d, static_cast<int>(fx), static_cast<int>(fy),
                             static_cast<int>(fz), fetch_kind));
  if (out_width == 1) return texel.Component(0).ConvertTo(Type::Scalar(out_kind));
  Value out = Value::Vector(Type::Vector(out_kind, out_width));
  for (int i = 0; i < out_width; ++i)
    out.comps()[i] =
        texel.Component(i).ConvertTo(Type::Scalar(out_kind)).scalar();
  return out;
}

StatusOr<Value> Evaluator::EvalAtomic(const DeclRefExpr& ref,
                                      const CallExpr& c) {
  BRIDGECL_ASSIGN_OR_RETURN(Value ptr, Eval(*c.args[0]));
  Type::Ptr elem = ptr.type() && ptr.type()->is_pointer()
                       ? ptr.type()->pointee()
                       : Type::IntTy();
  uint64_t va = ptr.AsVa();
  ++B_->stats->atomics;
  cycles_ += L_->device->profile().cost_atomic;
  BRIDGECL_ASSIGN_OR_RETURN(Value old, LoadMem(va, elem));
  Value operand;
  if (c.args.size() > 1) {
    BRIDGECL_ASSIGN_OR_RETURN(operand, Eval(*c.args[1]));
    operand = operand.ConvertTo(elem);
  }
  bool flt = elem->is_float();
  ScalarKind k = elem->scalar_kind();
  auto next_value = [&]() -> StatusOr<Value> {
    switch (ref.builtin.op()) {
      // OpenCL atomic_inc/atomic_dec: unconditional +-1 (no operand).
      case BuiltinOp::kAtomicInc:
        return Value::Int(old.AsI64() + 1, k);
      case BuiltinOp::kAtomicDec:
        return Value::Int(old.AsI64() - 1, k);
      // CUDA atomicInc/atomicDec: wrap semantics against args[1] (§3.7).
      case BuiltinOp::kAtomicIncWrap:
        return Value::UInt(
            old.AsU64() >= operand.AsU64() ? 0 : old.AsU64() + 1, k);
      case BuiltinOp::kAtomicDecWrap: {
        uint64_t limit = operand.AsU64();
        uint64_t ov = old.AsU64();
        return Value::UInt((ov == 0 || ov > limit) ? limit : ov - 1, k);
      }
      case BuiltinOp::kAtomicAdd:
        return flt ? Value::Float(old.AsF64() + operand.AsF64(), k)
                   : Value::Int(old.AsI64() + operand.AsI64(), k);
      case BuiltinOp::kAtomicSub:
        return Value::Int(old.AsI64() - operand.AsI64(), k);
      case BuiltinOp::kAtomicXchg:
        return operand;
      case BuiltinOp::kAtomicMin: {
        bool less = IsSignedScalar(k) ? operand.AsI64() < old.AsI64()
                                      : operand.AsU64() < old.AsU64();
        if (flt) less = operand.AsF64() < old.AsF64();
        return less ? operand : old;
      }
      case BuiltinOp::kAtomicMax: {
        bool greater = IsSignedScalar(k) ? operand.AsI64() > old.AsI64()
                                         : operand.AsU64() > old.AsU64();
        if (flt) greater = operand.AsF64() > old.AsF64();
        return greater ? operand : old;
      }
      case BuiltinOp::kAtomicAnd:
        return Value::UInt(old.AsU64() & operand.AsU64(), k);
      case BuiltinOp::kAtomicOr:
        return Value::UInt(old.AsU64() | operand.AsU64(), k);
      case BuiltinOp::kAtomicXor:
        return Value::UInt(old.AsU64() ^ operand.AsU64(), k);
      case BuiltinOp::kAtomicCmpxchg: {
        if (c.args.size() != 3)
          return Err(ref.name + ": expected 3 arguments");
        BRIDGECL_ASSIGN_OR_RETURN(Value desired, Eval(*c.args[2]));
        return old.AsU64() == operand.AsU64() ? desired.ConvertTo(elem)
                                              : old;
      }
      default:
        return Err("unhandled atomic builtin '" + ref.name + "'");
    }
  };
  BRIDGECL_ASSIGN_OR_RETURN(Value next, next_value());
  BRIDGECL_RETURN_IF_ERROR(StoreMem(va, next.ConvertTo(elem)));
  return old;
}

StatusOr<Value> Evaluator::CallBuiltin(const DeclRefExpr& ref,
                                       const CallExpr& c) {
  const lang::BuiltinRef& b = ref.builtin;
  const auto& prof = L_->device->profile();
  auto dim_arg = [&]() -> StatusOr<int> {
    if (c.args.empty()) return 0;
    BRIDGECL_ASSIGN_OR_RETURN(Value d, Eval(*c.args[0]));
    return static_cast<int>(d.AsI64());
  };

  if (b.info->cls == lang::BuiltinClass::kAtomic) return EvalAtomic(ref, c);
  switch (b.op()) {
    // ---- work-item functions (OpenCL) ----
    case BuiltinOp::kGlobalId:
    case BuiltinOp::kLocalId:
    case BuiltinOp::kGroupId:
    case BuiltinOp::kGlobalSize:
    case BuiltinOp::kLocalSize:
    case BuiltinOp::kNumGroups: {
      BRIDGECL_ASSIGN_OR_RETURN(int d, dim_arg());
      const Dim3& grid = L_->cfg.grid;
      const Dim3& block = L_->cfg.block;
      BuiltinOp op = b.op();
      uint64_t v = op == BuiltinOp::kGlobalId  ? gid_[d]
                   : op == BuiltinOp::kLocalId ? lid_[d]
                   : op == BuiltinOp::kGroupId ? B_->group_id[d]
                   : op == BuiltinOp::kGlobalSize
                       ? static_cast<uint64_t>(grid[d]) * block[d]
                   : op == BuiltinOp::kLocalSize ? block[d]
                                                 : grid[d];
      return Value::UInt(v, ScalarKind::kSizeT);
    }
    case BuiltinOp::kWorkDim:
      return Value::UInt(3);
    case BuiltinOp::kGlobalOffset:
      return Value::UInt(0, ScalarKind::kSizeT);

    // ---- synchronization ----
    case BuiltinOp::kBarrier:
      if (B_->group == nullptr)
        return Err("barrier reached in kernel '" + L_->kernel->name +
                   "', which sema marked as unable to reach one");
      for (const auto& a : c.args) BRIDGECL_RETURN_IF_ERROR(Eval(*a).status());
      ++B_->stats->barriers;
      cycles_ += prof.cost_barrier;
      B_->group->Barrier();
      return Value::Void();
    case BuiltinOp::kFence:
    case BuiltinOp::kDeviceFence:
      for (const auto& a : c.args) BRIDGECL_RETURN_IF_ERROR(Eval(*a).status());
      cycles_ += prof.cost_alu;
      return Value::Void();

    // ---- images / textures ----
    case BuiltinOp::kReadImage:
      return EvalImageRead(b.elem, c);
    case BuiltinOp::kWriteImage:
      return EvalImageWrite(ref, c);
    case BuiltinOp::kTex1D:
    case BuiltinOp::kTex2D:
    case BuiltinOp::kTex3D:
      return EvalTexFetch(c);
    case BuiltinOp::kImageWidth:
    case BuiltinOp::kImageHeight: {
      BRIDGECL_ASSIGN_OR_RETURN(Value img, Eval(*c.args[0]));
      BRIDGECL_ASSIGN_OR_RETURN(ImageDesc d, LoadImageDesc(img.AsVa()));
      return Value::Int(b.op() == BuiltinOp::kImageWidth ? d.width
                                                         : d.height);
    }

    // ---- vector family ----
    case BuiltinOp::kMakeVector: {
      Value out = Value::Vector(Type::Vector(b.elem, b.width));
      for (int i = 0; i < b.width && i < static_cast<int>(c.args.size());
           ++i) {
        BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[i]));
        out.comps()[i] = v.ConvertTo(Type::Scalar(b.elem)).scalar();
      }
      ChargeOp(prof.cost_alu);
      return out;
    }
    case BuiltinOp::kConvert: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return v.ConvertTo(b.width > 0 ? Type::Vector(b.elem, b.width)
                                     : Type::Scalar(b.elem));
    }
    case BuiltinOp::kAs: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      return v.BitcastTo(b.width > 0 ? Type::Vector(b.elem, b.width)
                                     : Type::Scalar(b.elem));
    }
    case BuiltinOp::kVload: {
      int w = b.width;
      BRIDGECL_ASSIGN_OR_RETURN(Value off, Eval(*c.args[0]));
      BRIDGECL_ASSIGN_OR_RETURN(Value ptr, Eval(*c.args[1]));
      Type::Ptr elem = ptr.type()->is_pointer() ? ptr.type()->pointee()
                                                : Type::FloatTy();
      Type::Ptr vt = Type::Vector(elem->scalar_kind(), w);
      uint64_t va = ptr.AsVa() + off.AsU64() * w * elem->ByteSize();
      // vload reads w packed elements (no vec3 padding).
      Value out = Value::Vector(vt);
      for (int i = 0; i < w; ++i) {
        BRIDGECL_ASSIGN_OR_RETURN(Value v,
                                  LoadMem(va + i * elem->ByteSize(), elem));
        out.comps()[i] = v.scalar();
      }
      return out;
    }
    case BuiltinOp::kVstore: {
      int w = b.width;
      BRIDGECL_ASSIGN_OR_RETURN(Value data, Eval(*c.args[0]));
      BRIDGECL_ASSIGN_OR_RETURN(Value off, Eval(*c.args[1]));
      BRIDGECL_ASSIGN_OR_RETURN(Value ptr, Eval(*c.args[2]));
      Type::Ptr elem = ptr.type()->is_pointer() ? ptr.type()->pointee()
                                                : Type::FloatTy();
      uint64_t va = ptr.AsVa() + off.AsU64() * w * elem->ByteSize();
      for (int i = 0; i < w; ++i) {
        BRIDGECL_RETURN_IF_ERROR(StoreMem(
            va + i * elem->ByteSize(), data.Component(i).ConvertTo(elem)));
      }
      return Value::Void();
    }

    // ---- warp-level CUDA built-ins: degenerate single-lane semantics.
    // These exist so that mcuda can *run* CUDA-only samples natively; the
    // CU→CL translator rejects them (§3.7 / Table 3).
    case BuiltinOp::kShfl: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      for (size_t i = 1; i < c.args.size(); ++i)
        BRIDGECL_RETURN_IF_ERROR(Eval(*c.args[i]).status());
      ChargeOp(prof.cost_alu);
      return v;
    }
    case BuiltinOp::kVote: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return Value::Int(v.AsBool() ? 1 : 0);
    }
    case BuiltinOp::kBallot: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      ChargeOp(prof.cost_alu);
      return Value::UInt(v.AsBool() ? 1u : 0u);
    }
    case BuiltinOp::kClock:
      return Value::Int(static_cast<int64_t>(cycles_));
    case BuiltinOp::kClock64:
      return Value::Int(static_cast<int64_t>(cycles_), ScalarKind::kLongLong);
    case BuiltinOp::kAssert: {
      BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[0]));
      if (!v.AsBool()) return Err("device-side assert failed");
      return Value::Void();
    }
    case BuiltinOp::kPrintf:
      // Arguments are evaluated for side effects; output is suppressed in
      // the simulator (matches running with stdout redirected).
      for (const auto& a : c.args) BRIDGECL_RETURN_IF_ERROR(Eval(*a).status());
      return Value::Int(0);
    default:
      break;
  }

  // ---- math & integer builtins (elementwise over vectors) ----
  // None takes more than three arguments; any further ones are evaluated
  // for their side effects only.
  Value args[3];
  for (size_t i = 0; i < c.args.size(); ++i) {
    BRIDGECL_ASSIGN_OR_RETURN(Value v, Eval(*c.args[i]));
    if (i < std::size(args)) args[i] = std::move(v);
  }
  switch (b.op()) {
    case BuiltinOp::kMathUnary: {
      cycles_ += prof.cost_math;
      const Value& a = args[0];
      bool is_float_res =
          b.info->float_result() ||
          (a.type() && (a.type()->is_vector() || a.type()->is_scalar()) &&
           a.type()->scalar_kind() == ScalarKind::kFloat);
      ScalarKind k = is_float_res ? ScalarKind::kFloat : ScalarKind::kDouble;
      auto fn = b.info->unary;
      if (a.is_vector()) {
        Value out = a;
        for (auto& cmp : out.comps()) {
          double x = IsFloatScalar(a.type()->scalar_kind())
                         ? cmp.f
                         : static_cast<double>(cmp.i);
          cmp.f = k == ScalarKind::kFloat ? static_cast<float>(fn(x)) : fn(x);
        }
        out.set_type(Type::Vector(k, a.type()->vector_width()));
        return out;
      }
      return Value::Float(fn(a.AsF64()), k);
    }
    case BuiltinOp::kMathBinary: {
      cycles_ += prof.cost_math;
      const Value& a = args[0];
      const Value& bv = args[1];
      bool use_float =
          b.info->float_result() ||
          (a.type() && a.type()->scalar_kind() == ScalarKind::kFloat);
      ScalarKind k = use_float ? ScalarKind::kFloat : ScalarKind::kDouble;
      auto fn = b.info->binary;
      if (a.is_vector()) {
        int w = a.type()->vector_width();
        Value bb = bv.ConvertTo(Type::Vector(k, w));
        Value out = a.ConvertTo(Type::Vector(k, w));
        for (int i = 0; i < w; ++i)
          out.comps()[i].f = fn(out.comps()[i].f, bb.comps()[i].f);
        return out;
      }
      return Value::Float(fn(a.AsF64(), bv.AsF64()), k);
    }
    case BuiltinOp::kFma: {
      cycles_ += prof.cost_alu;
      if (args[0].is_vector()) {
        Type::Ptr vt = args[0].type();
        Value a = args[0], m = args[1].ConvertTo(vt),
              d = args[2].ConvertTo(vt);
        Value out = a;
        for (int i = 0; i < vt->vector_width(); ++i)
          out.comps()[i].f =
              a.comps()[i].f * m.comps()[i].f + d.comps()[i].f;
        return out;
      }
      ScalarKind k = args[0].type() &&
                             args[0].type()->scalar_kind() == ScalarKind::kFloat
                         ? ScalarKind::kFloat
                         : ScalarKind::kDouble;
      return Value::Float(args[0].AsF64() * args[1].AsF64() + args[2].AsF64(),
                          k);
    }
    case BuiltinOp::kMin:
    case BuiltinOp::kMax: {
      ChargeOp(prof.cost_alu);
      bool is_min = b.op() == BuiltinOp::kMin;
      const Value& a = args[0];
      const Value& bv = args[1];
      bool take_a;
      if (a.type() && (a.type()->is_float() ||
                       (bv.type() && bv.type()->is_float()))) {
        take_a = is_min ? a.AsF64() <= bv.AsF64() : a.AsF64() >= bv.AsF64();
      } else if (a.type() && !IsSignedScalar(a.type()->scalar_kind())) {
        take_a = is_min ? a.AsU64() <= bv.AsU64() : a.AsU64() >= bv.AsU64();
      } else {
        take_a = is_min ? a.AsI64() <= bv.AsI64() : a.AsI64() >= bv.AsI64();
      }
      return take_a ? a : bv;
    }
    case BuiltinOp::kAbs:
      ChargeOp(prof.cost_alu);
      return Value::Int(std::llabs(args[0].AsI64()),
                        args[0].type() ? args[0].type()->scalar_kind()
                                       : ScalarKind::kInt);
    case BuiltinOp::kClamp: {
      ChargeOp(prof.cost_alu);
      if (args[0].type() && args[0].type()->is_float()) {
        double v = args[0].AsF64(), lo = args[1].AsF64(),
               hi = args[2].AsF64();
        return Value::Float(v < lo ? lo : (v > hi ? hi : v),
                            args[0].type()->scalar_kind());
      }
      int64_t v = args[0].AsI64(), lo = args[1].AsI64(), hi = args[2].AsI64();
      return Value::Int(v < lo ? lo : (v > hi ? hi : v));
    }
    case BuiltinOp::kSelect: {
      // OpenCL select(a, b, c): c chooses b (per-component MSB for vectors).
      ChargeOp(prof.cost_alu);
      const Value& a = args[0];
      const Value& bv = args[1];
      const Value& cv = args[2];
      if (a.is_vector()) {
        Value out = a;
        for (int i = 0; i < a.type()->vector_width(); ++i) {
          bool take_b = cv.is_vector() ? (cv.comps()[i].i < 0) : cv.AsBool();
          if (take_b)
            out.comps()[i] = i < static_cast<int>(bv.comps().size())
                                 ? bv.comps()[i]
                                 : ScalarVal{};
        }
        return out;
      }
      return cv.AsBool() ? bv : a;
    }
    case BuiltinOp::kMix: {
      cycles_ += prof.cost_alu;
      double a = args[0].AsF64(), bv = args[1].AsF64(), t = args[2].AsF64();
      return Value::Float(a + (bv - a) * t,
                          args[0].type() ? args[0].type()->scalar_kind()
                                         : ScalarKind::kFloat);
    }
    case BuiltinOp::kMul24:
      ChargeOp(prof.cost_alu);
      return Value::Int((args[0].AsI64() & 0xFFFFFF) *
                        (args[1].AsI64() & 0xFFFFFF));
    case BuiltinOp::kPopcount:
      ChargeOp(prof.cost_alu);
      return Value::Int(__builtin_popcountll(args[0].AsU64()));
    case BuiltinOp::kClz: {
      ChargeOp(prof.cost_alu);
      uint32_t v = static_cast<uint32_t>(args[0].AsU64());
      return Value::Int(v == 0 ? 32 : __builtin_clz(v));
    }
    default:
      break;
  }
  return Err("unimplemented builtin '" + ref.name + "' in " +
             std::string(lang::DialectName(L_->dialect)) + " device code");
}

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
  L.cfg = config;
  L.dialect = module.dialect();

  // ---- shared-memory layout: static __local vars, then dynamic-local
  // arguments (OpenCL §4.1), then the CUDA extern __shared__ area. ----
  std::vector<const VarDecl*> shared_vars;
  CollectSharedVars(kernel->body.get(), &shared_vars);
  size_t offset = 0;
  auto align_to = [&](size_t a) { offset = (offset + a - 1) / a * a; };
  for (const VarDecl* v : shared_vars) {
    if (v->quals.is_extern) continue;
    align_to(std::max<size_t>(v->type->Alignment(), 1));
    L.shared_va[v] = device.vm().shared_base() + offset;
    offset += v->type->ByteSize();
  }

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
      if (p->type->is_named()) want = a.bytes.size();  // template param
      if (a.bytes.size() < want)
        return InvalidArgumentError(StrFormat(
            "argument %zu: %zu bytes provided, parameter '%s' needs %zu",
            i, a.bytes.size(), p->name.c_str(), want));
      Type::Ptr t = p->type->is_named() ? Type::IntTy() : p->type;
      BRIDGECL_ASSIGN_OR_RETURN(L.arg_values[i],
                                DecodeValue(t, a.bytes.data()));
    }
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
  // shared and private VAs. A block's items run as fibers only if the
  // kernel can reach a barrier, else one after another in index order.
  // Each block records into a private BlockResult; the reduction below
  // then replays the serial engine's bookkeeping in canonical block
  // order, so stats, cycle totals (flat FP fold), timestamps and traces
  // are bit-identical for every worker count. Memory is too: with more
  // than one worker every block runs against pre-launch memory through
  // its BlockLog, and the logs commit in block order unless a block read
  // a byte an earlier block wrote, in which case the launch reruns
  // serially on the untouched memory.
  const int items = static_cast<int>(config.block.Count());
  auto local_id = [&](int idx) {
    return Dim3(idx % config.block.x, (idx / config.block.x) % config.block.y,
                idx / (config.block.x * config.block.y));
  };
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
        Status st;
        std::vector<Evaluator>& evals = t_evaluators;
        if (kernel->reaches_barrier) {
          simgpu::FiberGroup group(kFiberStackBytes);
          B.group = &group;
          if (evals.size() < static_cast<size_t>(items)) evals.resize(items);
          st = group.Run(items, [&](int idx) -> Status {
            Status item = evals[idx].Run(L, B, local_id(idx), idx);
            r.item_cycles[idx] = evals[idx].cycles();
            return item;
          });
        } else {
          // What FiberGroup::Run does for tasks that never wait: each item
          // runs to completion in index order, and the first failure is
          // the block's.
          if (evals.empty()) evals.resize(1);
          for (int i = 0; i < items; ++i) {
            Status item = evals[0].Run(L, B, local_id(i), i);
            r.item_cycles[i] = evals[0].cycles();
            if (st.ok()) st = std::move(item);
          }
        }
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
