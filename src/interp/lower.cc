#include "interp/lower.h"

#include <algorithm>
#include <span>

#include "interp/constants.h"

namespace bridgecl::interp {

using lang::AddressSpace;
using lang::BinaryOp;
using lang::BuiltinOp;
using lang::CallExpr;
using lang::DeclRefExpr;
using lang::Expr;
using lang::ExprKind;
using lang::FunctionDecl;
using lang::MemberExpr;
using lang::Stmt;
using lang::StmtKind;
using lang::UnaryOp;
using lang::VarDecl;

namespace {

/// Whether evaluating `e` may write a register: an assignment or ++/--.
/// (A call cannot write its caller's registers: a callee reaches the
/// caller's variables only through pointers, and a variable whose address
/// is taken lives in memory.) An operand read in place from a variable's
/// register is copied first when a later sibling may.
bool Clobbers(const Expr* e) {
  if (e == nullptr) return false;
  switch (e->kind) {
    case ExprKind::kAssign:
      return true;
    case ExprKind::kUnary: {
      const auto* u = e->As<lang::UnaryExpr>();
      if (u->op == UnaryOp::kPreInc || u->op == UnaryOp::kPreDec ||
          u->op == UnaryOp::kPostInc || u->op == UnaryOp::kPostDec)
        return true;
      return Clobbers(u->operand.get());
    }
    case ExprKind::kBinary: {
      const auto* b = e->As<lang::BinaryExpr>();
      return Clobbers(b->lhs.get()) || Clobbers(b->rhs.get());
    }
    case ExprKind::kConditional: {
      const auto* c = e->As<lang::ConditionalExpr>();
      return Clobbers(c->cond.get()) || Clobbers(c->then_expr.get()) ||
             Clobbers(c->else_expr.get());
    }
    case ExprKind::kCall: {
      const auto& args = e->As<CallExpr>()->args;
      return std::any_of(args.begin(), args.end(),
                         [](const auto& a) { return Clobbers(a.get()); });
    }
    case ExprKind::kIndex: {
      const auto* i = e->As<lang::IndexExpr>();
      return Clobbers(i->base.get()) || Clobbers(i->index.get());
    }
    case ExprKind::kMember:
      return Clobbers(e->As<MemberExpr>()->base.get());
    case ExprKind::kCast:
      return Clobbers(e->As<lang::CastExpr>()->operand.get());
    case ExprKind::kParen:
      return Clobbers(e->As<lang::ParenExpr>()->inner.get());
    case ExprKind::kVectorLit: {
      const auto& el = e->As<lang::VectorLitExpr>()->elems;
      return std::any_of(el.begin(), el.end(),
                         [](const auto& a) { return Clobbers(a.get()); });
    }
    default:
      return false;
  }
}

/// A __local (CUDA __shared__) variable declared in a body: it lives in
/// shared memory. A parameter's space is its pointee's (`__local int x[]`).
bool InShared(const VarDecl& v) {
  return !v.is_param && v.quals.space == AddressSpace::kLocal;
}

/// A private parameter or local that lives in private memory: an array, a
/// struct, or one whose address is taken.
bool InPrivateMemory(const VarDecl& v) {
  const lang::Type* t = v.type;
  return !InShared(v) &&
         (v.address_taken || (t && (t->is_struct() || t->is_array())));
}

/// A parameter or local that lives in its own register, typed by its
/// declaration.
bool InReg(const VarDecl* v) {
  return v->slot >= 0 && !InShared(*v) && !InPrivateMemory(*v);
}

/// The field a struct member names. Sema resolved it: the base of every
/// non-swizzle `.` is a struct, and of every `->` a pointer to one.
const lang::StructField* Field(const MemberExpr& m) {
  const lang::Type* t = m.base->type;
  if (m.is_arrow) t = t->pointee();
  return t->struct_decl()->FindField(m.member);
}

/// Lowers one function body into its LoweredFunction.
class Lowering {
 public:
  Lowering(const lang::TranslationUnit& tu,
           const std::unordered_map<const FunctionDecl*,
                                    std::unique_ptr<LoweredFunction>>& fns,
           LoweredFunction& out)
      : tu_(tu), fns_(fns), out_(out), fn_(*out.decl),
        slots_(fn_.frame_slots) {}

  void Run() {
    LayOutShared();
    for (const auto& p : fn_.params)
      out_.params.push_back(InReg(p.get()) ? ParamBinding::kRegister
                                           : ParamBinding::kMemory);
    Statement(*fn_.body);
    Emit({.code = OpCode::kReturnEnd});
    out_.regs = slots_ + max_regs_;
    out_.lvs = slots_ + max_lvs_;
  }

 private:
  // -- emission --------------------------------------------------------------
  int Emit(Op op) {
    out_.ops.push_back(op);
    return static_cast<int>(out_.ops.size()) - 1;
  }
  int32_t Here() const { return static_cast<int32_t>(out_.ops.size()); }
  Operand Const(interp::Value v) {
    out_.consts.push_back(std::move(v));
    return ~static_cast<Operand>(out_.consts.size() - 1);
  }
  /// An op that fails with `msg` when reached; returns a placeholder
  /// operand for the code after it, which never runs.
  Operand Fail(std::string msg) {
    out_.messages.push_back(std::move(msg));
    Emit({.code = OpCode::kFail,
          .n = static_cast<int32_t>(out_.messages.size()) - 1});
    return Const(Value::Void());
  }
  int32_t List(const std::vector<Operand>& ops) {
    int32_t at = static_cast<int32_t>(out_.lists.size());
    out_.lists.insert(out_.lists.end(), ops.begin(), ops.end());
    return at;
  }

  // -- temporaries: the lowest free one past the sema slots ------------------
  static int Take(std::vector<bool>& busy, int& max) {
    auto it = std::find(busy.begin(), busy.end(), false);
    int i = static_cast<int>(it - busy.begin());
    if (it == busy.end()) busy.push_back(true); else *it = true;
    max = std::max(max, static_cast<int>(busy.size()));
    return i;
  }
  int NewReg() { return slots_ + Take(regs_busy_, max_regs_); }
  int NewLV() { return slots_ + Take(lvs_busy_, max_lvs_); }
  void Free(Operand o) {
    if (o >= slots_) regs_busy_[o - slots_] = false;
  }
  void FreeLV(int lv) {
    if (lv >= slots_) lvs_busy_[lv - slots_] = false;
  }
  bool IsVarReg(Operand o) const { return o >= 0 && o < slots_; }
  /// `o`, copied to a temporary if it is a variable's register and an
  /// operand evaluated after it, but before `o` is consumed, may write one.
  Operand Protect(Operand o, bool later_clobbers) {
    if (!IsVarReg(o) || !later_clobbers) return o;
    int t = NewReg();
    Emit({.code = OpCode::kMove, .dst = t, .a = o});
    return t;
  }
  static bool AnyClobbers(std::span<const lang::ExprPtr> es) {
    return std::any_of(es.begin(), es.end(),
                       [](const auto& e) { return Clobbers(e.get()); });
  }

  // -- variables -------------------------------------------------------------
  void LayOutShared() {
    if (!fn_.quals.is_kernel) return;
    std::vector<const VarDecl*> vars;
    lang::VisitVarDecls(fn_.body.get(), [&](const VarDecl* v) {
      if (v->quals.space == AddressSpace::kLocal) vars.push_back(v);
    });
    size_t offset = 0;
    for (const VarDecl* v : vars) {
      if (v->quals.is_extern) continue;
      size_t a = std::max<size_t>(v->type->Alignment(), 1);
      offset = (offset + a - 1) / a * a;
      shared_offset_[v] = offset;
      offset += v->type->ByteSize();
    }
    out_.static_shared_bytes = offset;
  }

  // -- statements ------------------------------------------------------------
  struct Loop {
    std::vector<int> breaks, continues;
    int mark = kNoReg;  // the register holding the saved private-stack top
  };

  void Statement(const Stmt& s) {
    Emit({.code = OpCode::kTick});
    switch (s.kind) {
      case StmtKind::kCompound:
        for (const auto& st : s.As<lang::CompoundStmt>()->body)
          Statement(*st);
        return;
      case StmtKind::kDecl:
        for (const auto& v : s.As<lang::DeclStmt>()->vars) Declare(*v);
        return;
      case StmtKind::kExpr:
        Free(Eval(*s.As<lang::ExprStmt>()->expr, /*discard=*/true));
        return;
      case StmtKind::kIf: {
        const auto* i = s.As<lang::IfStmt>();
        int to_else = Branch(*i->cond, false);
        Statement(*i->then_stmt);
        if (i->else_stmt) {
          int to_end = Emit({.code = OpCode::kJump});
          out_.ops[to_else].n = Here();
          Statement(*i->else_stmt);
          out_.ops[to_end].n = Here();
        } else {
          out_.ops[to_else].n = Here();
        }
        return;
      }
      case StmtKind::kFor: {
        const auto* f = s.As<lang::ForStmt>();
        if (f->init) Statement(*f->init);
        int32_t top = OpenLoop(*f->body);
        int exit = f->cond ? Branch(*f->cond, false) : -1;
        Statement(*f->body);
        int32_t next = Here();
        if (f->step) Free(Eval(*f->step, /*discard=*/true));
        Emit({.code = OpCode::kJump, .n = top});
        if (exit >= 0) out_.ops[exit].n = Here();
        CloseLoop(next);
        return;
      }
      case StmtKind::kWhile: {
        const auto* w = s.As<lang::WhileStmt>();
        int32_t top = OpenLoop(*w->body);
        int exit = Branch(*w->cond, false);
        Statement(*w->body);
        Emit({.code = OpCode::kJump, .n = top});
        out_.ops[exit].n = Here();
        CloseLoop(top);
        return;
      }
      case StmtKind::kDo: {
        const auto* d = s.As<lang::DoStmt>();
        int32_t top = OpenLoop(*d->body);
        Statement(*d->body);
        int32_t next = Here();
        out_.ops[Branch(*d->cond, true)].n = top;
        CloseLoop(next);
        return;
      }
      case StmtKind::kReturn: {
        const auto* r = s.As<lang::ReturnStmt>();
        if (r->value) {
          Operand v = Eval(*r->value);
          Emit({.code = OpCode::kReturn, .a = v});
          Free(v);
        } else {
          Emit({.code = OpCode::kReturnVoid});
        }
        return;
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        // Outside a loop the flow leaves the function body, as falling off
        // its end does.
        if (loops_.empty()) {
          Emit({.code = OpCode::kReturnEnd});
        } else {
          Loop& l = loops_.back();
          (s.kind == StmtKind::kBreak ? l.breaks : l.continues)
              .push_back(Emit({.code = OpCode::kJump}));
        }
        return;
      case StmtKind::kEmpty:
        return;
    }
  }

  /// Evaluate `cond`, charge the test, and emit a branch taken when it is
  /// `when`; returns the branch for its target to be patched.
  int Branch(const Expr& cond, bool when) {
    Operand c = Eval(cond);
    int at = Emit({.code = OpCode::kBranch, .flag = when, .a = c});
    Free(c);
    return at;
  }

  /// Enter a loop; returns where each iteration starts. When `body`
  /// declares a local in private memory, the private-stack top is saved
  /// before the first iteration and restored at the start of each, so
  /// every iteration (a `continue` too) reuses the storage the previous
  /// one was given.
  int32_t OpenLoop(const Stmt& body) {
    bool declares = false;
    lang::VisitVarDecls(&body, [&](const VarDecl* v) {
      declares = declares || InPrivateMemory(*v);
    });
    Loop& l = loops_.emplace_back();
    if (declares) {
      l.mark = NewReg();
      Emit({.code = OpCode::kStackSave, .dst = l.mark});
    }
    int32_t top = Here();
    if (declares) Emit({.code = OpCode::kStackRestore, .a = l.mark});
    return top;
  }

  void CloseLoop(int32_t next) {
    for (int j : loops_.back().breaks) out_.ops[j].n = Here();
    for (int j : loops_.back().continues) out_.ops[j].n = next;
    Free(loops_.back().mark);
    loops_.pop_back();
  }

  void Declare(const VarDecl& v) {
    const int32_t slot = v.slot;
    if (v.quals.space == AddressSpace::kLocal) {
      if (v.quals.is_extern) {
        Emit({.code = OpCode::kDeclShared, .flag = 1, .n = slot, .p = &v});
      } else if (auto it = shared_offset_.find(&v);
                 it != shared_offset_.end()) {
        Emit({.code = OpCode::kDeclShared,
              .a = static_cast<Operand>(it->second),
              .n = slot,
              .p = &v});
      } else {
        Fail("unlaid-out shared variable '" + v.name + "'");
      }
      return;
    }
    const lang::Type* t = v.type;
    if (InPrivateMemory(v)) {
      Emit({.code = OpCode::kDeclMem, .n = slot, .p = &v});
      if (!v.init) return;
      if (v.init->kind != ExprKind::kInitList) {
        StoreVar(*v.init, slot, 0, t);
        return;
      }
      if (!t->is_array()) {
        Fail("initializer list on non-array local");
        return;
      }
      const auto& elems = v.init->As<lang::InitListExpr>()->elems;
      size_t esz = t->element()->ByteSize();
      for (size_t i = 0; i < elems.size(); ++i)
        StoreVar(*elems[i], slot, static_cast<Operand>(i * esz), t->element());
      return;
    }
    Operand init;
    if (v.init) {
      init = Eval(*v.init);
    } else {
      // Zero-initialized register (deterministic simulation).
      init = Const(t && t->is_vector()
                       ? interp::Value::Vector(t)
                       : interp::Value::Int(0).ConvertTo(t ? t : Type::IntTy()));
    }
    Emit({.code = OpCode::kInitReg, .a = init, .n = slot, .p = t});
    Free(init);
  }

  void StoreVar(const Expr& e, int32_t slot, Operand offset, Type::Ptr t) {
    Operand v = Eval(e);
    Emit({.code = OpCode::kStoreVar, .a = v, .b = offset, .n = slot, .p = t});
    Free(v);
  }

  // -- expressions -------------------------------------------------------------
  /// Lower `e` and return the operand holding its value. With `discard`,
  /// an assignment, ++/-- or call whose value is unused writes none.
  Operand Eval(const Expr& e, bool discard = false) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const auto* i = e.As<lang::IntLitExpr>();
        if (e.type) return Const(interp::Value::UInt(i->value).ConvertTo(e.type));
        return Const(interp::Value::Int(static_cast<int64_t>(i->value)));
      }
      case ExprKind::kFloatLit: {
        const auto* f = e.As<lang::FloatLitExpr>();
        return Const(interp::Value::Float(
            f->value, f->is_float ? ScalarKind::kFloat : ScalarKind::kDouble));
      }
      case ExprKind::kDeclRef:
        return DeclRef(*e.As<DeclRefExpr>());
      case ExprKind::kStringLit:
        // Format strings are only consumed by printf/assert, which the
        // simulator does not interpret; an opaque handle suffices.
        return Const(interp::Value::Pointer(0, e.type ? e.type : Type::IntTy()));
      case ExprKind::kParen:
        return Eval(*e.As<lang::ParenExpr>()->inner, discard);
      case ExprKind::kUnary:
        return Unary(*e.As<lang::UnaryExpr>(), discard);
      case ExprKind::kBinary:
        return Binary(*e.As<lang::BinaryExpr>(), discard);
      case ExprKind::kAssign:
        return Assign(*e.As<lang::AssignExpr>(), discard);
      case ExprKind::kConditional: {
        const auto* c = e.As<lang::ConditionalExpr>();
        int to_else = Branch(*c->cond, false);
        int dst = NewReg();
        Operand t = Eval(*c->then_expr);
        Emit({.code = OpCode::kMove, .dst = dst, .a = t});
        Free(t);
        int to_end = Emit({.code = OpCode::kJump});
        out_.ops[to_else].n = Here();
        Operand f = Eval(*c->else_expr);
        Emit({.code = OpCode::kMove, .dst = dst, .a = f});
        Free(f);
        out_.ops[to_end].n = Here();
        return dst;
      }
      case ExprKind::kCall:
        return Call(*e.As<CallExpr>(), discard);
      case ExprKind::kIndex: {
        const auto* ix = e.As<lang::IndexExpr>();
        const lang::Type* bt = ix->base->type;
        if (bt && bt->is_vector()) {
          Operand base = Protect(Eval(*ix->base), Clobbers(ix->index.get()));
          Operand idx = Eval(*ix->index);
          return Result(OpCode::kVecIndex, base, idx);
        }
        return Index(*ix, /*read=*/true);
      }
      case ExprKind::kMember:
        return Member(*e.As<MemberExpr>());
      case ExprKind::kCast: {
        const auto* c = e.As<lang::CastExpr>();
        return Result(OpCode::kCast, Eval(*c->operand), kNoReg, c);
      }
      case ExprKind::kInitList:
        return Fail("brace initializer outside a declaration");
      case ExprKind::kSizeof: {
        const auto* s = e.As<lang::SizeofExpr>();
        size_t n = s->arg_type ? s->arg_type->ByteSize()
                               : (s->arg_expr->type
                                      ? s->arg_expr->type->ByteSize()
                                      : 0);
        return Const(interp::Value::UInt(n, ScalarKind::kSizeT));
      }
      case ExprKind::kVectorLit: {
        const auto* v = e.As<lang::VectorLitExpr>();
        return NAry(OpCode::kVectorLit, v->elems, v->elems.size(), v);
      }
    }
    return Fail("unhandled expression kind");
  }

  /// Emit `code` into a fresh register from `a` and `b`, then free them.
  Operand Result(OpCode code, Operand a, Operand b = kNoReg,
                 const void* p = nullptr, uint8_t sub = 0) {
    int dst = NewReg();
    Emit({.code = code, .sub = sub, .dst = dst, .a = a, .b = b, .p = p});
    Free(a);
    Free(b);
    return dst;
  }

  /// Lower the first `count` of `args` in order into an operand list and
  /// emit `code` over it.
  Operand NAry(OpCode code, const std::vector<lang::ExprPtr>& args,
               size_t count, const void* p, bool discard = false) {
    std::vector<Operand> ops;
    for (size_t i = 0; i < count; ++i)
      ops.push_back(Protect(Eval(*args[i]),
                            AnyClobbers({args.data() + i + 1, count - i - 1})));
    int dst = discard ? kNoReg : NewReg();
    Emit({.code = code,
          .dst = dst,
          .c = static_cast<Operand>(count),
          .n = List(ops),
          .p = p});
    for (Operand o : ops) Free(o);
    return dst;
  }

  Operand DeclRef(const DeclRefExpr& r) {
    if (const VarDecl* v = r.var) {
      if (InReg(v)) return v->slot;
      int lv = v->slot;
      if (lv < 0) {
        lv = NewLV();
        Emit({.code = OpCode::kGlobalLV, .dst = lv, .p = v});
      }
      int dst = NewReg();
      // Arrays in memory decay to a pointer to their first element.
      if (v->type && v->type->is_array())
        Emit({.code = OpCode::kDecayLV,
              .dst = dst,
              .a = lv,
              .p = Type::Pointer(v->type->element(), v->quals.space)});
      else
        Emit({.code = OpCode::kReadLV, .dst = dst, .a = lv});
      FreeLV(lv);
      return dst;
    }
    if (r.builtin) {
      switch (r.builtin.op()) {
        case BuiltinOp::kThreadIdx:
        case BuiltinOp::kBlockIdx:
        case BuiltinOp::kBlockDim:
        case BuiltinOp::kGridDim:
        case BuiltinOp::kWarpSize:
          return Result(OpCode::kBuiltinVar, kNoReg, kNoReg, nullptr,
                        static_cast<uint8_t>(r.builtin.op()));
        default:
          return Fail("built-in function '" + r.name + "' used as a value");
      }
    }
    if (r.is_constant) {
      if (auto c = NamedConstantValue(r.name))
        return Const(interp::Value::UInt(*c));
      return Fail("unknown builtin constant '" + r.name + "'");
    }
    for (const auto& d : tu_.decls)
      if (d->kind == lang::DeclKind::kTextureRef && d->name == r.name)
        return Result(OpCode::kTexRef, kNoReg, kNoReg, &r);
    return Fail("unresolved identifier '" + r.name + "'");
  }

  Operand Unary(const lang::UnaryExpr& u, bool discard) {
    switch (u.op) {
      case UnaryOp::kAddrOf: {
        int lv = Location(*u.operand);
        int dst = NewReg();
        Emit({.code = OpCode::kAddrOf,
              .dst = dst,
              .a = lv,
              .p = Type::Pointer(u.operand->type ? u.operand->type
                                                 : Type::IntTy(),
                                 AddressSpace::kPrivate)});
        FreeLV(lv);
        return dst;
      }
      case UnaryOp::kDeref:
        return Result(OpCode::kDeref, Eval(*u.operand));
      case UnaryOp::kPreInc:
      case UnaryOp::kPreDec:
      case UnaryOp::kPostInc:
      case UnaryOp::kPostDec: {
        const VarDecl* v = RegVar(*u.operand);
        int lv = v ? kNoReg : Location(*u.operand);
        int dst = discard ? kNoReg : NewReg();
        if (v)
          Emit({.code = OpCode::kIncDecReg,
                .sub = static_cast<uint8_t>(u.op),
                .dst = dst,
                .n = v->slot,
                .p = v->type});
        else
          Emit({.code = OpCode::kIncDec,
                .sub = static_cast<uint8_t>(u.op),
                .dst = dst,
                .a = lv});
        FreeLV(lv);
        return dst;
      }
      case UnaryOp::kPlus:
        return Eval(*u.operand);
      case UnaryOp::kMinus:
      case UnaryOp::kNot:
      case UnaryOp::kBitNot:
        return Result(OpCode::kUnary, Eval(*u.operand), kNoReg, nullptr,
                      static_cast<uint8_t>(u.op));
    }
    return Fail("unhandled unary operator");
  }

  /// The register variable `e` names, if it names one.
  const VarDecl* RegVar(const Expr& e) const {
    const Expr& s = lang::StripParens(e);
    if (s.kind != ExprKind::kDeclRef) return nullptr;
    const VarDecl* v = s.As<DeclRefExpr>()->var;
    return v && InReg(v) ? v : nullptr;
  }

  Operand Binary(const lang::BinaryExpr& b, bool discard) {
    if (b.op == BinaryOp::kLAnd || b.op == BinaryOp::kLOr) {
      int dst = NewReg();
      Operand l = Eval(*b.lhs);
      int skip = Emit({.code = OpCode::kLogic,
                       .sub = b.op == BinaryOp::kLAnd,
                       .dst = dst,
                       .a = l});
      Free(l);
      Operand r = Eval(*b.rhs);
      Emit({.code = OpCode::kToBool, .dst = dst, .a = r});
      Free(r);
      out_.ops[skip].n = Here();
      return dst;
    }
    if (b.op == BinaryOp::kComma) {
      Free(Eval(*b.lhs, /*discard=*/true));
      return Eval(*b.rhs, discard);
    }
    Operand l = Protect(Eval(*b.lhs), Clobbers(b.rhs.get()));
    Operand r = Eval(*b.rhs);
    return Result(OpCode::kBinary, l, r, nullptr, static_cast<uint8_t>(b.op));
  }

  Operand Assign(const lang::AssignExpr& a, bool discard) {
    Operand rhs = Eval(*a.rhs);
    int dst;
    if (const VarDecl* v = RegVar(*a.lhs)) {
      dst = discard ? kNoReg : NewReg();
      Emit({.code = OpCode::kAssignReg,
            .sub = static_cast<uint8_t>(a.op),
            .flag = a.compound,
            .dst = dst,
            .a = rhs,
            .n = v->slot,
            .p = v->type});
    } else {
      rhs = Protect(rhs, Clobbers(a.lhs.get()));
      int lv = Location(*a.lhs);
      dst = discard ? kNoReg : NewReg();
      Emit({.code = OpCode::kAssign,
            .sub = static_cast<uint8_t>(a.op),
            .flag = a.compound,
            .dst = dst,
            .a = rhs,
            .b = lv});
      FreeLV(lv);
    }
    Free(rhs);
    return dst;
  }

  /// `base[index]` on a pointer or array: the element's location, or with
  /// `read` its value. The index is evaluated before the base, and the
  /// subscript's ALU op is charged between them.
  Operand Index(const lang::IndexExpr& ix, bool read) {
    const lang::Type* bt = ix.base->type;
    Operand idx = Protect(Eval(*ix.index), Clobbers(ix.base.get()));
    if (!ix.type) return Fail("untyped subscript");
    const int charge = Emit({.code = OpCode::kCharge});
    uint8_t flag = read ? kIndexRead : 0;
    Operand base;
    if (bt && bt->is_array()) {
      flag |= kIndexBaseIsLocation;
      base = Location(*ix.base);
    } else {
      base = Eval(*ix.base);
    }
    if (Here() == charge + 1) {
      // The base emitted no op: charge in the subscript op itself.
      out_.ops.pop_back();
      flag |= kIndexCharge;
    }
    int dst = read ? NewReg() : NewLV();
    Emit({.code = OpCode::kIndexLV,
          .flag = flag,
          .dst = dst,
          .a = base,
          .b = idx,
          .p = ix.type});
    if (flag & kIndexBaseIsLocation) FreeLV(base); else Free(base);
    Free(idx);
    return dst;
  }

  /// A struct member or swizzle read. A member of an lvalue is read
  /// through its location; any other base is evaluated once as an
  /// aggregate and the field read from its bytes. `v->xy` swizzles `*v`.
  Operand Member(const MemberExpr& m) {
    if (m.is_swizzle) {
      Operand base = Eval(*m.base);
      if (m.is_arrow) base = Result(OpCode::kDeref, base);
      return Result(OpCode::kSwizzle, base, kNoReg, &m);
    }
    if (!m.is_arrow && !lang::IsAddressable(*m.base))
      return Result(OpCode::kMemberAgg, Eval(*m.base), kNoReg, Field(m));
    int lv = Location(m);
    int dst = NewReg();
    Emit({.code = OpCode::kReadLV, .dst = dst, .a = lv});
    FreeLV(lv);
    return dst;
  }

  // -- calls -----------------------------------------------------------------
  Operand Call(const CallExpr& c, bool discard) {
    // Sema rejects indirect calls, so the callee is a resolved name.
    const DeclRefExpr& ref = *c.callee->As<DeclRefExpr>();
    if (ref.function != nullptr && ref.function->body) {
      const FunctionDecl& fn = *ref.function;
      Emit({.code = OpCode::kCallCheck});
      if (c.args.size() != fn.params.size())
        return Fail("wrong argument count calling '" + fn.name + "'");
      // Arguments are evaluated in the caller's frame, in order.
      std::vector<Operand> ops;
      for (size_t i = 0; i < c.args.size(); ++i)
        ops.push_back(Protect(Eval(*c.args[i]),
                              AnyClobbers({c.args.data() + i + 1,
                                           c.args.size() - i - 1})));
      int dst = discard ? kNoReg : NewReg();
      Emit({.code = OpCode::kCall,
            .dst = dst,
            .c = static_cast<Operand>(ops.size()),
            .n = List(ops),
            .p = fns_.at(&fn).get()});
      for (Operand o : ops) Free(o);
      return dst;
    }
    if (ref.builtin) return Builtin(ref, c, discard);
    return Fail("call to '" + ref.name +
                "', which is declared but never defined");
  }

  Operand Builtin(const DeclRefExpr& ref, const CallExpr& c, bool discard) {
    const lang::BuiltinRef& b = ref.builtin;
    const auto& args = c.args;
    if (b.info->cls == lang::BuiltinClass::kAtomic) return Atomic(ref, c);
    auto all = [&](size_t n) {
      return NAry(OpCode::kBuiltin, args, std::min(n, args.size()), &ref,
                  discard);
    };
    switch (b.op()) {
      case BuiltinOp::kGlobalId:
      case BuiltinOp::kLocalId:
      case BuiltinOp::kGroupId:
      case BuiltinOp::kGlobalSize:
      case BuiltinOp::kLocalSize:
      case BuiltinOp::kNumGroups:
        return Result(OpCode::kWorkItem,
                      args.empty() ? kNoReg : Eval(*args[0]), kNoReg,
                      nullptr, static_cast<uint8_t>(b.op()));
      case BuiltinOp::kWorkDim:
        return Const(interp::Value::UInt(3));
      case BuiltinOp::kGlobalOffset:
        return Const(interp::Value::UInt(0, ScalarKind::kSizeT));
      case BuiltinOp::kBarrier:
      case BuiltinOp::kFence:
      case BuiltinOp::kDeviceFence:
        for (const auto& a : args) Free(Eval(*a, /*discard=*/true));
        if (b.op() == BuiltinOp::kBarrier)
          Emit({.code = OpCode::kBarrier});
        else
          Emit({.code = OpCode::kBuiltin, .c = 0, .p = &ref});
        return Const(interp::Value::Void());
      case BuiltinOp::kReadImage: {
        int desc = Desc(*args[0]);
        Operand sampler = kNoReg;
        if (args.size() == 3)
          sampler = Protect(Eval(*args[1]), Clobbers(args.back().get()));
        Operand coord = Eval(*args.back());
        int dst = NewReg();
        Emit({.code = OpCode::kImageRead,
              .sub = static_cast<uint8_t>(b.elem),
              .dst = dst,
              .a = desc,
              .b = sampler,
              .c = coord});
        Free(desc);
        Free(sampler);
        Free(coord);
        return dst;
      }
      case BuiltinOp::kWriteImage: {
        if (args.size() != 3) return Fail(ref.name + ": expected 3 arguments");
        int desc = Desc(*args[0]);
        Operand coord = Protect(Eval(*args[1]), Clobbers(args[2].get()));
        Operand color = Eval(*args[2]);
        Emit({.code = OpCode::kImageWrite, .a = desc, .b = coord, .c = color});
        Free(desc);
        Free(coord);
        Free(color);
        return Const(interp::Value::Void());
      }
      case BuiltinOp::kTex1D:
      case BuiltinOp::kTex2D:
      case BuiltinOp::kTex3D: {
        int desc = Desc(*args[0]);
        size_t n = std::min<size_t>(args.size(), 4);
        std::vector<Operand> coords;
        for (size_t i = 1; i < n; ++i)
          coords.push_back(Protect(Eval(*args[i]),
                                   AnyClobbers({args.data() + i + 1, n - i - 1})));
        int dst = NewReg();
        Emit({.code = OpCode::kTexFetch,
              .dst = dst,
              .a = desc,
              .c = static_cast<Operand>(coords.size()),
              .n = List(coords),
              .p = &c});
        Free(desc);
        for (Operand o : coords) Free(o);
        return dst;
      }
      case BuiltinOp::kImageWidth:
      case BuiltinOp::kImageHeight:
        return Result(OpCode::kImageSize, Desc(*args[0]), kNoReg, nullptr,
                      static_cast<uint8_t>(b.op()));
      case BuiltinOp::kMakeVector:
        return all(static_cast<size_t>(std::max(b.width, 0)));
      case BuiltinOp::kConvert:
      case BuiltinOp::kAs:
      case BuiltinOp::kVote:
      case BuiltinOp::kBallot:
      case BuiltinOp::kAssert:
        return all(1);
      case BuiltinOp::kVload:
        return all(2);
      case BuiltinOp::kVstore:
        return all(3);
      case BuiltinOp::kClock:
      case BuiltinOp::kClock64:
        return all(0);
      default:
        // Math, integer and the rest: every argument, then the op.
        return all(args.size());
    }
  }

  /// Evaluate an image or texture handle and load its descriptor.
  int Desc(const Expr& handle) {
    Operand img = Eval(handle);
    int desc = NewReg();
    Emit({.code = OpCode::kImageDesc, .dst = desc, .a = img});
    Free(img);
    return desc;
  }

  /// An atomic loads `*p` before it evaluates its operand, and the
  /// compare-exchange operand before the desired value.
  Operand Atomic(const DeclRefExpr& ref, const CallExpr& c) {
    const auto& args = c.args;
    const bool cmpxchg = ref.builtin.op() == BuiltinOp::kAtomicCmpxchg;
    const Expr* operand_e = args.size() > 1 ? args[1].get() : nullptr;
    const Expr* desired_e = cmpxchg && args.size() == 3 ? args[2].get() : nullptr;
    Operand ptr =
        Protect(Eval(*args[0]), Clobbers(operand_e) || Clobbers(desired_e));
    int old = NewReg();
    Emit({.code = OpCode::kAtomicLoad, .dst = old, .a = ptr});
    Operand operand = kNoReg, desired = kNoReg;
    if (operand_e) operand = Protect(Eval(*operand_e), Clobbers(desired_e));
    switch (ref.builtin.op()) {
      case BuiltinOp::kAtomicCmpxchg:
        if (args.size() != 3) return Fail(ref.name + ": expected 3 arguments");
        desired = Eval(*desired_e);
        break;
      case BuiltinOp::kAtomicInc:
      case BuiltinOp::kAtomicDec:
      case BuiltinOp::kAtomicIncWrap:
      case BuiltinOp::kAtomicDecWrap:
      case BuiltinOp::kAtomicAdd:
      case BuiltinOp::kAtomicSub:
      case BuiltinOp::kAtomicXchg:
      case BuiltinOp::kAtomicMin:
      case BuiltinOp::kAtomicMax:
      case BuiltinOp::kAtomicAnd:
      case BuiltinOp::kAtomicOr:
      case BuiltinOp::kAtomicXor:
        break;
      default:
        return Fail("unhandled atomic builtin '" + ref.name + "'");
    }
    int dst = NewReg();
    Emit({.code = OpCode::kAtomicStore,
          .dst = dst,
          .a = ptr,
          .b = old,
          .c = operand,
          .n = desired,
          .p = &ref});
    Free(ptr);
    Free(old);
    Free(operand);
    Free(desired);
    return dst;
  }

  // -- locations -------------------------------------------------------------
  /// Lower the lvalue `e` and return the location holding where it lives.
  int Location(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kDeclRef: {
        const auto* r = e.As<DeclRefExpr>();
        const VarDecl* v = r->var;
        if (v == nullptr) {
          Fail("assignment to non-variable '" + r->name + "'");
          return NewLV();
        }
        int lv = v->slot;
        if (InReg(v)) {
          lv = NewLV();
          Emit({.code = OpCode::kRegLV, .dst = lv, .n = v->slot, .p = v->type});
        } else if (lv < 0) {
          lv = NewLV();
          Emit({.code = OpCode::kGlobalLV, .dst = lv, .p = v});
        }
        return lv;
      }
      case ExprKind::kParen:
        return Location(*e.As<lang::ParenExpr>()->inner);
      case ExprKind::kUnary: {
        const auto* u = e.As<lang::UnaryExpr>();
        if (u->op != UnaryOp::kDeref) break;
        return Pointee(*u->operand, e.type);
      }
      case ExprKind::kIndex: {
        const auto* ix = e.As<lang::IndexExpr>();
        const lang::Type* bt = ix->base->type;
        if (!(bt && bt->is_vector())) return Index(*ix, /*read=*/false);
        // Vector component via dynamic index: v[i].
        int base = Location(*ix->base);
        Operand idx = Eval(*ix->index);
        int lv = NewLV();
        Emit({.code = OpCode::kVecIndexLV,
              .dst = lv,
              .a = base,
              .b = idx,
              .n = bt->vector_width()});
        FreeLV(base);
        Free(idx);
        return lv;
      }
      case ExprKind::kMember: {
        const auto* m = e.As<MemberExpr>();
        const bool arrow = m->is_arrow && !m->is_swizzle;
        // `v->xy` swizzles the location `*v`.
        int base = arrow         ? Eval(*m->base)
                   : m->is_arrow ? Pointee(*m->base, m->base->type->pointee())
                                 : Location(*m->base);
        int lv = NewLV();
        Emit({.code = m->is_swizzle ? OpCode::kSwizzleLV
                      : arrow       ? OpCode::kArrowLV
                                    : OpCode::kDotLV,
              .dst = lv,
              .a = base,
              .p = m->is_swizzle ? static_cast<const void*>(m) : Field(*m)});
        if (arrow) Free(base); else FreeLV(base);
        return lv;
      }
      default:
        break;
    }
    Fail("expression is not assignable");
    return NewLV();
  }

  /// The location `*ptr`, of type `type`.
  int Pointee(const Expr& ptr, const lang::Type* type) {
    Operand p = Eval(ptr);
    int lv = NewLV();
    Emit({.code = OpCode::kDerefLV, .dst = lv, .a = p, .p = type});
    Free(p);
    return lv;
  }

  const lang::TranslationUnit& tu_;
  const std::unordered_map<const FunctionDecl*,
                           std::unique_ptr<LoweredFunction>>& fns_;
  LoweredFunction& out_;
  const FunctionDecl& fn_;
  const int slots_;
  std::vector<bool> regs_busy_, lvs_busy_;
  int max_regs_ = 0, max_lvs_ = 0;
  std::vector<Loop> loops_;
  std::unordered_map<const VarDecl*, size_t> shared_offset_;
};

}  // namespace

Program::Program(const lang::TranslationUnit& tu) {
  for (const auto& d : tu.decls) {
    if (d->kind != lang::DeclKind::kFunction) continue;
    const auto* fn = d->As<FunctionDecl>();
    // A template is never run; only its instantiations are (cpp_lowering.h).
    if (!fn->body || !fn->template_params.empty()) continue;
    auto lowered = std::make_unique<LoweredFunction>();
    lowered->decl = fn;
    fns_.emplace(fn, std::move(lowered));
  }
  for (auto& [fn, lowered] : fns_) Lowering(tu, fns_, *lowered).Run();
}

}  // namespace bridgecl::interp
