// OpenCL → CUDA device-code translation (§3.4 Figure 2, §3.6, §4, §5).
#include <optional>
#include <set>
#include <unordered_map>

#include "lang/builtins.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/sema.h"
#include "translator/rewrite_util.h"
#include "translator/translate.h"

namespace bridgecl::translator {

using namespace bridgecl::lang;  // NOLINT: rewriters are lang-dense

namespace {

constexpr char kSharedArena[] = "__OC2CU_shared_mem";
constexpr char kConstArena[] = "__OC2CU_const_mem";
/// Size of the dynamic constant arena (Fig 5's MAX_CONST_SIZE). Kept well
/// under the device's 64KB so statically allocated __constant__ variables
/// still fit beside it.
constexpr size_t kConstArenaBytes = 16 * 1024;

Status Untranslatable(DiagnosticEngine& diags, SourceLoc loc,
                      const std::string& what) {
  diags.Error(loc, "untranslatable to CUDA: " + what);
  return UntranslatableError(what);
}

bool IsWideVector(const Type::Ptr& t) {
  return t && t->is_vector() &&
         (t->vector_width() == 8 || t->vector_width() == 16);
}

/// Splice-capable statement rewriting: `fn` may replace one statement with
/// several. Recurses through all statement containers.
using StmtExpander =
    std::function<StatusOr<std::optional<std::vector<StmtPtr>>>(Stmt&)>;

Status ExpandStmts(StmtPtr& slot, const StmtExpander& fn);

Status ExpandInCompound(CompoundStmt& c, const StmtExpander& fn) {
  std::vector<StmtPtr> out;
  out.reserve(c.body.size());
  for (auto& s : c.body) {
    BRIDGECL_RETURN_IF_ERROR(ExpandStmts(s, fn));
    BRIDGECL_ASSIGN_OR_RETURN(auto repl, fn(*s));
    if (repl.has_value()) {
      for (auto& r : *repl) out.push_back(std::move(r));
    } else {
      out.push_back(std::move(s));
    }
  }
  c.body = std::move(out);
  return OkStatus();
}

Status ExpandStmts(StmtPtr& slot, const StmtExpander& fn) {
  if (!slot) return OkStatus();
  switch (slot->kind) {
    case StmtKind::kCompound:
      return ExpandInCompound(*slot->As<CompoundStmt>(), fn);
    case StmtKind::kIf: {
      auto* i = slot->As<IfStmt>();
      BRIDGECL_RETURN_IF_ERROR(ExpandStmts(i->then_stmt, fn));
      BRIDGECL_RETURN_IF_ERROR(ExpandStmts(i->else_stmt, fn));
      return OkStatus();
    }
    case StmtKind::kFor:
      return ExpandStmts(slot->As<ForStmt>()->body, fn);
    case StmtKind::kWhile:
      return ExpandStmts(slot->As<WhileStmt>()->body, fn);
    case StmtKind::kDo:
      return ExpandStmts(slot->As<DoStmt>()->body, fn);
    default:
      return OkStatus();
  }
}

class ClToCu {
 public:
  ClToCu(TranslationUnit& tu, DiagnosticEngine& diags,
         const TranslateOptions& opts)
      : tu_(tu), diags_(diags), opts_(opts) {}

  StatusOr<TranslationResult> Run() {
    BRIDGECL_RETURN_IF_ERROR(ComposeNestedSwizzles());
    BRIDGECL_RETURN_IF_ERROR(CanonicalizeWideSwizzles());
    BRIDGECL_RETURN_IF_ERROR(ExpandVectorStatements());
    BRIDGECL_RETURN_IF_ERROR(RewriteNarrowSwizzles());
    BRIDGECL_RETURN_IF_ERROR(LowerWideVectors());
    BRIDGECL_RETURN_IF_ERROR(RewriteBuiltins());
    BRIDGECL_RETURN_IF_ERROR(RewriteDynamicParams());
    TranslationResult result;
    PrintOptions popts;
    popts.dialect = Dialect::kCUDA;
    result.source = PrintTranslationUnit(tu_, popts);
    result.kernels = std::move(kernels_);
    return result;
  }

 private:
  // ---- pass 0: compose nested swizzles (v.lo.x == v.x) ----
  // The paper's \u00a73.6 example: `v.lo.x` is legal OpenCL but never legal
  // CUDA; composing the component maps first lets the later passes treat
  // every swizzle as a single-level selection.
  Status ComposeNestedSwizzles() {
    auto fix = [&](ExprPtr& e) -> Status {
      if (e->kind != ExprKind::kMember) return OkStatus();
      auto* outer = e->As<MemberExpr>();
      if (!outer->is_swizzle) return OkStatus();
      while (outer->base->kind == ExprKind::kMember &&
             outer->base->As<MemberExpr>()->is_swizzle) {
        auto* inner = outer->base->As<MemberExpr>();
        std::vector<int> composed;
        composed.reserve(outer->swizzle.size());
        for (int i : outer->swizzle) {
          if (i >= static_cast<int>(inner->swizzle.size()))
            return Untranslatable(diags_, e->loc,
                                  "swizzle component out of range");
          composed.push_back(inner->swizzle[i]);
        }
        outer->swizzle = std::move(composed);
        outer->base = std::move(inner->base);
        // Refresh the spelling from the composed indices.
        static const char* kXyzw[] = {"x", "y", "z", "w"};
        std::string spelling;
        bool all_small = true;
        for (int i : outer->swizzle) all_small &= i < 4;
        if (all_small && outer->swizzle.size() <= 4) {
          for (int i : outer->swizzle) spelling += kXyzw[i];
        } else {
          spelling = "s";
          for (int i : outer->swizzle)
            spelling += "0123456789abcdef"[i];
        }
        outer->member = spelling;
        if (outer->base->type && outer->base->type->is_vector()) {
          int n = static_cast<int>(outer->swizzle.size());
          ScalarKind ek = outer->base->type->scalar_kind();
          e->type = n == 1 ? Type::Scalar(ek) : Type::Vector(ek, n);
        }
      }
      return OkStatus();
    };
    return ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), fix);
    });
  }

  // ---- pass 1: canonicalize sN spellings on wide vectors to decimal ----
  Status CanonicalizeWideSwizzles() {
    auto fix = [&](ExprPtr& e) -> Status {
      if (e->kind != ExprKind::kMember) return OkStatus();
      auto* m = e->As<MemberExpr>();
      if (!m->is_swizzle || !IsWideVector(m->base->type)) return OkStatus();
      if (m->swizzle.size() == 1) {
        m->member = "s" + std::to_string(m->swizzle[0]);
      }
      return OkStatus();
    };
    return ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), fix);
    });
  }

  // ---- pass 2: statement-level vector expansion ----
  // Expands (a) multi-component swizzle assignments (v1.lo = v2.lo;) into
  // per-component assignments (§3.6) and (b) arithmetic on 8/16-component
  // vectors, which CUDA cannot express natively.
  Status ExpandVectorStatements() {
    return ForEachBody([&](FunctionDecl& fn) -> Status {
      StmtPtr body(fn.body.release());
      auto st = ExpandStmts(body, [&](Stmt& s) {
        return ExpandOneStmt(s);
      });
      fn.body.reset(static_cast<CompoundStmt*>(body.release()));
      return st;
    });
  }

  StatusOr<std::optional<std::vector<StmtPtr>>> ExpandOneStmt(Stmt& s) {
    // (a) assignment statements.
    if (s.kind == StmtKind::kExpr) {
      Expr* e = s.As<ExprStmt>()->expr.get();
      if (e->kind != ExprKind::kAssign) return std::optional<std::vector<StmtPtr>>();
      auto* a = e->As<AssignExpr>();
      Expr* lhs = a->lhs.get();
      bool lhs_multi_swizzle =
          lhs->kind == ExprKind::kMember &&
          lhs->As<MemberExpr>()->is_swizzle &&
          lhs->As<MemberExpr>()->swizzle.size() > 1;
      bool wide = IsWideVector(lhs->type);
      if (!lhs_multi_swizzle && !wide)
        return std::optional<std::vector<StmtPtr>>();
      if (a->compound)
        return Untranslatable(diags_, e->loc,
                              "compound assignment to a vector swizzle");
      int n = lhs_multi_swizzle
                  ? static_cast<int>(lhs->As<MemberExpr>()->swizzle.size())
                  : lhs->type->vector_width();
      std::vector<StmtPtr> out;
      // Try direct component extraction of the RHS; fall back to a
      // temporary when the RHS is too complex (e.g. contains calls).
      bool direct = !ContainsCall(*a->rhs);
      if (direct) {
        // probe component 0
        ExprPtr probe = ExtractComponent(*a->rhs, 0);
        direct = probe != nullptr;
      }
      std::string tmp_name;
      if (!direct) {
        if (wide)
          return Untranslatable(
              diags_, e->loc,
              "complex expression of 8/16-component vector type");
        tmp_name = "__oc2cu_tmp" + std::to_string(tmp_counter_++);
        auto ds = std::make_unique<DeclStmt>();
        auto var = std::make_unique<VarDecl>();
        var->name = tmp_name;
        var->type = a->rhs->type
                        ? a->rhs->type
                        : Type::Vector(lhs->type->scalar_kind(), n);
        var->init = std::move(a->rhs);
        ds->vars.push_back(std::move(var));
        out.push_back(std::move(ds));
      }
      for (int i = 0; i < n; ++i) {
        ExprPtr lhs_i;
        if (lhs_multi_swizzle) {
          auto* m = lhs->As<MemberExpr>();
          int dst = m->swizzle[i];
          static const char* kXyzw[] = {"x", "y", "z", "w"};
          auto mem = MakeMember(CloneExpr(*m->base),
                                dst < 4 ? kXyzw[dst]
                                        : "s" + std::to_string(dst));
          mem->is_swizzle = true;
          mem->swizzle = {dst};
          lhs_i = std::move(mem);
        } else {
          lhs_i = ExtractComponent(*lhs, i);
          if (!lhs_i)
            return Untranslatable(diags_, e->loc,
                                  "unsupported wide-vector store target");
        }
        ExprPtr rhs_i;
        if (direct) {
          rhs_i = ExtractComponent(*a->rhs, i);
          if (!rhs_i)
            return Untranslatable(diags_, e->loc,
                                  "unsupported vector expression in "
                                  "swizzle assignment");
        } else {
          static const char* kXyzw[] = {"x", "y", "z", "w"};
          auto base_ref = MakeRef(tmp_name);
          base_ref->type = a->rhs ? nullptr : nullptr;  // narrow temp
          auto mem = MakeMember(std::move(base_ref),
                                i < 4 ? kXyzw[i] : "s" + std::to_string(i));
          mem->is_swizzle = true;
          mem->swizzle = {i};
          rhs_i = std::move(mem);
        }
        auto es = std::make_unique<ExprStmt>();
        es->expr = MakeAssign(std::move(lhs_i), std::move(rhs_i));
        out.push_back(std::move(es));
      }
      return std::optional<std::vector<StmtPtr>>(std::move(out));
    }
    // (b) wide-vector declarations with computed initializers.
    if (s.kind == StmtKind::kDecl) {
      auto* d = s.As<DeclStmt>();
      bool needs = false;
      for (auto& v : d->vars) {
        if (!IsWideVector(v->type) || !v->init) continue;
        ExprKind k = v->init->kind;
        // Plain loads/copies survive as struct copies after lowering.
        if (k == ExprKind::kIndex || k == ExprKind::kDeclRef ||
            k == ExprKind::kCall)
          continue;
        needs = true;
      }
      if (!needs) return std::optional<std::vector<StmtPtr>>();
      std::vector<StmtPtr> out;
      for (auto& v : d->vars) {
        ExprPtr init;
        bool expand = IsWideVector(v->type) && v->init &&
                      v->init->kind != ExprKind::kIndex &&
                      v->init->kind != ExprKind::kDeclRef &&
                      v->init->kind != ExprKind::kCall;
        if (expand) init = std::move(v->init);
        auto ds = std::make_unique<DeclStmt>();
        Type::Ptr vt = v->type;
        std::string vname = v->name;
        ds->vars.push_back(std::move(v));
        out.push_back(std::move(ds));
        if (!expand) continue;
        int n = vt->vector_width();
        for (int i = 0; i < n; ++i) {
          ExprPtr rhs_i = ExtractComponent(*init, i);
          if (!rhs_i)
            return Untranslatable(diags_, init->loc,
                                  "unsupported 8/16-component vector "
                                  "initializer");
          auto base_ref = MakeRef(vname);
          base_ref->type = vt;
          auto mem = MakeMember(std::move(base_ref),
                                "s" + std::to_string(i));
          mem->is_swizzle = true;
          mem->swizzle = {i};
          mem->type = Type::Scalar(vt->scalar_kind());
          auto es = std::make_unique<ExprStmt>();
          es->expr = MakeAssign(std::move(mem), std::move(rhs_i));
          out.push_back(std::move(es));
        }
      }
      d->vars.clear();
      return std::optional<std::vector<StmtPtr>>(std::move(out));
    }
    return std::optional<std::vector<StmtPtr>>();
  }

  // ---- pass 3: remaining swizzles on <=4-wide vectors ----
  Status RewriteNarrowSwizzles() {
    auto fix = [&](ExprPtr& e) -> Status {
      if (e->kind == ExprKind::kAssign) {
        Expr* lhs = e->As<AssignExpr>()->lhs.get();
        if (lhs->kind == ExprKind::kMember &&
            lhs->As<MemberExpr>()->is_swizzle &&
            lhs->As<MemberExpr>()->swizzle.size() > 1)
          return Untranslatable(diags_, e->loc,
                                "swizzle assignment nested inside an "
                                "expression");
      }
      if (e->kind != ExprKind::kMember) return OkStatus();
      auto* m = e->As<MemberExpr>();
      if (!m->is_swizzle) return OkStatus();
      const Type* vec =
          m->is_arrow ? m->base->type->pointee() : m->base->type;
      if (IsWideVector(vec)) {
        if (m->swizzle.size() > 1)
          return Untranslatable(diags_, e->loc,
                                "lo/hi/even/odd of an 8/16-component "
                                "vector outside an assignment");
        return OkStatus();  // canonical decimal sN; becomes a struct field
      }
      static const char* kXyzw[] = {"x", "y", "z", "w"};
      if (m->swizzle.size() == 1) {
        // CUDA supports only x/y/z/w spellings; components >= 4 can only
        // come from lowered wide vectors and keep their sN field names.
        if (m->swizzle[0] < 4) m->member = kXyzw[m->swizzle[0]];
        return OkStatus();
      }
      // Multi-component rvalue swizzle: a.lo -> make_float2(a.x, a.y).
      if (ContainsCall(*m->base))
        return Untranslatable(diags_, e->loc,
                              "vector swizzle of a call result");
      ScalarKind ek = vec->scalar_kind();
      int n = static_cast<int>(m->swizzle.size());
      auto call = std::make_unique<CallExpr>();
      call->callee = MakeRef("make_" + VectorTypeName(ek, n));
      for (int idx : m->swizzle) {
        auto mem = MakeMember(CloneExpr(*m->base), kXyzw[idx]);
        mem->is_arrow = m->is_arrow;
        mem->is_swizzle = true;
        mem->swizzle = {idx};
        call->args.push_back(std::move(mem));
      }
      call->type = Type::Vector(ek, n);
      call->loc = e->loc;
      e = std::move(call);
      return OkStatus();
    };
    return ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), fix);
    });
  }

  // ---- pass 4: lower 8/16-component vectors to structs ----
  Status LowerWideVectors() {
    // Collect used wide types.
    std::set<std::pair<ScalarKind, int>> used;
    auto collect = [&](const Type::Ptr& t) -> Type::Ptr {
      if (IsWideVector(t)) used.insert({t->scalar_kind(), t->vector_width()});
      return nullptr;
    };
    BRIDGECL_RETURN_IF_ERROR(ReplaceTypesEverywhere(tu_, collect));
    if (used.empty()) return OkStatus();

    std::unordered_map<std::string, const StructDecl*> structs;
    std::vector<DeclPtr> new_decls;
    for (const auto& [ek, w] : used) {
      auto sd = std::make_unique<StructDecl>();
      sd->is_typedef = true;
      sd->name = "__oc2cu_" + VectorTypeName(ek, w);
      for (int i = 0; i < w; ++i) {
        StructField f;
        f.name = "s" + std::to_string(i);
        f.type = Type::Scalar(ek);
        f.offset = i * ScalarByteSize(ek);
        sd->fields.push_back(std::move(f));
      }
      sd->alignment = ScalarByteSize(ek);
      sd->byte_size = w * ScalarByteSize(ek);
      structs[VectorTypeName(ek, w)] = sd.get();
      new_decls.push_back(std::move(sd));
    }
    auto replace = [&](const Type::Ptr& t) -> Type::Ptr {
      if (!IsWideVector(t)) return nullptr;
      return Type::Struct(
          structs[VectorTypeName(t->scalar_kind(), t->vector_width())]);
    };
    BRIDGECL_RETURN_IF_ERROR(ReplaceTypesEverywhere(tu_, replace));
    // Clear swizzle flags on members whose base is now a struct; they are
    // plain field accesses.
    BRIDGECL_RETURN_IF_ERROR(ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), [&](ExprPtr& e) -> Status {
        if (e->kind == ExprKind::kMember) {
          auto* m = e->As<MemberExpr>();
          if (m->is_swizzle && IsWideVector(m->base->type)) {
            m->is_swizzle = false;
            m->swizzle.clear();
          }
        }
        if (e->kind == ExprKind::kVectorLit &&
            IsWideVector(e->As<VectorLitExpr>()->vec_type))
          return Untranslatable(diags_, e->loc,
                                "8/16-component vector literal outside a "
                                "declaration");
        return OkStatus();
      });
    }));
    for (auto it = new_decls.rbegin(); it != new_decls.rend(); ++it)
      tu_.decls.insert(tu_.decls.begin(), std::move(*it));
    return OkStatus();
  }

  // ---- pass 5: built-in function mapping (§3.3, §3.7, §5) ----
  Status RewriteBuiltins() {
    auto fix = [&](ExprPtr& e) -> Status {
      if (e->kind != ExprKind::kCall) return OkStatus();
      auto* c = e->As<CallExpr>();
      const auto* ref = c->callee->As<DeclRefExpr>();
      const BuiltinRef& builtin = ref->builtin;
      if (!builtin) return OkStatus();
      const std::string& name = ref->name;
      // threadIdx for get_local_id, __oc2cu_convert_int4 for convert_int4.
      const std::string counterpart = CounterpartSpelling(builtin, name);

      auto dim_of = [&]() -> StatusOr<int> {
        if (c->args.size() != 1)
          return Untranslatable(diags_, e->loc,
                                name + " with a non-literal dimension");
        const Expr* a = c->args[0].get();
        while (a->kind == ExprKind::kParen) a = a->As<ParenExpr>()->inner.get();
        if (a->kind != ExprKind::kIntLit)
          return Untranslatable(diags_, e->loc,
                                name + " with a non-literal dimension");
        int d = static_cast<int>(a->As<IntLitExpr>()->value);
        if (d < 0 || d > 2)
          return Untranslatable(diags_, e->loc, name + " dimension > 2");
        return d;
      };
      static const char* kXyz[] = {"x", "y", "z"};
      auto builtin_member = [&](const char* base, int d) {
        auto m = MakeMember(MakeRef(base), kXyz[d]);
        m->is_swizzle = true;
        m->swizzle = {d};
        m->type = Type::UIntTy();
        return m;
      };
      auto uint_paren = [](ExprPtr inner) {
        auto p = std::make_unique<ParenExpr>();
        p->inner = std::move(inner);
        p->type = Type::UIntTy();
        return p;
      };

      switch (builtin.op()) {
        case BuiltinOp::kLocalId:
        case BuiltinOp::kGroupId:
        case BuiltinOp::kLocalSize:
        case BuiltinOp::kNumGroups: {
          BRIDGECL_ASSIGN_OR_RETURN(int d, dim_of());
          e = builtin_member(counterpart.c_str(), d);
          return OkStatus();
        }
        case BuiltinOp::kGlobalId: {
          BRIDGECL_ASSIGN_OR_RETURN(int d, dim_of());
          auto mul = MakeBinary(BinaryOp::kMul, builtin_member("blockIdx", d),
                                builtin_member("blockDim", d));
          e = uint_paren(MakeBinary(BinaryOp::kAdd, std::move(mul),
                                    builtin_member("threadIdx", d)));
          return OkStatus();
        }
        case BuiltinOp::kGlobalSize: {
          BRIDGECL_ASSIGN_OR_RETURN(int d, dim_of());
          e = uint_paren(MakeBinary(BinaryOp::kMul,
                                    builtin_member("gridDim", d),
                                    builtin_member("blockDim", d)));
          return OkStatus();
        }
        case BuiltinOp::kWorkDim:
          e = MakeIntLit(3);
          return OkStatus();
        case BuiltinOp::kGlobalOffset:
          e = MakeIntLit(0);
          return OkStatus();
        case BuiltinOp::kBarrier:
        case BuiltinOp::kFence:
          // The CUDA spellings take no fence flags.
          c->args.clear();
          c->callee = MakeRef(counterpart);
          return OkStatus();
        case BuiltinOp::kAtomicInc:
        case BuiltinOp::kAtomicDec:
          // §3.7: OpenCL atomic_inc has no limit; CUDA atomicInc(p, max)
          // degenerates to it with the maximum limit.
          c->callee = MakeRef(counterpart);
          c->args.push_back(MakeIntLit(0xffffffffu));
          return OkStatus();
        case BuiltinOp::kClamp: {
          if (c->args.size() != 3)
            return Untranslatable(diags_, e->loc, "clamp arity");
          bool flt =
              c->args[0]->type &&
              (c->args[0]->type->is_float() ||
               (c->args[0]->type->is_vector() &&
                IsFloatScalar(c->args[0]->type->scalar_kind())));
          std::vector<ExprPtr> inner_args;
          inner_args.push_back(std::move(c->args[0]));
          inner_args.push_back(std::move(c->args[1]));
          auto inner = MakeCall(flt ? "fmax" : "max", std::move(inner_args));
          std::vector<ExprPtr> outer_args;
          outer_args.push_back(std::move(inner));
          outer_args.push_back(std::move(c->args[2]));
          e = MakeCall(flt ? "fmin" : "min", std::move(outer_args));
          return OkStatus();
        }
        case BuiltinOp::kSelect: {
          if (c->args.size() != 3)
            return Untranslatable(diags_, e->loc, "select arity");
          // Scalar select(a,b,c) -> (c ? b : a); per-component vector
          // selection has no CUDA expression form.
          if (c->args[2]->type && c->args[2]->type->is_vector())
            return Untranslatable(diags_, e->loc,
                                  "vector select() has no CUDA counterpart");
          auto cond = std::make_unique<ConditionalExpr>();
          cond->cond = std::move(c->args[2]);
          cond->then_expr = std::move(c->args[1]);
          cond->else_expr = std::move(c->args[0]);
          auto p = std::make_unique<ParenExpr>();
          p->type = e->type;
          p->inner = std::move(cond);
          e = std::move(p);
          return OkStatus();
        }
        case BuiltinOp::kMix: {
          if (c->args.size() != 3)
            return Untranslatable(diags_, e->loc, "mix arity");
          // mix(a,b,t) -> (a + (b - a) * t)
          ExprPtr a2 = CloneExpr(*c->args[0]);
          auto sub = MakeBinary(BinaryOp::kSub, std::move(c->args[1]),
                                std::move(a2));
          auto psub = std::make_unique<ParenExpr>();
          psub->inner = std::move(sub);
          auto mul = MakeBinary(BinaryOp::kMul, std::move(psub),
                                std::move(c->args[2]));
          auto add = MakeBinary(BinaryOp::kAdd, std::move(c->args[0]),
                                std::move(mul));
          auto p = std::make_unique<ParenExpr>();
          p->inner = std::move(add);
          e = std::move(p);
          return OkStatus();
        }
        case BuiltinOp::kVload:
        case BuiltinOp::kVstore:
          if (builtin.width > 4)
            return Untranslatable(diags_, e->loc,
                                  name + " (8/16-wide vector load/store)");
          break;
        default:
          break;
      }
      // One-to-one renames: fast-math variants, atomics, and the image,
      // conversion and vload/vstore built-ins, which become calls into the
      // CUDA-side wrapper device library (§5).
      if (!counterpart.empty()) c->callee = MakeRef(counterpart);
      return OkStatus();
    };
    return ForEachBody([&](FunctionDecl& fn) {
      return MutateExprs(fn.body.get(), fix);
    });
  }

  // ---- pass 6: dynamic __local / __constant parameters (Fig 5, §4) ----
  Status RewriteDynamicParams() {
    bool any_const_arena = false;
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* fn = d->As<FunctionDecl>();
      if (!fn->quals.is_kernel || fn->body == nullptr) continue;
      KernelTranslationInfo info;
      info.name = fn->name;
      info.original_param_count = static_cast<int>(fn->params.size());
      info.param_roles.assign(fn->params.size(),
                              KernelTranslationInfo::ParamRole::kPlain);
      info.param_is_image.resize(fn->params.size());
      for (size_t i = 0; i < fn->params.size(); ++i)
        info.param_is_image[i] =
            fn->params[i]->type && fn->params[i]->type->is_image();

      std::vector<StmtPtr> prologue;
      std::vector<std::string> local_sizes_so_far;
      std::vector<std::string> const_sizes_so_far;
      bool any_local = false;

      for (size_t i = 0; i < fn->params.size(); ++i) {
        VarDecl* p = fn->params[i].get();
        if (!p->type || !p->type->is_pointer()) continue;
        AddressSpace space = p->type->pointee_space();
        if (space != AddressSpace::kLocal &&
            space != AddressSpace::kConstant)
          continue;
        bool is_local = space == AddressSpace::kLocal;
        info.param_roles[i] =
            is_local ? KernelTranslationInfo::ParamRole::kDynLocalSize
                     : KernelTranslationInfo::ParamRole::kDynConstSize;
        std::string orig = p->name;
        Type::Ptr elem = p->type->pointee();
        // Parameter becomes `size_t <name>__size`.
        std::string size_name = orig + "__size";
        p->name = size_name;
        p->type = Type::SizeTy();
        p->quals = VarQuals{};
        // Body prologue: T* orig = (T*)(<arena> + prior sizes...).
        ExprPtr addr = MakeRef(is_local ? kSharedArena : kConstArena);
        auto& so_far = is_local ? local_sizes_so_far : const_sizes_so_far;
        for (const std::string& sz : so_far) {
          addr = MakeBinary(BinaryOp::kAdd, std::move(addr), MakeRef(sz));
        }
        auto paren = std::make_unique<ParenExpr>();
        paren->inner = std::move(addr);
        auto cast = std::make_unique<CastExpr>();
        cast->style = CastStyle::kCStyle;
        cast->target = Type::Pointer(elem, AddressSpace::kPrivate);
        cast->operand = std::move(paren);
        auto ds = std::make_unique<DeclStmt>();
        auto var = std::make_unique<VarDecl>();
        var->name = orig;
        var->type = Type::Pointer(elem, AddressSpace::kPrivate);
        var->init = std::move(cast);
        ds->vars.push_back(std::move(var));
        prologue.push_back(std::move(ds));
        so_far.push_back(size_name);
        any_local |= is_local;
        any_const_arena |= !is_local;
      }
      if (any_local) {
        // `extern __shared__ char __OC2CU_shared_mem[];` first.
        auto ds = std::make_unique<DeclStmt>();
        auto var = std::make_unique<VarDecl>();
        var->name = kSharedArena;
        var->type = Type::Array(Type::Scalar(ScalarKind::kChar), 0);
        var->quals.space = AddressSpace::kLocal;
        var->quals.space_explicit = true;
        var->quals.is_extern = true;
        ds->vars.push_back(std::move(var));
        prologue.insert(prologue.begin(), std::move(ds));
      }
      for (auto it = prologue.rbegin(); it != prologue.rend(); ++it)
        fn->body->body.insert(fn->body->body.begin(), std::move(*it));
      kernels_.push_back(std::move(info));
    }
    if (any_const_arena) {
      auto var = std::make_unique<VarDecl>();
      var->name = kConstArena;
      var->type =
          Type::Array(Type::Scalar(ScalarKind::kChar), kConstArenaBytes);
      var->quals.space = AddressSpace::kConstant;
      var->quals.space_explicit = true;
      tu_.decls.insert(tu_.decls.begin(), std::move(var));
    }
    return OkStatus();
  }

  Status ForEachBody(const std::function<Status(FunctionDecl&)>& fn) {
    for (auto& d : tu_.decls) {
      if (d->kind != DeclKind::kFunction) continue;
      auto* f = d->As<FunctionDecl>();
      if (f->body) BRIDGECL_RETURN_IF_ERROR(fn(*f));
    }
    return OkStatus();
  }

  TranslationUnit& tu_;
  DiagnosticEngine& diags_;
  TranslateOptions opts_;
  std::vector<KernelTranslationInfo> kernels_;
  int tmp_counter_ = 0;
};

}  // namespace

StatusOr<TranslationResult> TranslateOpenClToCuda(
    const std::string& source, DiagnosticEngine& diags,
    const TranslateOptions& opts) {
  ParseOptions popts;
  popts.dialect = Dialect::kOpenCL;
  BRIDGECL_ASSIGN_OR_RETURN(auto tu,
                            ParseTranslationUnit(source, popts, diags));
  SemaOptions sopts;
  sopts.dialect = Dialect::kOpenCL;
  BRIDGECL_RETURN_IF_ERROR(Analyze(*tu, sopts, diags));
  ClToCu pass(*tu, diags, opts);
  return pass.Run();
}

}  // namespace bridgecl::translator
