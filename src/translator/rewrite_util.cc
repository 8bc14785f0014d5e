#include "translator/rewrite_util.h"

namespace bridgecl::translator {

using namespace bridgecl::lang;  // NOLINT: rewriters are lang-dense

Status MutateStmts(StmtPtr& stmt, const StmtMutator& fn) {
  if (!stmt) return OkStatus();
  switch (stmt->kind) {
    case StmtKind::kCompound:
      for (auto& s : stmt->As<CompoundStmt>()->body)
        BRIDGECL_RETURN_IF_ERROR(MutateStmts(s, fn));
      break;
    case StmtKind::kIf: {
      auto* i = stmt->As<IfStmt>();
      BRIDGECL_RETURN_IF_ERROR(MutateStmts(i->then_stmt, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateStmts(i->else_stmt, fn));
      break;
    }
    case StmtKind::kFor: {
      auto* f = stmt->As<ForStmt>();
      BRIDGECL_RETURN_IF_ERROR(MutateStmts(f->init, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateStmts(f->body, fn));
      break;
    }
    case StmtKind::kWhile:
      BRIDGECL_RETURN_IF_ERROR(MutateStmts(stmt->As<WhileStmt>()->body, fn));
      break;
    case StmtKind::kDo:
      BRIDGECL_RETURN_IF_ERROR(MutateStmts(stmt->As<DoStmt>()->body, fn));
      break;
    default:
      break;
  }
  return fn(stmt);
}

Status ReplaceTypesEverywhere(TranslationUnit& tu, const TypeReplacer& fn) {
  auto fix_var = [&](VarDecl* v) { v->type = ReplaceType(v->type, fn); };
  auto fix_expr = [&](ExprPtr& e) -> Status {
    if (e->kind == ExprKind::kCast) {
      auto* c = e->As<CastExpr>();
      c->target = ReplaceType(c->target, fn);
    } else if (e->kind == ExprKind::kSizeof) {
      auto* s = e->As<SizeofExpr>();
      if (s->arg_type) s->arg_type = ReplaceType(s->arg_type, fn);
    } else if (e->kind == ExprKind::kVectorLit) {
      auto* v = e->As<VectorLitExpr>();
      v->vec_type = ReplaceType(v->vec_type, fn);
    }
    return OkStatus();
  };
  for (auto& d : tu.decls) {
    switch (d->kind) {
      case DeclKind::kVar:
        fix_var(d->As<VarDecl>());
        if (d->As<VarDecl>()->init)
          BRIDGECL_RETURN_IF_ERROR(MutateExprs(d->As<VarDecl>()->init,
                                               fix_expr));
        break;
      case DeclKind::kStruct:
        for (auto& f : d->As<StructDecl>()->fields)
          f.type = ReplaceType(f.type, fn);
        break;
      case DeclKind::kTypedef: {
        auto* td = d->As<TypedefDecl>();
        td->underlying = ReplaceType(td->underlying, fn);
        break;
      }
      case DeclKind::kFunction: {
        auto* f = d->As<FunctionDecl>();
        f->return_type = ReplaceType(f->return_type, fn);
        for (auto& p : f->params) fix_var(p.get());
        VisitVarDecls(f->body.get(), fix_var);
        BRIDGECL_RETURN_IF_ERROR(MutateExprs(f->body.get(), fix_expr));
        break;
      }
      default:
        break;
    }
  }
  return OkStatus();
}

ExprPtr ExtractComponent(const Expr& e, int i) {
  switch (e.kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
      return CloneExpr(e);  // scalar broadcast
    case ExprKind::kDeclRef: {
      if (e.type && e.type->is_vector()) {
        static const char* kXyzw[] = {"x", "y", "z", "w"};
        bool wide = e.type->vector_width() > 4;
        auto m = MakeMember(CloneExpr(e), (!wide && i < 4)
                                              ? kXyzw[i]
                                              : "s" + std::to_string(i));
        m->is_swizzle = true;
        m->swizzle = {i};
        if (e.type) m->type = Type::Scalar(e.type->scalar_kind());
        return m;
      }
      return CloneExpr(e);  // scalar variable broadcast
    }
    case ExprKind::kMember: {
      const auto* m = e.As<MemberExpr>();
      if (m->is_swizzle) {
        if (i >= static_cast<int>(m->swizzle.size())) {
          if (m->swizzle.size() == 1) return CloneExpr(e);  // broadcast
          return nullptr;
        }
        int src = m->swizzle[i];
        ExprPtr base = CloneExpr(*m->base);
        static const char* kXyzw[] = {"x", "y", "z", "w"};
        auto out = MakeMember(std::move(base),
                              src < 4 ? kXyzw[src]
                                      : "s" + std::to_string(src));
        out->is_swizzle = true;
        out->swizzle = {src};
        if (m->base->type)
          out->type = Type::Scalar(m->base->type->scalar_kind());
        return out;
      }
      // Struct member of vector type.
      if (e.type && e.type->is_vector()) {
        static const char* kXyzw[] = {"x", "y", "z", "w"};
        bool wide = e.type->vector_width() > 4;
        auto out = MakeMember(CloneExpr(e), (!wide && i < 4)
                                                ? kXyzw[i]
                                                : "s" + std::to_string(i));
        out->is_swizzle = true;
        out->swizzle = {i};
        out->type = Type::Scalar(e.type->scalar_kind());
        return out;
      }
      return CloneExpr(e);
    }
    case ExprKind::kIndex: {
      if (e.type && e.type->is_vector() && !ContainsCall(e)) {
        static const char* kXyzw[] = {"x", "y", "z", "w"};
        bool wide = e.type->vector_width() > 4;
        auto out = MakeMember(CloneExpr(e), (!wide && i < 4)
                                                ? kXyzw[i]
                                                : "s" + std::to_string(i));
        out->is_swizzle = true;
        out->swizzle = {i};
        out->type = Type::Scalar(e.type->scalar_kind());
        return out;
      }
      return e.type && e.type->is_vector() ? nullptr : CloneExpr(e);
    }
    case ExprKind::kParen: {
      ExprPtr inner = ExtractComponent(*e.As<ParenExpr>()->inner, i);
      if (!inner) return nullptr;
      auto p = std::make_unique<ParenExpr>();
      p->inner = std::move(inner);
      return p;
    }
    case ExprKind::kVectorLit: {
      const auto* v = e.As<VectorLitExpr>();
      if (v->elems.size() == 1) return CloneExpr(*v->elems[0]);
      if (i < static_cast<int>(v->elems.size()))
        return CloneExpr(*v->elems[i]);
      return nullptr;
    }
    case ExprKind::kBinary: {
      const auto* b = e.As<BinaryExpr>();
      ExprPtr l = ExtractComponent(*b->lhs, i);
      ExprPtr r = ExtractComponent(*b->rhs, i);
      if (!l || !r) return nullptr;
      return MakeBinary(b->op, std::move(l), std::move(r));
    }
    case ExprKind::kUnary: {
      const auto* u = e.As<UnaryExpr>();
      if (u->op != UnaryOp::kMinus && u->op != UnaryOp::kPlus &&
          u->op != UnaryOp::kBitNot)
        return nullptr;
      ExprPtr inner = ExtractComponent(*u->operand, i);
      if (!inner) return nullptr;
      auto out = std::make_unique<UnaryExpr>();
      out->op = u->op;
      out->operand = std::move(inner);
      return out;
    }
    case ExprKind::kConditional: {
      const auto* c = e.As<ConditionalExpr>();
      if (ContainsCall(*c->cond)) return nullptr;
      ExprPtr t = ExtractComponent(*c->then_expr, i);
      ExprPtr f = ExtractComponent(*c->else_expr, i);
      if (!t || !f) return nullptr;
      auto out = std::make_unique<ConditionalExpr>();
      out->cond = CloneExpr(*c->cond);
      out->then_expr = std::move(t);
      out->else_expr = std::move(f);
      return out;
    }
    default:
      return nullptr;
  }
}

bool ContainsCall(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kCall:
      return true;
    case ExprKind::kUnary:
      return ContainsCall(*e.As<UnaryExpr>()->operand);
    case ExprKind::kBinary: {
      const auto* b = e.As<BinaryExpr>();
      return ContainsCall(*b->lhs) || ContainsCall(*b->rhs);
    }
    case ExprKind::kAssign: {
      const auto* a = e.As<AssignExpr>();
      return ContainsCall(*a->lhs) || ContainsCall(*a->rhs);
    }
    case ExprKind::kConditional: {
      const auto* c = e.As<ConditionalExpr>();
      return ContainsCall(*c->cond) || ContainsCall(*c->then_expr) ||
             ContainsCall(*c->else_expr);
    }
    case ExprKind::kIndex: {
      const auto* i = e.As<IndexExpr>();
      return ContainsCall(*i->base) || ContainsCall(*i->index);
    }
    case ExprKind::kMember:
      return ContainsCall(*e.As<MemberExpr>()->base);
    case ExprKind::kCast:
      return ContainsCall(*e.As<CastExpr>()->operand);
    case ExprKind::kParen:
      return ContainsCall(*e.As<ParenExpr>()->inner);
    case ExprKind::kInitList: {
      for (const auto& el : e.As<InitListExpr>()->elems)
        if (ContainsCall(*el)) return true;
      return false;
    }
    case ExprKind::kSizeof: {
      const auto* s = e.As<SizeofExpr>();
      return s->arg_expr && ContainsCall(*s->arg_expr);
    }
    case ExprKind::kVectorLit: {
      for (const auto& el : e.As<VectorLitExpr>()->elems)
        if (ContainsCall(*el)) return true;
      return false;
    }
    default:
      return false;
  }
}

}  // namespace bridgecl::translator
