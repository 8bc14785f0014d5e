#include "lang/ast.h"

#include <cassert>

namespace bridgecl::lang {

std::string CallExpr::callee_name() const {
  if (callee && callee->kind == ExprKind::kDeclRef)
    return callee->As<DeclRefExpr>()->name;
  return "";
}

const StructField* StructDecl::FindField(const std::string& n) const {
  for (const StructField& f : fields)
    if (f.name == n) return &f;
  return nullptr;
}

// Referenced from type.cc (layout computed once by sema; see sema.cc).
size_t StructByteSize(const StructDecl* decl) {
  assert(decl != nullptr);
  return decl->byte_size;
}
size_t StructAlignment(const StructDecl* decl) {
  assert(decl != nullptr);
  return decl->alignment;
}

FunctionDecl* TranslationUnit::FindFunction(const std::string& name) {
  for (auto& d : decls)
    if (d->kind == DeclKind::kFunction && d->name == name)
      return d->As<FunctionDecl>();
  return nullptr;
}

const FunctionDecl* TranslationUnit::FindFunction(
    const std::string& name) const {
  for (auto& d : decls)
    if (d->kind == DeclKind::kFunction && d->name == name)
      return d->As<FunctionDecl>();
  return nullptr;
}

std::unique_ptr<IntLitExpr> MakeIntLit(uint64_t v) {
  auto e = std::make_unique<IntLitExpr>();
  e->value = v;
  e->spelling = std::to_string(v);
  return e;
}

std::unique_ptr<DeclRefExpr> MakeRef(std::string name) {
  auto e = std::make_unique<DeclRefExpr>();
  e->name = std::move(name);
  return e;
}

std::unique_ptr<CallExpr> MakeCall(std::string callee,
                                   std::vector<ExprPtr> args) {
  auto e = std::make_unique<CallExpr>();
  e->callee = MakeRef(std::move(callee));
  e->args = std::move(args);
  return e;
}

std::unique_ptr<BinaryExpr> MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<BinaryExpr>();
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

std::unique_ptr<AssignExpr> MakeAssign(ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<AssignExpr>();
  e->compound = false;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

std::unique_ptr<MemberExpr> MakeMember(ExprPtr base, std::string member) {
  auto e = std::make_unique<MemberExpr>();
  e->base = std::move(base);
  e->member = std::move(member);
  return e;
}

ExprPtr CloneExpr(const Expr& e) {
  ExprPtr out;
  switch (e.kind) {
    case ExprKind::kIntLit: {
      auto n = std::make_unique<IntLitExpr>();
      *n = *e.As<IntLitExpr>();
      out = std::move(n);
      break;
    }
    case ExprKind::kFloatLit: {
      auto n = std::make_unique<FloatLitExpr>();
      *n = *e.As<FloatLitExpr>();
      out = std::move(n);
      break;
    }
    case ExprKind::kStringLit: {
      auto n = std::make_unique<StringLitExpr>();
      *n = *e.As<StringLitExpr>();
      out = std::move(n);
      break;
    }
    case ExprKind::kDeclRef: {
      auto n = std::make_unique<DeclRefExpr>();
      *n = *e.As<DeclRefExpr>();
      out = std::move(n);
      break;
    }
    case ExprKind::kUnary: {
      const auto* s = e.As<UnaryExpr>();
      auto n = std::make_unique<UnaryExpr>();
      n->op = s->op;
      if (s->operand) n->operand = CloneExpr(*s->operand);
      out = std::move(n);
      break;
    }
    case ExprKind::kBinary: {
      const auto* s = e.As<BinaryExpr>();
      auto n = std::make_unique<BinaryExpr>();
      n->op = s->op;
      if (s->lhs) n->lhs = CloneExpr(*s->lhs);
      if (s->rhs) n->rhs = CloneExpr(*s->rhs);
      out = std::move(n);
      break;
    }
    case ExprKind::kAssign: {
      const auto* s = e.As<AssignExpr>();
      auto n = std::make_unique<AssignExpr>();
      n->op = s->op;
      n->compound = s->compound;
      if (s->lhs) n->lhs = CloneExpr(*s->lhs);
      if (s->rhs) n->rhs = CloneExpr(*s->rhs);
      out = std::move(n);
      break;
    }
    case ExprKind::kConditional: {
      const auto* s = e.As<ConditionalExpr>();
      auto n = std::make_unique<ConditionalExpr>();
      if (s->cond) n->cond = CloneExpr(*s->cond);
      if (s->then_expr) n->then_expr = CloneExpr(*s->then_expr);
      if (s->else_expr) n->else_expr = CloneExpr(*s->else_expr);
      out = std::move(n);
      break;
    }
    case ExprKind::kCall: {
      const auto* s = e.As<CallExpr>();
      auto n = std::make_unique<CallExpr>();
      if (s->callee) n->callee = CloneExpr(*s->callee);
      for (const auto& a : s->args) n->args.push_back(CloneExpr(*a));
      n->type_args = s->type_args;
      out = std::move(n);
      break;
    }
    case ExprKind::kIndex: {
      const auto* s = e.As<IndexExpr>();
      auto n = std::make_unique<IndexExpr>();
      if (s->base) n->base = CloneExpr(*s->base);
      if (s->index) n->index = CloneExpr(*s->index);
      out = std::move(n);
      break;
    }
    case ExprKind::kMember: {
      const auto* s = e.As<MemberExpr>();
      auto n = std::make_unique<MemberExpr>();
      if (s->base) n->base = CloneExpr(*s->base);
      n->member = s->member;
      n->is_arrow = s->is_arrow;
      n->is_swizzle = s->is_swizzle;
      n->swizzle = s->swizzle;
      out = std::move(n);
      break;
    }
    case ExprKind::kCast: {
      const auto* s = e.As<CastExpr>();
      auto n = std::make_unique<CastExpr>();
      n->style = s->style;
      n->target = s->target;
      n->target_spelling = s->target_spelling;
      if (s->operand) n->operand = CloneExpr(*s->operand);
      out = std::move(n);
      break;
    }
    case ExprKind::kParen: {
      const auto* s = e.As<ParenExpr>();
      auto n = std::make_unique<ParenExpr>();
      if (s->inner) n->inner = CloneExpr(*s->inner);
      out = std::move(n);
      break;
    }
    case ExprKind::kInitList: {
      const auto* s = e.As<InitListExpr>();
      auto n = std::make_unique<InitListExpr>();
      for (const auto& a : s->elems) n->elems.push_back(CloneExpr(*a));
      out = std::move(n);
      break;
    }
    case ExprKind::kSizeof: {
      const auto* s = e.As<SizeofExpr>();
      auto n = std::make_unique<SizeofExpr>();
      n->arg_type = s->arg_type;
      n->type_spelling = s->type_spelling;
      if (s->arg_expr) n->arg_expr = CloneExpr(*s->arg_expr);
      out = std::move(n);
      break;
    }
    case ExprKind::kVectorLit: {
      const auto* s = e.As<VectorLitExpr>();
      auto n = std::make_unique<VectorLitExpr>();
      n->vec_type = s->vec_type;
      for (const auto& a : s->elems) n->elems.push_back(CloneExpr(*a));
      out = std::move(n);
      break;
    }
  }
  out->loc = e.loc;
  out->type = e.type;
  return out;
}

std::unique_ptr<VarDecl> CloneVarDecl(const VarDecl& v) {
  auto n = std::make_unique<VarDecl>();
  n->loc = v.loc;
  n->name = v.name;
  n->type = v.type;
  n->quals = v.quals;
  n->is_param = v.is_param;
  n->type_spelling = v.type_spelling;
  n->address_taken = v.address_taken;
  if (v.init) n->init = CloneExpr(*v.init);
  return n;
}

StmtPtr CloneStmt(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::kCompound: {
      const auto* c = s.As<CompoundStmt>();
      auto n = std::make_unique<CompoundStmt>();
      for (const auto& st : c->body) n->body.push_back(CloneStmt(*st));
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kDecl: {
      const auto* c = s.As<DeclStmt>();
      auto n = std::make_unique<DeclStmt>();
      for (const auto& v : c->vars) n->vars.push_back(CloneVarDecl(*v));
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kExpr: {
      const auto* c = s.As<ExprStmt>();
      auto n = std::make_unique<ExprStmt>();
      if (c->expr) n->expr = CloneExpr(*c->expr);
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kIf: {
      const auto* c = s.As<IfStmt>();
      auto n = std::make_unique<IfStmt>();
      if (c->cond) n->cond = CloneExpr(*c->cond);
      if (c->then_stmt) n->then_stmt = CloneStmt(*c->then_stmt);
      if (c->else_stmt) n->else_stmt = CloneStmt(*c->else_stmt);
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kFor: {
      const auto* c = s.As<ForStmt>();
      auto n = std::make_unique<ForStmt>();
      if (c->init) n->init = CloneStmt(*c->init);
      if (c->cond) n->cond = CloneExpr(*c->cond);
      if (c->step) n->step = CloneExpr(*c->step);
      if (c->body) n->body = CloneStmt(*c->body);
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kWhile: {
      const auto* c = s.As<WhileStmt>();
      auto n = std::make_unique<WhileStmt>();
      if (c->cond) n->cond = CloneExpr(*c->cond);
      if (c->body) n->body = CloneStmt(*c->body);
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kDo: {
      const auto* c = s.As<DoStmt>();
      auto n = std::make_unique<DoStmt>();
      if (c->body) n->body = CloneStmt(*c->body);
      if (c->cond) n->cond = CloneExpr(*c->cond);
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kReturn: {
      const auto* c = s.As<ReturnStmt>();
      auto n = std::make_unique<ReturnStmt>();
      if (c->value) n->value = CloneExpr(*c->value);
      n->loc = s.loc;
      return n;
    }
    case StmtKind::kBreak:
      return std::make_unique<BreakStmt>();
    case StmtKind::kContinue:
      return std::make_unique<ContinueStmt>();
    case StmtKind::kEmpty:
      return std::make_unique<EmptyStmt>();
  }
  return nullptr;
}

const Expr& StripParens(const Expr& e) {
  const Expr* p = &e;
  while (p->kind == ExprKind::kParen) p = p->As<ParenExpr>()->inner.get();
  return *p;
}

bool IsAddressable(const Expr& e) {
  const Expr& s = StripParens(e);
  switch (s.kind) {
    case ExprKind::kDeclRef:
      return s.As<DeclRefExpr>()->var != nullptr;
    case ExprKind::kUnary:
      return s.As<UnaryExpr>()->op == UnaryOp::kDeref;
    case ExprKind::kIndex: {
      const Type* t = s.As<IndexExpr>()->base->type;
      return !(t && t->is_vector());
    }
    case ExprKind::kMember: {
      const auto* m = s.As<MemberExpr>();
      return !m->is_swizzle && (m->is_arrow || IsAddressable(*m->base));
    }
    default:
      return false;
  }
}

Status MutateExprs(ExprPtr& expr, const ExprMutator& fn) {
  if (!expr) return OkStatus();
  switch (expr->kind) {
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kStringLit:
    case ExprKind::kDeclRef:
      break;
    case ExprKind::kUnary:
      BRIDGECL_RETURN_IF_ERROR(
          MutateExprs(expr->As<UnaryExpr>()->operand, fn));
      break;
    case ExprKind::kBinary: {
      auto* b = expr->As<BinaryExpr>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(b->lhs, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(b->rhs, fn));
      break;
    }
    case ExprKind::kAssign: {
      auto* a = expr->As<AssignExpr>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(a->lhs, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(a->rhs, fn));
      break;
    }
    case ExprKind::kConditional: {
      auto* c = expr->As<ConditionalExpr>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(c->cond, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(c->then_expr, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(c->else_expr, fn));
      break;
    }
    case ExprKind::kCall: {
      auto* c = expr->As<CallExpr>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(c->callee, fn));
      for (auto& a : c->args) BRIDGECL_RETURN_IF_ERROR(MutateExprs(a, fn));
      break;
    }
    case ExprKind::kIndex: {
      auto* i = expr->As<IndexExpr>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(i->base, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(i->index, fn));
      break;
    }
    case ExprKind::kMember:
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(expr->As<MemberExpr>()->base, fn));
      break;
    case ExprKind::kCast:
      BRIDGECL_RETURN_IF_ERROR(
          MutateExprs(expr->As<CastExpr>()->operand, fn));
      break;
    case ExprKind::kParen:
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(expr->As<ParenExpr>()->inner, fn));
      break;
    case ExprKind::kInitList:
      for (auto& e : expr->As<InitListExpr>()->elems)
        BRIDGECL_RETURN_IF_ERROR(MutateExprs(e, fn));
      break;
    case ExprKind::kSizeof:
      BRIDGECL_RETURN_IF_ERROR(
          MutateExprs(expr->As<SizeofExpr>()->arg_expr, fn));
      break;
    case ExprKind::kVectorLit:
      for (auto& e : expr->As<VectorLitExpr>()->elems)
        BRIDGECL_RETURN_IF_ERROR(MutateExprs(e, fn));
      break;
  }
  return fn(expr);
}

Status MutateExprs(Stmt* stmt, const ExprMutator& fn) {
  if (stmt == nullptr) return OkStatus();
  switch (stmt->kind) {
    case StmtKind::kCompound:
      for (auto& s : stmt->As<CompoundStmt>()->body)
        BRIDGECL_RETURN_IF_ERROR(MutateExprs(s.get(), fn));
      return OkStatus();
    case StmtKind::kDecl:
      for (auto& v : stmt->As<DeclStmt>()->vars)
        if (v->init) BRIDGECL_RETURN_IF_ERROR(MutateExprs(v->init, fn));
      return OkStatus();
    case StmtKind::kExpr:
      return MutateExprs(stmt->As<ExprStmt>()->expr, fn);
    case StmtKind::kIf: {
      auto* i = stmt->As<IfStmt>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(i->cond, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(i->then_stmt.get(), fn));
      return MutateExprs(i->else_stmt.get(), fn);
    }
    case StmtKind::kFor: {
      auto* f = stmt->As<ForStmt>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(f->init.get(), fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(f->cond, fn));
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(f->step, fn));
      return MutateExprs(f->body.get(), fn);
    }
    case StmtKind::kWhile: {
      auto* w = stmt->As<WhileStmt>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(w->cond, fn));
      return MutateExprs(w->body.get(), fn);
    }
    case StmtKind::kDo: {
      auto* d = stmt->As<DoStmt>();
      BRIDGECL_RETURN_IF_ERROR(MutateExprs(d->body.get(), fn));
      return MutateExprs(d->cond, fn);
    }
    case StmtKind::kReturn:
      return MutateExprs(stmt->As<ReturnStmt>()->value, fn);
    default:
      return OkStatus();
  }
}

void VisitVarDecls(const Stmt* stmt, const VarVisitor& fn) {
  if (stmt == nullptr) return;
  switch (stmt->kind) {
    case StmtKind::kCompound:
      for (const auto& s : stmt->As<CompoundStmt>()->body)
        VisitVarDecls(s.get(), fn);
      return;
    case StmtKind::kDecl:
      for (const auto& v : stmt->As<DeclStmt>()->vars) fn(v.get());
      return;
    case StmtKind::kIf: {
      const auto* i = stmt->As<IfStmt>();
      VisitVarDecls(i->then_stmt.get(), fn);
      VisitVarDecls(i->else_stmt.get(), fn);
      return;
    }
    case StmtKind::kFor: {
      const auto* f = stmt->As<ForStmt>();
      VisitVarDecls(f->init.get(), fn);
      VisitVarDecls(f->body.get(), fn);
      return;
    }
    case StmtKind::kWhile:
      VisitVarDecls(stmt->As<WhileStmt>()->body.get(), fn);
      return;
    case StmtKind::kDo:
      VisitVarDecls(stmt->As<DoStmt>()->body.get(), fn);
      return;
    default:
      return;
  }
}

Type::Ptr ReplaceType(const Type::Ptr& t, const TypeReplacer& fn) {
  if (!t) return t;
  if (Type::Ptr direct = fn(t)) return direct;
  switch (t->kind()) {
    case TypeKind::kPointer: {
      Type::Ptr inner = ReplaceType(t->pointee(), fn);
      if (inner == t->pointee()) return t;
      return Type::Pointer(inner, t->pointee_space());
    }
    case TypeKind::kArray: {
      Type::Ptr inner = ReplaceType(t->element(), fn);
      if (inner == t->element()) return t;
      return Type::Array(inner, t->array_extent());
    }
    default:
      return t;
  }
}

const char* BinaryOpSpelling(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kRem: return "%";
    case BinaryOp::kShl: return "<<";
    case BinaryOp::kShr: return ">>";
    case BinaryOp::kAnd: return "&";
    case BinaryOp::kOr: return "|";
    case BinaryOp::kXor: return "^";
    case BinaryOp::kLAnd: return "&&";
    case BinaryOp::kLOr: return "||";
    case BinaryOp::kEQ: return "==";
    case BinaryOp::kNE: return "!=";
    case BinaryOp::kLT: return "<";
    case BinaryOp::kGT: return ">";
    case BinaryOp::kLE: return "<=";
    case BinaryOp::kGE: return ">=";
    case BinaryOp::kComma: return ",";
  }
  return "?";
}

const char* UnaryOpSpelling(UnaryOp op) {
  switch (op) {
    case UnaryOp::kPlus: return "+";
    case UnaryOp::kMinus: return "-";
    case UnaryOp::kNot: return "!";
    case UnaryOp::kBitNot: return "~";
    case UnaryOp::kPreInc:
    case UnaryOp::kPostInc: return "++";
    case UnaryOp::kPreDec:
    case UnaryOp::kPostDec: return "--";
    case UnaryOp::kDeref: return "*";
    case UnaryOp::kAddrOf: return "&";
  }
  return "?";
}

}  // namespace bridgecl::lang
