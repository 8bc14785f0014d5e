#include "lang/printer.h"

#include <cassert>

#include "support/strings.h"

namespace bridgecl::lang {
namespace {

class Printer {
 public:
  explicit Printer(const PrintOptions& opts) : opts_(opts) {}

  std::string Result() { return std::move(out_); }

  void Emit(const TranslationUnit& tu) {
    for (const auto& d : tu.decls) {
      EmitDecl(*d);
      out_ += "\n";
    }
  }

  void EmitDecl(const Decl& d);
  void EmitStmt(const Stmt& s);
  void EmitExpr(const Expr& e);
  std::string TypeSpelling(const Type::Ptr& t, bool with_space_qual) const;

 private:
  bool IsCL() const { return opts_.dialect == Dialect::kOpenCL; }

  void Line(const std::string& s) {
    Indent();
    out_ += s;
    out_ += "\n";
  }
  void Indent() { out_.append(indent_ * opts_.indent_width, ' '); }

  std::string SpaceQualSpelling(AddressSpace s) const {
    switch (s) {
      case AddressSpace::kPrivate: return "";
      case AddressSpace::kLocal: return IsCL() ? "__local" : "__shared__";
      case AddressSpace::kGlobal: return IsCL() ? "__global" : "__device__";
      case AddressSpace::kConstant:
        return IsCL() ? "__constant" : "__constant__";
    }
    return "";
  }

  std::string ScalarSpelling(ScalarKind k) const {
    switch (k) {
      case ScalarKind::kLongLong: return "long long";
      case ScalarKind::kULongLong: return "unsigned long long";
      case ScalarKind::kUChar: return IsCL() ? "uchar" : "unsigned char";
      case ScalarKind::kUShort: return IsCL() ? "ushort" : "unsigned short";
      case ScalarKind::kUInt: return IsCL() ? "uint" : "unsigned int";
      case ScalarKind::kULong: return IsCL() ? "ulong" : "unsigned long";
      default: return ScalarName(k);
    }
  }

  void EmitVarDecl(const VarDecl& v, bool as_param);
  void EmitFunction(const FunctionDecl& f);
  void EmitStruct(const StructDecl& s);
  void EmitCompound(const CompoundStmt& c);

  PrintOptions opts_;
  std::string out_;
  int indent_ = 0;
};

std::string Printer::TypeSpelling(const Type::Ptr& t,
                                  bool with_space_qual) const {
  if (!t) return "int";
  switch (t->kind()) {
    case TypeKind::kScalar:
      return ScalarSpelling(t->scalar_kind());
    case TypeKind::kVector:
      return VectorTypeName(t->scalar_kind(), t->vector_width());
    case TypeKind::kPointer: {
      std::string out;
      if (IsCL() && with_space_qual &&
          t->pointee_space() != AddressSpace::kPrivate) {
        out += SpaceQualSpelling(t->pointee_space());
        out += " ";
      }
      // Nested pointee never re-emits a space qualifier.
      out += TypeSpelling(t->pointee(), false);
      out += "*";
      return out;
    }
    case TypeKind::kArray:
      // Arrays are printed at the declarator; elsewhere decay to pointer.
      return TypeSpelling(t->element(), false) + "*";
    case TypeKind::kStruct:
      return t->struct_decl() ? t->struct_decl()->name : "struct?";
    case TypeKind::kImage:
      return "image" + std::to_string(t->image_dims()) + "d_t";
    case TypeKind::kSampler:
      return "sampler_t";
    case TypeKind::kTexture:
      return "texture<" +
             (t->vector_width() > 1
                  ? VectorTypeName(t->scalar_kind(), t->vector_width())
                  : std::string(ScalarSpelling(t->scalar_kind()))) +
             ", " + std::to_string(t->image_dims()) + ">";
    case TypeKind::kNamed:
      return t->name();
  }
  return "?";
}

void Printer::EmitVarDecl(const VarDecl& v, bool as_param) {
  // Qualifiers.
  std::string quals;
  if (v.quals.is_extern) quals += "extern ";
  if (v.quals.is_static) quals += "static ";
  if (v.quals.space != AddressSpace::kPrivate) {
    quals += SpaceQualSpelling(v.quals.space);
    quals += " ";
  }
  if (v.quals.read_only && IsCL()) quals += "__read_only ";
  if (v.quals.write_only && IsCL()) quals += "__write_only ";
  if (v.quals.is_const) quals += "const ";
  if (v.quals.is_volatile) quals += "volatile ";

  // Unwrap arrays to find the base type and collect extents.
  Type::Ptr t = v.type;
  std::vector<size_t> extents;
  while (t && t->is_array()) {
    extents.push_back(t->array_extent());
    t = t->element();
  }

  out_ += quals;
  out_ += TypeSpelling(t, /*with_space_qual=*/true);
  out_ += " ";
  if (v.quals.is_restrict && t && t->is_pointer()) {
    out_ += IsCL() ? "restrict " : "__restrict__ ";
  }
  out_ += v.name;
  for (size_t ext : extents) {
    out_ += "[";
    if (ext > 0) out_ += std::to_string(ext);
    out_ += "]";
  }
  if (v.init) {
    out_ += " = ";
    EmitExpr(*v.init);
  }
  (void)as_param;
}

void Printer::EmitStruct(const StructDecl& s) {
  Indent();
  if (s.is_typedef) out_ += "typedef ";
  out_ += "struct";
  if (!s.is_typedef && !s.name.empty()) out_ += " " + s.name;
  out_ += " {\n";
  ++indent_;
  for (const StructField& f : s.fields) {
    Indent();
    Type::Ptr t = f.type;
    std::vector<size_t> extents;
    while (t && t->is_array()) {
      extents.push_back(t->array_extent());
      t = t->element();
    }
    out_ += TypeSpelling(t, true);
    out_ += " " + f.name;
    for (size_t ext : extents) out_ += "[" + std::to_string(ext) + "]";
    out_ += ";\n";
  }
  --indent_;
  Indent();
  out_ += "}";
  if (s.is_typedef) out_ += " " + s.name;
  out_ += ";\n";
}

void Printer::EmitFunction(const FunctionDecl& f) {
  if (!f.template_params.empty()) {
    assert(!IsCL() && "OpenCL output must not contain templates");
    Indent();
    out_ += "template <";
    for (size_t i = 0; i < f.template_params.size(); ++i) {
      if (i) out_ += ", ";
      out_ += "typename " + f.template_params[i].name;
    }
    out_ += ">\n";
  }
  Indent();
  if (f.quals.is_kernel) out_ += IsCL() ? "__kernel " : "__global__ ";
  if (f.quals.is_device && !IsCL()) out_ += "__device__ ";
  out_ += TypeSpelling(f.return_type, false);
  out_ += " " + f.name + "(";
  for (size_t i = 0; i < f.params.size(); ++i) {
    if (i) out_ += ", ";
    EmitVarDecl(*f.params[i], /*as_param=*/true);
    if (i < f.param_is_reference.size() && f.param_is_reference[i]) {
      // References only exist in CUDA output; CU→CL rewrites them away.
      size_t name_pos = out_.rfind(f.params[i]->name);
      if (name_pos != std::string::npos) out_.insert(name_pos, "& ");
    }
  }
  out_ += ")";
  if (!f.body) {
    out_ += ";\n";
    return;
  }
  out_ += " ";
  EmitCompound(*f.body);
}

void Printer::EmitDecl(const Decl& d) {
  switch (d.kind) {
    case DeclKind::kVar:
      Indent();
      EmitVarDecl(*d.As<VarDecl>(), false);
      out_ += ";\n";
      return;
    case DeclKind::kFunction:
      EmitFunction(*d.As<FunctionDecl>());
      return;
    case DeclKind::kStruct:
      EmitStruct(*d.As<StructDecl>());
      return;
    case DeclKind::kTypedef: {
      const auto* td = d.As<TypedefDecl>();
      Line("typedef " + TypeSpelling(td->underlying, true) + " " + td->name +
           ";");
      return;
    }
    case DeclKind::kTextureRef: {
      const auto* t = d.As<TextureRefDecl>();
      std::string elem =
          t->elem_width > 1
              ? VectorTypeName(t->elem, t->elem_width)
              : std::string(ScalarSpelling(t->elem));
      Line("texture<" + elem + ", " + std::to_string(t->dims) +
           ", cudaReadModeElementType> " + t->name + ";");
      return;
    }
    case DeclKind::kParam:
      return;
  }
}

void Printer::EmitCompound(const CompoundStmt& c) {
  out_ += "{\n";
  ++indent_;
  for (const auto& s : c.body) EmitStmt(*s);
  --indent_;
  Indent();
  out_ += "}\n";
}

void Printer::EmitStmt(const Stmt& s) {
  switch (s.kind) {
    case StmtKind::kCompound:
      Indent();
      EmitCompound(*s.As<CompoundStmt>());
      return;
    case StmtKind::kDecl: {
      const auto* d = s.As<DeclStmt>();
      Indent();
      for (size_t i = 0; i < d->vars.size(); ++i) {
        if (i) out_ += ", ";
        if (i == 0) {
          EmitVarDecl(*d->vars[i], false);
        } else {
          // Subsequent declarators share the base type spelling.
          out_ += d->vars[i]->name;
          if (d->vars[i]->init) {
            out_ += " = ";
            EmitExpr(*d->vars[i]->init);
          }
        }
      }
      out_ += ";\n";
      return;
    }
    case StmtKind::kExpr:
      Indent();
      EmitExpr(*s.As<ExprStmt>()->expr);
      out_ += ";\n";
      return;
    case StmtKind::kIf: {
      const auto* i = s.As<IfStmt>();
      Indent();
      out_ += "if (";
      EmitExpr(*i->cond);
      out_ += ") ";
      if (i->then_stmt->kind == StmtKind::kCompound) {
        EmitCompound(*i->then_stmt->As<CompoundStmt>());
      } else {
        out_ += "\n";
        ++indent_;
        EmitStmt(*i->then_stmt);
        --indent_;
      }
      if (i->else_stmt) {
        Indent();
        out_ += "else ";
        if (i->else_stmt->kind == StmtKind::kCompound) {
          EmitCompound(*i->else_stmt->As<CompoundStmt>());
        } else {
          out_ += "\n";
          ++indent_;
          EmitStmt(*i->else_stmt);
          --indent_;
        }
      }
      return;
    }
    case StmtKind::kFor: {
      const auto* f = s.As<ForStmt>();
      Indent();
      out_ += "for (";
      if (f->init) {
        if (f->init->kind == StmtKind::kDecl) {
          const auto* d = f->init->As<DeclStmt>();
          for (size_t i = 0; i < d->vars.size(); ++i) {
            if (i) out_ += ", ";
            if (i == 0) {
              EmitVarDecl(*d->vars[i], false);
            } else {
              out_ += d->vars[i]->name;
              if (d->vars[i]->init) {
                out_ += " = ";
                EmitExpr(*d->vars[i]->init);
              }
            }
          }
        } else if (f->init->kind == StmtKind::kExpr) {
          EmitExpr(*f->init->As<ExprStmt>()->expr);
        }
      }
      out_ += "; ";
      if (f->cond) EmitExpr(*f->cond);
      out_ += "; ";
      if (f->step) EmitExpr(*f->step);
      out_ += ") ";
      if (f->body->kind == StmtKind::kCompound) {
        EmitCompound(*f->body->As<CompoundStmt>());
      } else {
        out_ += "\n";
        ++indent_;
        EmitStmt(*f->body);
        --indent_;
      }
      return;
    }
    case StmtKind::kWhile: {
      const auto* w = s.As<WhileStmt>();
      Indent();
      out_ += "while (";
      EmitExpr(*w->cond);
      out_ += ") ";
      if (w->body->kind == StmtKind::kCompound) {
        EmitCompound(*w->body->As<CompoundStmt>());
      } else {
        out_ += "\n";
        ++indent_;
        EmitStmt(*w->body);
        --indent_;
      }
      return;
    }
    case StmtKind::kDo: {
      const auto* d = s.As<DoStmt>();
      Indent();
      out_ += "do ";
      if (d->body->kind == StmtKind::kCompound) {
        EmitCompound(*d->body->As<CompoundStmt>());
        out_.pop_back();  // drop newline to append while
        out_ += " ";
      } else {
        out_ += "\n";
        ++indent_;
        EmitStmt(*d->body);
        --indent_;
        Indent();
      }
      out_ += "while (";
      EmitExpr(*d->cond);
      out_ += ");\n";
      return;
    }
    case StmtKind::kReturn: {
      const auto* r = s.As<ReturnStmt>();
      Indent();
      out_ += "return";
      if (r->value) {
        out_ += " ";
        EmitExpr(*r->value);
      }
      out_ += ";\n";
      return;
    }
    case StmtKind::kBreak:
      Line("break;");
      return;
    case StmtKind::kContinue:
      Line("continue;");
      return;
    case StmtKind::kEmpty:
      Line(";");
      return;
  }
}

void Printer::EmitExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit: {
      const auto* i = e.As<IntLitExpr>();
      out_ += i->spelling.empty() ? std::to_string(i->value) : i->spelling;
      return;
    }
    case ExprKind::kFloatLit: {
      const auto* f = e.As<FloatLitExpr>();
      if (!f->spelling.empty()) {
        out_ += f->spelling;
      } else {
        out_ += std::to_string(f->value);
        if (f->is_float) out_ += "f";
      }
      return;
    }
    case ExprKind::kDeclRef:
      out_ += e.As<DeclRefExpr>()->name;
      return;
    case ExprKind::kStringLit:
      out_ += e.As<StringLitExpr>()->spelling;
      return;
    case ExprKind::kUnary: {
      const auto* u = e.As<UnaryExpr>();
      if (u->op == UnaryOp::kPostInc || u->op == UnaryOp::kPostDec) {
        EmitExpr(*u->operand);
        out_ += UnaryOpSpelling(u->op);
      } else {
        out_ += UnaryOpSpelling(u->op);
        EmitExpr(*u->operand);
      }
      return;
    }
    case ExprKind::kBinary: {
      const auto* b = e.As<BinaryExpr>();
      EmitExpr(*b->lhs);
      if (b->op == BinaryOp::kComma) {
        out_ += ", ";
      } else {
        out_ += " ";
        out_ += BinaryOpSpelling(b->op);
        out_ += " ";
      }
      EmitExpr(*b->rhs);
      return;
    }
    case ExprKind::kAssign: {
      const auto* a = e.As<AssignExpr>();
      EmitExpr(*a->lhs);
      out_ += " ";
      if (a->compound) out_ += BinaryOpSpelling(a->op);
      out_ += "= ";
      EmitExpr(*a->rhs);
      return;
    }
    case ExprKind::kConditional: {
      const auto* c = e.As<ConditionalExpr>();
      EmitExpr(*c->cond);
      out_ += " ? ";
      EmitExpr(*c->then_expr);
      out_ += " : ";
      EmitExpr(*c->else_expr);
      return;
    }
    case ExprKind::kCall: {
      const auto* c = e.As<CallExpr>();
      EmitExpr(*c->callee);
      if (!c->type_args.empty()) {
        out_ += "<";
        for (size_t i = 0; i < c->type_args.size(); ++i) {
          if (i) out_ += ", ";
          out_ += TypeSpelling(c->type_args[i], false);
        }
        out_ += ">";
      }
      out_ += "(";
      for (size_t i = 0; i < c->args.size(); ++i) {
        if (i) out_ += ", ";
        EmitExpr(*c->args[i]);
      }
      out_ += ")";
      return;
    }
    case ExprKind::kIndex: {
      const auto* i = e.As<IndexExpr>();
      EmitExpr(*i->base);
      out_ += "[";
      EmitExpr(*i->index);
      out_ += "]";
      return;
    }
    case ExprKind::kMember: {
      const auto* m = e.As<MemberExpr>();
      EmitExpr(*m->base);
      out_ += m->is_arrow ? "->" : ".";
      out_ += m->member;
      return;
    }
    case ExprKind::kCast: {
      const auto* c = e.As<CastExpr>();
      std::string spelled = c->target_spelling.empty()
                                ? TypeSpelling(c->target, false)
                                : c->target_spelling +
                                      (c->target && c->target->is_pointer()
                                           ? "*"
                                           : "");
      // Prefer structural spelling; target_spelling preserves typedef
      // names but may omit pointer decoration, so fall back carefully.
      spelled = TypeSpelling(c->target, false);
      switch (c->style) {
        case CastStyle::kCStyle: {
          // A C cast binds tighter than a binary operator, so an operand
          // that came from a C++ cast, `reinterpret_cast<T>(a + b)`, or a
          // call argument keeps its own parentheses.
          const ExprKind k = c->operand->kind;
          const bool paren = k == ExprKind::kBinary ||
                             k == ExprKind::kAssign ||
                             k == ExprKind::kConditional;
          out_ += "(" + spelled + ")" + (paren ? "(" : "");
          EmitExpr(*c->operand);
          if (paren) out_ += ")";
          return;
        }
        case CastStyle::kStatic:
          out_ += "static_cast<" + spelled + ">(";
          EmitExpr(*c->operand);
          out_ += ")";
          return;
        case CastStyle::kReinterpret:
          out_ += "reinterpret_cast<" + spelled + ">(";
          EmitExpr(*c->operand);
          out_ += ")";
          return;
        case CastStyle::kConst:
          out_ += "const_cast<" + spelled + ">(";
          EmitExpr(*c->operand);
          out_ += ")";
          return;
      }
      return;
    }
    case ExprKind::kParen: {
      out_ += "(";
      EmitExpr(*e.As<ParenExpr>()->inner);
      out_ += ")";
      return;
    }
    case ExprKind::kInitList: {
      const auto* l = e.As<InitListExpr>();
      out_ += "{";
      for (size_t i = 0; i < l->elems.size(); ++i) {
        if (i) out_ += ", ";
        EmitExpr(*l->elems[i]);
      }
      out_ += "}";
      return;
    }
    case ExprKind::kSizeof: {
      const auto* s = e.As<SizeofExpr>();
      out_ += "sizeof(";
      if (s->arg_type)
        out_ += TypeSpelling(s->arg_type, false);
      else
        EmitExpr(*s->arg_expr);
      out_ += ")";
      return;
    }
    case ExprKind::kVectorLit: {
      const auto* v = e.As<VectorLitExpr>();
      std::string tname = VectorTypeName(v->vec_type->scalar_kind(),
                                         v->vec_type->vector_width());
      if (IsCL()) {
        out_ += "(" + tname + ")(";
      } else {
        out_ += "make_" + tname + "(";
      }
      for (size_t i = 0; i < v->elems.size(); ++i) {
        if (i) out_ += ", ";
        EmitExpr(*v->elems[i]);
      }
      out_ += ")";
      return;
    }
  }
}

}  // namespace

std::string PrintTranslationUnit(const TranslationUnit& tu,
                                 const PrintOptions& opts) {
  Printer p(opts);
  p.Emit(tu);
  return p.Result();
}

}  // namespace bridgecl::lang
