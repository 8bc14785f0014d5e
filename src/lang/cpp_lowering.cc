#include "lang/cpp_lowering.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "support/strings.h"

namespace bridgecl::lang {
namespace {

using Templates = std::unordered_map<std::string, const FunctionDecl*>;

Status Err(DiagnosticEngine& diags, SourceLoc loc, std::string msg) {
  diags.Error(loc, msg);
  return InvalidArgumentError(std::move(msg));
}

bool IsTemplate(const Decl& d) {
  return d.kind == DeclKind::kFunction &&
         !d.As<FunctionDecl>()->template_params.empty();
}

/// `tmpl`, named `name`, with `args` substituted for its type parameters
/// wherever it names a type.
std::unique_ptr<FunctionDecl> Clone(const FunctionDecl& tmpl,
                                    const std::vector<Type::Ptr>& args,
                                    const std::string& name) {
  auto subst = [&](const Type::Ptr& t) -> Type::Ptr {
    if (!t->is_named()) return nullptr;
    for (size_t i = 0; i < args.size(); ++i)
      if (tmpl.template_params[i].name == t->name()) return args[i];
    return nullptr;
  };
  auto fn = std::make_unique<FunctionDecl>();
  fn->loc = tmpl.loc;
  fn->name = name;
  fn->quals = tmpl.quals;
  fn->return_type = ReplaceType(tmpl.return_type, subst);
  fn->return_type_spelling = tmpl.return_type_spelling;
  for (const auto& p : tmpl.params) {
    fn->params.push_back(CloneVarDecl(*p));
    fn->params.back()->type = ReplaceType(p->type, subst);
  }
  fn->param_is_reference = tmpl.param_is_reference;
  if (!tmpl.body) return fn;
  fn->body.reset(static_cast<CompoundStmt*>(CloneStmt(*tmpl.body).release()));
  VisitVarDecls(fn->body.get(),
                [&](VarDecl* v) { v->type = ReplaceType(v->type, subst); });
  // The callback cannot fail, so neither can the walk.
  (void)MutateExprs(fn->body.get(), [&](ExprPtr& e) {
    if (e->kind == ExprKind::kCast) {
      auto* c = e->As<CastExpr>();
      c->target = ReplaceType(c->target, subst);
    } else if (e->kind == ExprKind::kSizeof) {
      auto* s = e->As<SizeofExpr>();
      if (s->arg_type) s->arg_type = ReplaceType(s->arg_type, subst);
    } else if (e->kind == ExprKind::kCall) {
      for (auto& t : e->As<CallExpr>()->type_args) t = ReplaceType(t, subst);
    }
    return OkStatus();
  });
  return fn;
}

/// Retarget each template call in `body`, `f<float, int>(...)`, to its
/// instantiation `f_float_int`. An instantiation is made on first use and
/// appended to `made` after the instantiations its own body calls, so a
/// callee always precedes its callers.
Status Instantiate(Stmt* body, const Templates& templates,
                   std::unordered_set<std::string>& names,
                   std::vector<DeclPtr>& made, DiagnosticEngine& diags) {
  return MutateExprs(body, [&](ExprPtr& e) -> Status {
    if (e->kind != ExprKind::kCall) return OkStatus();
    auto* c = e->As<CallExpr>();
    auto it = templates.find(c->callee_name());
    if (it == templates.end()) return OkStatus();
    const FunctionDecl& tmpl = *it->second;
    const std::string& f = tmpl.name;
    if (c->type_args.empty())
      return Err(diags, c->loc,
                 "call to template '" + f + "' names no type arguments; "
                 "write '" + f + "<T>(...)': template arguments are not "
                 "deduced");
    if (c->type_args.size() != tmpl.template_params.size())
      return Err(diags, c->loc,
                 StrFormat("call to template '%s' names %zu type arguments; "
                           "it takes %zu",
                           f.c_str(), c->type_args.size(),
                           tmpl.template_params.size()));
    std::string name = f;
    for (const auto& t : c->type_args) {
      std::string s = t->ToString();
      for (char& ch : s)
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      name += "_" + s;
    }
    if (names.insert(name).second) {
      auto fn = Clone(tmpl, c->type_args, name);
      BRIDGECL_RETURN_IF_ERROR(
          Instantiate(fn->body.get(), templates, names, made, diags));
      made.push_back(std::move(fn));
    }
    c->callee->As<DeclRefExpr>()->name = std::move(name);
    c->type_args.clear();
    return OkStatus();
  });
}

/// Turn each reference parameter `x` of a function that is not a template
/// into a pointer and its uses into `(*x)`; turn each argument bound to one
/// into its address, `&a`, or into `x` when it forwards a rewritten `(*x)`.
/// Sema rejects an argument whose address cannot be taken.
Status LowerReferences(TranslationUnit& tu, DiagnosticEngine& diags) {
  // Callee name -> which of its parameters were references.
  std::unordered_map<std::string, std::vector<bool>> by_callee;
  for (const auto& d : tu.decls) {
    if (d->kind != DeclKind::kFunction || IsTemplate(*d)) continue;
    auto* f = d->As<FunctionDecl>();
    std::unordered_set<std::string> names;
    for (size_t i = 0; i < f->params.size(); ++i) {
      if (!f->param_is_reference[i]) continue;
      VarDecl& p = *f->params[i];
      if (f->quals.is_kernel)
        return Err(diags, p.loc,
                   "kernel '" + f->name + "' takes parameter '" + p.name +
                       "' by reference; kernel arguments are passed by "
                       "value");
      p.type = Type::Pointer(p.type, AddressSpace::kPrivate);
      names.insert(p.name);
    }
    if (names.empty()) continue;
    by_callee[f->name] = std::exchange(
        f->param_is_reference, std::vector<bool>(f->params.size(), false));
    const VarDecl* shadow = nullptr;
    VisitVarDecls(f->body.get(), [&](VarDecl* v) {
      if (shadow == nullptr && names.count(v->name)) shadow = v;
    });
    if (shadow != nullptr)
      return Err(diags, shadow->loc,
                 "local '" + shadow->name +
                     "' shadows a reference parameter of '" + f->name + "'");
    BRIDGECL_RETURN_IF_ERROR(
        MutateExprs(f->body.get(), [&](ExprPtr& e) -> Status {
          if (e->kind != ExprKind::kDeclRef ||
              !names.count(e->As<DeclRefExpr>()->name))
            return OkStatus();
          auto deref = std::make_unique<UnaryExpr>();
          auto paren = std::make_unique<ParenExpr>();
          deref->loc = paren->loc = e->loc;
          deref->op = UnaryOp::kDeref;
          deref->operand = std::move(e);
          paren->inner = std::move(deref);
          e = std::move(paren);
          return OkStatus();
        }));
  }
  auto pass_address = [&](ExprPtr& e) -> Status {
    if (e->kind != ExprKind::kCall) return OkStatus();
    auto* c = e->As<CallExpr>();
    auto it = by_callee.find(c->callee_name());
    if (it == by_callee.end()) return OkStatus();
    for (size_t i = 0; i < std::min(c->args.size(), it->second.size()); ++i) {
      if (!it->second[i]) continue;
      ExprPtr& a = c->args[i];
      Expr* in = a->kind == ExprKind::kParen ? a->As<ParenExpr>()->inner.get()
                                             : nullptr;
      if (in && in->kind == ExprKind::kUnary &&
          in->As<UnaryExpr>()->op == UnaryOp::kDeref) {
        a = std::move(in->As<UnaryExpr>()->operand);  // &(*x) is x
        continue;
      }
      auto addr = std::make_unique<UnaryExpr>();
      addr->loc = a->loc;
      addr->op = UnaryOp::kAddrOf;
      addr->operand = std::move(a);
      a = std::move(addr);
    }
    return OkStatus();
  };
  for (const auto& d : tu.decls)
    if (d->kind == DeclKind::kFunction && !IsTemplate(*d))
      BRIDGECL_RETURN_IF_ERROR(
          MutateExprs(d->As<FunctionDecl>()->body.get(), pass_address));
  return OkStatus();
}

}  // namespace

Status LowerCppFeatures(TranslationUnit& tu, DiagnosticEngine& diags) {
  Templates templates;
  bool references = false;
  for (const auto& d : tu.decls) {
    if (d->kind != DeclKind::kFunction) continue;
    auto* f = d->As<FunctionDecl>();
    if (IsTemplate(*f)) templates[f->name] = f;
    for (bool r : f->param_is_reference) references = references || r;
  }
  if (!templates.empty()) {
    std::unordered_set<std::string> names;
    std::vector<DeclPtr> made;
    for (const auto& d : tu.decls)
      if (d->kind == DeclKind::kFunction && !IsTemplate(*d))
        BRIDGECL_RETURN_IF_ERROR(Instantiate(
            d->As<FunctionDecl>()->body.get(), templates, names, made, diags));
    auto first = std::ranges::find(tu.decls, DeclKind::kFunction,
                                   [](const DeclPtr& d) { return d->kind; });
    tu.decls.insert(first, std::make_move_iterator(made.begin()),
                    std::make_move_iterator(made.end()));
  }
  return references ? LowerReferences(tu, diags) : OkStatus();
}

}  // namespace bridgecl::lang
