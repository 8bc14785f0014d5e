// Shared AST-rewriting machinery for both translation directions, beside
// lang's expression, declaration and type walkers (lang/ast.h): statement
// replacement, whole-unit type substitution, and component extraction for
// swizzle expansion.
#pragma once

#include <functional>

#include "lang/ast.h"
#include "support/status.h"

namespace bridgecl::translator {

/// Visit every statement slot in a tree bottom-up (compound bodies, loop
/// bodies, branches). The callback may replace the statement.
using StmtMutator = std::function<Status(lang::StmtPtr& slot)>;
Status MutateStmts(lang::StmtPtr& stmt, const StmtMutator& fn);

/// Apply `fn` to the declared type of every VarDecl/param/field/cast/sizeof
/// in the translation unit.
Status ReplaceTypesEverywhere(lang::TranslationUnit& tu,
                              const lang::TypeReplacer& fn);

/// Extract component `i` of a vector-typed expression as a scalar
/// expression, duplicating subtrees as needed. Handles DeclRef, Member
/// (incl. swizzles), Index, Paren, VectorLit, literals (broadcast),
/// Binary, Unary, and Conditional. Returns null when the expression is
/// too complex to expand (caller falls back to a temporary).
lang::ExprPtr ExtractComponent(const lang::Expr& e, int i);

/// True if the expression tree contains a call (side effects possible).
bool ContainsCall(const lang::Expr& e);

}  // namespace bridgecl::translator
