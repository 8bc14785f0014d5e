// Dialect-aware source printer: materializes a (possibly rewritten) AST as
// OpenCL C or CUDA C source text. The printer applies the *surface* rules
// of §3.6: address-space qualifier spellings, qualifier position on
// pointers (OpenCL prints pointee-space qualifiers; CUDA omits them), and
// vector-literal syntax ((floatN)(...) vs make_floatN(...)).
#pragma once

#include <string>

#include "lang/ast.h"
#include "lang/dialect.h"

namespace bridgecl::lang {

struct PrintOptions {
  Dialect dialect = Dialect::kOpenCL;
  int indent_width = 2;
};

std::string PrintTranslationUnit(const TranslationUnit& tu,
                                 const PrintOptions& opts);

}  // namespace bridgecl::lang
