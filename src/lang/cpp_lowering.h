// Lowering of CUDA's C++ device features to C (§3.6), run on a parsed
// CUDA unit before sema by interp::Module::Compile and by
// translator::TranslateCudaToOpenCl, so native CUDA and its OpenCL
// translation execute one program.
//
//  * Templates. `f<float>(x)` calls the instantiation `f_float`: a clone
//    of `f` with `float` substituted for its type parameter, made once and
//    placed before the first function, after the instantiations it calls.
//    A call that names no type arguments is an error: nothing deduces
//    them. Templates stay in the unit, but nothing lowers, runs or prints
//    one.
//  * References. A parameter `T& x` becomes `T* x` and its uses `(*x)`;
//    an argument `a` becomes `&a` (sema rejects an `a` that has no
//    address), or `x` when it forwards `(*x)`. A reference parameter on a
//    kernel and a local that shadows one are errors.
#pragma once

#include "lang/ast.h"
#include "support/source_location.h"
#include "support/status.h"

namespace bridgecl::lang {

/// Lower `tu`'s templates and reference parameters in place. A unit with
/// neither costs one scan of its declarations.
Status LowerCppFeatures(TranslationUnit& tu, DiagnosticEngine& diags);

}  // namespace bridgecl::lang
