// Catalog of device-code built-in functions and variables in both dialects:
// which spellings are built-ins, what each one does, and what it becomes in
// the other dialect (§3.3, §3.7, §5). Sema resolves every use once and
// stores the entry on the DeclRefExpr; the interpreter switches on the
// entry's operation and the translators read its counterpart spelling and
// hardware-specific flag. No other code matches built-in spellings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/dialect.h"
#include "lang/type.h"

namespace bridgecl::lang {

enum class BuiltinClass {
  kWorkItem,    // get_global_id / threadIdx ...
  kSync,        // barrier / __syncthreads / mem_fence / __threadfence
  kMath,        // sqrt, exp, fmin, ...
  kIntOps,      // min/max/abs/clamp/__popc/__clz/mul24
  kAtomic,      // atomic_* / atomic*
  kImage,       // read_imagef / write_imagef / tex2D ...
  kVector,      // make_float4, convert_int4, as_float, vload/vstore
  kWarp,        // CUDA __shfl/__all/__any/__ballot  (no OpenCL counterpart)
  kClock,       // CUDA clock()/clock64()            (no OpenCL counterpart)
  kAssert,      // CUDA assert/printf                (no OpenCL counterpart)
};

/// What a built-in does. Spellings with one behaviour share a value:
/// atomic_add, atom_add and atomicAdd are all kAtomicAdd.
enum class BuiltinOp : uint8_t {
  // OpenCL work-item functions.
  kGlobalId, kLocalId, kGroupId, kGlobalSize, kLocalSize, kNumGroups,
  kWorkDim, kGlobalOffset,
  // CUDA built-in variables.
  kThreadIdx, kBlockIdx, kBlockDim, kGridDim, kWarpSize,
  // Synchronization. kFence orders the work-group's view of memory,
  // kDeviceFence the whole device's (__threadfence).
  kBarrier, kFence, kDeviceFence,
  // Math: the entry's host function, elementwise over vectors.
  kMathUnary, kMathBinary, kFma,
  // Integer and selection ops.
  kMin, kMax, kAbs, kClamp, kSelect, kMix, kMul24, kPopcount, kClz,
  // Atomics. kAtomicInc/kAtomicDec are OpenCL's unconditional +-1;
  // kAtomicIncWrap/kAtomicDecWrap are CUDA's wrap against a limit (§3.7).
  kAtomicAdd, kAtomicSub, kAtomicInc, kAtomicDec, kAtomicIncWrap,
  kAtomicDecWrap, kAtomicXchg, kAtomicCmpxchg, kAtomicMin, kAtomicMax,
  kAtomicAnd, kAtomicOr, kAtomicXor,
  // Images and textures.
  kReadImage, kWriteImage, kImageWidth, kImageHeight, kTex1D, kTex2D,
  kTex3D,
  // Vector families: make_T, convert_T, as_T, vloadN, vstoreN.
  kMakeVector, kConvert, kAs, kVload, kVstore,
  // CUDA hardware-specific built-ins, run with single-lane semantics.
  kShfl, kVote, kBallot, kClock, kClock64, kAssert, kPrintf, kProfTrigger,
};

struct BuiltinInfo {
  /// The spelling; for a family, its prefix ("convert_", "vload").
  const char* name;
  BuiltinOp op;
  BuiltinClass cls;
  /// Which dialects expose this spelling.
  bool in_opencl = false;
  bool in_cuda = false;
  /// True for CUDA built-ins with no OpenCL counterpart (Table 3: "no
  /// corresponding functions").
  bool cuda_hw_specific = false;
  /// Fewest arguments the operation reads; sema rejects a call with fewer.
  int min_args = 0;
  /// Spelling in the other dialect (for a family, the prefix that
  /// replaces `name`); empty when the spelling is shared or the construct
  /// has no single counterpart.
  std::string counterpart = "";
  /// Element kind of read_imagef/i/ui.
  ScalarKind elem = ScalarKind::kVoid;
  /// Host function of kMathUnary / kMathBinary entries.
  double (*unary)(double) = nullptr;
  double (*binary)(double, double) = nullptr;

  /// CUDA exposes work-item indices only as variables (threadIdx).
  bool variable() const { return cls == BuiltinClass::kWorkItem && in_cuda; }
  /// CUDA's single-precision math spellings (sqrtf, __expf), its only
  /// CUDA-only math entries, return float whatever the argument type.
  bool float_result() const {
    return cls == BuiltinClass::kMath && !in_opencl;
  }
};

/// One resolved use of a built-in: its entry plus, for family spellings,
/// the element kind and width they name (make_float4: float, 4; vload2:
/// width 2; convert_int: int, width 0 for a scalar). Fixed entries carry
/// their own element kind.
struct BuiltinRef {
  const BuiltinInfo* info = nullptr;
  ScalarKind elem = ScalarKind::kVoid;
  int width = 0;

  explicit operator bool() const { return info != nullptr; }
  BuiltinOp op() const { return info->op; }
};

/// Resolve a spelling in the given dialect: fixed entries, the families
/// make_T (CUDA), convert_T, as_T, vloadN and vstoreN (OpenCL), and in
/// CUDA the wrapper library's "__oc2cu_<OpenCL spelling>" (§5), which
/// resolves to the OpenCL entry. Empty when the spelling is not a built-in.
BuiltinRef FindBuiltin(const std::string& name, Dialect dialect);

/// Every fixed entry and family entry, in catalog order.
const std::vector<BuiltinInfo>& BuiltinCatalog();

/// The spelling `spelling`, resolved to `ref`, takes in the other dialect
/// when the translation is a 1:1 rename; empty when it is not.
std::string CounterpartSpelling(const BuiltinRef& ref,
                                const std::string& spelling);

/// Type of a built-in variable, or of a call with the given argument types.
/// Permissive: never null.
Type::Ptr BuiltinResultType(const BuiltinRef& ref,
                            const std::vector<Type::Ptr>& args);

}  // namespace bridgecl::lang
