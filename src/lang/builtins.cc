#include "lang/builtins.h"

#include <cmath>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "support/strings.h"

namespace bridgecl::lang {
namespace {

using C = BuiltinClass;
using Op = BuiltinOp;

/// CUDA-side spellings of the OpenCL→CUDA wrapper library's device
/// functions: "__oc2cu_read_imagef" has read_imagef's semantics (§5).
constexpr char kWrapperPrefix[] = "__oc2cu_";

enum Dialects { kCL = 1, kCU = 2, kBoth = 3 };

BuiltinInfo Fn(const char* name, Op op, C cls, int dialects, int min_args,
               const char* counterpart = "") {
  BuiltinInfo b{name, op, cls};
  b.in_opencl = dialects & kCL;
  b.in_cuda = dialects & kCU;
  b.min_args = min_args;
  b.counterpart = counterpart;
  return b;
}

BuiltinInfo Unary(const char* name, int dialects, double (*fn)(double),
                  const char* counterpart = "") {
  BuiltinInfo b = Fn(name, Op::kMathUnary, C::kMath, dialects, 1,
                     counterpart);
  b.unary = fn;
  return b;
}

BuiltinInfo Binary(const char* name, int dialects,
                   double (*fn)(double, double),
                   const char* counterpart = "") {
  BuiltinInfo b = Fn(name, Op::kMathBinary, C::kMath, dialects, 2,
                     counterpart);
  b.binary = fn;
  return b;
}

/// An OpenCL built-in the OpenCL→CUDA wrapper library provides as a CUDA
/// device function of the same name under kWrapperPrefix.
BuiltinInfo Wrapped(const char* name, Op op, C cls, int min_args,
                    ScalarKind elem = ScalarKind::kVoid) {
  BuiltinInfo b = Fn(name, op, cls, kCL, min_args);
  b.counterpart = kWrapperPrefix + std::string(name);
  b.elem = elem;
  return b;
}

/// CUDA built-in with no OpenCL counterpart (§3.7, Table 3).
BuiltinInfo Hw(const char* name, Op op, C cls, int min_args) {
  BuiltinInfo b = Fn(name, op, cls, kCU, min_args);
  b.cuda_hw_specific = true;
  return b;
}

double Rsqrt(double x) { return 1.0 / std::sqrt(x); }
double Divide(double a, double b) { return a / b; }

}  // namespace

const std::vector<BuiltinInfo>& BuiltinCatalog() {
  static const std::vector<BuiltinInfo> kCatalog = {
      // ---- work-item functions / variables ----
      Fn("get_global_id", Op::kGlobalId, C::kWorkItem, kCL, 0),
      Fn("get_local_id", Op::kLocalId, C::kWorkItem, kCL, 0, "threadIdx"),
      Fn("get_group_id", Op::kGroupId, C::kWorkItem, kCL, 0, "blockIdx"),
      Fn("get_global_size", Op::kGlobalSize, C::kWorkItem, kCL, 0),
      Fn("get_local_size", Op::kLocalSize, C::kWorkItem, kCL, 0, "blockDim"),
      Fn("get_num_groups", Op::kNumGroups, C::kWorkItem, kCL, 0, "gridDim"),
      Fn("get_work_dim", Op::kWorkDim, C::kWorkItem, kCL, 0),
      Fn("get_global_offset", Op::kGlobalOffset, C::kWorkItem, kCL, 0),
      Fn("threadIdx", Op::kThreadIdx, C::kWorkItem, kCU, 0, "get_local_id"),
      Fn("blockIdx", Op::kBlockIdx, C::kWorkItem, kCU, 0, "get_group_id"),
      Fn("blockDim", Op::kBlockDim, C::kWorkItem, kCU, 0, "get_local_size"),
      Fn("gridDim", Op::kGridDim, C::kWorkItem, kCU, 0, "get_num_groups"),
      Hw("warpSize", Op::kWarpSize, C::kWorkItem, 0),

      // ---- synchronization ----
      Fn("barrier", Op::kBarrier, C::kSync, kCL, 0, "__syncthreads"),
      Fn("mem_fence", Op::kFence, C::kSync, kCL, 0, "__threadfence_block"),
      Fn("read_mem_fence", Op::kFence, C::kSync, kCL, 0,
         "__threadfence_block"),
      Fn("write_mem_fence", Op::kFence, C::kSync, kCL, 0,
         "__threadfence_block"),
      Fn("__syncthreads", Op::kBarrier, C::kSync, kCU, 0, "barrier"),
      Fn("__threadfence", Op::kDeviceFence, C::kSync, kCU, 0, "mem_fence"),
      Fn("__threadfence_block", Op::kFence, C::kSync, kCU, 0, "mem_fence"),

      // ---- math (overloaded by argument type in both models) ----
      Unary("sqrt", kBoth, std::sqrt),
      Unary("rsqrt", kBoth, Rsqrt),
      Unary("cbrt", kBoth, std::cbrt),
      Unary("exp", kBoth, std::exp),
      Unary("exp2", kBoth, std::exp2),
      Unary("log", kBoth, std::log),
      Unary("log2", kBoth, std::log2),
      Unary("log10", kBoth, std::log10),
      Unary("sin", kBoth, std::sin),
      Unary("cos", kBoth, std::cos),
      Unary("tan", kBoth, std::tan),
      Unary("asin", kBoth, std::asin),
      Unary("acos", kBoth, std::acos),
      Unary("atan", kBoth, std::atan),
      Binary("atan2", kBoth, std::atan2),
      Unary("sinh", kBoth, std::sinh),
      Unary("cosh", kBoth, std::cosh),
      Unary("tanh", kBoth, std::tanh),
      Unary("fabs", kBoth, std::fabs),
      Unary("floor", kBoth, std::floor),
      Unary("ceil", kBoth, std::ceil),
      Unary("trunc", kBoth, std::trunc),
      Unary("round", kBoth, std::round),
      Binary("fmin", kBoth, std::fmin),
      Binary("fmax", kBoth, std::fmax),
      Binary("fmod", kBoth, std::fmod),
      Binary("pow", kBoth, std::pow),
      Fn("fma", Op::kFma, C::kMath, kBoth, 3),
      Fn("mad", Op::kFma, C::kMath, kCL, 3, "fma"),
      Unary("native_sin", kCL, std::sin, "__sinf"),
      Unary("native_cos", kCL, std::cos, "__cosf"),
      Unary("native_exp", kCL, std::exp, "__expf"),
      Unary("native_log", kCL, std::log, "__logf"),
      Unary("native_sqrt", kCL, std::sqrt, "sqrtf"),
      Unary("native_rsqrt", kCL, Rsqrt, "rsqrtf"),
      Binary("native_divide", kCL, Divide, "__fdividef"),
      Unary("half_sqrt", kCL, std::sqrt, "sqrtf"),
      // CUDA single-precision spellings.
      Unary("sqrtf", kCU, std::sqrt, "sqrt"),
      Unary("rsqrtf", kCU, Rsqrt, "rsqrt"),
      Unary("expf", kCU, std::exp, "exp"),
      Unary("exp2f", kCU, std::exp2, "exp2"),
      Unary("logf", kCU, std::log, "log"),
      Unary("log2f", kCU, std::log2, "log2"),
      Unary("log10f", kCU, std::log10, "log10"),
      Unary("sinf", kCU, std::sin, "sin"),
      Unary("cosf", kCU, std::cos, "cos"),
      Unary("tanf", kCU, std::tan, "tan"),
      Unary("asinf", kCU, std::asin, "asin"),
      Unary("acosf", kCU, std::acos, "acos"),
      Unary("atanf", kCU, std::atan, "atan"),
      Binary("atan2f", kCU, std::atan2, "atan2"),
      Unary("fabsf", kCU, std::fabs, "fabs"),
      Unary("floorf", kCU, std::floor, "floor"),
      Unary("ceilf", kCU, std::ceil, "ceil"),
      Binary("fminf", kCU, std::fmin, "fmin"),
      Binary("fmaxf", kCU, std::fmax, "fmax"),
      Binary("fmodf", kCU, std::fmod, "fmod"),
      Binary("powf", kCU, std::pow, "pow"),
      Fn("fmaf", Op::kFma, C::kMath, kCU, 3, "fma"),
      Unary("__expf", kCU, std::exp, "native_exp"),
      Unary("__logf", kCU, std::log, "native_log"),
      Unary("__sinf", kCU, std::sin, "native_sin"),
      Unary("__cosf", kCU, std::cos, "native_cos"),
      Binary("__fdividef", kCU, Divide, "native_divide"),

      // ---- integer ops ----
      Fn("min", Op::kMin, C::kIntOps, kBoth, 2),
      Fn("max", Op::kMax, C::kIntOps, kBoth, 2),
      Fn("abs", Op::kAbs, C::kIntOps, kBoth, 1),
      Fn("clamp", Op::kClamp, C::kIntOps, kCL, 3),
      Fn("mix", Op::kMix, C::kIntOps, kCL, 3),
      Fn("select", Op::kSelect, C::kIntOps, kCL, 3),
      Fn("mul24", Op::kMul24, C::kIntOps, kCL, 2, "__mul24"),
      Fn("__mul24", Op::kMul24, C::kIntOps, kCU, 2, "mul24"),
      Fn("__popc", Op::kPopcount, C::kIntOps, kCU, 1, "popcount"),
      Fn("__clz", Op::kClz, C::kIntOps, kCU, 1, "clz"),
      Fn("popcount", Op::kPopcount, C::kIntOps, kCL, 1, "__popc"),
      Fn("clz", Op::kClz, C::kIntOps, kCL, 1, "__clz"),

      // ---- atomics (note §3.7: inc/dec semantics differ) ----
      Fn("atomic_add", Op::kAtomicAdd, C::kAtomic, kCL, 2, "atomicAdd"),
      Fn("atomic_sub", Op::kAtomicSub, C::kAtomic, kCL, 2, "atomicSub"),
      Fn("atomic_inc", Op::kAtomicInc, C::kAtomic, kCL, 1, "atomicInc"),
      Fn("atomic_dec", Op::kAtomicDec, C::kAtomic, kCL, 1, "atomicDec"),
      Fn("atomic_xchg", Op::kAtomicXchg, C::kAtomic, kCL, 2, "atomicExch"),
      Fn("atomic_cmpxchg", Op::kAtomicCmpxchg, C::kAtomic, kCL, 3,
         "atomicCAS"),
      Fn("atomic_min", Op::kAtomicMin, C::kAtomic, kCL, 2, "atomicMin"),
      Fn("atomic_max", Op::kAtomicMax, C::kAtomic, kCL, 2, "atomicMax"),
      Fn("atomic_and", Op::kAtomicAnd, C::kAtomic, kCL, 2, "atomicAnd"),
      Fn("atomic_or", Op::kAtomicOr, C::kAtomic, kCL, 2, "atomicOr"),
      Fn("atomic_xor", Op::kAtomicXor, C::kAtomic, kCL, 2, "atomicXor"),
      Fn("atom_add", Op::kAtomicAdd, C::kAtomic, kCL, 2, "atomicAdd"),
      Fn("atom_inc", Op::kAtomicInc, C::kAtomic, kCL, 1, "atomicInc"),
      Fn("atomicAdd", Op::kAtomicAdd, C::kAtomic, kCU, 2, "atomic_add"),
      Fn("atomicSub", Op::kAtomicSub, C::kAtomic, kCU, 2, "atomic_sub"),
      Fn("atomicInc", Op::kAtomicIncWrap, C::kAtomic, kCU, 2),
      Fn("atomicDec", Op::kAtomicDecWrap, C::kAtomic, kCU, 2),
      Fn("atomicExch", Op::kAtomicXchg, C::kAtomic, kCU, 2, "atomic_xchg"),
      Fn("atomicCAS", Op::kAtomicCmpxchg, C::kAtomic, kCU, 3,
         "atomic_cmpxchg"),
      Fn("atomicMin", Op::kAtomicMin, C::kAtomic, kCU, 2, "atomic_min"),
      Fn("atomicMax", Op::kAtomicMax, C::kAtomic, kCU, 2, "atomic_max"),
      Fn("atomicAnd", Op::kAtomicAnd, C::kAtomic, kCU, 2, "atomic_and"),
      Fn("atomicOr", Op::kAtomicOr, C::kAtomic, kCU, 2, "atomic_or"),
      Fn("atomicXor", Op::kAtomicXor, C::kAtomic, kCU, 2, "atomic_xor"),

      // ---- images / textures (§5) ----
      Wrapped("read_imagef", Op::kReadImage, C::kImage, 2, ScalarKind::kFloat),
      Wrapped("read_imagei", Op::kReadImage, C::kImage, 2, ScalarKind::kInt),
      Wrapped("read_imageui", Op::kReadImage, C::kImage, 2, ScalarKind::kUInt),
      Wrapped("write_imagef", Op::kWriteImage, C::kImage, 3),
      Wrapped("write_imagei", Op::kWriteImage, C::kImage, 3),
      Wrapped("write_imageui", Op::kWriteImage, C::kImage, 3),
      Wrapped("get_image_width", Op::kImageWidth, C::kImage, 1),
      Wrapped("get_image_height", Op::kImageHeight, C::kImage, 1),
      Fn("tex1Dfetch", Op::kTex1D, C::kImage, kCU, 2),
      Fn("tex1D", Op::kTex1D, C::kImage, kCU, 2),
      Fn("tex2D", Op::kTex2D, C::kImage, kCU, 3),
      Fn("tex3D", Op::kTex3D, C::kImage, kCU, 4),

      // ---- vector families, resolved by prefix (class kVector) ----
      Fn("make_", Op::kMakeVector, C::kVector, kCU, 1),
      Wrapped("convert_", Op::kConvert, C::kVector, 1),
      Wrapped("as_", Op::kAs, C::kVector, 1),
      Wrapped("vload", Op::kVload, C::kVector, 2),
      Wrapped("vstore", Op::kVstore, C::kVector, 3),

      // ---- warp-level / hardware-specific CUDA built-ins (§3.7) ----
      Hw("__shfl", Op::kShfl, C::kWarp, 1),
      Hw("__shfl_up", Op::kShfl, C::kWarp, 1),
      Hw("__shfl_down", Op::kShfl, C::kWarp, 1),
      Hw("__shfl_xor", Op::kShfl, C::kWarp, 1),
      Hw("__all", Op::kVote, C::kWarp, 1),
      Hw("__any", Op::kVote, C::kWarp, 1),
      Hw("__ballot", Op::kBallot, C::kWarp, 1),
      Hw("clock", Op::kClock, C::kClock, 0),
      Hw("clock64", Op::kClock64, C::kClock, 0),
      Hw("assert", Op::kAssert, C::kAssert, 1),
      Hw("printf", Op::kPrintf, C::kAssert, 0),
      Hw("__prof_trigger", Op::kProfTrigger, C::kClock, 0),
  };
  return kCatalog;
}

namespace {

/// Entries by name; a family's entry under its prefix.
const std::unordered_map<std::string_view, const BuiltinInfo*>& ByName() {
  static const auto kByName = [] {
    std::unordered_map<std::string_view, const BuiltinInfo*> m;
    for (const BuiltinInfo& b : BuiltinCatalog()) m.emplace(b.name, &b);
    return m;
  }();
  return kByName;
}

/// The type a convert_T / as_T spelling names: a vector type, or one of
/// the OpenCL scalar types (width 0).
bool ParseConversionTarget(const std::string& s, ScalarKind* k, int* w) {
  if (ParseVectorTypeName(s, k, w)) return true;
  for (ScalarKind sk :
       {ScalarKind::kChar, ScalarKind::kUChar, ScalarKind::kShort,
        ScalarKind::kUShort, ScalarKind::kInt, ScalarKind::kUInt,
        ScalarKind::kLong, ScalarKind::kULong, ScalarKind::kFloat,
        ScalarKind::kDouble}) {
    if (s == ScalarName(sk)) {
      *k = sk;
      *w = 0;
      return true;
    }
  }
  return false;
}

}  // namespace

BuiltinRef FindBuiltin(const std::string& name, Dialect dialect) {
  if (dialect == Dialect::kCUDA && StartsWith(name, kWrapperPrefix))
    return FindBuiltin(name.substr(sizeof(kWrapperPrefix) - 1),
                       Dialect::kOpenCL);
  bool opencl = dialect == Dialect::kOpenCL;
  // Family entries (class kVector) match by prefix only.
  if (auto it = ByName().find(name);
      it != ByName().end() && it->second->cls != C::kVector) {
    const BuiltinInfo* b = it->second;
    if (opencl ? b->in_opencl : b->in_cuda) return {b, b->elem, 0};
    return {};
  }
  // Generic families: the prefix, then the type or width it names.
  BuiltinRef ref;
  auto family = [&](const char* prefix, auto parse_rest) {
    const BuiltinInfo* b = ByName().at(prefix);
    if (!(opencl ? b->in_opencl : b->in_cuda) || !StartsWith(name, prefix) ||
        !parse_rest(name.substr(std::strlen(prefix))))
      return false;
    ref.info = b;
    return true;
  };
  auto vector_type = [&](const std::string& s) {
    return ParseVectorTypeName(s, &ref.elem, &ref.width);
  };
  auto conversion = [&](const std::string& s) {
    return ParseConversionTarget(s, &ref.elem, &ref.width);
  };
  auto width = [&](const std::string& s) {
    ScalarKind any;  // vloadN / vstoreN take the pointer's element type
    return ParseVectorTypeName("char" + s, &any, &ref.width);
  };
  if (family("make_", vector_type) || family("convert_", conversion) ||
      family("as_", conversion) || family("vload", width) ||
      family("vstore", width))
    return ref;
  return {};
}

std::string CounterpartSpelling(const BuiltinRef& ref,
                                const std::string& spelling) {
  if (!ref || ref.info->counterpart.empty() ||
      !StartsWith(spelling, ref.info->name))
    return "";
  return ref.info->counterpart + spelling.substr(std::strlen(ref.info->name));
}

Type::Ptr BuiltinResultType(const BuiltinRef& ref,
                            const std::vector<Type::Ptr>& args) {
  auto arg0 = [&]() -> Type::Ptr {
    return !args.empty() && args[0] ? args[0] : Type::FloatTy();
  };
  Op op = ref.op();
  switch (ref.info->cls) {
    case C::kWorkItem:
      if (op == Op::kWarpSize) return Type::IntTy();
      return ref.info->variable() ? Type::Vector(ScalarKind::kUInt, 3)
                                  : Type::SizeTy();
    case C::kSync:
    case C::kAssert:
      return Type::VoidTy();
    case C::kMath: {
      // CUDA *f spellings are float; otherwise follow the argument.
      if (ref.info->float_result()) return Type::FloatTy();
      Type::Ptr a = arg0();
      if (a->is_vector() || a->is_float()) return a;
      return Type::Scalar(ScalarKind::kDouble);
    }
    case C::kIntOps:
      return arg0();
    case C::kAtomic:
      // Atomics return the old value: element type of the pointer arg.
      if (!args.empty() && args[0] && args[0]->is_pointer())
        return args[0]->pointee();
      return Type::IntTy();
    case C::kImage:
      if (op == Op::kReadImage) return Type::Vector(ref.elem, 4);
      if (op == Op::kWriteImage) return Type::VoidTy();
      if (op == Op::kImageWidth || op == Op::kImageHeight)
        return Type::IntTy();
      // tex*: the texture's texel type; sema passes the bound texture
      // reference. Float by default keeps typing sound.
      if (!args.empty() && args[0] && args[0]->is_texture()) {
        if (args[0]->vector_width() == 1)
          return Type::Scalar(args[0]->scalar_kind());
        return Type::Vector(args[0]->scalar_kind(), args[0]->vector_width());
      }
      return Type::FloatTy();
    case C::kVector:
      // Scalar convert_T / as_T and vload/vstore type like their first
      // argument.
      if (op == Op::kVload || op == Op::kVstore || ref.width == 0)
        return arg0();
      return Type::Vector(ref.elem, ref.width);
    case C::kWarp:
      return op == Op::kBallot ? Type::UIntTy()
             : op == Op::kShfl ? arg0()
                               : Type::IntTy();
    case C::kClock:
      return op == Op::kClock64 ? Type::Scalar(ScalarKind::kLongLong)
                                : Type::IntTy();
  }
  return Type::IntTy();
}

}  // namespace bridgecl::lang
