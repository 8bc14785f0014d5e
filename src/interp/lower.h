// Device functions lowered for the executor (executor.cc). When a module
// is compiled, every device function with a body is lowered once to flat
// code: an array of ops over the function's frame. The functions are C:
// lang::LowerCppFeatures (lang/cpp_lowering.h) already instantiated CUDA's
// templates and turned its reference parameters into pointers, and a
// template itself is never lowered. A frame holds
// registers (Values) and locations (where an lvalue lives); the first
// FunctionDecl::frame_slots of each are the parameters and locals that
// sema numbered, the rest temporaries that each statement reuses.
//
// Lowering fixes everything that does not depend on the values a
// work-item computes: which variables live in registers, the static
// __local layout, the texture references and built-in entries a call
// names, and jump targets. The ops keep the source's evaluation order:
// each operand, charge, memory access and fault-plan consult happens in
// the order and number docs/PERFORMANCE.md pins, so every simulated
// observable is fixed by the kernel, not by the executor. Lowering never
// fails: a construct that can only fail when reached lowers to a kFail op
// that fails with its message there. Every failing op ends its work-item.
//
// A struct member is resolved here to the field sema found: a member of
// an lvalue (a variable, `*p`, a subscript, `->`, or a member of one) is
// read through its location, and any other base (a call, `?:`, a cast)
// is evaluated once as an aggregate and the field read from its bytes.
// A swizzle through `->` (`v->xy`) swizzles `*v`. A loop whose body
// declares a private array, struct or address-taken local saves the
// private-stack top before its first iteration and restores it at the top
// of each, so each iteration reuses the storage the previous one was
// given.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/value.h"
#include "lang/ast.h"

namespace bridgecl::interp {

/// An op operand: a register of the current frame when >= 0, else the
/// constant ~o of the function's pool.
using Operand = int32_t;
/// The destination of an op whose result is not used, and an absent
/// optional operand.
constexpr int32_t kNoReg = INT32_MIN;

enum class OpCode : uint8_t {
  // Control. kTick is the fault plan's instruction consult, one per
  // statement executed (compound statements and every entry to a loop
  // body included).
  kTick,
  kJump,     // pc = n
  kCharge,   // charge an ALU op
  kBranch,   // charge an ALU op; pc = n when bool(a) == flag
  kLogic,    // && / ||: charge; short-circuit to n with dst = 0 / 1
  kToBool,   // dst = int(bool(a))
  kMove,     // dst = a
  kFail,     // fail with messages[n]
  kStackSave,     // dst = the private-stack top
  kStackRestore,  // the private-stack top = a
  kCallCheck,  // the call-depth limit, checked before arguments
  kCall,       // dst = call p with operands lists[n..n+c)
  kReturn,     // return a
  kReturnVoid,
  kReturnEnd,  // fall off the end: the last returned value stays
  kBarrier,    // charge and yield to the block loop
  // Values.
  kBuiltinVar,  // dst = threadIdx / blockIdx / blockDim / gridDim / warpSize
  kWorkItem,    // dst = get_global_id(a) ... (a absent: dimension 0)
  kTexRef,      // dst = texture reference p's bound descriptor
  kUnary,       // dst = sub(a) for -, !, ~
  kBinary,      // dst = a sub b
  kCast,        // dst = (p->target) a
  kSwizzle,     // dst = a.p
  kVecIndex,    // dst = a[b] on a vector value
  kVectorLit,   // dst = (p->vec_type)(lists[n..n+c))
  kBuiltin,     // dst = built-in p(lists[n..n+c))
  kDeref,       // dst = *a
  kAddrOf,      // dst = &location a, of pointer type p
  kMemberAgg,   // dst = field p (a StructField) of aggregate a
  // Locations (dst and location operands index the location file).
  kGlobalLV,  // module-scope variable p
  kRegLV,     // register n of type p
  kDerefLV,   // *a, of type p (null: a's pointee)
  kIndexLV,   // b-th element of type p from base a; flag: kIndex* bits
  kVecIndexLV,  // component b of vector location a of width n
  kSwizzleLV,   // swizzle p of location a
  kArrowLV,     // a->p, p a StructField
  kDotLV,       // a.p, p a StructField
  kReadLV,      // dst = value at location a
  kDecayLV,     // dst = location a (an array, in memory) as pointer p
  kIncDec,      // dst = sub(location a)
  kIncDecReg,   // dst = sub(register n of type p)
  kAssign,      // location b (sub)= a; dst = the value assigned
  kAssignReg,   // register n of type p (sub)= a; dst = the value assigned
  // Declarations and bindings.
  kDeclShared,  // location n = __local variable p: at offset a of the
                // launched kernel's static layout, or the dynamic area
                // when flag is set
  kDeclMem,     // location n = zeroed private memory for variable p
  kStoreVar,    // store a, converted to p, at location n plus b bytes
  kInitReg,     // register n = a converted to p
  // Atomics, images and textures.
  kAtomicLoad,   // dst = *a, charged as an atomic
  kAtomicStore,  // *a = p(old b, operand c, desired n); dst = old b
  kImageDesc,    // dst = the image descriptor at a
  kImageRead,    // dst = read_image(desc a, sampler b, coord c) of kind sub
  kImageWrite,   // write_image(desc a, coord b, color c)
  kImageSize,    // dst = width / height of desc a
  kTexFetch,     // dst = tex(desc a, coords lists[n..n+c)) for call p
};

/// kIndexLV flag bits.
enum : uint8_t {
  kIndexBaseIsLocation = 1,  // the base is an array location, not a pointer
  kIndexCharge = 2,          // charge the subscript's ALU op here
  kIndexRead = 4,            // read the element into dst
};

struct Op {
  OpCode code = OpCode::kTick;
  uint8_t sub = 0;   // operator, built-in op or kind
  uint8_t flag = 0;
  int32_t dst = kNoReg;
  Operand a = kNoReg, b = kNoReg, c = kNoReg;
  int32_t n = 0;  // jump target, list start, slot or width
  const void* p = nullptr;  // AST node, type or callee
};

/// How a call binds one parameter.
enum class ParamBinding : uint8_t {
  kRegister,  // converted to the parameter's type, into its register
  kMemory,    // stored in private memory: an aggregate, or address-taken
};

struct LoweredFunction {
  const lang::FunctionDecl* decl = nullptr;
  std::vector<Op> ops;
  std::vector<Value> consts;
  std::vector<Operand> lists;         // operands of n-ary ops
  std::vector<std::string> messages;  // texts of kFail ops
  std::vector<ParamBinding> params;
  int regs = 0;  // frame registers: sema slots, then temporaries
  int lvs = 0;   // frame locations: sema slots, then temporaries
  /// Kernels: bytes of the static __local layout, before dynamic areas.
  size_t static_shared_bytes = 0;
};

/// Every device function of an analyzed translation unit, lowered.
/// Immutable once built; launches on any worker only read it.
class Program {
 public:
  explicit Program(const lang::TranslationUnit& tu);

  /// `fn`'s code, or null when it has no body.
  const LoweredFunction* Find(const lang::FunctionDecl* fn) const {
    auto it = fns_.find(fn);
    return it == fns_.end() ? nullptr : it->second.get();
  }

 private:
  std::unordered_map<const lang::FunctionDecl*,
                     std::unique_ptr<LoweredFunction>>
      fns_;
};

}  // namespace bridgecl::interp
