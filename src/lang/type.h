// Type system for the BridgeCL kernel language: a C dialect rich enough to
// express both OpenCL C kernels and CUDA device code, including the
// features whose translation the paper studies -- vector types of widths
// 1/2/3/4/8/16, address-space-qualified pointers, images/samplers and
// texture references, and (CUDA-only) reference types.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace bridgecl::lang {

struct StructDecl;  // ast.h

/// Scalar element kinds. `kLongLong` is CUDA-only (the paper maps CUDA
/// longlong vectors onto OpenCL long vectors, §3.6); `kSizeT` is kept
/// distinct so printers can round-trip `size_t`. The kinds from `kInt` on
/// are those the usual arithmetic conversions never promote; the
/// interpreter relies on that order.
enum class ScalarKind : uint8_t {
  kVoid,
  kBool,
  kChar,
  kUChar,
  kShort,
  kUShort,
  kInt,
  kUInt,
  kLong,
  kULong,
  kLongLong,
  kULongLong,
  kFloat,
  kDouble,
  kSizeT,
};

// The interpreter asks these on nearly every op, so they are inline.
inline bool IsSignedScalar(ScalarKind k) {
  switch (k) {
    case ScalarKind::kChar:
    case ScalarKind::kShort:
    case ScalarKind::kInt:
    case ScalarKind::kLong:
    case ScalarKind::kLongLong:
      return true;
    default:
      return false;
  }
}
inline bool IsFloatScalar(ScalarKind k) {
  return k == ScalarKind::kFloat || k == ScalarKind::kDouble;
}
/// Size in bytes on the (LP64) device ABI both models share.
inline size_t ScalarByteSize(ScalarKind k) {
  switch (k) {
    case ScalarKind::kVoid: return 0;
    case ScalarKind::kBool: return 1;
    case ScalarKind::kChar:
    case ScalarKind::kUChar: return 1;
    case ScalarKind::kShort:
    case ScalarKind::kUShort: return 2;
    case ScalarKind::kInt:
    case ScalarKind::kUInt:
    case ScalarKind::kFloat: return 4;
    case ScalarKind::kLong:
    case ScalarKind::kULong:
    case ScalarKind::kLongLong:
    case ScalarKind::kULongLong:
    case ScalarKind::kDouble:
    case ScalarKind::kSizeT: return 8;
  }
  return 0;
}
/// Canonical dialect-neutral name ("uint", "longlong", ...).
const char* ScalarName(ScalarKind k);

/// Address spaces as the *device* sees them. `kPrivate` is default.
/// NOTE on pointers (§3.6): in OpenCL the qualifier names the space of the
/// *pointee*; in CUDA it names the space of the pointer variable itself.
/// The AST stores the OpenCL interpretation (pointee space) canonically;
/// the CUDA parser/printer performs the adjustment.
enum class AddressSpace : uint8_t {
  kPrivate,
  kLocal,     // CUDA: shared
  kGlobal,    // CUDA: device
  kConstant,
};

const char* AddressSpaceName(AddressSpace s);

enum class TypeKind : uint8_t {
  kScalar,
  kVector,    // scalar element + width in {1,2,3,4,8,16}
  kPointer,   // pointee type + pointee address space
  kArray,     // element type + constant extent
  kStruct,    // user-defined aggregate
  kImage,     // OpenCL image1d_t / image2d_t / image3d_t (opaque handle)
  kSampler,   // OpenCL sampler_t (opaque handle)
  kTexture,   // CUDA texture reference type (opaque; device-side handle)
  kNamed,     // unresolved name: template parameter (CUDA C++) or typedef
};

/// Immutable, hash-consed type. Every factory returns one pointer per
/// distinct argument tuple for the life of the process, so two types are
/// the same exactly when their pointers are equal. Types are never freed.
///
/// The interpreter builds types while work-items run (scalar and vector
/// results, pointers on array decay and `&x`). Those lookups take no lock
/// and do no atomic read-modify-write: scalars, vectors, images and the
/// sampler come from fixed tables, and each type caches the pointer types
/// to it, one per address space (only the first build of one locks).
/// Arrays, structs, textures and named types are built only by the front
/// end and the translators, under a mutex. An array keys on (element,
/// extent), so rebuilding a program adds no array type; a struct keys on
/// its `StructDecl`.
class Type {
 public:
  using Ptr = const Type*;

  // -- factories ----------------------------------------------------------
  /// Scalars and vectors are inline lookups in tables built on first use.
  static Ptr Scalar(ScalarKind k) {
    static const Type* const scalars = MakeScalarTable();
    return &scalars[static_cast<int>(k)];
  }
  static Ptr Vector(ScalarKind elem, int width) {
    static const Type* const vectors = MakeVectorTable();
    return &vectors[static_cast<int>(elem) * kVectorWidths + width];
  }
  static Ptr Pointer(Ptr pointee, AddressSpace pointee_space);
  static Ptr Array(Ptr elem, size_t extent);
  static Ptr Struct(const StructDecl* decl);
  static Ptr Image(int dims);                  // 1, 2, or 3
  static Ptr Sampler();
  /// CUDA `texture<Elem, Dims, ReadMode>` reference type.
  static Ptr Texture(ScalarKind elem, int elem_width, int dims);
  /// Placeholder for a template type parameter or unresolved typedef.
  static Ptr Named(std::string name);

  static Ptr VoidTy() { return Scalar(ScalarKind::kVoid); }
  static Ptr IntTy() { return Scalar(ScalarKind::kInt); }
  static Ptr UIntTy() { return Scalar(ScalarKind::kUInt); }
  static Ptr FloatTy() { return Scalar(ScalarKind::kFloat); }
  static Ptr SizeTy() { return Scalar(ScalarKind::kSizeT); }

  // -- observers ----------------------------------------------------------
  TypeKind kind() const { return kind_; }
  bool is_scalar() const { return kind_ == TypeKind::kScalar; }
  bool is_vector() const { return kind_ == TypeKind::kVector; }
  bool is_pointer() const { return kind_ == TypeKind::kPointer; }
  bool is_array() const { return kind_ == TypeKind::kArray; }
  bool is_struct() const { return kind_ == TypeKind::kStruct; }
  bool is_image() const { return kind_ == TypeKind::kImage; }
  bool is_sampler() const { return kind_ == TypeKind::kSampler; }
  bool is_texture() const { return kind_ == TypeKind::kTexture; }
  bool is_named() const { return kind_ == TypeKind::kNamed; }
  bool is_float() const { return is_scalar() && IsFloatScalar(scalar_); }
  bool is_arithmetic() const {
    return is_scalar() && scalar_ != ScalarKind::kVoid;
  }

  ScalarKind scalar_kind() const { return scalar_; }  // scalar/vector/texture
  int vector_width() const { return width_; }          // vector/texture
  int image_dims() const { return dims_; }             // image/texture
  Ptr pointee() const { return elem_; }                // pointer
  Ptr element() const { return elem_; }                // array
  AddressSpace pointee_space() const { return space_; }
  size_t array_extent() const { return extent_; }
  const StructDecl* struct_decl() const { return struct_; }
  const std::string& name() const { return name_; }  // kNamed

  /// Byte size under the shared device ABI. Vectors of width 3 occupy the
  /// space of width 4 (OpenCL rule; CUDA has no native 3-vectors beyond
  /// alignment quirks we normalize away). Opaque handle types are
  /// pointer-sized.
  size_t ByteSize() const;
  size_t Alignment() const;

  /// Dialect-neutral spelling used in diagnostics and tests.
  std::string ToString() const;

 private:
  static constexpr int kVectorWidths = 17;  // vector table row: width 0..16
  static const Type* MakeScalarTable();
  static const Type* MakeVectorTable();

  explicit Type(TypeKind kind = TypeKind::kScalar) : kind_(kind) {}

  TypeKind kind_ = TypeKind::kScalar;
  ScalarKind scalar_ = ScalarKind::kVoid;
  int width_ = 1;          // vector width
  int dims_ = 0;           // image/texture dimensionality
  Ptr elem_ = nullptr;     // pointee / array element
  AddressSpace space_ = AddressSpace::kPrivate;
  size_t extent_ = 0;      // array extent
  const StructDecl* struct_ = nullptr;
  std::string name_;       // kNamed
  /// Pointer(this, space) for each AddressSpace, built on first use.
  mutable std::atomic<Ptr> pointer_to_[4] = {};
};

/// Parse a vector-type spelling ("float4", "uchar16", "longlong2",
/// "double3") into element kind and width. Width 1 spellings ("int1") are
/// CUDA-only one-component vectors. Returns false if `name` is not a
/// vector-type spelling.
bool ParseVectorTypeName(const std::string& name, ScalarKind* elem,
                         int* width);

/// Compose a vector-type spelling in the given dialect-neutral form.
std::string VectorTypeName(ScalarKind elem, int width);

}  // namespace bridgecl::lang
