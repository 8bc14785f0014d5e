// Runtime values for the kernel interpreter. A Value is a typed scalar,
// vector, pointer (a simgpu virtual address), or an aggregate byte image
// (struct/array rvalues). It holds its interned type and up to 16 vector
// lanes inline, so copying a scalar, vector or pointer value never
// allocates; only an aggregate keeps its bytes on the heap.
// Encode/Decode convert between Values and device memory bytes under the
// shared ABI defined by lang::Type::ByteSize().
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "lang/type.h"
#include "support/status.h"

namespace bridgecl::interp {

using lang::ScalarKind;
using lang::Type;

/// One scalar payload; the active member follows the ScalarKind.
union ScalarVal {
  int64_t i;
  uint64_t u;
  double f;
};

class Value {
 public:
  /// The widest vector either dialect has.
  static constexpr int kMaxLanes = 16;

  Value() = default;

  // -- constructors --------------------------------------------------------
  static Value Int(int64_t v, ScalarKind k = ScalarKind::kInt);
  static Value UInt(uint64_t v, ScalarKind k = ScalarKind::kUInt);
  static Value Float(double v, ScalarKind k = ScalarKind::kFloat);
  static Value Pointer(uint64_t va, Type::Ptr pointer_type);
  /// A vector of type `vec_type` whose first lanes are `lanes`; the rest
  /// are zero.
  static Value Vector(Type::Ptr vec_type,
                      std::span<const ScalarVal> lanes = {});
  static Value Aggregate(Type::Ptr type, std::vector<std::byte> bytes);
  static Value Void();

  // -- observers -----------------------------------------------------------
  Type::Ptr type() const { return type_; }
  bool is_vector() const { return type_ && type_->is_vector(); }
  bool is_aggregate() const { return type_ && (type_->is_struct() || type_->is_array()); }

  /// Scalar payload (also the pointer VA / opaque handle).
  ScalarVal scalar() const { return s_; }
  uint64_t AsVa() const { return s_.u; }

  /// Numeric views with conversion from the stored kind.
  int64_t AsI64() const;
  uint64_t AsU64() const;
  double AsF64() const;
  bool AsBool() const;

  /// The vector lanes: one per component of a vector type, none otherwise.
  std::span<const ScalarVal> comps() const { return {lanes_, LaneCount()}; }
  std::span<ScalarVal> comps() { return {lanes_, LaneCount()}; }
  const std::vector<std::byte>& bytes() const { return agg_; }
  std::vector<std::byte>& bytes() { return agg_; }

  /// Component i as a scalar Value of the element kind.
  Value Component(int i) const;

  /// Convert to another scalar/vector type (C conversion rules; vectors
  /// convert elementwise, scalar→vector broadcasts only via explicit ops).
  Value ConvertTo(Type::Ptr target) const;

  /// Bit-reinterpret (OpenCL as_typeN) — sizes must match.
  StatusOr<Value> BitcastTo(Type::Ptr target) const;

  std::string ToString() const;  // debugging / test failures

  void set_type(Type::Ptr t) { type_ = t; }
  void set_scalar(ScalarVal s) { s_ = s; }

 private:
  size_t LaneCount() const {
    return is_vector() ? static_cast<size_t>(type_->vector_width()) : 0;
  }

  Type::Ptr type_ = nullptr;
  ScalarVal s_{};
  ScalarVal lanes_[kMaxLanes] = {};  // vector components
  std::vector<std::byte> agg_;       // struct/array payload
};

/// Encode `v` into `dst` (device memory bytes) as type `v.type()`.
/// `dst` must have at least v.type()->ByteSize() bytes.
Status EncodeValue(const Value& v, std::byte* dst);

/// Decode a value of `type` from `src`.
StatusOr<Value> DecodeValue(Type::Ptr type, const std::byte* src);

/// Scalar conversion helper shared with the interpreter: reinterprets the
/// payload of kind `from` as kind `to` with C conversion semantics.
ScalarVal ConvertScalar(ScalarVal v, ScalarKind from, ScalarKind to);

}  // namespace bridgecl::interp
