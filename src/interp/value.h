// Runtime values for the kernel interpreter. A Value is a typed scalar,
// vector, pointer (a simgpu virtual address), or an aggregate byte image
// (struct/array rvalues). It is what one executor register holds: its
// interned type and up to 16 vector lanes inline, so building or copying
// a scalar, vector or pointer value never allocates and never touches
// more lanes than the vector has. An aggregate's bytes live out of line in
// a payload that copies share and that is copied only when written.
// Encode/Decode convert between Values and device memory bytes under the
// shared ABI defined by lang::Type::ByteSize().
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>

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
  // Copies move only the lanes in use: none for a scalar or pointer, the
  // vector's width, or the byte count of an aggregate.
  Value(const Value& o) : type_(o.type_), s_(o.s_), agg_(o.agg_) {
    std::memcpy(lanes_, o.lanes_, o.LanesInUse() * sizeof(ScalarVal));
  }
  Value(Value&& o) noexcept : type_(o.type_), s_(o.s_) {
    std::memcpy(lanes_, o.lanes_, o.LanesInUse() * sizeof(ScalarVal));
    agg_ = std::move(o.agg_);
  }
  Value& operator=(const Value& o) {
    if (this != &o) {
      std::memcpy(lanes_, o.lanes_, o.LanesInUse() * sizeof(ScalarVal));
      type_ = o.type_;
      s_ = o.s_;
      agg_ = o.agg_;
    }
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      std::memcpy(lanes_, o.lanes_, o.LanesInUse() * sizeof(ScalarVal));
      type_ = o.type_;
      s_ = o.s_;
      agg_ = std::move(o.agg_);
    }
    return *this;
  }

  // -- constructors --------------------------------------------------------
  static Value Int(int64_t v, ScalarKind k = ScalarKind::kInt);
  static Value UInt(uint64_t v, ScalarKind k = ScalarKind::kUInt);
  static Value Float(double v, ScalarKind k = ScalarKind::kFloat);
  static Value Pointer(uint64_t va, Type::Ptr pointer_type);
  /// A vector of type `vec_type` whose first lanes are `lanes`; the rest
  /// are zero.
  static Value Vector(Type::Ptr vec_type,
                      std::span<const ScalarVal> lanes = {});
  /// An aggregate of `type` holding a copy of `bytes`.
  static Value Aggregate(Type::Ptr type, std::span<const std::byte> bytes);
  static Value Void();

  // -- observers -----------------------------------------------------------
  Type::Ptr type() const { return type_; }
  bool is_vector() const { return type_ && type_->is_vector(); }
  bool is_aggregate() const { return type_ && (type_->is_struct() || type_->is_array()); }

  /// Scalar payload (also the pointer VA / opaque handle). Zero for
  /// vectors and aggregates.
  ScalarVal scalar() const { return s_; }
  uint64_t AsVa() const { return s_.u; }

  /// Numeric views with conversion from the stored kind.
  int64_t AsI64() const {
    return IsFloat() ? static_cast<int64_t>(s_.f) : s_.i;
  }
  uint64_t AsU64() const {
    return IsFloat() ? static_cast<uint64_t>(s_.f) : s_.u;
  }
  double AsF64() const;
  bool AsBool() const { return IsFloat() ? s_.f != 0.0 : s_.u != 0; }

  /// The vector lanes: one per component of a vector type, none otherwise.
  std::span<const ScalarVal> comps() const { return {lanes_, LaneCount()}; }
  std::span<ScalarVal> comps() { return {lanes_, LaneCount()}; }
  /// An aggregate's bytes; empty otherwise.
  std::span<const std::byte> bytes() const {
    return agg_ ? std::span<const std::byte>(agg_.get(), lanes_[0].u)
                : std::span<const std::byte>();
  }
  /// Zero-extend an aggregate's bytes to at least `n`.
  void PadBytesTo(size_t n);

  /// Component i as a scalar Value of the element kind.
  Value Component(int i) const;

  /// Convert to another scalar/vector type (C conversion rules; vectors
  /// convert elementwise, scalar→vector broadcasts only via explicit ops).
  Value ConvertTo(Type::Ptr target) const;

  /// Bit-reinterpret (OpenCL as_typeN) — sizes must match.
  StatusOr<Value> BitcastTo(Type::Ptr target) const;

  std::string ToString() const;  // debugging / test failures

  void set_type(Type::Ptr t) { type_ = t; }
  /// Make this a scalar, pointer or handle of `type` holding `payload`,
  /// in place.
  void SetScalar(Type::Ptr type, ScalarVal payload) {
    type_ = type;
    s_ = payload;
    if (agg_) agg_.reset();
  }

 private:
  bool IsFloat() const { return type_ && type_->is_float(); }
  size_t LaneCount() const {
    return is_vector() ? static_cast<size_t>(type_->vector_width()) : 0;
  }
  size_t LanesInUse() const { return agg_ ? 1 : LaneCount(); }

  Type::Ptr type_ = nullptr;
  ScalarVal s_{};
  /// Vector components; only the first vector_width() are ever written or
  /// read. An aggregate keeps its byte count in lane 0.
  ScalarVal lanes_[kMaxLanes];
  std::shared_ptr<std::byte[]> agg_;  // aggregate payload, shared by copies
};

/// Encode `v` into `dst` (device memory bytes) as type `v.type()`.
/// `dst` must have at least v.type()->ByteSize() bytes.
Status EncodeValue(const Value& v, std::byte* dst);

/// Decode a value of `type` from `src` into `*out`.
Status DecodeValue(Type::Ptr type, const std::byte* src, Value* out);

/// Scalar conversion helper shared with the interpreter: reinterprets the
/// payload of kind `from` as kind `to` with C conversion semantics.
ScalarVal ConvertScalar(ScalarVal v, ScalarKind from, ScalarKind to);

}  // namespace bridgecl::interp
