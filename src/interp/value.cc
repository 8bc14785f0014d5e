#include "interp/value.h"

#include <algorithm>
#include <cassert>

#include "support/strings.h"

namespace bridgecl::interp {

using lang::IsFloatScalar;
using lang::IsSignedScalar;
using lang::ScalarByteSize;

Value Value::Int(int64_t v, ScalarKind k) {
  Value out;
  out.type_ = Type::Scalar(k);
  out.s_.i = v;
  return out;
}

Value Value::UInt(uint64_t v, ScalarKind k) {
  Value out;
  out.type_ = Type::Scalar(k);
  out.s_.u = v;
  return out;
}

Value Value::Float(double v, ScalarKind k) {
  Value out;
  out.type_ = Type::Scalar(k);
  out.s_.f = k == ScalarKind::kFloat ? static_cast<float>(v) : v;
  return out;
}

Value Value::Pointer(uint64_t va, Type::Ptr pointer_type) {
  Value out;
  out.type_ = pointer_type;
  out.s_.u = va;
  return out;
}

Value Value::Vector(Type::Ptr vec_type, std::span<const ScalarVal> lanes) {
  const size_t width = static_cast<size_t>(vec_type->vector_width());
  assert(lanes.size() <= width);
  Value out;
  out.type_ = vec_type;
  std::copy(lanes.begin(), lanes.end(), out.lanes_);
  std::fill(out.lanes_ + lanes.size(), out.lanes_ + width, ScalarVal{});
  return out;
}

Value Value::Aggregate(Type::Ptr type, std::span<const std::byte> bytes) {
  Value out;
  out.type_ = type;
  out.agg_ = std::make_shared_for_overwrite<std::byte[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), out.agg_.get());
  out.lanes_[0].u = bytes.size();
  return out;
}

void Value::PadBytesTo(size_t n) {
  std::span<const std::byte> old = bytes();
  if (old.size() >= n) return;
  auto grown = std::make_shared<std::byte[]>(n);  // zero-filled
  std::copy(old.begin(), old.end(), grown.get());
  agg_ = std::move(grown);
  lanes_[0].u = n;
}

Value Value::Void() {
  Value out;
  out.type_ = Type::VoidTy();
  return out;
}

double Value::AsF64() const {
  if (!type_) return 0;
  if (type_->is_scalar()) {
    ScalarKind k = type_->scalar_kind();
    if (IsFloatScalar(k)) return s_.f;
    if (IsSignedScalar(k)) return static_cast<double>(s_.i);
    return static_cast<double>(s_.u);
  }
  return static_cast<double>(s_.u);
}

Value Value::Component(int i) const {
  assert(is_vector());
  assert(i >= 0 && i < static_cast<int>(LaneCount()));
  Value out;
  out.type_ = Type::Scalar(type_->scalar_kind());
  out.s_ = lanes_[i];
  return out;
}

ScalarVal ConvertScalar(ScalarVal v, ScalarKind from, ScalarKind to) {
  ScalarVal out{};
  bool from_float = IsFloatScalar(from);
  bool to_float = IsFloatScalar(to);
  if (to_float) {
    double d = from_float ? v.f
               : IsSignedScalar(from) ? static_cast<double>(v.i)
                                      : static_cast<double>(v.u);
    out.f = to == ScalarKind::kFloat ? static_cast<float>(d) : d;
    return out;
  }
  // Integral target: truncate to the target width, preserving two's
  // complement behaviour.
  int64_t raw;
  if (from_float) {
    raw = static_cast<int64_t>(v.f);
  } else {
    raw = v.i;
  }
  size_t bytes = ScalarByteSize(to);
  if (bytes >= 8) {
    out.i = raw;
    return out;
  }
  uint64_t mask = (1ull << (bytes * 8)) - 1;
  uint64_t trunc = static_cast<uint64_t>(raw) & mask;
  if (IsSignedScalar(to)) {
    uint64_t sign_bit = 1ull << (bytes * 8 - 1);
    if (trunc & sign_bit) trunc |= ~mask;
    out.i = static_cast<int64_t>(trunc);
  } else {
    out.u = trunc;
  }
  if (to == ScalarKind::kBool) out.u = (raw != 0) ? 1 : 0;
  return out;
}

Value Value::ConvertTo(Type::Ptr target) const {
  if (!target || !type_ || type_ == target) return *this;
  // Pointer <-> pointer / integer: keep the VA payload.
  if (target->is_pointer() || target->is_image() || target->is_sampler() ||
      target->is_texture()) {
    Value out;
    out.type_ = target;
    out.s_ = s_;
    return out;
  }
  if (type_->is_pointer() && target->is_scalar()) {
    Value out;
    out.type_ = target;
    out.s_ = ConvertScalar(s_, ScalarKind::kULong, target->scalar_kind());
    return out;
  }
  if (target->is_vector()) {
    Value out;
    out.type_ = target;
    int w = target->vector_width();
    if (is_vector()) {
      int i = 0;
      for (; i < w && i < static_cast<int>(LaneCount()); ++i)
        out.lanes_[i] = ConvertScalar(lanes_[i], type_->scalar_kind(),
                                      target->scalar_kind());
      std::fill(out.lanes_ + i, out.lanes_ + w, ScalarVal{});
    } else {
      // Scalar broadcast (OpenCL scalar-to-vector conversion).
      ScalarVal c = ConvertScalar(
          s_, type_->is_scalar() ? type_->scalar_kind() : ScalarKind::kULong,
          target->scalar_kind());
      for (int i = 0; i < w; ++i) out.lanes_[i] = c;
    }
    return out;
  }
  if (target->is_scalar()) {
    Value out;
    out.type_ = target;
    ScalarVal src = is_vector() ? lanes_[0] : s_;
    ScalarKind from =
        type_->is_scalar() || type_->is_vector() ? type_->scalar_kind()
                                                 : ScalarKind::kULong;
    out.s_ = ConvertScalar(src, from, target->scalar_kind());
    return out;
  }
  // Aggregate targets: reuse the payload (caller validated sizes).
  Value out = *this;
  out.type_ = target;
  return out;
}

StatusOr<Value> Value::BitcastTo(Type::Ptr target) const {
  if (!target || !type_)
    return InvalidArgumentError("bitcast with missing type");
  if (type_->ByteSize() != target->ByteSize())
    return InvalidArgumentError(
        StrFormat("as_type between different sizes: %zu vs %zu",
                  type_->ByteSize(), target->ByteSize()));
  // Scalars and vectors fit in a stack buffer; only aggregates need heap.
  std::byte small[sizeof(lanes_)];
  std::unique_ptr<std::byte[]> large;
  std::byte* buf = small;
  if (type_->ByteSize() > sizeof(small)) {
    large = std::make_unique<std::byte[]>(type_->ByteSize());
    buf = large.get();
  }
  BRIDGECL_RETURN_IF_ERROR(EncodeValue(*this, buf));
  Value out;
  BRIDGECL_RETURN_IF_ERROR(DecodeValue(target, buf, &out));
  return out;
}

std::string Value::ToString() const {
  if (!type_) return "<untyped>";
  if (type_->is_vector()) {
    std::string out = type_->ToString() + "(";
    for (size_t i = 0; i < LaneCount(); ++i) {
      if (i) out += ", ";
      if (IsFloatScalar(type_->scalar_kind()))
        out += StrFormat("%g", lanes_[i].f);
      else
        out += std::to_string(lanes_[i].i);
    }
    return out + ")";
  }
  if (type_->is_pointer() || type_->is_image() || type_->is_texture() ||
      type_->is_sampler())
    return StrFormat("%s@0x%llx", type_->ToString().c_str(),
                     static_cast<unsigned long long>(s_.u));
  if (type_->is_scalar()) {
    if (IsFloatScalar(type_->scalar_kind())) return StrFormat("%g", s_.f);
    if (IsSignedScalar(type_->scalar_kind())) return std::to_string(s_.i);
    return std::to_string(s_.u);
  }
  return type_->ToString() + "{" + std::to_string(bytes().size()) + "b}";
}

namespace {

Status EncodeScalar(ScalarVal v, ScalarKind k, std::byte* dst) {
  size_t n = ScalarByteSize(k);
  switch (k) {
    case ScalarKind::kFloat: {
      float f = static_cast<float>(v.f);
      std::memcpy(dst, &f, 4);
      return OkStatus();
    }
    case ScalarKind::kDouble:
      std::memcpy(dst, &v.f, 8);
      return OkStatus();
    default:
      std::memcpy(dst, &v.u, n);  // little-endian truncation
      return OkStatus();
  }
}

ScalarVal DecodeScalar(ScalarKind k, const std::byte* src) {
  ScalarVal out{};
  switch (k) {
    case ScalarKind::kFloat: {
      float f;
      std::memcpy(&f, src, 4);
      out.f = f;
      return out;
    }
    case ScalarKind::kDouble:
      std::memcpy(&out.f, src, 8);
      return out;
    default: {
      uint64_t raw = 0;
      std::memcpy(&raw, src, ScalarByteSize(k));
      if (IsSignedScalar(k)) {
        size_t bits = ScalarByteSize(k) * 8;
        if (bits < 64 && (raw & (1ull << (bits - 1)))) {
          raw |= ~((1ull << bits) - 1);
        }
      }
      out.u = raw;
      return out;
    }
  }
}

}  // namespace

Status EncodeValue(const Value& v, std::byte* dst) {
  Type::Ptr t = v.type();
  if (!t) return InternalError("encode of untyped value");
  switch (t->kind()) {
    case lang::TypeKind::kScalar:
      return EncodeScalar(v.scalar(), t->scalar_kind(), dst);
    case lang::TypeKind::kVector: {
      size_t esz = ScalarByteSize(t->scalar_kind());
      int w = t->vector_width();
      for (int i = 0; i < w; ++i) {
        ScalarVal c = i < static_cast<int>(v.comps().size()) ? v.comps()[i]
                                                             : ScalarVal{};
        BRIDGECL_RETURN_IF_ERROR(
            EncodeScalar(c, t->scalar_kind(), dst + i * esz));
      }
      return OkStatus();
    }
    case lang::TypeKind::kPointer:
    case lang::TypeKind::kImage:
    case lang::TypeKind::kSampler:
    case lang::TypeKind::kTexture: {
      uint64_t va = v.AsVa();
      std::memcpy(dst, &va, 8);
      return OkStatus();
    }
    case lang::TypeKind::kStruct:
    case lang::TypeKind::kArray: {
      size_t n = t->ByteSize();
      if (v.bytes().size() < n)
        return InternalError("aggregate value smaller than its type");
      std::memcpy(dst, v.bytes().data(), n);
      return OkStatus();
    }
    case lang::TypeKind::kNamed:
      return InternalError("encode of unresolved named type");
  }
  return InternalError("encode: unhandled type kind");
}

Status DecodeValue(Type::Ptr type, const std::byte* src, Value* out) {
  if (!type) return InternalError("decode of untyped location");
  switch (type->kind()) {
    case lang::TypeKind::kScalar:
      out->SetScalar(type, DecodeScalar(type->scalar_kind(), src));
      return OkStatus();
    case lang::TypeKind::kVector: {
      size_t esz = ScalarByteSize(type->scalar_kind());
      *out = Value::Vector(type);
      std::span<ScalarVal> lanes = out->comps();
      for (size_t i = 0; i < lanes.size(); ++i)
        lanes[i] = DecodeScalar(type->scalar_kind(), src + i * esz);
      return OkStatus();
    }
    case lang::TypeKind::kPointer:
    case lang::TypeKind::kImage:
    case lang::TypeKind::kSampler:
    case lang::TypeKind::kTexture: {
      ScalarVal va;
      std::memcpy(&va.u, src, 8);
      out->SetScalar(type, va);
      return OkStatus();
    }
    case lang::TypeKind::kStruct:
    case lang::TypeKind::kArray:
      *out = Value::Aggregate(type, {src, type->ByteSize()});
      return OkStatus();
    case lang::TypeKind::kNamed:
      return InternalError("decode of unresolved named type");
  }
  return InternalError("decode: unhandled type kind");
}

}  // namespace bridgecl::interp
