#include "lang/type.h"

#include <cassert>
#include <map>
#include <mutex>
#include <tuple>

namespace bridgecl::lang {

const char* ScalarName(ScalarKind k) {
  switch (k) {
    case ScalarKind::kVoid: return "void";
    case ScalarKind::kBool: return "bool";
    case ScalarKind::kChar: return "char";
    case ScalarKind::kUChar: return "uchar";
    case ScalarKind::kShort: return "short";
    case ScalarKind::kUShort: return "ushort";
    case ScalarKind::kInt: return "int";
    case ScalarKind::kUInt: return "uint";
    case ScalarKind::kLong: return "long";
    case ScalarKind::kULong: return "ulong";
    case ScalarKind::kLongLong: return "longlong";
    case ScalarKind::kULongLong: return "ulonglong";
    case ScalarKind::kFloat: return "float";
    case ScalarKind::kDouble: return "double";
    case ScalarKind::kSizeT: return "size_t";
  }
  return "?";
}

const char* AddressSpaceName(AddressSpace s) {
  switch (s) {
    case AddressSpace::kPrivate: return "private";
    case AddressSpace::kLocal: return "local";
    case AddressSpace::kGlobal: return "global";
    case AddressSpace::kConstant: return "constant";
  }
  return "?";
}

namespace {
constexpr int kScalarKinds = static_cast<int>(ScalarKind::kSizeT) + 1;

/// Guards the keyed tables below and the first build of a pointer type.
std::mutex& TableMutex() {
  static std::mutex mu;
  return mu;
}

/// The type `table` holds for `key`, made by `make` on first use. Tables
/// and types are never destroyed, so every type stays reachable.
template <typename Table, typename Key, typename Make>
Type::Ptr Intern(Table& table, const Key& key, const Make& make) {
  std::lock_guard<std::mutex> lock(TableMutex());
  Type::Ptr& t = table[key];
  if (t == nullptr) t = make();
  return t;
}
}  // namespace

const Type* Type::MakeScalarTable() {
  Type* t = new Type[kScalarKinds];
  for (int i = 0; i < kScalarKinds; ++i)
    t[i].scalar_ = static_cast<ScalarKind>(i);
  return t;
}

const Type* Type::MakeVectorTable() {
  Type* t = new Type[kScalarKinds * kVectorWidths];
  for (int i = 0; i < kScalarKinds * kVectorWidths; ++i) {
    t[i].kind_ = TypeKind::kVector;
    t[i].scalar_ = static_cast<ScalarKind>(i / kVectorWidths);
    t[i].width_ = i % kVectorWidths;
  }
  return t;
}

Type::Ptr Type::Pointer(Ptr pointee, AddressSpace pointee_space) {
  // Holds the pointers to a null pointee.
  static const Type* const no_pointee = new Type();
  std::atomic<Ptr>& cached = (pointee ? pointee : no_pointee)
                                 ->pointer_to_[static_cast<int>(pointee_space)];
  if (Ptr t = cached.load(std::memory_order_acquire)) return t;
  std::lock_guard<std::mutex> lock(TableMutex());
  if (Ptr t = cached.load(std::memory_order_relaxed)) return t;
  Type* t = new Type(TypeKind::kPointer);
  t->elem_ = pointee;
  t->space_ = pointee_space;
  cached.store(t, std::memory_order_release);
  return t;
}

Type::Ptr Type::Array(Ptr elem, size_t extent) {
  static auto& arrays = *new std::map<std::pair<Ptr, size_t>, Ptr>();
  return Intern(arrays, std::pair(elem, extent), [&] {
    Type* t = new Type(TypeKind::kArray);
    t->elem_ = elem;
    t->extent_ = extent;
    return t;
  });
}

Type::Ptr Type::Struct(const StructDecl* decl) {
  static auto& structs = *new std::map<const StructDecl*, Ptr>();
  return Intern(structs, decl, [&] {
    Type* t = new Type(TypeKind::kStruct);
    t->struct_ = decl;
    return t;
  });
}

Type::Ptr Type::Image(int dims) {
  assert(dims >= 1 && dims <= 3);
  static const Type* const images = [] {
    Type* t = new Type[3];
    for (int d = 1; d <= 3; ++d) {
      t[d - 1].kind_ = TypeKind::kImage;
      t[d - 1].dims_ = d;
    }
    return t;
  }();
  return &images[dims - 1];
}

Type::Ptr Type::Sampler() {
  static const Type* const sampler = new Type(TypeKind::kSampler);
  return sampler;
}

Type::Ptr Type::Texture(ScalarKind elem, int elem_width, int dims) {
  static auto& textures =
      *new std::map<std::tuple<ScalarKind, int, int>, Ptr>();
  return Intern(textures, std::tuple(elem, elem_width, dims), [&] {
    Type* t = new Type(TypeKind::kTexture);
    t->scalar_ = elem;
    t->width_ = elem_width;
    t->dims_ = dims;
    return t;
  });
}

Type::Ptr Type::Named(std::string name) {
  static auto& named = *new std::map<std::string, Ptr>();
  return Intern(named, name, [&] {
    Type* t = new Type(TypeKind::kNamed);
    t->name_ = name;
    return t;
  });
}

// StructLayout is computed in ast.cc (needs field list); forward here.
size_t StructByteSize(const StructDecl* decl);
size_t StructAlignment(const StructDecl* decl);

size_t Type::ByteSize() const {
  switch (kind_) {
    case TypeKind::kScalar:
      return ScalarByteSize(scalar_);
    case TypeKind::kVector: {
      int w = width_ == 3 ? 4 : width_;
      return ScalarByteSize(scalar_) * static_cast<size_t>(w);
    }
    case TypeKind::kPointer:
    case TypeKind::kImage:
    case TypeKind::kSampler:
    case TypeKind::kTexture:
      return 8;
    case TypeKind::kArray:
      return elem_->ByteSize() * extent_;
    case TypeKind::kStruct:
      return StructByteSize(struct_);
    case TypeKind::kNamed:
      return 0;  // unresolved; sema substitutes before layout queries
  }
  return 0;
}

size_t Type::Alignment() const {
  switch (kind_) {
    case TypeKind::kScalar:
      return ScalarByteSize(scalar_) == 0 ? 1 : ScalarByteSize(scalar_);
    case TypeKind::kVector: {
      int w = width_ == 3 ? 4 : width_;
      return ScalarByteSize(scalar_) * static_cast<size_t>(w);
    }
    case TypeKind::kPointer:
    case TypeKind::kImage:
    case TypeKind::kSampler:
    case TypeKind::kTexture:
      return 8;
    case TypeKind::kArray:
      return elem_->Alignment();
    case TypeKind::kStruct:
      return StructAlignment(struct_);
    case TypeKind::kNamed:
      return 1;
  }
  return 1;
}

std::string Type::ToString() const {
  switch (kind_) {
    case TypeKind::kScalar:
      return ScalarName(scalar_);
    case TypeKind::kVector:
      return VectorTypeName(scalar_, width_);
    case TypeKind::kPointer: {
      std::string out;
      if (space_ != AddressSpace::kPrivate) {
        out += "__";
        out += AddressSpaceName(space_);
        out += " ";
      }
      out += elem_->ToString();
      out += "*";
      return out;
    }
    case TypeKind::kArray:
      return elem_->ToString() + "[" + std::to_string(extent_) + "]";
    case TypeKind::kStruct:
      return "struct";  // refined by printer which knows the name
    case TypeKind::kImage:
      return "image" + std::to_string(dims_) + "d_t";
    case TypeKind::kSampler:
      return "sampler_t";
    case TypeKind::kTexture:
      return "texture<" + std::string(ScalarName(scalar_)) + "," +
             std::to_string(dims_) + ">";
    case TypeKind::kNamed:
      return name_;
  }
  return "?";
}

bool ParseVectorTypeName(const std::string& name, ScalarKind* elem,
                         int* width) {
  static const struct {
    const char* prefix;
    ScalarKind kind;
  } kPrefixes[] = {
      // Longest-match order matters: "ulonglong" before "ulong" etc.
      {"ulonglong", ScalarKind::kULongLong},
      {"longlong", ScalarKind::kLongLong},
      {"uchar", ScalarKind::kUChar},
      {"ushort", ScalarKind::kUShort},
      {"ulong", ScalarKind::kULong},
      {"uint", ScalarKind::kUInt},
      {"char", ScalarKind::kChar},
      {"short", ScalarKind::kShort},
      {"long", ScalarKind::kLong},
      {"int", ScalarKind::kInt},
      {"float", ScalarKind::kFloat},
      {"double", ScalarKind::kDouble},
  };
  for (const auto& p : kPrefixes) {
    std::string prefix = p.prefix;
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
      std::string rest = name.substr(prefix.size());
      int w = 0;
      if (rest == "1") w = 1;
      else if (rest == "2") w = 2;
      else if (rest == "3") w = 3;
      else if (rest == "4") w = 4;
      else if (rest == "8") w = 8;
      else if (rest == "16") w = 16;
      else continue;
      *elem = p.kind;
      *width = w;
      return true;
    }
  }
  return false;
}

std::string VectorTypeName(ScalarKind elem, int width) {
  return std::string(ScalarName(elem)) + std::to_string(width);
}

}  // namespace bridgecl::lang
