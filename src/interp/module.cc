#include "interp/module.h"

#include <atomic>
#include <mutex>

#include "interp/constants.h"
#include "interp/lower.h"
#include "interp/value.h"
#include "lang/cpp_lowering.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "support/strings.h"

namespace bridgecl::interp {

using lang::AddressSpace;
using lang::DeclKind;
using lang::Dialect;
using lang::Expr;
using lang::ExprKind;
using lang::FunctionDecl;
using lang::TextureRefDecl;
using lang::VarDecl;

namespace {

/// Fold a literal initializer expression (int/float literal, possibly
/// negated / parenthesized) to a Value of `target` type.
StatusOr<Value> FoldInit(const Expr& e, const lang::Type::Ptr& target) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return Value::Int(static_cast<int64_t>(e.As<lang::IntLitExpr>()->value))
          .ConvertTo(target);
    case ExprKind::kFloatLit:
      return Value::Float(e.As<lang::FloatLitExpr>()->value,
                          lang::ScalarKind::kDouble)
          .ConvertTo(target);
    case ExprKind::kParen:
      return FoldInit(*e.As<lang::ParenExpr>()->inner, target);
    case ExprKind::kDeclRef: {
      // Named device constants (CLK_* sampler/fence flags).
      auto c = NamedConstantValue(e.As<lang::DeclRefExpr>()->name);
      if (!c.has_value())
        return UnimplementedError("non-constant initializer reference");
      return Value::UInt(*c).ConvertTo(target);
    }
    case ExprKind::kBinary: {
      const auto* b = e.As<lang::BinaryExpr>();
      BRIDGECL_ASSIGN_OR_RETURN(Value l, FoldInit(*b->lhs, target));
      BRIDGECL_ASSIGN_OR_RETURN(Value r, FoldInit(*b->rhs, target));
      uint64_t out = 0;
      switch (b->op) {
        case lang::BinaryOp::kOr: out = l.AsU64() | r.AsU64(); break;
        case lang::BinaryOp::kAnd: out = l.AsU64() & r.AsU64(); break;
        case lang::BinaryOp::kXor: out = l.AsU64() ^ r.AsU64(); break;
        case lang::BinaryOp::kAdd: out = l.AsU64() + r.AsU64(); break;
        case lang::BinaryOp::kSub: out = l.AsU64() - r.AsU64(); break;
        case lang::BinaryOp::kMul: out = l.AsU64() * r.AsU64(); break;
        case lang::BinaryOp::kShl: out = l.AsU64() << r.AsU64(); break;
        case lang::BinaryOp::kShr: out = l.AsU64() >> r.AsU64(); break;
        default:
          return UnimplementedError("unsupported constant initializer op");
      }
      return Value::UInt(out).ConvertTo(target);
    }
    case ExprKind::kUnary: {
      const auto* u = e.As<lang::UnaryExpr>();
      BRIDGECL_ASSIGN_OR_RETURN(Value v, FoldInit(*u->operand, target));
      if (u->op == lang::UnaryOp::kMinus) {
        if (target && target->is_float())
          return Value::Float(-v.AsF64(), target->scalar_kind());
        return Value::Int(-v.AsI64(),
                          target ? target->scalar_kind()
                                 : lang::ScalarKind::kInt);
      }
      return v;
    }
    default:
      return UnimplementedError(
          "module-scope initializers must be literal constants");
  }
}

/// Encode a variable's initializer into `dst` (zero-filled beforehand).
Status EncodeInit(const VarDecl& v, std::byte* dst, size_t size) {
  std::memset(dst, 0, size);
  if (!v.init) return OkStatus();
  const lang::Type::Ptr& t = v.type;
  if (v.init->kind == ExprKind::kInitList) {
    if (!t->is_array())
      return InvalidArgumentError("initializer list on non-array '" + v.name +
                                  "'");
    const auto* list = v.init->As<lang::InitListExpr>();
    lang::Type::Ptr elem = t->element();
    size_t esz = elem->ByteSize();
    if (list->elems.size() * esz > size)
      return InvalidArgumentError("too many initializers for '" + v.name +
                                  "'");
    for (size_t i = 0; i < list->elems.size(); ++i) {
      BRIDGECL_ASSIGN_OR_RETURN(Value val, FoldInit(*list->elems[i], elem));
      BRIDGECL_RETURN_IF_ERROR(EncodeValue(val, dst + i * esz));
    }
    return OkStatus();
  }
  BRIDGECL_ASSIGN_OR_RETURN(Value val, FoldInit(*v.init, t));
  return EncodeValue(val, dst);
}

// ---------------------------------------------------------------------------
// Module cache
// ---------------------------------------------------------------------------
// Compile results keyed by dialect and source text. Entries hold the
// analyzed TU (shared, immutable after sema) for successful builds, and
// the failure Status for unsuccessful ones — plus the exact diagnostic
// list either way, replayed into the caller's engine on a hit so
// clGetProgramBuildInfo output is byte-identical whether or not the front
// end actually ran.

struct CacheEntry {
  std::shared_ptr<lang::TranslationUnit> tu;  // null for failed builds
  std::shared_ptr<const Program> program;     // tu, lowered
  Status status;
  std::vector<Diagnostic> diags;
};

std::mutex g_cache_mu;
std::unordered_map<std::string, CacheEntry>& CacheMap() {
  static auto* map = new std::unordered_map<std::string, CacheEntry>();
  return *map;
}
std::atomic<uint64_t> g_cache_hits{0};
std::atomic<uint64_t> g_cache_misses{0};

void ReplayDiags(const std::vector<Diagnostic>& stored,
                 DiagnosticEngine& diags) {
  for (const Diagnostic& d : stored) {
    switch (d.severity) {
      case DiagSeverity::kError: diags.Error(d.loc, d.message); break;
      case DiagSeverity::kWarning: diags.Warning(d.loc, d.message); break;
      case DiagSeverity::kNote: diags.Note(d.loc, d.message); break;
    }
  }
}

}  // namespace

ModuleCacheStats GetModuleCacheStats() {
  return ModuleCacheStats{g_cache_hits.load(std::memory_order_relaxed),
                          g_cache_misses.load(std::memory_order_relaxed)};
}

StatusOr<std::unique_ptr<Module>> Module::Compile(
    const std::string& source, Dialect dialect, DiagnosticEngine& diags,
    ModuleCacheOutcome* outcome) {
  if (outcome != nullptr) *outcome = ModuleCacheOutcome::kMiss;
  const std::string key =
      std::string(lang::DialectName(dialect)) + '\0' + source;

  {
    std::lock_guard<std::mutex> lock(g_cache_mu);
    auto it = CacheMap().find(key);
    if (it != CacheMap().end()) {
      g_cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) *outcome = ModuleCacheOutcome::kHit;
      ReplayDiags(it->second.diags, diags);
      if (!it->second.status.ok()) return it->second.status;
      auto m = std::unique_ptr<Module>(new Module());
      m->tu_ = it->second.tu;
      m->program_ = it->second.program;
      m->dialect_ = dialect;
      return m;
    }
  }

  // Front end. Capture only the diagnostics this compile adds, so replay
  // reproduces them exactly regardless of what the engine already holds.
  const size_t diags_before = diags.diagnostics().size();
  Status st = OkStatus();
  std::shared_ptr<lang::TranslationUnit> tu;
  std::shared_ptr<const Program> program;
  lang::ParseOptions popts;
  popts.dialect = dialect;
  auto parsed = lang::ParseTranslationUnit(source, popts, diags);
  if (!parsed.ok()) {
    st = parsed.status();
  } else {
    tu = std::shared_ptr<lang::TranslationUnit>(std::move(*parsed));
    if (dialect == Dialect::kCUDA) st = lang::LowerCppFeatures(*tu, diags);
    lang::SemaOptions sopts;
    sopts.dialect = dialect;
    if (st.ok()) st = lang::Analyze(*tu, sopts, diags);
    if (st.ok())
      program = std::make_shared<const Program>(*tu);
    else
      tu = nullptr;
  }

  {
    CacheEntry entry;
    entry.tu = tu;
    entry.program = program;
    entry.status = st;
    entry.diags.assign(diags.diagnostics().begin() + diags_before,
                       diags.diagnostics().end());
    std::lock_guard<std::mutex> lock(g_cache_mu);
    g_cache_misses.fetch_add(1, std::memory_order_relaxed);
    // A concurrent miss on the same key may have inserted first; keep it.
    CacheMap().emplace(key, std::move(entry));
  }

  if (!st.ok()) return st;
  auto m = std::unique_ptr<Module>(new Module());
  m->tu_ = std::move(tu);
  m->program_ = std::move(program);
  m->dialect_ = dialect;
  return m;
}

Status Module::LoadOn(simgpu::Device& device) {
  if (loaded_device_ == &device) return OkStatus();
  loaded_device_ = &device;
  symbols_.clear();
  var_vas_.clear();

  // Pass 1: constant-region layout.
  size_t const_offset = 0;
  for (auto& d : tu_->decls) {
    if (d->kind != DeclKind::kVar) continue;
    auto* v = d->As<VarDecl>();
    if (v->quals.space != AddressSpace::kConstant) continue;
    size_t align = v->type->Alignment();
    const_offset = (const_offset + align - 1) / align * align;
    size_t size = v->type->ByteSize();
    if (const_offset + size > device.profile().constant_mem_size)
      return ResourceExhaustedError(
          StrFormat("constant memory exhausted laying out '%s' (%zu + %zu > "
                    "%zu)",
                    v->name.c_str(), const_offset, size,
                    device.profile().constant_mem_size));
    uint64_t va = device.vm().constant_base() + const_offset;
    symbols_[v->name] = Symbol{va, size, AddressSpace::kConstant};
    var_vas_[v] = va;
    const_offset += size;
  }
  device.vm().MapConstant(device.profile().constant_mem_size);

  // Pass 2: CUDA __device__ statics go to global memory.
  for (auto& d : tu_->decls) {
    if (d->kind != DeclKind::kVar) continue;
    auto* v = d->As<VarDecl>();
    if (v->quals.space != AddressSpace::kGlobal) continue;
    size_t size = v->type->ByteSize();
    BRIDGECL_ASSIGN_OR_RETURN(uint64_t va, device.vm().AllocGlobal(size));
    symbols_[v->name] = Symbol{va, size, AddressSpace::kGlobal};
    var_vas_[v] = va;
  }

  // Pass 3: encode initializers.
  for (auto& d : tu_->decls) {
    if (d->kind != DeclKind::kVar) continue;
    auto* v = d->As<VarDecl>();
    auto it = var_vas_.find(v);
    if (it == var_vas_.end()) continue;
    size_t size = v->type->ByteSize();
    BRIDGECL_ASSIGN_OR_RETURN(std::byte * p,
                              device.vm().Resolve(it->second, size));
    BRIDGECL_RETURN_IF_ERROR(EncodeInit(*v, p, size));
  }
  return OkStatus();
}

const FunctionDecl* Module::FindKernel(const std::string& name) const {
  const FunctionDecl* f = tu_->FindFunction(name);
  if (f != nullptr && f->quals.is_kernel && f->body) return f;
  return nullptr;
}

StatusOr<Module::Symbol> Module::FindSymbol(const std::string& name) const {
  auto it = symbols_.find(name);
  if (it == symbols_.end())
    return NotFoundError("no device symbol named '" + name + "'");
  return it->second;
}

uint64_t Module::VaOf(const VarDecl* v) const {
  auto it = var_vas_.find(v);
  return it == var_vas_.end() ? 0 : it->second;
}

Status Module::BindTexture(const std::string& name, uint64_t image_desc_va) {
  if (FindTextureRef(name) == nullptr)
    return NotFoundError("no texture reference named '" + name + "'");
  texture_bindings_[name] = image_desc_va;
  return OkStatus();
}

StatusOr<uint64_t> Module::TextureBinding(const std::string& name) const {
  auto it = texture_bindings_.find(name);
  if (it == texture_bindings_.end())
    return FailedPreconditionError("texture reference '" + name +
                                   "' used but not bound");
  return it->second;
}

const TextureRefDecl* Module::FindTextureRef(const std::string& name) const {
  for (auto& d : tu_->decls)
    if (d->kind == DeclKind::kTextureRef && d->name == name)
      return d->As<TextureRefDecl>();
  return nullptr;
}

void Module::SetRegisterOverride(const std::string& kernel, int regs) {
  register_overrides_[kernel] = regs;
}

int Module::RegistersFor(const FunctionDecl* kernel) const {
  auto it = register_overrides_.find(kernel->name);
  if (it != register_overrides_.end()) return it->second;
  int table = KernelRegisterTable::Instance().For(kernel->name, dialect_);
  if (table > 0) return table;
  return kernel->register_estimate;
}

KernelRegisterTable& KernelRegisterTable::Instance() {
  static KernelRegisterTable* table = new KernelRegisterTable();
  return *table;
}

void KernelRegisterTable::Set(const std::string& kernel, int opencl_regs,
                              int cuda_regs) {
  entries_[kernel] = Entry{opencl_regs, cuda_regs};
}

int KernelRegisterTable::For(const std::string& kernel,
                             Dialect dialect) const {
  auto it = entries_.find(kernel);
  if (it == entries_.end()) return 0;
  return dialect == Dialect::kOpenCL ? it->second.opencl_regs
                                     : it->second.cuda_regs;
}

}  // namespace bridgecl::interp
