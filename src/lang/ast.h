// AST for the BridgeCL kernel language. One AST serves both surface
// dialects (OpenCL C and CUDA C/C++ device code); dialect-specific surface
// syntax is normalized at parse time and re-materialized by the printer.
//
// Ownership: every node is uniquely owned by its parent via
// std::unique_ptr; the TranslationUnit owns all top-level declarations.
// Rewriters mutate the tree in place or splice in new nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lang/builtins.h"
#include "lang/type.h"
#include "support/source_location.h"
#include "support/status.h"

namespace bridgecl::lang {

// ---------------------------------------------------------------------------
// Qualifiers
// ---------------------------------------------------------------------------

/// Function-level qualifiers (union of both dialects).
struct FunctionQuals {
  bool is_kernel = false;      // __kernel / __global__
  bool is_device = false;      // CUDA __device__ (callable from device)
  bool is_host = false;        // CUDA __host__
  bool is_extern_c = false;
};

/// Variable-level qualifiers.
struct VarQuals {
  AddressSpace space = AddressSpace::kPrivate;
  bool is_const = false;
  bool is_extern = false;      // CUDA `extern __shared__ T v[];`
  bool is_static = false;
  bool is_restrict = false;
  bool is_volatile = false;
  /// OpenCL image access qualifiers on kernel params.
  bool read_only = false;
  bool write_only = false;
  /// True when the address space came from an explicit qualifier token in
  /// the source (as opposed to being inferred), so printers can decide
  /// whether to re-emit it.
  bool space_explicit = false;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : uint8_t {
  kIntLit,
  kFloatLit,
  kDeclRef,      // resolved or unresolved identifier
  kUnary,
  kBinary,
  kAssign,       // lhs op= rhs (op may be plain '=')
  kConditional,  // c ? a : b
  kCall,
  kIndex,        // base[idx]
  kMember,       // base.field  (swizzles included) or base->field
  kCast,         // (T)x, static_cast<T>(x), reinterpret_cast<T>(x)
  kParen,
  kInitList,     // { a, b, c }
  kSizeof,
  kVectorLit,    // OpenCL (float4)(a,b,c,d)
  kStringLit,    // "..." (printf/assert arguments; not evaluable data)
};

enum class UnaryOp : uint8_t {
  kPlus, kMinus, kNot, kBitNot, kPreInc, kPreDec, kPostInc, kPostDec,
  kDeref, kAddrOf,
};

enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kRem,
  kShl, kShr, kAnd, kOr, kXor,
  kLAnd, kLOr,
  kEQ, kNE, kLT, kGT, kLE, kGE,
  kComma,
};

enum class CastStyle : uint8_t { kCStyle, kStatic, kReinterpret, kConst };

struct Decl;   // forward
struct VarDecl;
struct FunctionDecl;

struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;

  ExprKind kind;
  SourceLoc loc;
  /// Set by sema; null until then.
  Type::Ptr type = nullptr;

  template <typename T>
  T* As() { return static_cast<T*>(this); }
  template <typename T>
  const T* As() const { return static_cast<const T*>(this); }
};

using ExprPtr = std::unique_ptr<Expr>;

struct IntLitExpr : Expr {
  IntLitExpr() : Expr(ExprKind::kIntLit) {}
  uint64_t value = 0;
  bool is_unsigned = false;
  bool is_long = false;
  std::string spelling;  // original text for round-trip printing
};

struct FloatLitExpr : Expr {
  FloatLitExpr() : Expr(ExprKind::kFloatLit) {}
  double value = 0;
  bool is_float = false;  // 'f' suffix
  std::string spelling;
};

struct StringLitExpr : Expr {
  StringLitExpr() : Expr(ExprKind::kStringLit) {}
  std::string spelling;  // includes the quotes
};

struct DeclRefExpr : Expr {
  DeclRefExpr() : Expr(ExprKind::kDeclRef) {}
  std::string name;
  /// Resolved by sema: variable, parameter, function, or builtin.
  VarDecl* var = nullptr;            // non-null for variable references
  FunctionDecl* function = nullptr;  // non-null for user function refs
  BuiltinRef builtin;                // built-in function or variable
  bool is_constant = false;          // named constant (CLK_*, CL_*, cuda*)
};

struct UnaryExpr : Expr {
  UnaryExpr() : Expr(ExprKind::kUnary) {}
  UnaryOp op = UnaryOp::kPlus;
  ExprPtr operand;
};

struct BinaryExpr : Expr {
  BinaryExpr() : Expr(ExprKind::kBinary) {}
  BinaryOp op = BinaryOp::kAdd;
  ExprPtr lhs, rhs;
};

struct AssignExpr : Expr {
  AssignExpr() : Expr(ExprKind::kAssign) {}
  /// kAdd for '+=', etc. `compound` distinguishes plain '='.
  BinaryOp op = BinaryOp::kAdd;
  bool compound = false;
  ExprPtr lhs, rhs;
};

struct ConditionalExpr : Expr {
  ConditionalExpr() : Expr(ExprKind::kConditional) {}
  ExprPtr cond, then_expr, else_expr;
};

struct CallExpr : Expr {
  CallExpr() : Expr(ExprKind::kCall) {}
  ExprPtr callee;  // normally a DeclRefExpr
  std::vector<ExprPtr> args;
  /// For CUDA template calls `f<float>(x)`: explicit type arguments.
  std::vector<Type::Ptr> type_args;
  /// Callee name convenience (empty if callee is not a DeclRef).
  std::string callee_name() const;
};

struct IndexExpr : Expr {
  IndexExpr() : Expr(ExprKind::kIndex) {}
  ExprPtr base, index;
};

/// Member access. If `base` has vector type, `member` is a swizzle:
/// any of x|y|z|w sequences (up to 4), lo, hi, even, odd, or sN/SN with
/// hex component digits. Sema fills `swizzle` with component indices.
struct MemberExpr : Expr {
  MemberExpr() : Expr(ExprKind::kMember) {}
  ExprPtr base;
  std::string member;
  bool is_arrow = false;
  bool is_swizzle = false;
  std::vector<int> swizzle;  // component indices into the base vector
};

struct CastExpr : Expr {
  CastExpr() : Expr(ExprKind::kCast) {}
  CastStyle style = CastStyle::kCStyle;
  Type::Ptr target = nullptr;
  /// Name used to spell the target type when it is a struct/typedef.
  std::string target_spelling;
  ExprPtr operand;
};

struct ParenExpr : Expr {
  ParenExpr() : Expr(ExprKind::kParen) {}
  ExprPtr inner;
};

struct InitListExpr : Expr {
  InitListExpr() : Expr(ExprKind::kInitList) {}
  std::vector<ExprPtr> elems;
};

struct SizeofExpr : Expr {
  SizeofExpr() : Expr(ExprKind::kSizeof) {}
  Type::Ptr arg_type = nullptr;  // sizeof(T) — null if expression form
  std::string type_spelling;
  ExprPtr arg_expr;            // sizeof expr — null if type form
};

/// OpenCL vector literal `(float4)(a, b, c, d)`; also produced when
/// translating CUDA `make_float4(a,b,c,d)`.
struct VectorLitExpr : Expr {
  VectorLitExpr() : Expr(ExprKind::kVectorLit) {}
  Type::Ptr vec_type = nullptr;
  std::vector<ExprPtr> elems;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : uint8_t {
  kCompound,
  kDecl,
  kExpr,
  kIf,
  kFor,
  kWhile,
  kDo,
  kReturn,
  kBreak,
  kContinue,
  kEmpty,
};

struct Stmt {
  explicit Stmt(StmtKind k) : kind(k) {}
  virtual ~Stmt() = default;
  StmtKind kind;
  SourceLoc loc;

  template <typename T>
  T* As() { return static_cast<T*>(this); }
  template <typename T>
  const T* As() const { return static_cast<const T*>(this); }
};

using StmtPtr = std::unique_ptr<Stmt>;

struct CompoundStmt : Stmt {
  CompoundStmt() : Stmt(StmtKind::kCompound) {}
  std::vector<StmtPtr> body;
};

struct DeclStmt : Stmt {
  DeclStmt() : Stmt(StmtKind::kDecl) {}
  /// One statement may declare several variables: `int a = 1, b = 2;`.
  std::vector<std::unique_ptr<VarDecl>> vars;
};

struct ExprStmt : Stmt {
  ExprStmt() : Stmt(StmtKind::kExpr) {}
  ExprPtr expr;
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(StmtKind::kIf) {}
  ExprPtr cond;
  StmtPtr then_stmt;
  StmtPtr else_stmt;  // may be null
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(StmtKind::kFor) {}
  StmtPtr init;   // DeclStmt or ExprStmt or null
  ExprPtr cond;   // may be null
  ExprPtr step;   // may be null
  StmtPtr body;
};

struct WhileStmt : Stmt {
  WhileStmt() : Stmt(StmtKind::kWhile) {}
  ExprPtr cond;
  StmtPtr body;
};

struct DoStmt : Stmt {
  DoStmt() : Stmt(StmtKind::kDo) {}
  StmtPtr body;
  ExprPtr cond;
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(StmtKind::kReturn) {}
  ExprPtr value;  // may be null
};

struct BreakStmt : Stmt {
  BreakStmt() : Stmt(StmtKind::kBreak) {}
};
struct ContinueStmt : Stmt {
  ContinueStmt() : Stmt(StmtKind::kContinue) {}
};
struct EmptyStmt : Stmt {
  EmptyStmt() : Stmt(StmtKind::kEmpty) {}
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

enum class DeclKind : uint8_t {
  kVar,
  kParam,
  kFunction,
  kStruct,
  kTypedef,
  kTextureRef,
};

struct Decl {
  explicit Decl(DeclKind k) : kind(k) {}
  virtual ~Decl() = default;
  DeclKind kind;
  SourceLoc loc;
  std::string name;

  template <typename T>
  T* As() { return static_cast<T*>(this); }
  template <typename T>
  const T* As() const { return static_cast<const T*>(this); }
};

using DeclPtr = std::unique_ptr<Decl>;

/// A variable (global, local, or parameter — parameters set `is_param`).
struct VarDecl : Decl {
  VarDecl() : Decl(DeclKind::kVar) {}
  Type::Ptr type = nullptr;
  VarQuals quals;
  ExprPtr init;              // may be null
  bool is_param = false;
  /// Spelling of the type when it involves a named struct or typedef, so
  /// the printer can reproduce it ("Node*", "float4").
  std::string type_spelling;
  /// Set by sema when the variable's address is taken (&v); the
  /// interpreter spills such variables to addressable private memory.
  bool address_taken = false;
  /// Set by sema for parameters and locals: the variable's index in its
  /// function's frame. -1 at program scope.
  int slot = -1;
};

struct StructField {
  std::string name;
  Type::Ptr type = nullptr;
  std::string type_spelling;
  size_t offset = 0;  // computed layout
};

struct StructDecl : Decl {
  StructDecl() : Decl(DeclKind::kStruct) {}
  std::vector<StructField> fields;
  bool is_typedef = false;  // `typedef struct {...} Name;`
  size_t byte_size = 0;
  size_t alignment = 1;
  const StructField* FindField(const std::string& n) const;
};

struct TypedefDecl : Decl {
  TypedefDecl() : Decl(DeclKind::kTypedef) {}
  Type::Ptr underlying = nullptr;
};

/// CUDA `texture<float, 2, cudaReadModeElementType> tex;` file-scope
/// texture reference — visible to both host and device code in CUDA,
/// which is exactly the property that forces the §5 translation.
struct TextureRefDecl : Decl {
  TextureRefDecl() : Decl(DeclKind::kTextureRef) {}
  ScalarKind elem = ScalarKind::kFloat;
  int elem_width = 1;
  int dims = 1;
  bool normalized_coords = false;
};

struct TemplateParam {
  std::string name;  // `typename T`
};

struct FunctionDecl : Decl {
  FunctionDecl() : Decl(DeclKind::kFunction) {}
  FunctionQuals quals;
  Type::Ptr return_type = nullptr;
  std::string return_type_spelling;
  std::vector<std::unique_ptr<VarDecl>> params;
  std::unique_ptr<CompoundStmt> body;  // null for prototypes
  /// CUDA C++ only; empty otherwise. lang::LowerCppFeatures instantiates.
  std::vector<TemplateParam> template_params;
  /// Params passed by C++ reference (CUDA only): parallel to `params`.
  std::vector<bool> param_is_reference;
  /// Estimated registers per work-item; drives the occupancy model.
  /// Parsed from an optional `__launch_bounds__`-style annotation or
  /// estimated by sema from the body.
  int register_estimate = 0;
  /// Set by sema: the frame slots a call needs, one per parameter and
  /// local (VarDecl::slot).
  int frame_slots = 0;
};

/// Whole parsed source file.
struct TranslationUnit {
  std::vector<DeclPtr> decls;
  /// Convenience lookups populated by sema.
  FunctionDecl* FindFunction(const std::string& name);
  const FunctionDecl* FindFunction(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Small factory helpers used by the parser and the rewriters.
// ---------------------------------------------------------------------------

std::unique_ptr<IntLitExpr> MakeIntLit(uint64_t v);
std::unique_ptr<DeclRefExpr> MakeRef(std::string name);
std::unique_ptr<CallExpr> MakeCall(std::string callee,
                                   std::vector<ExprPtr> args);
std::unique_ptr<BinaryExpr> MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r);
std::unique_ptr<AssignExpr> MakeAssign(ExprPtr l, ExprPtr r);
std::unique_ptr<MemberExpr> MakeMember(ExprPtr base, std::string member);

/// Deep copies (used when a rewrite duplicates subtrees, e.g. expanding
/// `v1.lo = v2.lo` into per-component assignments).
ExprPtr CloneExpr(const Expr& e);
StmtPtr CloneStmt(const Stmt& s);
std::unique_ptr<VarDecl> CloneVarDecl(const VarDecl& v);

/// `e` without its enclosing parentheses.
const Expr& StripParens(const Expr& e);

/// Whether the analyzed `e` designates an object that has an address: a
/// variable, `*p`, a subscript of a pointer or an array, `->`, or a member
/// of such an object. A vector component has none.
bool IsAddressable(const Expr& e);

/// Visit every expression in a statement tree bottom-up. The callback may
/// replace the node by assigning a new expression to the ExprPtr slot it
/// receives (the slot already holds the visited node). Returning a non-ok
/// status aborts the walk.
using ExprMutator = std::function<Status(ExprPtr& slot)>;
Status MutateExprs(Stmt* stmt, const ExprMutator& fn);
Status MutateExprs(ExprPtr& expr, const ExprMutator& fn);

/// Calls `fn` on every variable declared in a statement tree, in order.
using VarVisitor = std::function<void(VarDecl* var)>;
void VisitVarDecls(const Stmt* stmt, const VarVisitor& fn);

/// Structurally replace types for which `fn` returns a replacement,
/// recursing through pointers and arrays.
using TypeReplacer = std::function<Type::Ptr(const Type::Ptr&)>;  // null = keep
Type::Ptr ReplaceType(const Type::Ptr& t, const TypeReplacer& fn);

const char* BinaryOpSpelling(BinaryOp op);
const char* UnaryOpSpelling(UnaryOp op);

}  // namespace bridgecl::lang
