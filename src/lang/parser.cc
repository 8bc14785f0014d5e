#include "lang/parser.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "lang/lexer.h"
#include "support/strings.h"

namespace bridgecl::lang {
namespace {

/// Recursive-descent parser. One instance per translation unit.
class Parser {
 public:
  Parser(std::vector<Token> toks, Dialect dialect, DiagnosticEngine& diags)
      : toks_(std::move(toks)), dialect_(dialect), diags_(diags) {}

  StatusOr<std::unique_ptr<TranslationUnit>> Parse();

 private:
  // -- token helpers -------------------------------------------------------
  const Token& peek(size_t ahead = 0) const {
    size_t p = pos_ + ahead;
    return p < toks_.size() ? toks_[p] : toks_.back();
  }
  const Token& cur() const { return peek(0); }
  Token take() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool at_end() const { return cur().is(TokKind::kEnd); }
  bool eat_punct(const char* s) {
    if (cur().is_punct(s)) {
      take();
      return true;
    }
    return false;
  }
  bool eat_ident(const char* s) {
    if (cur().is_ident(s)) {
      take();
      return true;
    }
    return false;
  }
  Status expect_punct(const char* s) {
    if (eat_punct(s)) return OkStatus();
    return Err(cur().loc, StrFormat("expected '%s' but found '%s'", s,
                                    cur().text.c_str()));
  }
  Status Err(SourceLoc loc, std::string msg) {
    diags_.Error(loc, msg);
    return InvalidArgumentError(std::move(msg));
  }

  // -- type machinery ------------------------------------------------------
  struct DeclSpec {
    Type::Ptr base = nullptr;  // base type before declarators
    std::string base_spelling;      // for structs/typedefs
    VarQuals quals;                 // collected qualifiers
    FunctionQuals fquals;           // function qualifiers seen
    bool saw_fqual = false;
    /// OpenCL: leading address-space qualifier (applies to the pointee if
    /// the declarator turns out to be a pointer).
    bool space_pending = false;
    AddressSpace pending_space = AddressSpace::kPrivate;
  };

  bool IsTypeStart(const Token& t) const;
  bool IsQualifier(const Token& t) const;
  StatusOr<DeclSpec> ParseDeclSpec();
  /// Parse declarator suffix for a variable: pointers, name, arrays, init.
  StatusOr<std::unique_ptr<VarDecl>> ParseDeclarator(const DeclSpec& spec,
                                                     bool is_param,
                                                     bool* is_reference_out);
  StatusOr<Type::Ptr> ParseTypeName();  // for casts / sizeof / template args

  // -- declarations --------------------------------------------------------
  Status ParseTopLevel(TranslationUnit* tu);
  StatusOr<DeclPtr> ParseStructOrTypedef();
  StatusOr<DeclPtr> ParseTextureRef();
  Status ParseFunctionRest(TranslationUnit* tu, DeclSpec spec,
                           std::vector<TemplateParam> tparams);

  // -- statements ----------------------------------------------------------
  StatusOr<StmtPtr> ParseStmt();
  StatusOr<std::unique_ptr<CompoundStmt>> ParseCompound();
  StatusOr<StmtPtr> ParseDeclStmt();

  // -- expressions ---------------------------------------------------------
  StatusOr<ExprPtr> ParseExpr();            // includes comma
  StatusOr<ExprPtr> ParseAssignment();
  StatusOr<ExprPtr> ParseConditional();
  StatusOr<ExprPtr> ParseBinary(int min_prec);
  StatusOr<ExprPtr> ParseUnary();
  StatusOr<ExprPtr> ParsePostfix();
  StatusOr<ExprPtr> ParsePrimary();

  bool LooksLikeTypeAhead(size_t ahead) const;

  std::vector<Token> toks_;
  size_t pos_ = 0;
  Dialect dialect_;
  DiagnosticEngine& diags_;

  std::unordered_map<std::string, StructDecl*> structs_;
  std::unordered_map<std::string, Type::Ptr> typedefs_;
  std::unordered_set<std::string> template_fns_;
  std::unordered_set<std::string> template_params_in_scope_;
};

// Binary operator precedence (higher binds tighter).
struct OpInfo {
  BinaryOp op;
  int prec;
};
bool GetBinaryOp(const Token& t, OpInfo* info) {
  if (!t.is(TokKind::kPunct)) return false;
  static const std::unordered_map<std::string, OpInfo> kOps = {
      {"||", {BinaryOp::kLOr, 1}},  {"&&", {BinaryOp::kLAnd, 2}},
      {"|", {BinaryOp::kOr, 3}},    {"^", {BinaryOp::kXor, 4}},
      {"&", {BinaryOp::kAnd, 5}},   {"==", {BinaryOp::kEQ, 6}},
      {"!=", {BinaryOp::kNE, 6}},   {"<", {BinaryOp::kLT, 7}},
      {">", {BinaryOp::kGT, 7}},    {"<=", {BinaryOp::kLE, 7}},
      {">=", {BinaryOp::kGE, 7}},   {"<<", {BinaryOp::kShl, 8}},
      {">>", {BinaryOp::kShr, 8}},  {"+", {BinaryOp::kAdd, 9}},
      {"-", {BinaryOp::kSub, 9}},   {"*", {BinaryOp::kMul, 10}},
      {"/", {BinaryOp::kDiv, 10}},  {"%", {BinaryOp::kRem, 10}},
  };
  auto it = kOps.find(t.text);
  if (it == kOps.end()) return false;
  *info = it->second;
  return true;
}

bool GetCompoundAssignOp(const Token& t, BinaryOp* op) {
  if (!t.is(TokKind::kPunct)) return false;
  static const std::unordered_map<std::string, BinaryOp> kOps = {
      {"+=", BinaryOp::kAdd}, {"-=", BinaryOp::kSub}, {"*=", BinaryOp::kMul},
      {"/=", BinaryOp::kDiv}, {"%=", BinaryOp::kRem}, {"&=", BinaryOp::kAnd},
      {"|=", BinaryOp::kOr},  {"^=", BinaryOp::kXor}, {"<<=", BinaryOp::kShl},
      {">>=", BinaryOp::kShr},
  };
  auto it = kOps.find(t.text);
  if (it == kOps.end()) return false;
  *op = it->second;
  return true;
}

/// Scalar type spellings accepted in both dialects (OpenCL short names are
/// accepted under CUDA too: real CUDA code gets them from vector_types.h).
bool ScalarTypeFromName(const std::string& n, ScalarKind* k) {
  static const std::unordered_map<std::string, ScalarKind> kNames = {
      {"void", ScalarKind::kVoid},     {"bool", ScalarKind::kBool},
      {"char", ScalarKind::kChar},     {"uchar", ScalarKind::kUChar},
      {"short", ScalarKind::kShort},   {"ushort", ScalarKind::kUShort},
      {"int", ScalarKind::kInt},       {"uint", ScalarKind::kUInt},
      {"long", ScalarKind::kLong},     {"ulong", ScalarKind::kULong},
      {"float", ScalarKind::kFloat},   {"double", ScalarKind::kDouble},
      {"size_t", ScalarKind::kSizeT},
  };
  auto it = kNames.find(n);
  if (it == kNames.end()) return false;
  *k = it->second;
  return true;
}

bool Parser::IsQualifier(const Token& t) const {
  if (!t.is(TokKind::kIdent)) return false;
  const std::string& n = t.text;
  // Dialect-neutral.
  if (n == "const" || n == "volatile" || n == "static" || n == "extern" ||
      n == "inline" || n == "restrict")
    return true;
  if (dialect_ == Dialect::kOpenCL) {
    if (n == "__kernel" || n == "kernel" || n == "__global" || n == "global" ||
        n == "__local" || n == "local" || n == "__constant" ||
        n == "constant" || n == "__private" || n == "private" ||
        n == "__read_only" || n == "read_only" || n == "__write_only" ||
        n == "write_only")
      return true;
  } else {
    if (n == "__global__" || n == "__device__" || n == "__host__" ||
        n == "__shared__" || n == "__constant__" || n == "__restrict__" ||
        n == "__forceinline__")
      return true;
  }
  return false;
}

bool Parser::IsTypeStart(const Token& t) const {
  if (!t.is(TokKind::kIdent)) return false;
  const std::string& n = t.text;
  ScalarKind k;
  int w;
  if (ScalarTypeFromName(n, &k)) return true;
  if (ParseVectorTypeName(n, &k, &w)) return true;
  if (n == "unsigned" || n == "signed" || n == "struct") return true;
  if (n == "image1d_t" || n == "image2d_t" || n == "image3d_t" ||
      n == "sampler_t")
    return true;
  if (dialect_ == Dialect::kCUDA && n == "texture") return true;
  if (typedefs_.count(n) || structs_.count(n)) return true;
  if (template_params_in_scope_.count(n)) return true;
  return false;
}

bool Parser::LooksLikeTypeAhead(size_t ahead) const {
  // Skip qualifiers, then require a type start.
  while (IsQualifier(peek(ahead))) ++ahead;
  return IsTypeStart(peek(ahead));
}

StatusOr<Parser::DeclSpec> Parser::ParseDeclSpec() {
  DeclSpec spec;
  // Qualifiers may appear before and between; loop until base type parsed.
  bool base_done = false;
  while (!base_done) {
    const Token& t = cur();
    if (!t.is(TokKind::kIdent))
      return Err(t.loc, "expected declaration specifier, found '" + t.text +
                            "'");
    const std::string& n = t.text;

    // ---- function qualifiers ----
    if ((dialect_ == Dialect::kOpenCL && (n == "__kernel" || n == "kernel")) ) {
      spec.fquals.is_kernel = true;
      spec.saw_fqual = true;
      take();
      continue;
    }
    if (dialect_ == Dialect::kCUDA && n == "__global__") {
      spec.fquals.is_kernel = true;
      spec.saw_fqual = true;
      take();
      continue;
    }
    if (dialect_ == Dialect::kCUDA && n == "__host__") {
      spec.fquals.is_host = true;
      spec.saw_fqual = true;
      take();
      continue;
    }
    // __device__ is ambiguous in CUDA: function qualifier or variable
    // address space. Record it as a pending space; ParseFunctionRest
    // reinterprets it when the declarator is a function.
    if (dialect_ == Dialect::kCUDA && n == "__device__") {
      spec.space_pending = true;
      spec.pending_space = AddressSpace::kGlobal;
      spec.quals.space_explicit = true;
      take();
      continue;
    }

    // ---- address-space qualifiers ----
    if (dialect_ == Dialect::kOpenCL &&
        (n == "__global" || n == "global")) {
      spec.space_pending = true;
      spec.pending_space = AddressSpace::kGlobal;
      spec.quals.space_explicit = true;
      take();
      continue;
    }
    if ((dialect_ == Dialect::kOpenCL && (n == "__local" || n == "local")) ||
        (dialect_ == Dialect::kCUDA && n == "__shared__")) {
      spec.space_pending = true;
      spec.pending_space = AddressSpace::kLocal;
      spec.quals.space_explicit = true;
      take();
      continue;
    }
    if ((dialect_ == Dialect::kOpenCL &&
         (n == "__constant" || n == "constant")) ||
        (dialect_ == Dialect::kCUDA && n == "__constant__")) {
      spec.space_pending = true;
      spec.pending_space = AddressSpace::kConstant;
      spec.quals.space_explicit = true;
      take();
      continue;
    }
    if (dialect_ == Dialect::kOpenCL && (n == "__private" || n == "private")) {
      spec.space_pending = true;
      spec.pending_space = AddressSpace::kPrivate;
      spec.quals.space_explicit = true;
      take();
      continue;
    }

    // ---- other qualifiers ----
    if (n == "const") {
      spec.quals.is_const = true;
      take();
      continue;
    }
    if (n == "volatile") {
      spec.quals.is_volatile = true;
      take();
      continue;
    }
    if (n == "static") {
      spec.quals.is_static = true;
      take();
      continue;
    }
    if (n == "extern") {
      spec.quals.is_extern = true;
      take();
      continue;
    }
    if (n == "inline" || n == "__forceinline__") {
      take();
      continue;
    }
    if (n == "restrict" || n == "__restrict__") {
      spec.quals.is_restrict = true;
      take();
      continue;
    }
    if (dialect_ == Dialect::kOpenCL &&
        (n == "__read_only" || n == "read_only")) {
      spec.quals.read_only = true;
      take();
      continue;
    }
    if (dialect_ == Dialect::kOpenCL &&
        (n == "__write_only" || n == "write_only")) {
      spec.quals.write_only = true;
      take();
      continue;
    }

    // ---- base type ----
    ScalarKind k;
    int w;
    if (n == "unsigned" || n == "signed") {
      bool is_unsigned = (n == "unsigned");
      take();
      std::string t2 =
          cur().is(TokKind::kIdent) ? cur().text : std::string("int");
      if (t2 == "char") {
        take();
        spec.base = Type::Scalar(is_unsigned ? ScalarKind::kUChar
                                             : ScalarKind::kChar);
      } else if (t2 == "short") {
        take();
        spec.base = Type::Scalar(is_unsigned ? ScalarKind::kUShort
                                             : ScalarKind::kShort);
      } else if (t2 == "long") {
        take();
        if (eat_ident("long")) {
          if (eat_ident("int")) {}
          spec.base = Type::Scalar(is_unsigned ? ScalarKind::kULongLong
                                               : ScalarKind::kLongLong);
        } else {
          if (eat_ident("int")) {}
          spec.base = Type::Scalar(is_unsigned ? ScalarKind::kULong
                                               : ScalarKind::kLong);
        }
      } else if (t2 == "int") {
        take();
        spec.base =
            Type::Scalar(is_unsigned ? ScalarKind::kUInt : ScalarKind::kInt);
      } else {
        spec.base =
            Type::Scalar(is_unsigned ? ScalarKind::kUInt : ScalarKind::kInt);
      }
      base_done = true;
      continue;
    }
    if (n == "long") {
      take();
      if (eat_ident("long")) {
        if (eat_ident("int")) {}
        spec.base = Type::Scalar(ScalarKind::kLongLong);
      } else {
        if (eat_ident("int")) {}
        spec.base = Type::Scalar(ScalarKind::kLong);
      }
      base_done = true;
      continue;
    }
    if (ParseVectorTypeName(n, &k, &w)) {
      take();
      spec.base = Type::Vector(k, w);
      spec.base_spelling = n;
      base_done = true;
      continue;
    }
    if (ScalarTypeFromName(n, &k)) {
      take();
      spec.base = Type::Scalar(k);
      base_done = true;
      continue;
    }
    if (n == "image1d_t" || n == "image2d_t" || n == "image3d_t") {
      take();
      spec.base = Type::Image(n[5] - '0');
      spec.base_spelling = n;
      base_done = true;
      continue;
    }
    if (n == "sampler_t") {
      take();
      spec.base = Type::Sampler();
      spec.base_spelling = n;
      base_done = true;
      continue;
    }
    if (n == "struct") {
      take();
      if (!cur().is(TokKind::kIdent))
        return Err(cur().loc, "expected struct name");
      std::string sname = take().text;
      auto it = structs_.find(sname);
      if (it == structs_.end())
        return Err(t.loc, "unknown struct '" + sname + "'");
      spec.base = Type::Struct(it->second);
      spec.base_spelling = "struct " + sname;
      base_done = true;
      continue;
    }
    if (auto it = typedefs_.find(n); it != typedefs_.end()) {
      take();
      spec.base = it->second;
      spec.base_spelling = n;
      base_done = true;
      continue;
    }
    if (auto it = structs_.find(n); it != structs_.end()) {
      take();
      spec.base = Type::Struct(it->second);
      spec.base_spelling = n;
      base_done = true;
      continue;
    }
    if (template_params_in_scope_.count(n)) {
      take();
      spec.base = Type::Named(n);
      spec.base_spelling = n;
      base_done = true;
      continue;
    }
    return Err(t.loc, "unknown type name '" + n + "'");
  }

  // Trailing qualifiers after the base type ("int const", "float* const").
  while (IsQualifier(cur()) && !cur().is_ident("extern") &&
         !cur().is_ident("static")) {
    const std::string& n = cur().text;
    if (n == "const")
      spec.quals.is_const = true;
    else if (n == "volatile")
      spec.quals.is_volatile = true;
    else if (n == "restrict" || n == "__restrict__")
      spec.quals.is_restrict = true;
    else
      break;  // address-space qualifier after base type: leave for declarator
    take();
  }
  return spec;
}

StatusOr<std::unique_ptr<VarDecl>> Parser::ParseDeclarator(
    const DeclSpec& spec, bool is_param, bool* is_reference_out) {
  auto var = std::make_unique<VarDecl>();
  var->loc = cur().loc;
  var->is_param = is_param;
  var->quals = spec.quals;
  var->type_spelling = spec.base_spelling;
  Type::Ptr ty = spec.base;

  int pointer_depth = 0;
  while (eat_punct("*")) {
    ++pointer_depth;
    // Qualifiers between '*' and the name.
    while (IsQualifier(cur())) {
      const std::string& n = cur().text;
      if (n == "const")
        var->quals.is_const = true;
      else if (n == "restrict" || n == "__restrict__")
        var->quals.is_restrict = true;
      else if (n == "volatile")
        var->quals.is_volatile = true;
      else
        break;
      take();
    }
  }
  bool is_ref = false;
  if (dialect_ == Dialect::kCUDA && eat_punct("&")) is_ref = true;
  if (is_reference_out) *is_reference_out = is_ref;

  if (!cur().is(TokKind::kIdent)) {
    // Abstract declarator (unnamed parameter) is allowed for prototypes.
    if (!is_param) return Err(cur().loc, "expected variable name");
  } else {
    var->name = take().text;
  }
  // LowerCppFeatures turns reference parameters into pointers; nothing
  // lowers any other reference, so it is refused rather than copied.
  if (is_ref && !is_param)
    return Err(var->loc, "reference variable '" + var->name +
                             "' is not supported; only parameters may be "
                             "references, so use a pointer");

  // Array suffixes.
  std::vector<size_t> extents;
  bool unsized_array = false;
  while (eat_punct("[")) {
    if (eat_punct("]")) {
      unsized_array = true;
      extents.push_back(0);
      continue;
    }
    BRIDGECL_ASSIGN_OR_RETURN(ExprPtr e, ParseConditional());
    // Extents must be integer literals (after macro expansion); nothing
    // folds a constant expression here or later.
    size_t extent = 0;
    if (e->kind == ExprKind::kIntLit) {
      extent = e->As<IntLitExpr>()->value;
    } else {
      return Err(e->loc, "array extent must be an integer literal (after "
                         "macro expansion)");
    }
    extents.push_back(extent);
    BRIDGECL_RETURN_IF_ERROR(expect_punct("]"));
  }

  // Compose the type inside-out: base -> pointers -> arrays.
  AddressSpace var_space = AddressSpace::kPrivate;
  if (spec.space_pending) {
    if (pointer_depth > 0 && dialect_ == Dialect::kOpenCL) {
      // OpenCL: qualifier names the pointee space (§3.6).
      // handled below when wrapping pointers
    } else {
      var_space = spec.pending_space;
    }
  }
  for (int i = 0; i < pointer_depth; ++i) {
    AddressSpace pointee_space = AddressSpace::kPrivate;
    if (i == pointer_depth - 1 && spec.space_pending &&
        dialect_ == Dialect::kOpenCL) {
      pointee_space = spec.pending_space;
    }
    ty = Type::Pointer(std::move(ty), pointee_space);
  }
  // In OpenCL, `__local int* p` as a *param* means pointee in local memory;
  // the variable itself is private. In CUDA, `__device__ int* p` at file
  // scope means the pointer variable lives in global memory.
  var->quals.space = var_space;

  // Arrays wrap outside pointers: `int* a[4]` is array of pointers.
  for (auto it = extents.rbegin(); it != extents.rend(); ++it)
    ty = Type::Array(std::move(ty), *it);
  if (unsized_array && is_param) {
    // Param arrays decay to pointers: `__local int x[]` == `__local int* x`.
    AddressSpace sp = spec.space_pending && dialect_ == Dialect::kOpenCL
                          ? spec.pending_space
                          : AddressSpace::kPrivate;
    ty = Type::Pointer(ty->element(), sp);
  }

  var->type = std::move(ty);

  // Initializer.
  if (eat_punct("=")) {
    if (cur().is_punct("{")) {
      take();
      auto init = std::make_unique<InitListExpr>();
      init->loc = cur().loc;
      if (!cur().is_punct("}")) {
        while (true) {
          BRIDGECL_ASSIGN_OR_RETURN(ExprPtr e, ParseAssignment());
          init->elems.push_back(std::move(e));
          if (!eat_punct(",")) break;
        }
      }
      BRIDGECL_RETURN_IF_ERROR(expect_punct("}"));
      var->init = std::move(init);
    } else {
      BRIDGECL_ASSIGN_OR_RETURN(var->init, ParseAssignment());
    }
  }
  return var;
}

StatusOr<Type::Ptr> Parser::ParseTypeName() {
  BRIDGECL_ASSIGN_OR_RETURN(DeclSpec spec, ParseDeclSpec());
  Type::Ptr ty = spec.base;
  int pointer_depth = 0;
  while (eat_punct("*")) ++pointer_depth;
  for (int i = 0; i < pointer_depth; ++i) {
    AddressSpace sp = AddressSpace::kPrivate;
    if (i == pointer_depth - 1 && spec.space_pending) sp = spec.pending_space;
    ty = Type::Pointer(std::move(ty), sp);
  }
  return ty;
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

StatusOr<DeclPtr> Parser::ParseStructOrTypedef() {
  SourceLoc loc = cur().loc;
  bool is_typedef = eat_ident("typedef");

  if (is_typedef && !cur().is_ident("struct")) {
    // `typedef <type> Name;`
    BRIDGECL_ASSIGN_OR_RETURN(Type::Ptr ty, ParseTypeName());
    if (!cur().is(TokKind::kIdent))
      return Err(cur().loc, "expected typedef name");
    auto td = std::make_unique<TypedefDecl>();
    td->loc = loc;
    td->name = take().text;
    td->underlying = ty;
    typedefs_[td->name] = ty;
    BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
    return DeclPtr(std::move(td));
  }

  // struct [Name] { fields } [Name2] ;
  if (!eat_ident("struct")) return Err(cur().loc, "expected 'struct'");
  auto sd = std::make_unique<StructDecl>();
  sd->loc = loc;
  sd->is_typedef = is_typedef;
  if (cur().is(TokKind::kIdent)) sd->name = take().text;
  // Register early so self-referential pointers (`struct Node* next`) work.
  if (!sd->name.empty()) structs_[sd->name] = sd.get();

  BRIDGECL_RETURN_IF_ERROR(expect_punct("{"));
  while (!cur().is_punct("}")) {
    BRIDGECL_ASSIGN_OR_RETURN(DeclSpec spec, ParseDeclSpec());
    while (true) {
      BRIDGECL_ASSIGN_OR_RETURN(auto field_var,
                                ParseDeclarator(spec, false, nullptr));
      StructField f;
      f.name = field_var->name;
      f.type = field_var->type;
      f.type_spelling = field_var->type_spelling;
      sd->fields.push_back(std::move(f));
      if (!eat_punct(",")) break;
    }
    BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
  }
  take();  // }

  if (cur().is(TokKind::kIdent)) {
    std::string alias = take().text;
    if (sd->name.empty()) sd->name = alias;
    structs_[alias] = sd.get();
    typedefs_[alias] = Type::Struct(sd.get());
  }
  BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
  return DeclPtr(std::move(sd));
}

StatusOr<DeclPtr> Parser::ParseTextureRef() {
  // texture<float, 2, cudaReadModeElementType> name;
  SourceLoc loc = cur().loc;
  take();  // 'texture'
  BRIDGECL_RETURN_IF_ERROR(expect_punct("<"));
  auto tex = std::make_unique<TextureRefDecl>();
  tex->loc = loc;

  if (!cur().is(TokKind::kIdent)) return Err(cur().loc, "expected texel type");
  std::string tname = take().text;
  ScalarKind k;
  int w = 1;
  if (ScalarTypeFromName(tname, &k)) {
    tex->elem = k;
  } else if (ParseVectorTypeName(tname, &k, &w)) {
    tex->elem = k;
    tex->elem_width = w;
  } else {
    return Err(loc, "unsupported texel type '" + tname + "'");
  }
  if (eat_punct(",")) {
    if (!cur().is(TokKind::kIntLit)) return Err(cur().loc, "expected dims");
    tex->dims = static_cast<int>(take().int_value);
    if (eat_punct(",")) {
      if (!cur().is(TokKind::kIdent))
        return Err(cur().loc, "expected read mode");
      std::string mode = take().text;
      tex->normalized_coords = (mode == "cudaReadModeNormalizedFloat");
    }
  }
  BRIDGECL_RETURN_IF_ERROR(expect_punct(">"));
  if (!cur().is(TokKind::kIdent))
    return Err(cur().loc, "expected texture reference name");
  tex->name = take().text;
  BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
  return DeclPtr(std::move(tex));
}

Status Parser::ParseFunctionRest(TranslationUnit* tu, DeclSpec spec,
                                 std::vector<TemplateParam> tparams) {
  auto fn = std::make_unique<FunctionDecl>();
  fn->loc = cur().loc;
  fn->quals = spec.fquals;
  fn->return_type = spec.base;
  fn->return_type_spelling = spec.base_spelling;
  fn->template_params = std::move(tparams);

  // A pending `__device__` on a function is the CUDA function qualifier.
  if (spec.space_pending && dialect_ == Dialect::kCUDA &&
      spec.pending_space == AddressSpace::kGlobal && !spec.fquals.is_kernel) {
    fn->quals.is_device = true;
  }
  int ret_ptr_depth = 0;
  while (eat_punct("*")) ++ret_ptr_depth;
  for (int i = 0; i < ret_ptr_depth; ++i)
    fn->return_type = Type::Pointer(fn->return_type, AddressSpace::kPrivate);

  if (!cur().is(TokKind::kIdent)) return Err(cur().loc, "expected name");
  fn->name = take().text;
  if (!fn->template_params.empty()) template_fns_.insert(fn->name);

  BRIDGECL_RETURN_IF_ERROR(expect_punct("("));
  if (!cur().is_punct(")")) {
    if (cur().is_ident("void") && peek(1).is_punct(")")) {
      take();
    } else {
      while (true) {
        BRIDGECL_ASSIGN_OR_RETURN(DeclSpec pspec, ParseDeclSpec());
        bool is_ref = false;
        BRIDGECL_ASSIGN_OR_RETURN(auto param,
                                  ParseDeclarator(pspec, true, &is_ref));
        // OpenCL kernel pointer params: the address-space qualifier binds
        // to the pointee; a parameter itself is always private. For a
        // *non*-pointer param with __local (illegal) sema diagnoses.
        fn->params.push_back(std::move(param));
        fn->param_is_reference.push_back(is_ref);
        if (!eat_punct(",")) break;
      }
    }
  }
  BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));

  if (eat_punct(";")) {
    tu->decls.push_back(std::move(fn));
    return OkStatus();
  }
  BRIDGECL_ASSIGN_OR_RETURN(fn->body, ParseCompound());
  tu->decls.push_back(std::move(fn));
  return OkStatus();
}

Status Parser::ParseTopLevel(TranslationUnit* tu) {
  // typedef / struct
  if (cur().is_ident("typedef") ||
      (cur().is_ident("struct") &&
       (peek(1).is_punct("{") ||
        (peek(1).is(TokKind::kIdent) && peek(2).is_punct("{"))))) {
    BRIDGECL_ASSIGN_OR_RETURN(DeclPtr d, ParseStructOrTypedef());
    tu->decls.push_back(std::move(d));
    return OkStatus();
  }
  // CUDA texture reference
  if (dialect_ == Dialect::kCUDA && cur().is_ident("texture") &&
      peek(1).is_punct("<")) {
    BRIDGECL_ASSIGN_OR_RETURN(DeclPtr d, ParseTextureRef());
    tu->decls.push_back(std::move(d));
    return OkStatus();
  }
  // CUDA template function
  std::vector<TemplateParam> tparams;
  if (dialect_ == Dialect::kCUDA && cur().is_ident("template")) {
    take();
    BRIDGECL_RETURN_IF_ERROR(expect_punct("<"));
    while (true) {
      if (!eat_ident("typename") && !eat_ident("class"))
        return Err(cur().loc, "expected 'typename'");
      if (!cur().is(TokKind::kIdent))
        return Err(cur().loc, "expected template parameter name");
      TemplateParam tp;
      tp.name = take().text;
      template_params_in_scope_.insert(tp.name);
      tparams.push_back(std::move(tp));
      if (!eat_punct(",")) break;
    }
    BRIDGECL_RETURN_IF_ERROR(expect_punct(">"));
  }

  BRIDGECL_ASSIGN_OR_RETURN(DeclSpec spec, ParseDeclSpec());

  // Function or variable? Look ahead: [*]* name (
  size_t ahead = 0;
  while (peek(ahead).is_punct("*")) ++ahead;
  bool is_function =
      peek(ahead).is(TokKind::kIdent) && peek(ahead + 1).is_punct("(");

  if (is_function) {
    Status st = ParseFunctionRest(tu, std::move(spec), std::move(tparams));
    for (const auto& tp : tparams) template_params_in_scope_.erase(tp.name);
    // (tparams was moved; clear the whole scope conservatively)
    template_params_in_scope_.clear();
    return st;
  }
  if (!tparams.empty())
    return Err(cur().loc, "template variables are not supported");

  // File-scope variable(s).
  while (true) {
    BRIDGECL_ASSIGN_OR_RETURN(auto var, ParseDeclarator(spec, false, nullptr));
    tu->decls.push_back(std::move(var));
    if (!eat_punct(",")) break;
  }
  return expect_punct(";");
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<CompoundStmt>> Parser::ParseCompound() {
  BRIDGECL_RETURN_IF_ERROR(expect_punct("{"));
  auto body = std::make_unique<CompoundStmt>();
  body->loc = cur().loc;
  while (!cur().is_punct("}")) {
    if (at_end()) return Err(cur().loc, "unexpected end of file in block");
    BRIDGECL_ASSIGN_OR_RETURN(StmtPtr s, ParseStmt());
    body->body.push_back(std::move(s));
  }
  take();  // }
  return body;
}

StatusOr<StmtPtr> Parser::ParseDeclStmt() {
  BRIDGECL_ASSIGN_OR_RETURN(DeclSpec spec, ParseDeclSpec());
  auto ds = std::make_unique<DeclStmt>();
  ds->loc = cur().loc;
  while (true) {
    BRIDGECL_ASSIGN_OR_RETURN(auto var, ParseDeclarator(spec, false, nullptr));
    ds->vars.push_back(std::move(var));
    if (!eat_punct(",")) break;
  }
  BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
  return StmtPtr(std::move(ds));
}

StatusOr<StmtPtr> Parser::ParseStmt() {
  SourceLoc loc = cur().loc;
  if (cur().is_punct("{")) {
    BRIDGECL_ASSIGN_OR_RETURN(auto c, ParseCompound());
    return StmtPtr(std::move(c));
  }
  if (eat_punct(";")) {
    auto s = std::make_unique<EmptyStmt>();
    s->loc = loc;
    return StmtPtr(std::move(s));
  }
  if (cur().is_ident("if")) {
    take();
    auto s = std::make_unique<IfStmt>();
    s->loc = loc;
    BRIDGECL_RETURN_IF_ERROR(expect_punct("("));
    BRIDGECL_ASSIGN_OR_RETURN(s->cond, ParseExpr());
    BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    BRIDGECL_ASSIGN_OR_RETURN(s->then_stmt, ParseStmt());
    if (eat_ident("else")) {
      BRIDGECL_ASSIGN_OR_RETURN(s->else_stmt, ParseStmt());
    }
    return StmtPtr(std::move(s));
  }
  if (cur().is_ident("for")) {
    take();
    auto s = std::make_unique<ForStmt>();
    s->loc = loc;
    BRIDGECL_RETURN_IF_ERROR(expect_punct("("));
    if (!eat_punct(";")) {
      if (LooksLikeTypeAhead(0)) {
        BRIDGECL_ASSIGN_OR_RETURN(s->init, ParseDeclStmt());
      } else {
        auto es = std::make_unique<ExprStmt>();
        BRIDGECL_ASSIGN_OR_RETURN(es->expr, ParseExpr());
        s->init = std::move(es);
        BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
      }
    }
    if (!cur().is_punct(";")) {
      BRIDGECL_ASSIGN_OR_RETURN(s->cond, ParseExpr());
    }
    BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
    if (!cur().is_punct(")")) {
      BRIDGECL_ASSIGN_OR_RETURN(s->step, ParseExpr());
    }
    BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    BRIDGECL_ASSIGN_OR_RETURN(s->body, ParseStmt());
    return StmtPtr(std::move(s));
  }
  if (cur().is_ident("while")) {
    take();
    auto s = std::make_unique<WhileStmt>();
    s->loc = loc;
    BRIDGECL_RETURN_IF_ERROR(expect_punct("("));
    BRIDGECL_ASSIGN_OR_RETURN(s->cond, ParseExpr());
    BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    BRIDGECL_ASSIGN_OR_RETURN(s->body, ParseStmt());
    return StmtPtr(std::move(s));
  }
  if (cur().is_ident("do")) {
    take();
    auto s = std::make_unique<DoStmt>();
    s->loc = loc;
    BRIDGECL_ASSIGN_OR_RETURN(s->body, ParseStmt());
    if (!eat_ident("while")) return Err(cur().loc, "expected 'while'");
    BRIDGECL_RETURN_IF_ERROR(expect_punct("("));
    BRIDGECL_ASSIGN_OR_RETURN(s->cond, ParseExpr());
    BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
    return StmtPtr(std::move(s));
  }
  if (cur().is_ident("return")) {
    take();
    auto s = std::make_unique<ReturnStmt>();
    s->loc = loc;
    if (!cur().is_punct(";")) {
      BRIDGECL_ASSIGN_OR_RETURN(s->value, ParseExpr());
    }
    BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
    return StmtPtr(std::move(s));
  }
  if (cur().is_ident("break")) {
    take();
    BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
    auto s = std::make_unique<BreakStmt>();
    s->loc = loc;
    return StmtPtr(std::move(s));
  }
  if (cur().is_ident("continue")) {
    take();
    BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
    auto s = std::make_unique<ContinueStmt>();
    s->loc = loc;
    return StmtPtr(std::move(s));
  }
  // Declaration?
  if (LooksLikeTypeAhead(0)) {
    // Guard against expression statements that begin with a type-looking
    // identifier, e.g. a call `foo(x);` where foo is a typedef name — our
    // grammar forbids that collision, so this is safe.
    return ParseDeclStmt();
  }
  // Expression statement.
  auto es = std::make_unique<ExprStmt>();
  es->loc = loc;
  BRIDGECL_ASSIGN_OR_RETURN(es->expr, ParseExpr());
  BRIDGECL_RETURN_IF_ERROR(expect_punct(";"));
  return StmtPtr(std::move(es));
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

StatusOr<ExprPtr> Parser::ParseExpr() {
  BRIDGECL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAssignment());
  while (cur().is_punct(",")) {
    take();
    BRIDGECL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAssignment());
    auto e = MakeBinary(BinaryOp::kComma, std::move(lhs), std::move(rhs));
    lhs = std::move(e);
  }
  return lhs;
}

StatusOr<ExprPtr> Parser::ParseAssignment() {
  BRIDGECL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseConditional());
  if (cur().is_punct("=")) {
    SourceLoc loc = take().loc;
    BRIDGECL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAssignment());
    auto e = MakeAssign(std::move(lhs), std::move(rhs));
    e->loc = loc;
    return ExprPtr(std::move(e));
  }
  BinaryOp op;
  if (GetCompoundAssignOp(cur(), &op)) {
    SourceLoc loc = take().loc;
    BRIDGECL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAssignment());
    auto e = std::make_unique<AssignExpr>();
    e->op = op;
    e->compound = true;
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    e->loc = loc;
    return ExprPtr(std::move(e));
  }
  return lhs;
}

StatusOr<ExprPtr> Parser::ParseConditional() {
  BRIDGECL_ASSIGN_OR_RETURN(ExprPtr cond, ParseBinary(1));
  if (!cur().is_punct("?")) return cond;
  SourceLoc loc = take().loc;
  auto e = std::make_unique<ConditionalExpr>();
  e->loc = loc;
  e->cond = std::move(cond);
  BRIDGECL_ASSIGN_OR_RETURN(e->then_expr, ParseExpr());
  BRIDGECL_RETURN_IF_ERROR(expect_punct(":"));
  BRIDGECL_ASSIGN_OR_RETURN(e->else_expr, ParseConditional());
  return ExprPtr(std::move(e));
}

StatusOr<ExprPtr> Parser::ParseBinary(int min_prec) {
  BRIDGECL_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (true) {
    OpInfo info;
    if (!GetBinaryOp(cur(), &info) || info.prec < min_prec) return lhs;
    SourceLoc loc = take().loc;
    BRIDGECL_ASSIGN_OR_RETURN(ExprPtr rhs, ParseBinary(info.prec + 1));
    auto e = MakeBinary(info.op, std::move(lhs), std::move(rhs));
    e->loc = loc;
    lhs = std::move(e);
  }
}

StatusOr<ExprPtr> Parser::ParseUnary() {
  SourceLoc loc = cur().loc;
  auto mk = [&](UnaryOp op) -> StatusOr<ExprPtr> {
    take();
    auto e = std::make_unique<UnaryExpr>();
    e->op = op;
    e->loc = loc;
    BRIDGECL_ASSIGN_OR_RETURN(e->operand, ParseUnary());
    return ExprPtr(std::move(e));
  };
  if (cur().is_punct("+")) return mk(UnaryOp::kPlus);
  if (cur().is_punct("-")) return mk(UnaryOp::kMinus);
  if (cur().is_punct("!")) return mk(UnaryOp::kNot);
  if (cur().is_punct("~")) return mk(UnaryOp::kBitNot);
  if (cur().is_punct("*")) return mk(UnaryOp::kDeref);
  if (cur().is_punct("&")) return mk(UnaryOp::kAddrOf);
  if (cur().is_punct("++")) return mk(UnaryOp::kPreInc);
  if (cur().is_punct("--")) return mk(UnaryOp::kPreDec);

  if (cur().is_ident("sizeof")) {
    take();
    auto e = std::make_unique<SizeofExpr>();
    e->loc = loc;
    if (cur().is_punct("(") && LooksLikeTypeAhead(1)) {
      take();
      std::string spelling = cur().text;
      BRIDGECL_ASSIGN_OR_RETURN(e->arg_type, ParseTypeName());
      e->type_spelling = spelling;
      BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    } else {
      BRIDGECL_ASSIGN_OR_RETURN(e->arg_expr, ParseUnary());
    }
    return ExprPtr(std::move(e));
  }

  // C++ casts (CUDA device dialect).
  if (dialect_ == Dialect::kCUDA &&
      (cur().is_ident("static_cast") || cur().is_ident("reinterpret_cast") ||
       cur().is_ident("const_cast"))) {
    std::string kind = take().text;
    auto e = std::make_unique<CastExpr>();
    e->loc = loc;
    e->style = kind == "static_cast"        ? CastStyle::kStatic
               : kind == "reinterpret_cast" ? CastStyle::kReinterpret
                                            : CastStyle::kConst;
    BRIDGECL_RETURN_IF_ERROR(expect_punct("<"));
    e->target_spelling = cur().text;
    BRIDGECL_ASSIGN_OR_RETURN(e->target, ParseTypeName());
    BRIDGECL_RETURN_IF_ERROR(expect_punct(">"));
    BRIDGECL_RETURN_IF_ERROR(expect_punct("("));
    BRIDGECL_ASSIGN_OR_RETURN(e->operand, ParseExpr());
    BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    return ExprPtr(std::move(e));
  }

  // C-style cast or OpenCL vector literal: '(' type ')' ...
  if (cur().is_punct("(") && LooksLikeTypeAhead(1)) {
    take();  // (
    std::string spelling = cur().text;
    BRIDGECL_ASSIGN_OR_RETURN(Type::Ptr ty, ParseTypeName());
    BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    // OpenCL vector literal `(float4)(a,b,c,d)` — a following '(' with a
    // vector target type.
    if (ty->is_vector() && cur().is_punct("(")) {
      take();
      auto v = std::make_unique<VectorLitExpr>();
      v->loc = loc;
      v->vec_type = ty;
      while (true) {
        BRIDGECL_ASSIGN_OR_RETURN(ExprPtr el, ParseAssignment());
        v->elems.push_back(std::move(el));
        if (!eat_punct(",")) break;
      }
      BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
      return ExprPtr(std::move(v));
    }
    auto e = std::make_unique<CastExpr>();
    e->loc = loc;
    e->style = CastStyle::kCStyle;
    e->target = std::move(ty);
    e->target_spelling = spelling;
    BRIDGECL_ASSIGN_OR_RETURN(e->operand, ParseUnary());
    return ExprPtr(std::move(e));
  }

  return ParsePostfix();
}

StatusOr<ExprPtr> Parser::ParsePostfix() {
  BRIDGECL_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimary());
  while (true) {
    SourceLoc loc = cur().loc;
    if (cur().is_punct("(")) {
      take();
      auto call = std::make_unique<CallExpr>();
      call->loc = loc;
      call->callee = std::move(e);
      if (!cur().is_punct(")")) {
        while (true) {
          BRIDGECL_ASSIGN_OR_RETURN(ExprPtr a, ParseAssignment());
          call->args.push_back(std::move(a));
          if (!eat_punct(",")) break;
        }
      }
      BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
      e = std::move(call);
      continue;
    }
    if (cur().is_punct("[")) {
      take();
      auto idx = std::make_unique<IndexExpr>();
      idx->loc = loc;
      idx->base = std::move(e);
      BRIDGECL_ASSIGN_OR_RETURN(idx->index, ParseExpr());
      BRIDGECL_RETURN_IF_ERROR(expect_punct("]"));
      e = std::move(idx);
      continue;
    }
    if (cur().is_punct(".") || cur().is_punct("->")) {
      bool arrow = cur().is_punct("->");
      take();
      if (!cur().is(TokKind::kIdent))
        return Err(cur().loc, "expected member name");
      auto m = std::make_unique<MemberExpr>();
      m->loc = loc;
      m->base = std::move(e);
      m->member = take().text;
      m->is_arrow = arrow;
      e = std::move(m);
      continue;
    }
    if (cur().is_punct("++")) {
      take();
      auto u = std::make_unique<UnaryExpr>();
      u->loc = loc;
      u->op = UnaryOp::kPostInc;
      u->operand = std::move(e);
      e = std::move(u);
      continue;
    }
    if (cur().is_punct("--")) {
      take();
      auto u = std::make_unique<UnaryExpr>();
      u->loc = loc;
      u->op = UnaryOp::kPostDec;
      u->operand = std::move(e);
      e = std::move(u);
      continue;
    }
    // Template call `f<float>(x)` — only when f is a known template.
    if (cur().is_punct("<") && e->kind == ExprKind::kDeclRef &&
        template_fns_.count(e->As<DeclRefExpr>()->name)) {
      take();
      std::vector<Type::Ptr> targs;
      while (true) {
        BRIDGECL_ASSIGN_OR_RETURN(Type::Ptr t, ParseTypeName());
        targs.push_back(std::move(t));
        if (!eat_punct(",")) break;
      }
      BRIDGECL_RETURN_IF_ERROR(expect_punct(">"));
      BRIDGECL_RETURN_IF_ERROR(expect_punct("("));
      auto call = std::make_unique<CallExpr>();
      call->loc = loc;
      call->callee = std::move(e);
      call->type_args = std::move(targs);
      if (!cur().is_punct(")")) {
        while (true) {
          BRIDGECL_ASSIGN_OR_RETURN(ExprPtr a, ParseAssignment());
          call->args.push_back(std::move(a));
          if (!eat_punct(",")) break;
        }
      }
      BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
      e = std::move(call);
      continue;
    }
    return e;
  }
}

StatusOr<ExprPtr> Parser::ParsePrimary() {
  SourceLoc loc = cur().loc;
  if (cur().is(TokKind::kIntLit)) {
    Token t = take();
    auto e = std::make_unique<IntLitExpr>();
    e->loc = loc;
    e->value = t.int_value;
    e->is_unsigned = t.int_is_unsigned;
    e->is_long = t.int_is_long;
    e->spelling = t.text;
    return ExprPtr(std::move(e));
  }
  if (cur().is(TokKind::kFloatLit)) {
    Token t = take();
    auto e = std::make_unique<FloatLitExpr>();
    e->loc = loc;
    e->value = t.float_value;
    e->is_float = t.float_is_float;
    e->spelling = t.text;
    return ExprPtr(std::move(e));
  }
  if (cur().is(TokKind::kStringLit)) {
    Token t = take();
    auto e = std::make_unique<StringLitExpr>();
    e->loc = loc;
    e->spelling = t.text;
    return ExprPtr(std::move(e));
  }
  if (cur().is(TokKind::kCharLit)) {
    Token t = take();
    auto e = std::make_unique<IntLitExpr>();
    e->loc = loc;
    e->value = t.int_value;
    e->spelling = t.text;
    return ExprPtr(std::move(e));
  }
  if (cur().is(TokKind::kIdent)) {
    if (cur().is_ident("true") || cur().is_ident("false")) {
      bool v = cur().is_ident("true");
      take();
      auto e = std::make_unique<IntLitExpr>();
      e->loc = loc;
      e->value = v ? 1 : 0;
      e->spelling = v ? "true" : "false";
      return ExprPtr(std::move(e));
    }
    auto e = MakeRef(take().text);
    e->loc = loc;
    return ExprPtr(std::move(e));
  }
  if (cur().is_punct("(")) {
    take();
    auto p = std::make_unique<ParenExpr>();
    p->loc = loc;
    BRIDGECL_ASSIGN_OR_RETURN(p->inner, ParseExpr());
    BRIDGECL_RETURN_IF_ERROR(expect_punct(")"));
    return ExprPtr(std::move(p));
  }
  return Err(loc, "expected expression, found '" + cur().text + "'");
}

StatusOr<std::unique_ptr<TranslationUnit>> Parser::Parse() {
  auto tu = std::make_unique<TranslationUnit>();
  while (!at_end()) {
    BRIDGECL_RETURN_IF_ERROR(ParseTopLevel(tu.get()));
  }
  return tu;
}

}  // namespace

StatusOr<std::unique_ptr<TranslationUnit>> ParseTranslationUnit(
    const std::string& source, const ParseOptions& opts,
    DiagnosticEngine& diags) {
  BRIDGECL_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(source, diags));
  Parser p(std::move(toks), opts.dialect, diags);
  return p.Parse();
}

}  // namespace bridgecl::lang
