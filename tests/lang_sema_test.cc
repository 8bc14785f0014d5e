#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <thread>
#include <vector>

#include "lang/builtins.h"
#include "lang/cpp_lowering.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace bridgecl::lang {
namespace {

std::unique_ptr<TranslationUnit> Analyzed(const std::string& src, Dialect d,
                                          bool expect_ok = true) {
  DiagnosticEngine diags;
  ParseOptions popts;
  popts.dialect = d;
  auto tu = ParseTranslationUnit(src, popts, diags);
  EXPECT_TRUE(tu.ok()) << diags.ToString();
  if (!tu.ok()) return nullptr;
  SemaOptions sopts;
  sopts.dialect = d;
  Status st = Analyze(**tu, sopts, diags);
  EXPECT_EQ(st.ok(), expect_ok) << diags.ToString();
  return std::move(*tu);
}

TEST(SemaTest, ResolvesNamesAndTypes) {
  auto tu = Analyzed(
      "__kernel void k(__global float* a, int n) {"
      "  int i = get_global_id(0);"
      "  if (i < n) a[i] = a[i] * 2.0f;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  // a[i] * 2.0f has type float.
  auto* iff = f->body->body[1]->As<IfStmt>();
  auto* assign = iff->then_stmt->As<ExprStmt>()->expr->As<AssignExpr>();
  ASSERT_NE(assign->rhs->type, nullptr);
  EXPECT_EQ(assign->rhs->type->scalar_kind(), ScalarKind::kFloat);
}

TEST(SemaTest, UndeclaredIdentifierFails) {
  Analyzed("__kernel void k(__global int* a) { a[0] = bogus; }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, UndeclaredFunctionFails) {
  Analyzed("__kernel void k(__global int* a) { a[0] = no_such_fn(1); }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, SwizzleTyping) {
  auto tu = Analyzed(
      "__kernel void k(__global float4* v) {"
      "  float2 lo = v[0].lo;"
      "  float x = v[0].x;"
      "  float4 r = v[0].wzyx;"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, InvalidSwizzleFails) {
  Analyzed("__kernel void k(__global float2* v) { float x = v[0].z; }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, SwizzleResolution) {
  EXPECT_EQ(ResolveSwizzle("x", 4), (std::vector<int>{0}));
  EXPECT_EQ(ResolveSwizzle("wzyx", 4), (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(ResolveSwizzle("lo", 4), (std::vector<int>{0, 1}));
  EXPECT_EQ(ResolveSwizzle("hi", 4), (std::vector<int>{2, 3}));
  EXPECT_EQ(ResolveSwizzle("even", 8), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(ResolveSwizzle("odd", 4), (std::vector<int>{1, 3}));
  EXPECT_EQ(ResolveSwizzle("s0", 16), (std::vector<int>{0}));
  EXPECT_EQ(ResolveSwizzle("sF", 16), (std::vector<int>{15}));
  EXPECT_EQ(ResolveSwizzle("s01", 2), (std::vector<int>{0, 1}));
  EXPECT_TRUE(ResolveSwizzle("q", 4).empty());
  EXPECT_TRUE(ResolveSwizzle("z", 2).empty());
  EXPECT_TRUE(ResolveSwizzle("xyzwx", 4).empty());
}

TEST(SemaTest, StructLayout) {
  auto tu = Analyzed(
      "typedef struct { char c; double d; int i; } Mixed;"
      "__kernel void k(__global Mixed* m) { m[0].i = 1; }",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  auto* sd = tu->decls[0]->As<StructDecl>();
  EXPECT_EQ(sd->fields[0].offset, 0u);
  EXPECT_EQ(sd->fields[1].offset, 8u);   // double aligned to 8
  EXPECT_EQ(sd->fields[2].offset, 16u);
  EXPECT_EQ(sd->byte_size, 24u);         // padded to alignment 8
  EXPECT_EQ(sd->alignment, 8u);
}

TEST(SemaTest, CudaKernelPointerParamsDefaultToGlobal) {
  auto tu = Analyzed("__global__ void k(float* a) { a[0] = 1.0f; }",
                     Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  EXPECT_EQ(f->params[0]->type->pointee_space(), AddressSpace::kGlobal);
}

TEST(SemaTest, PointerSpacePropagatesThroughLocals) {
  auto tu = Analyzed(
      "__global__ void k(float* a) {"
      "  float* p = a;"      // p inherits global pointee space
      "  p[0] = 1.0f;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  auto* ds = f->body->body[0]->As<DeclStmt>();
  EXPECT_EQ(ds->vars[0]->type->pointee_space(), AddressSpace::kGlobal);
}

TEST(SemaTest, CudaBuiltinVariables) {
  auto tu = Analyzed(
      "__global__ void k(int* o) {"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;"
      "  o[i] = i;"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, OpenClWorkItemFnsReturnSizeT) {
  auto tu = Analyzed(
      "__kernel void k(__global int* o) {"
      "  size_t i = get_global_id(0);"
      "  o[i] = (int)get_local_size(0);"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, CudaBuiltinVarsRejectedInOpenCl) {
  Analyzed("__kernel void k(__global int* o) { o[0] = threadIdx.x; }",
           Dialect::kOpenCL, /*expect_ok=*/false);
}

TEST(SemaTest, OpenClBuiltinsRejectedInCuda) {
  Analyzed("__global__ void k(int* o) { o[0] = get_global_id(0); }",
           Dialect::kCUDA, /*expect_ok=*/false);
}

TEST(SemaTest, AtomicResultTypes) {
  auto tu = Analyzed(
      "__kernel void k(__global int* c) {"
      "  int old = atomic_inc(c);"
      "  int o2 = atomic_add(c, 5);"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
}

TEST(SemaTest, RegisterEstimateGrowsWithLocals) {
  auto small = Analyzed("__kernel void k() { int a; }", Dialect::kOpenCL);
  auto big = Analyzed(
      "__kernel void k() { int a; int b; int c; int d; float e; float f; }",
      Dialect::kOpenCL);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(big->FindFunction("k")->register_estimate,
            small->FindFunction("k")->register_estimate);
}

TEST(SemaTest, ArithmeticResultTypeRules) {
  auto i = Type::IntTy();
  auto f = Type::FloatTy();
  auto d = Type::Scalar(ScalarKind::kDouble);
  auto f4 = Type::Vector(ScalarKind::kFloat, 4);
  EXPECT_EQ(ArithmeticResultType(i, f)->scalar_kind(), ScalarKind::kFloat);
  EXPECT_EQ(ArithmeticResultType(f, d)->scalar_kind(), ScalarKind::kDouble);
  EXPECT_TRUE(ArithmeticResultType(f4, f)->is_vector());
  EXPECT_EQ(ArithmeticResultType(f4, f)->vector_width(), 4);
  // char + char promotes to int.
  auto c = Type::Scalar(ScalarKind::kChar);
  EXPECT_EQ(ArithmeticResultType(c, c)->scalar_kind(), ScalarKind::kInt);
}

TEST(SemaTest, FileScopeVarWithoutSpaceFails) {
  Analyzed("int naked_global;", Dialect::kCUDA, /*expect_ok=*/false);
}

TEST(SemaTest, TextureRefTyping) {
  auto tu = Analyzed(
      "texture<float, 1, cudaReadModeElementType> t1;"
      "__global__ void k(float* o) { o[0] = tex1Dfetch(t1, 3); }",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  auto* f = tu->FindFunction("k");
  auto* assign = f->body->body[0]->As<ExprStmt>()->expr->As<AssignExpr>();
  ASSERT_NE(assign->rhs->type, nullptr);
  EXPECT_EQ(assign->rhs->type->scalar_kind(), ScalarKind::kFloat);
}

// ---------------------------------------------------------------------------
// Built-in resolution: sema resolves each use to one catalog entry and
// rejects calls with fewer arguments than the entry's operation reads.
// ---------------------------------------------------------------------------

TEST(SemaTest, ResolvesBuiltinsToCatalogEntries) {
  auto tu = Analyzed(
      "__global__ void k(float* o, int* c) {"
      "  o[threadIdx.x] = sqrtf(o[0]);"
      "  atomicAdd(c, 1);"
      "  float4 v = make_float4(1.0f, 2.0f, 3.0f, 4.0f);"
      "}",
      Dialect::kCUDA);
  ASSERT_NE(tu, nullptr);
  auto* body = tu->FindFunction("k")->body.get();
  auto* assign = body->body[0]->As<ExprStmt>()->expr->As<AssignExpr>();
  auto* index = assign->lhs->As<IndexExpr>();
  auto* tid = index->index->As<MemberExpr>()->base->As<DeclRefExpr>();
  ASSERT_TRUE(tid->builtin);
  EXPECT_EQ(tid->builtin.op(), BuiltinOp::kThreadIdx);
  auto callee = [](const Expr* e) {
    return e->As<CallExpr>()->callee->As<DeclRefExpr>();
  };
  const DeclRefExpr* sqrtf_ref = callee(assign->rhs.get());
  ASSERT_TRUE(sqrtf_ref->builtin);
  EXPECT_EQ(sqrtf_ref->builtin.op(), BuiltinOp::kMathUnary);
  EXPECT_EQ(sqrtf_ref->builtin.info->counterpart, "sqrt");
  const DeclRefExpr* add =
      callee(body->body[1]->As<ExprStmt>()->expr.get());
  EXPECT_EQ(add->builtin.info, FindBuiltin("atomicAdd", Dialect::kCUDA).info);
  const DeclRefExpr* make =
      callee(body->body[2]->As<DeclStmt>()->vars[0]->init.get());
  EXPECT_EQ(make->builtin.op(), BuiltinOp::kMakeVector);
  EXPECT_EQ(make->builtin.elem, ScalarKind::kFloat);
  EXPECT_EQ(make->builtin.width, 4);
}

TEST(SemaTest, SpellingsOfOneBehaviourShareAnOperation) {
  for (const char* cl : {"atomic_add", "atom_add"})
    EXPECT_EQ(FindBuiltin(cl, Dialect::kOpenCL).op(), BuiltinOp::kAtomicAdd);
  EXPECT_EQ(FindBuiltin("atomicAdd", Dialect::kCUDA).op(),
            BuiltinOp::kAtomicAdd);
  // §3.7: OpenCL's unconditional increment is not CUDA's wrapping one.
  EXPECT_EQ(FindBuiltin("atomic_inc", Dialect::kOpenCL).op(),
            BuiltinOp::kAtomicInc);
  EXPECT_EQ(FindBuiltin("atomicInc", Dialect::kCUDA).op(),
            BuiltinOp::kAtomicIncWrap);
  // The wrapper library's spelling resolves to the OpenCL entry.
  EXPECT_EQ(FindBuiltin("__oc2cu_read_imagef", Dialect::kCUDA).info,
            FindBuiltin("read_imagef", Dialect::kOpenCL).info);
  BuiltinRef conv = FindBuiltin("__oc2cu_convert_int4", Dialect::kCUDA);
  ASSERT_TRUE(conv);
  EXPECT_EQ(conv.op(), BuiltinOp::kConvert);
  EXPECT_EQ(conv.elem, ScalarKind::kInt);
  EXPECT_EQ(conv.width, 4);
  // Spellings stay in their dialect.
  EXPECT_FALSE(FindBuiltin("sqrtf", Dialect::kOpenCL));
  EXPECT_FALSE(FindBuiltin("get_global_id", Dialect::kCUDA));
  EXPECT_FALSE(FindBuiltin("vload5", Dialect::kOpenCL));
}

TEST(SemaTest, EveryCounterpartResolvesInTheOtherDialect) {
  for (const BuiltinInfo& b : BuiltinCatalog()) {
    if (b.counterpart.empty()) continue;
    SCOPED_TRACE(b.name);
    Dialect other = b.in_opencl ? Dialect::kCUDA : Dialect::kOpenCL;
    // A family's counterpart is a prefix: complete it with a type name.
    std::string suffix = b.op == BuiltinOp::kVload ||
                                 b.op == BuiltinOp::kVstore
                             ? "4"
                         : b.cls == BuiltinClass::kVector ? "float4"
                                                          : "";
    BuiltinRef theirs = FindBuiltin(b.counterpart + suffix, other);
    ASSERT_TRUE(theirs);
    // Same kind of built-in: barrier → __syncthreads, get_local_id →
    // threadIdx, convert_float4 → __oc2cu_convert_float4.
    EXPECT_EQ(theirs.info->cls, b.cls);
  }
}

struct ArityCase {
  const char* label;
  Dialect dialect;
  const char* builtin;
  /// Declarations, then the offending call alone on line 2.
  const char* head;
  const char* call;
};

class BuiltinArityTest : public ::testing::TestWithParam<ArityCase> {};

INSTANTIATE_TEST_SUITE_P(
    TooFewArguments, BuiltinArityTest,
    ::testing::Values(
        ArityCase{"cl_sqrt", Dialect::kOpenCL, "sqrt",
                  "__kernel void k(__global float* a) {", "a[0] = sqrt();"},
        ArityCase{"cl_min", Dialect::kOpenCL, "min",
                  "__kernel void k(__global int* a) {", "a[0] = min(1);"},
        ArityCase{"cl_pow", Dialect::kOpenCL, "pow",
                  "__kernel void k(__global float* a) {",
                  "a[0] = pow(2.0f);"},
        ArityCase{"cl_get_image_width", Dialect::kOpenCL, "get_image_width",
                  "__kernel void k(__read_only image2d_t img, "
                  "__global int* a) {",
                  "a[0] = get_image_width();"},
        ArityCase{"cl_convert_float", Dialect::kOpenCL, "convert_float",
                  "__kernel void k(__global float* a) {",
                  "a[0] = convert_float();"},
        ArityCase{"cl_vstore4", Dialect::kOpenCL, "vstore4",
                  "__kernel void k(__global float* a) {", "vstore4();"},
        ArityCase{"cu_sqrtf", Dialect::kCUDA, "sqrtf",
                  "__global__ void k(float* a) {", "a[0] = sqrtf();"},
        ArityCase{"cu_tex2D", Dialect::kCUDA, "tex2D",
                  "texture<float, 2, cudaReadModeElementType> t;"
                  "__global__ void k(float* a) {",
                  "a[0] = tex2D(t, 1.0f);"},
        ArityCase{"cu_make_float1", Dialect::kCUDA, "make_float1",
                  "__global__ void k(float* a) {",
                  "float1 v = make_float1();"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST_P(BuiltinArityTest, FailsToBuildWithADiagnosticAtTheCall) {
  const ArityCase& c = GetParam();
  std::string src = std::string(c.head) + "\n" + c.call + "\n}";
  DiagnosticEngine diags;
  ParseOptions popts;
  popts.dialect = c.dialect;
  auto tu = ParseTranslationUnit(src, popts, diags);
  ASSERT_TRUE(tu.ok()) << diags.ToString();
  SemaOptions sopts;
  sopts.dialect = c.dialect;
  EXPECT_FALSE(Analyze(**tu, sopts, diags).ok()) << src;
  ASSERT_EQ(diags.diagnostics().size(), 1u) << diags.ToString();
  const Diagnostic& d = diags.diagnostics()[0];
  EXPECT_NE(d.message.find(std::string("'") + c.builtin + "'"),
            std::string::npos)
      << d.ToString();
  EXPECT_NE(d.message.find("too few arguments"), std::string::npos)
      << d.ToString();
  // The parser locates a call at its opening parenthesis.
  std::string line2 = c.call;
  EXPECT_EQ(d.loc.line, 2u) << d.ToString();
  EXPECT_EQ(d.loc.column, line2.find(std::string(c.builtin) + "(") +
                              std::string(c.builtin).size() + 1)
      << d.ToString();
}

// ---------------------------------------------------------------------------
// Frame slots: sema numbers each function's parameters, then its locals.

TEST(SemaTest, NumbersParamsAndLocalsIntoFrameSlots) {
  auto tu = Analyzed(
      "__constant int table[2] = {1, 2};"
      "int helper(int x) { int y = x; return y + table[0]; }"
      "__kernel void k(__global int* a, int n) {"
      "  int i = get_global_id(0);"
      "  for (int j = 0; j < n; ++j) { int t = helper(j); a[i] += t; }"
      "}",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  const FunctionDecl* k = tu->FindFunction("k");
  EXPECT_EQ(k->params[0]->slot, 0);
  EXPECT_EQ(k->params[1]->slot, 1);
  const auto* i = k->body->body[0]->As<DeclStmt>()->vars[0].get();
  const auto* loop = k->body->body[1]->As<ForStmt>();
  const auto* j = loop->init->As<DeclStmt>()->vars[0].get();
  const auto* t =
      loop->body->As<CompoundStmt>()->body[0]->As<DeclStmt>()->vars[0].get();
  EXPECT_EQ(i->slot, 2);
  EXPECT_EQ(j->slot, 3);
  EXPECT_EQ(t->slot, 4);
  EXPECT_EQ(k->frame_slots, 5);
  EXPECT_EQ(tu->FindFunction("helper")->frame_slots, 2);
  EXPECT_EQ(tu->decls[0]->As<VarDecl>()->slot, -1);  // program scope
}

// ---------------------------------------------------------------------------
// Hash-consed types: one pointer per distinct type, for the whole process.

TEST(SemaTest, AddressOfNeedsAnObjectThatHasOne) {
  for (const char* operand : {"v.y", "v[1]", "(a[0] + 1)"})
    Analyzed(std::string("__kernel void k(__global int* a) {"
                         "  int4 v = (int4)(1, 2, 3, 4);"
                         "  int* p = &") +
                 operand + ";}",
             Dialect::kOpenCL, /*expect_ok=*/false);
  auto tu = Analyzed(
      "__kernel void k(__global int* a) { int x = 1; int* p = &(x); }",
      Dialect::kOpenCL);
  ASSERT_NE(tu, nullptr);
  const Stmt& decl = *tu->FindFunction("k")->body->body[0];
  EXPECT_TRUE(decl.As<DeclStmt>()->vars[0]->address_taken);
}

TEST(SemaTest, AssignmentAndIncrementNeedAnAssignableTarget) {
  struct Dialected {
    Dialect d;
    const char* head;  // a kernel taking `o`, an int pointer
  };
  for (const Dialected& k :
       {Dialected{Dialect::kOpenCL, "__kernel void k(__global int* o) {"},
        Dialected{Dialect::kCUDA, "__global__ void k(int* o) {"}}) {
    for (const char* stmt : {"(o[0] + 1) = 3;", "(o[0] + 1) += 3;",
                             "(o[0] + 1)++;", "--(o[0] * 2);"}) {
      DiagnosticEngine diags;
      ParseOptions popts;
      popts.dialect = k.d;
      auto tu = ParseTranslationUnit(std::string(k.head) + stmt + "}", popts,
                                     diags);
      ASSERT_TRUE(tu.ok()) << diags.ToString();
      SemaOptions sopts;
      sopts.dialect = k.d;
      EXPECT_FALSE(Analyze(**tu, sopts, diags).ok()) << stmt;
      EXPECT_NE(diags.ToString().find("expression is not assignable"),
                std::string::npos)
          << stmt << ": " << diags.ToString();
    }
  }
  Analyzed(
      "__kernel void k(__global int* o, __global float4* vs) {"
      "  int4 v = (int4)(1, 2, 3, 4);"
      "  int i = o[1];"
      "  v.xy += (int2)(10, 20);"
      "  v[i] = 30;"
      "  (v).z = 4;"
      "  vs[0].y += 2.0f;"
      "  vs->y = 7.0f;"
      "  o[0]++;"
      "  --(*o);"
      "}",
      Dialect::kOpenCL);
}

TEST(TypeTest, FactoriesReturnOnePointerPerType) {
  using AS = AddressSpace;
  using SK = ScalarKind;
  Type::Ptr f4 = Type::Vector(SK::kFloat, 4);
  EXPECT_EQ(Type::Scalar(SK::kInt), Type::IntTy());
  EXPECT_NE(Type::Scalar(SK::kInt), Type::Scalar(SK::kUInt));
  EXPECT_EQ(f4, Type::Vector(SK::kFloat, 4));
  EXPECT_NE(f4, Type::Vector(SK::kFloat, 2));
  EXPECT_NE(f4, Type::Vector(SK::kInt, 4));
  EXPECT_EQ(Type::Pointer(f4, AS::kGlobal), Type::Pointer(f4, AS::kGlobal));
  EXPECT_NE(Type::Pointer(f4, AS::kGlobal), Type::Pointer(f4, AS::kLocal));
  EXPECT_NE(Type::Pointer(f4, AS::kGlobal),
            Type::Pointer(Type::FloatTy(), AS::kGlobal));
  EXPECT_EQ(Type::Pointer(f4, AS::kGlobal)->pointee(), f4);
  EXPECT_EQ(Type::Pointer(nullptr, AS::kPrivate),
            Type::Pointer(nullptr, AS::kPrivate));
  EXPECT_EQ(Type::Pointer(nullptr, AS::kPrivate)->pointee(), nullptr);
  EXPECT_EQ(Type::Array(f4, 8), Type::Array(f4, 8));
  EXPECT_NE(Type::Array(f4, 8), Type::Array(f4, 9));
  EXPECT_NE(Type::Array(f4, 8), Type::Array(Type::IntTy(), 8));
  EXPECT_EQ(Type::Array(f4, 8)->element(), f4);
  StructDecl a, b;
  EXPECT_EQ(Type::Struct(&a), Type::Struct(&a));
  EXPECT_NE(Type::Struct(&a), Type::Struct(&b));
  EXPECT_EQ(Type::Image(2), Type::Image(2));
  EXPECT_NE(Type::Image(2), Type::Image(3));
  EXPECT_EQ(Type::Sampler(), Type::Sampler());
  EXPECT_EQ(Type::Texture(SK::kFloat, 1, 2), Type::Texture(SK::kFloat, 1, 2));
  EXPECT_NE(Type::Texture(SK::kFloat, 1, 2), Type::Texture(SK::kFloat, 1, 1));
  EXPECT_NE(Type::Texture(SK::kFloat, 1, 2), Type::Texture(SK::kFloat, 4, 2));
  EXPECT_EQ(Type::Named("T"), Type::Named("T"));
  EXPECT_NE(Type::Named("T"), Type::Named("U"));
}

TEST(TypeTest, AnalyzingOneSourceTwiceGivesTheSameTypes) {
  const std::string src =
      "__kernel void k(__global float4* v, __local int* l,"
      "                __constant uchar16* c, __global float** pp,"
      "                read_only image2d_t img, sampler_t s, double d) {"
      "  int a[8];"
      "  float4 m[2][3];"
      "}";
  auto first = Analyzed(src, Dialect::kOpenCL);
  auto second = Analyzed(src, Dialect::kOpenCL);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  const FunctionDecl* k1 = first->FindFunction("k");
  const FunctionDecl* k2 = second->FindFunction("k");
  ASSERT_EQ(k1->params.size(), k2->params.size());
  for (size_t i = 0; i < k1->params.size(); ++i)
    EXPECT_EQ(k1->params[i]->type, k2->params[i]->type) << i;
  for (size_t i = 0; i < 2; ++i)
    EXPECT_EQ(k1->body->body[i]->As<DeclStmt>()->vars[0]->type,
              k2->body->body[i]->As<DeclStmt>()->vars[0]->type)
        << i;
}

TEST(TypeTest, ConcurrentFactoriesReturnOnePointer) {
  // Extents no other test uses, so the threads race to build each array,
  // and each pointer to it, first.
  constexpr int kThreads = 8;
  constexpr int kTypes = 32;
  using Seen = std::array<Type::Ptr, 4 * kTypes>;
  std::vector<Seen> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kTypes; ++i) {
        Type::Ptr vec = Type::Vector(ScalarKind::kFloat, 4);
        Type::Ptr arr = Type::Array(vec, 7000 + i);
        Type::Ptr ptr = Type::Pointer(arr, AddressSpace::kGlobal);
        seen[t][4 * i] = vec;
        seen[t][4 * i + 1] = arr;
        seen[t][4 * i + 2] = ptr;
        seen[t][4 * i + 3] = Type::Pointer(ptr, AddressSpace::kPrivate);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << t;
  for (int i = 1; i < kTypes; ++i) {
    EXPECT_NE(seen[0][4 * i + 1], seen[0][1]);
    EXPECT_NE(seen[0][4 * i + 2], seen[0][2]);
  }
  EXPECT_EQ(seen[0][3]->pointee(), seen[0][2]);
}

/// Parse CUDA `src` and run LowerCppFeatures; returns its status.
Status LowerCuda(const std::string& src) {
  DiagnosticEngine diags;
  ParseOptions popts;
  popts.dialect = Dialect::kCUDA;
  auto tu = ParseTranslationUnit(src, popts, diags);
  if (!tu.ok()) return tu.status();
  return LowerCppFeatures(**tu, diags);
}

TEST(CppLoweringTest, RejectsWhatItCannotLower) {
  struct Case {
    std::string src, message;
  };
  for (const Case& c : std::vector<Case>{
           {"__global__ void k(int& x) { x = 1; }",
            "kernel 'k' takes parameter 'x' by reference"},
           {"__device__ void f(int& x) { { int x = 2; } x = 1; }",
            "local 'x' shadows a reference parameter of 'f'"},
           {"template <typename T> __device__ T id(T a) { return a; }"
            "__global__ void k(int* o) { o[0] = id<int, float>(1); }",
            "call to template 'id' names 2 type arguments; it takes 1"},
       }) {
    Status st = LowerCuda(c.src);
    ASSERT_FALSE(st.ok()) << c.src;
    EXPECT_NE(st.message().find(c.message), std::string::npos)
        << st.message();
  }
}

TEST(CppLoweringTest, InstantiatesCallsInsideInstantiationsOnce) {
  DiagnosticEngine diags;
  ParseOptions popts;
  popts.dialect = Dialect::kCUDA;
  auto tu = ParseTranslationUnit(
      "template <typename T> __device__ T twice(T a) { return a + a; }"
      "template <typename T> __device__ T quad(T a) {"
      "  return twice<T>(twice<T>(a));"
      "}"
      "__global__ void k(float* o) { o[0] = quad<float>(o[0]); }",
      popts, diags);
  ASSERT_TRUE(tu.ok()) << diags.ToString();
  ASSERT_TRUE(LowerCppFeatures(**tu, diags).ok()) << diags.ToString();
  // Before the first function: twice_float, then quad_float, which calls
  // it.
  ASSERT_GE((*tu)->decls.size(), 2u);
  EXPECT_EQ((*tu)->decls[0]->name, "twice_float");
  EXPECT_EQ((*tu)->decls[1]->name, "quad_float");
  SemaOptions sopts;
  sopts.dialect = Dialect::kCUDA;
  EXPECT_TRUE(Analyze(**tu, sopts, diags).ok()) << diags.ToString();
}

}  // namespace
}  // namespace bridgecl::lang
