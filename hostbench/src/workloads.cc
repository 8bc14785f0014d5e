#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <set>

#include "apps/app.h"
#include "cl2cu/cl_on_cuda.h"
#include "cu2cl/cuda_on_cl.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "support/strings.h"
#include "timed_api.h"
#include "translator/translate.h"

namespace hostbench {

using bridgecl::OkStatus;
using bridgecl::Status;
using bridgecl::StatusCode;
using bridgecl::StatusOr;
using bridgecl::simgpu::Device;
using bridgecl::simgpu::DeviceStats;
using bridgecl::simgpu::Dim3;
using bridgecl::simgpu::TitanProfile;
namespace apps = bridgecl::apps;
namespace lang = bridgecl::lang;
namespace mcuda = bridgecl::mcuda;
namespace mocl = bridgecl::mocl;
namespace translator = bridgecl::translator;

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Oracle

Status Oracle::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status(StatusCode::kNotFound, "cannot read " + path);
  rows_.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos)
      return Status(StatusCode::kInvalidArgument,
                    "malformed line in " + path + ": " + line);
    rows_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return OkStatus();
}

Status Oracle::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status(StatusCode::kInternal, "cannot write " + path);
  out << "# key\texpected observation (written by hostbench --record)\n";
  for (const auto& [key, obs] : rows_) out << key << '\t' << obs << '\n';
  return out ? OkStatus() : Status(StatusCode::kInternal, "short write");
}

const std::string* Oracle::Find(const std::string& key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

void Oracle::Corrupt() {
  for (auto& [key, obs] : rows_) obs += " corrupted";
}

namespace {

enum class Dir { kClOnCuda, kCudaOnCl };

const char* DirName(Dir d) {
  return d == Dir::kClOnCuda ? "cl2cu" : "cu2cl";
}

std::string FailureObservation(const Status& st) {
  return std::string("fail ") + bridgecl::StatusCodeName(st.code());
}

/// Fills the verdict of `r` from the oracle.
void Check(const Oracle& oracle, OpResult& r) {
  const std::string* expected = oracle.Find(r.key);
  const bool expected_ok =
      expected != nullptr && expected->compare(0, 3, "ok ") == 0;
  const bool got_ok = r.observation.compare(0, 3, "ok ") == 0;
  r.error = expected_ok && !got_ok;
  r.mismatch = expected == nullptr || *expected != r.observation;
}

DeviceStats Delta(const DeviceStats& after, const DeviceStats& before) {
  DeviceStats d;
  d.kernels_launched = after.kernels_launched - before.kernels_launched;
  d.work_items_executed =
      after.work_items_executed - before.work_items_executed;
  d.global_accesses = after.global_accesses - before.global_accesses;
  d.shared_accesses = after.shared_accesses - before.shared_accesses;
  d.host_to_device_bytes =
      after.host_to_device_bytes - before.host_to_device_bytes;
  d.device_to_host_bytes =
      after.device_to_host_bytes - before.device_to_host_bytes;
  d.api_calls = after.api_calls - before.api_calls;
  d.ops_executed = after.ops_executed - before.ops_executed;
  return d;
}

std::vector<size_t> Shuffled(size_t n, std::mt19937_64& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// Every corpus application with the dialects it is run in: Fig 7's 40
/// OpenCL apps through cl2cu and Fig 8's 33 CUDA apps through cu2cl.
std::vector<apps::AppPtr> CorpusApps() {
  std::vector<apps::AppPtr> all;
  for (auto* suite : {&apps::RodiniaApps, &apps::RodiniaUntranslatableApps,
                      &apps::NpbApps, &apps::ToolkitApps})
    for (apps::AppPtr& a : (*suite)()) all.push_back(std::move(a));
  return all;
}

// ---------------------------------------------------------------------------
// corpus: one wrapped application run on the Titan profile.

class Corpus final : public Workload {
 public:
  explicit Corpus(bool smoke) : smoke_(smoke) {}

  Status SetUp() override {
    apps_ = CorpusApps();
    for (apps::AppPtr& a : apps_) {
      if (smoke_ && !kSmokeApps.count(a->name())) continue;
      if (a->has_opencl()) ops_.push_back({a.get(), Dir::kClOnCuda});
      if (a->has_cuda()) ops_.push_back({a.get(), Dir::kCudaOnCl});
    }
    // Steady state has every program in the module cache: build each one
    // once through the same API path its operation takes.
    for (const Op& op : ops_) WarmBuild(op);
    return OkStatus();
  }

  size_t op_count() const override { return ops_.size(); }

  std::vector<size_t> PassOrder(std::mt19937_64& rng) const override {
    return Shuffled(ops_.size(), rng);
  }

  bool whole_passes() const override { return true; }

  OpResult Run(size_t i, const Oracle& oracle, Recorder* rec) override {
    const Op& op = ops_[i];
    OpResult r;
    r.key = std::string(DirName(op.dir)) + "/" + op.app->name();
    Device device(TitanProfile());
    double checksum = 0;
    Status st = RunWrapped(op, device, rec, &checksum);
    r.stats = device.stats();
    if (st.ok()) {
      const DeviceStats& s = r.stats;
      r.observation = bridgecl::StrFormat(
          "ok checksum=%.17g clock_us=%.17g kernels=%" PRIu64
          " items=%" PRIu64 " ops=%" PRIu64 " global=%" PRIu64
          " shared=%" PRIu64 " h2d=%" PRIu64 " d2h=%" PRIu64
          " api=%" PRIu64,
          checksum, device.now_us(), s.kernels_launched,
          s.work_items_executed, s.ops_executed, s.global_accesses,
          s.shared_accesses, s.host_to_device_bytes, s.device_to_host_bytes,
          s.api_calls);
    } else {
      r.observation = FailureObservation(st);
    }
    Check(oracle, r);
    return r;
  }

  /// The expected checksum comes from the native binding running the
  /// original source, independent of the translator.
  Status CheckForRecord(size_t i, const OpResult& r) override {
    if (r.observation.compare(0, 3, "ok ") != 0) return OkStatus();
    const Op& op = ops_[i];
    Device device(TitanProfile());
    double checksum = 0;
    Status st;
    if (op.dir == Dir::kClOnCuda) {
      auto cl = mocl::CreateNativeClApi(device);
      st = op.app->RunCl(*cl, &checksum);
    } else {
      auto cu = mcuda::CreateNativeCudaApi(device);
      st = op.app->RunCuda(*cu, &checksum);
    }
    if (!st.ok())
      return Status(StatusCode::kInternal,
                    r.key + ": native run failed: " + st.ToString());
    const std::string want =
        bridgecl::StrFormat("ok checksum=%.17g ", checksum);
    if (r.observation.compare(0, want.size(), want) != 0)
      return Status(StatusCode::kInternal,
                    r.key + ": wrapped checksum differs from native (" +
                        want + "vs " + r.observation + ")");
    return OkStatus();
  }

 private:
  struct Op {
    apps::App* app;
    Dir dir;
  };

  // A quick subset for self-tests: small apps of both directions plus one
  // expected failure of each kind.
  inline static const std::set<std::string> kSmokeApps = {
      "deviceQuery", "heartwall", "kmeans", "b+tree", "dwtHaar1D", "EP"};

  static Status RunWrapped(const Op& op, Device& device, Recorder* rec,
                           double* checksum) {
    if (op.dir == Dir::kClOnCuda) {
      auto cuda = mcuda::CreateNativeCudaApi(device);
      if (rec == nullptr) {
        auto cl = bridgecl::cl2cu::CreateClOnCudaApi(*cuda);
        return op.app->RunCl(*cl, checksum);
      }
      TimedCudaApi inner(*cuda, rec, Lane::kMcuda);
      auto cl = bridgecl::cl2cu::CreateClOnCudaApi(inner);
      TimedClApi outer(*cl, rec, Lane::kCl2cu);
      return op.app->RunCl(outer, checksum);
    }
    auto cl = mocl::CreateNativeClApi(device);
    if (rec == nullptr) {
      auto cu = bridgecl::cu2cl::CreateCudaOnClApi(*cl);
      return op.app->RunCuda(*cu, checksum);
    }
    TimedClApi inner(*cl, rec, Lane::kMocl);
    auto cu = bridgecl::cu2cl::CreateCudaOnClApi(inner);
    TimedCudaApi outer(*cu, rec, Lane::kCu2cl);
    return op.app->RunCuda(outer, checksum);
  }

  static void WarmBuild(const Op& op) {
    Device device(TitanProfile());
    if (op.dir == Dir::kClOnCuda) {
      auto cuda = mcuda::CreateNativeCudaApi(device);
      auto cl = bridgecl::cl2cu::CreateClOnCudaApi(*cuda);
      StatusOr<mocl::ClProgram> p =
          cl->CreateProgramWithSource(op.app->OpenClSource());
      if (p.ok()) (void)cl->BuildProgram(*p);
      return;
    }
    // cu2cl builds the translated program on the native OpenCL runtime.
    bridgecl::DiagnosticEngine diags;
    StatusOr<translator::TranslationResult> t =
        translator::TranslateCudaToOpenCl(op.app->CudaSource(), diags);
    if (!t.ok()) return;
    auto cl = mocl::CreateNativeClApi(device);
    StatusOr<mocl::ClProgram> p = cl->CreateProgramWithSource(t->source);
    if (p.ok()) (void)cl->BuildProgram(*p);
  }

  bool smoke_;
  std::vector<apps::AppPtr> apps_;
  std::vector<Op> ops_;
};

// ---------------------------------------------------------------------------
// translate: one corpus device source through the translator, then the
// target dialect's front end over the output.

class Translate final : public Workload {
 public:
  explicit Translate(bool smoke) : smoke_(smoke) {}

  Status SetUp() override {
    for (apps::AppPtr& a : CorpusApps()) {
      if (a->has_opencl())
        ops_.push_back({a->name(), Dir::kClOnCuda, a->OpenClSource()});
      if (a->has_cuda())
        ops_.push_back({a->name(), Dir::kCudaOnCl, a->CudaSource()});
    }
    if (smoke_) ops_.resize(std::min<size_t>(ops_.size(), 12));
    // One untimed pass, so the first timed operations find warm caches.
    Oracle none;
    for (size_t i = 0; i < ops_.size(); ++i) (void)Run(i, none, nullptr);
    return OkStatus();
  }

  size_t op_count() const override { return ops_.size(); }

  std::vector<size_t> PassOrder(std::mt19937_64& rng) const override {
    return Shuffled(ops_.size(), rng);
  }

  OpResult Run(size_t i, const Oracle& oracle, Recorder* rec) override {
    const Op& op = ops_[i];
    OpResult r;
    r.key = std::string(DirName(op.dir)) + "/" + op.name;
    const bool to_cuda = op.dir == Dir::kClOnCuda;
    bridgecl::DiagnosticEngine diags;
    const int64_t t0 = NowNs();
    StatusOr<translator::TranslationResult> t =
        to_cuda ? translator::TranslateOpenClToCuda(op.source, diags)
                : translator::TranslateCudaToOpenCl(op.source, diags);
    const int64_t t1 = NowNs();
    if (rec != nullptr)
      rec->Record(Lane::kTranslator, Cat::kOther,
                  to_cuda ? "cl_to_cu" : "cu_to_cl", t0, t1, {}, 0,
                  op.source.size());
    if (!t.ok()) {
      r.observation = FailureObservation(t.status());
      Check(oracle, r);
      return r;
    }
    const lang::Dialect target =
        to_cuda ? lang::Dialect::kCUDA : lang::Dialect::kOpenCL;
    Status fe = FrontEnd(t->source, target, rec, "target_parse",
                         "target_sema");
    if (fe.ok()) {
      r.observation = bridgecl::StrFormat(
          "ok hash=%016" PRIx64 " bytes=%zu",
          Fnv1a(t->source.data(), t->source.size()), t->source.size());
    } else {
      r.observation = "frontend-" + FailureObservation(fe);
    }
    Check(oracle, r);
    return r;
  }

  /// The source dialect's parse and sema, timed apart so the traced run
  /// can split translation time into front end and rewrite + print.
  void TraceExtras(size_t i, Recorder& rec) override {
    const Op& op = ops_[i];
    (void)FrontEnd(op.source,
                   op.dir == Dir::kClOnCuda ? lang::Dialect::kOpenCL
                                            : lang::Dialect::kCUDA,
                   &rec, "parse", "sema");
  }

 private:
  struct Op {
    std::string name;
    Dir dir;
    std::string source;
  };

  static Status FrontEnd(const std::string& source, lang::Dialect dialect,
                         Recorder* rec, const char* parse_name,
                         const char* sema_name) {
    bridgecl::DiagnosticEngine diags;
    const int64_t t0 = NowNs();
    auto tu = lang::ParseTranslationUnit(source, {dialect}, diags);
    const int64_t t1 = NowNs();
    Status st = tu.ok() ? lang::Analyze(**tu, {dialect}, diags) : tu.status();
    const int64_t t2 = NowNs();
    if (rec != nullptr) {
      rec->Record(Lane::kLang, Cat::kOther, parse_name, t0, t1, {}, 0,
                  source.size());
      if (tu.ok())
        rec->Record(Lane::kLang, Cat::kOther, sema_name, t1, t2, {}, 0,
                    source.size());
    }
    return st;
  }

  bool smoke_;
  std::vector<Op> ops_;
};

// ---------------------------------------------------------------------------
// launch_storm: one small round trip per operation through a long-lived
// wrapped stack.

constexpr char kStormCl[] = R"(
__kernel void storm_plain(__global const uint* in, __global uint* out) {
  uint i = get_global_id(0);
  out[i] = in[i] * 2654435761u + i;
}
__kernel void storm_local(__global const uint* in, __global uint* out,
                          __local uint* tile) {
  uint l = get_local_id(0);
  uint n = get_local_size(0);
  tile[l] = in[l];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[l] = tile[n - 1 - l] ^ l;
}
)";

constexpr char kStormCu[] = R"(
__global__ void storm_plain(const unsigned int* in, unsigned int* out) {
  unsigned int i = blockIdx.x * blockDim.x + threadIdx.x;
  out[i] = in[i] * 2654435761u + i;
}
__global__ void storm_local(const unsigned int* in, unsigned int* out) {
  extern __shared__ unsigned int tile[];
  unsigned int l = threadIdx.x;
  unsigned int n = blockDim.x;
  tile[l] = in[l];
  __syncthreads();
  out[l] = tile[n - 1 - l] ^ l;
}
)";

constexpr const char* kStormKernels[] = {"storm_plain", "storm_local"};
constexpr int kStormBlocks = 8;  // 32, 64, ..., 256 work-items
constexpr size_t kStormPass = 64;

class LaunchStorm final : public Workload {
 public:
  explicit LaunchStorm(bool traced) : traced_(traced) {}

  Status SetUp() override {
    BRIDGECL_RETURN_IF_ERROR(cl_.Init());
    BRIDGECL_RETURN_IF_ERROR(cu_.Init());
    // Each direction and kernel once, on the stacks the run will use: starts
    // the worker pool and does cu2cl's lazy build.
    Oracle none;
    Recorder scratch;
    const size_t largest = 2 * (kStormBlocks - 1);
    for (size_t kernel = 0; kernel < 2; ++kernel) {
      for (size_t dir = 0; dir < 2; ++dir) {
        const size_t i = kernel * 2 * kStormBlocks + largest + dir;
        (void)Run(i, none, nullptr);
        if (traced_) (void)Run(i, none, &scratch);
      }
    }
    return OkStatus();
  }

  size_t op_count() const override { return 2 * 2 * kStormBlocks; }

  std::vector<size_t> PassOrder(std::mt19937_64& rng) const override {
    std::vector<size_t> order(kStormPass);
    for (size_t j = 0; j < kStormPass; ++j) {
      const size_t kernel = rng() % 2;
      const size_t block = rng() % kStormBlocks;
      order[j] = (kernel * kStormBlocks + block) * 2 + j % 2;
    }
    return order;
  }

  OpResult Run(size_t i, const Oracle& oracle, Recorder* rec) override {
    const int kernel = static_cast<int>(i / 2 / kStormBlocks);
    const uint32_t block = 32u * (1 + (i / 2) % kStormBlocks);
    const Dir dir = i % 2 == 0 ? Dir::kClOnCuda : Dir::kCudaOnCl;
    OpResult r;
    r.key = bridgecl::StrFormat("%s/%u", kStormKernels[kernel], block);
    std::vector<uint32_t> in(block), out(block, 0);
    for (uint32_t j = 0; j < block; ++j)
      in[j] = (j * 2654435761u) ^ (block << 16) ^ static_cast<uint32_t>(kernel);
    Device& device = dir == Dir::kClOnCuda ? *cl_.device : *cu_.device;
    const DeviceStats before = device.stats();
    Status st = dir == Dir::kClOnCuda ? cl_.RoundTrip(kernel, in, out, rec)
                                      : cu_.RoundTrip(kernel, in, out, rec);
    r.stats = Delta(device.stats(), before);
    if (st.ok()) {
      std::string v = "ok v=";
      for (uint32_t j = 0; j < block; ++j) {
        if (j > 0) v += ',';
        v += std::to_string(out[j]);
      }
      r.observation = std::move(v);
    } else {
      r.observation = FailureObservation(st);
    }
    Check(oracle, r);
    return r;
  }

 private:
  /// The application speaks OpenCL; cl2cu runs it on native CUDA.
  struct ClStack {
    std::unique_ptr<Device> device;
    std::unique_ptr<mcuda::CudaApi> native;
    std::unique_ptr<TimedCudaApi> timed_native;
    std::unique_ptr<mocl::OpenClApi> plain, traced;  // wrapper per mode
    std::unique_ptr<TimedClApi> timed_app;
    mocl::ClKernel kernels[2][2];  // [traced][kernel]

    Status Init() {
      device = std::make_unique<Device>(TitanProfile());
      native = mcuda::CreateNativeCudaApi(*device);
      timed_native =
          std::make_unique<TimedCudaApi>(*native, nullptr, Lane::kMcuda);
      plain = bridgecl::cl2cu::CreateClOnCudaApi(*native);
      traced = bridgecl::cl2cu::CreateClOnCudaApi(*timed_native);
      timed_app = std::make_unique<TimedClApi>(*traced, nullptr, Lane::kCl2cu);
      mocl::OpenClApi* apis[2] = {plain.get(), timed_app.get()};
      for (int t = 0; t < 2; ++t) {
        BRIDGECL_ASSIGN_OR_RETURN(mocl::ClProgram p,
                                  apis[t]->CreateProgramWithSource(kStormCl));
        BRIDGECL_RETURN_IF_ERROR(apis[t]->BuildProgram(p));
        for (int k = 0; k < 2; ++k) {
          BRIDGECL_ASSIGN_OR_RETURN(kernels[t][k],
                                    apis[t]->CreateKernel(p, kStormKernels[k]));
        }
      }
      return OkStatus();
    }

    Status RoundTrip(int kernel, const std::vector<uint32_t>& in,
                     std::vector<uint32_t>& out, Recorder* rec) {
      timed_native->set_recorder(rec);
      timed_app->set_recorder(rec);
      mocl::OpenClApi& cl = rec != nullptr ? *timed_app : *plain;
      const mocl::ClKernel k = kernels[rec != nullptr][kernel];
      const size_t bytes = in.size() * sizeof(uint32_t);
      BRIDGECL_ASSIGN_OR_RETURN(
          mocl::ClMem a, cl.CreateBuffer(mocl::MemFlags::kReadOnly, bytes,
                                         nullptr));
      BRIDGECL_ASSIGN_OR_RETURN(
          mocl::ClMem b, cl.CreateBuffer(mocl::MemFlags::kWriteOnly, bytes,
                                         nullptr));
      BRIDGECL_RETURN_IF_ERROR(cl.EnqueueWriteBuffer(a, 0, bytes, in.data()));
      BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(k, 0, sizeof a, &a));
      BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(k, 1, sizeof b, &b));
      if (kernel == 1)
        BRIDGECL_RETURN_IF_ERROR(cl.SetKernelArg(k, 2, bytes, nullptr));
      const size_t n = in.size();
      BRIDGECL_RETURN_IF_ERROR(cl.EnqueueNDRangeKernel(k, 1, &n, &n));
      BRIDGECL_RETURN_IF_ERROR(cl.Finish());
      BRIDGECL_RETURN_IF_ERROR(cl.EnqueueReadBuffer(b, 0, bytes, out.data()));
      BRIDGECL_RETURN_IF_ERROR(cl.ReleaseMemObject(a));
      return cl.ReleaseMemObject(b);
    }
  };

  /// The application speaks CUDA; cu2cl runs it on native OpenCL.
  struct CuStack {
    std::unique_ptr<Device> device;
    std::unique_ptr<mocl::OpenClApi> native;
    std::unique_ptr<TimedClApi> timed_native;
    std::unique_ptr<mcuda::CudaApi> plain, traced;
    std::unique_ptr<TimedCudaApi> timed_app;

    Status Init() {
      device = std::make_unique<Device>(TitanProfile());
      native = mocl::CreateNativeClApi(*device);
      timed_native =
          std::make_unique<TimedClApi>(*native, nullptr, Lane::kMocl);
      plain = bridgecl::cu2cl::CreateCudaOnClApi(*native);
      traced = bridgecl::cu2cl::CreateCudaOnClApi(*timed_native);
      timed_app =
          std::make_unique<TimedCudaApi>(*traced, nullptr, Lane::kCu2cl);
      BRIDGECL_RETURN_IF_ERROR(plain->RegisterModule(kStormCu));
      return timed_app->RegisterModule(kStormCu);
    }

    Status RoundTrip(int kernel, const std::vector<uint32_t>& in,
                     std::vector<uint32_t>& out, Recorder* rec) {
      timed_native->set_recorder(rec);
      timed_app->set_recorder(rec);
      mcuda::CudaApi& cu = rec != nullptr ? *timed_app : *plain;
      const size_t bytes = in.size() * sizeof(uint32_t);
      BRIDGECL_ASSIGN_OR_RETURN(void* a, cu.Malloc(bytes));
      BRIDGECL_ASSIGN_OR_RETURN(void* b, cu.Malloc(bytes));
      BRIDGECL_RETURN_IF_ERROR(
          cu.Memcpy(a, in.data(), bytes, mcuda::MemcpyKind::kHostToDevice));
      const mcuda::LaunchArg args[] = {mcuda::LaunchArg::Ptr(a),
                                       mcuda::LaunchArg::Ptr(b)};
      const uint32_t n = static_cast<uint32_t>(in.size());
      BRIDGECL_RETURN_IF_ERROR(cu.LaunchKernel(kStormKernels[kernel], Dim3(1),
                                               Dim3(n),
                                               kernel == 1 ? bytes : 0, args));
      BRIDGECL_RETURN_IF_ERROR(cu.DeviceSynchronize());
      BRIDGECL_RETURN_IF_ERROR(
          cu.Memcpy(out.data(), b, bytes, mcuda::MemcpyKind::kDeviceToHost));
      BRIDGECL_RETURN_IF_ERROR(cu.Free(a));
      return cu.Free(b);
    }
  };

  bool traced_;
  ClStack cl_;
  CuStack cu_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke,
                                       bool traced) {
  if (name == "corpus") return std::make_unique<Corpus>(smoke);
  if (name == "translate") return std::make_unique<Translate>(smoke);
  if (name == "launch_storm") return std::make_unique<LaunchStorm>(traced);
  return nullptr;
}

}  // namespace hostbench
