// Thin checked helpers that keep the apps' host drivers compact while
// still exercising the real API call sequences (every helper maps 1:1
// onto API entry points — no bundling that would hide wrapper overhead).
#pragma once

#include <cstring>
#include <initializer_list>
#include <vector>

#include "mcuda/cuda_api.h"
#include "mocl/cl_api.h"
#include "simgpu/dim3.h"
#include "support/status.h"

namespace bridgecl::apps {

/// One kernel argument for the compact Launch helpers.
struct Arg {
  enum class K {
    kClBuf,    // OpenCL memory object
    kCuPtr,    // CUDA device pointer
    kLocal,    // OpenCL dynamic __local allocation
    kI32,
    kU32,
    kF32,
    kF64,
    kU64,      // also OpenCL samplers
  };
  K k = K::kI32;
  mocl::ClMem mem{};
  void* ptr = nullptr;
  size_t n = 0;
  int32_t i = 0;
  uint32_t u = 0;
  float f = 0;
  double d = 0;
  uint64_t u64 = 0;

  static Arg Buf(mocl::ClMem m) {
    Arg a;
    a.k = K::kClBuf;
    a.mem = m;
    return a;
  }
  static Arg Ptr(void* p) {
    Arg a;
    a.k = K::kCuPtr;
    a.ptr = p;
    return a;
  }
  static Arg Local(size_t bytes) {
    Arg a;
    a.k = K::kLocal;
    a.n = bytes;
    return a;
  }
  static Arg I32(int32_t v) {
    Arg a;
    a.k = K::kI32;
    a.i = v;
    return a;
  }
  static Arg U32(uint32_t v) {
    Arg a;
    a.k = K::kU32;
    a.u = v;
    return a;
  }
  static Arg F32(float v) {
    Arg a;
    a.k = K::kF32;
    a.f = v;
    return a;
  }
  static Arg F64(double v) {
    Arg a;
    a.k = K::kF64;
    a.d = v;
    return a;
  }
  static Arg U64(uint64_t v) {
    Arg a;
    a.k = K::kU64;
    a.u64 = v;
    return a;
  }
};

/// OpenCL host-driver helper.
class ClRunner {
 public:
  explicit ClRunner(mocl::OpenClApi& cl) : cl_(cl) {}

  Status Build(const std::string& source);

  StatusOr<mocl::ClMem> Alloc(size_t bytes,
                              mocl::MemFlags flags = mocl::MemFlags::kReadWrite);
  template <typename T>
  StatusOr<mocl::ClMem> Upload(const std::vector<T>& data,
                               mocl::MemFlags flags = mocl::MemFlags::kReadWrite) {
    BRIDGECL_ASSIGN_OR_RETURN(mocl::ClMem m,
                              Alloc(data.size() * sizeof(T), flags));
    BRIDGECL_RETURN_IF_ERROR(
        cl_.EnqueueWriteBuffer(m, 0, data.size() * sizeof(T), data.data()));
    return m;
  }
  template <typename T>
  StatusOr<std::vector<T>> Download(mocl::ClMem m, size_t count) {
    std::vector<T> out(count);
    BRIDGECL_RETURN_IF_ERROR(
        cl_.EnqueueReadBuffer(m, 0, count * sizeof(T), out.data()));
    return out;
  }

  Status Launch(const std::string& kernel, simgpu::Dim3 gws,
                simgpu::Dim3 lws, std::initializer_list<Arg> args);

  mocl::OpenClApi& api() { return cl_; }

 private:
  mocl::OpenClApi& cl_;
  mocl::ClProgram program_{};
  bool built_ = false;
};

/// CUDA host-driver helper.
class CudaRunner {
 public:
  explicit CudaRunner(mcuda::CudaApi& cu) : cu_(cu) {}

  Status Build(const std::string& source) {
    return cu_.RegisterModule(source);
  }

  StatusOr<void*> Alloc(size_t bytes) { return cu_.Malloc(bytes); }
  template <typename T>
  StatusOr<void*> Upload(const std::vector<T>& data) {
    BRIDGECL_ASSIGN_OR_RETURN(void* p, cu_.Malloc(data.size() * sizeof(T)));
    BRIDGECL_RETURN_IF_ERROR(cu_.Memcpy(p, data.data(),
                                        data.size() * sizeof(T),
                                        mcuda::MemcpyKind::kHostToDevice));
    return p;
  }
  template <typename T>
  StatusOr<std::vector<T>> Download(void* p, size_t count) {
    std::vector<T> out(count);
    BRIDGECL_RETURN_IF_ERROR(cu_.Memcpy(out.data(), p, count * sizeof(T),
                                        mcuda::MemcpyKind::kDeviceToHost));
    return out;
  }

  Status Launch(const std::string& kernel, simgpu::Dim3 grid,
                simgpu::Dim3 block, size_t shared_bytes,
                std::initializer_list<Arg> args);

  mcuda::CudaApi& api() { return cu_; }

 private:
  mcuda::CudaApi& cu_;
};

/// Order-stable checksum helpers used by the apps.
double Checksum(const std::vector<float>& v);
double Checksum(const std::vector<double>& v);
double Checksum(const std::vector<int>& v);
double Checksum(const std::vector<unsigned>& v);

/// Deterministic pseudo-random input generator (xorshift-based), shared by
/// every app so that both dialect variants see identical inputs.
class InputGen {
 public:
  explicit InputGen(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint32_t NextU32() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<uint32_t>(state_ >> 32);
  }
  float NextFloat(float lo = 0.0f, float hi = 1.0f) {
    return lo + (hi - lo) * (NextU32() / 4294967296.0f);
  }
  int NextInt(int lo, int hi) {  // [lo, hi)
    return lo + static_cast<int>(NextU32() % (hi - lo));
  }
  std::vector<float> Floats(size_t n, float lo = 0.0f, float hi = 1.0f) {
    std::vector<float> out(n);
    for (auto& v : out) v = NextFloat(lo, hi);
    return out;
  }
  std::vector<int> Ints(size_t n, int lo, int hi) {
    std::vector<int> out(n);
    for (auto& v : out) v = NextInt(lo, hi);
    return out;
  }

 private:
  uint64_t state_;
};

}  // namespace bridgecl::apps
