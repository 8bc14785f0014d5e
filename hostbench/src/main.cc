// hostbench: host wall-clock benchmark of BridgeCL (see ../README.md).
//
//   hostbench --workload corpus|translate|launch_storm --seed N
//             --seconds S [--trace 0|1] [--expected DIR] [--trace-out FILE]
//             [--ops N] [--smoke] [--setup-only] [--record]
//             [--corrupt-expected]
//
// One closed-loop caller runs the workload's operations in seeded order and
// checks each result against the expected values in DIR. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics, timed from outside each layer. The last stdout line is
// `RESULT {...}`; the exit code is non-zero when any operation failed or
// differed from its expected value.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "interp/executor.h"
#include "interp/module.h"
#include "recorder.h"
#include "support/strings.h"
#include "workloads.h"

namespace hostbench {
namespace {

using bridgecl::Status;
using bridgecl::simgpu::DeviceStats;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_dir = "hostbench/expected";
  std::string trace_out;
  uint64_t ops = 0;  // > 0: run exactly this many operations
  bool smoke = false;
  bool setup_only = false;
  bool record = false;
  bool corrupt_expected = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "corpus|translate|launch_storm --seed N --seconds S "
               "[--trace 0|1] [--expected DIR] [--trace-out FILE] "
               "[--ops N] [--smoke] [--setup-only] [--record] "
               "[--corrupt-expected]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed")
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--expected") o.expected_dir = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--ops")
      o.ops = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--setup-only") o.setup_only = true;
    else if (a == "--record") o.record = true;
    else if (a == "--corrupt-expected") o.corrupt_expected = true;
    else Usage(("unknown argument " + a).c_str());
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (o.seconds <= 0) Usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------------
// Running operations

/// Correctness over every operation the process ran.
struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;      // failed where success was expected
  uint64_t mismatches = 0;  // observation differs from the oracle
  uint64_t failed = 0;      // errors or mismatches (an op counts once)
  uint64_t digest = 1469598103934665603ull;  // over observations, in order
  DeviceStats work;                          // summed simulated work
};

void AddStats(DeviceStats& sum, const DeviceStats& s) {
  sum.kernels_launched += s.kernels_launched;
  sum.work_items_executed += s.work_items_executed;
  sum.global_accesses += s.global_accesses;
  sum.shared_accesses += s.shared_accesses;
  sum.host_to_device_bytes += s.host_to_device_bytes;
  sum.device_to_host_bytes += s.device_to_host_bytes;
  sum.api_calls += s.api_calls;
  sum.ops_executed += s.ops_executed;
}

/// When a phase stops.
struct Limit {
  double seconds = 0;  // stop once this much wall time has passed ...
  uint64_t ops = 0;    // ... or after exactly this many ops, when > 0
  int min_passes = 0;  // whole-pass workloads: never fewer passes
  bool prefix = false;  // stop mid-pass on time even for whole-pass workloads
};

/// One stretch of closed-loop operations, traced or not.
struct Phase {
  std::vector<double> latency_ms;
  int64_t op_ns = 0;
  int64_t wall_ns = 0;
  int passes = 0;
  DeviceStats work;
  ProcCounters proc;  // deltas over the phase
  bridgecl::interp::ModuleCacheStats cache;
  Recorder rec;  // used only when traced

  uint64_t ops() const { return latency_ms.size(); }
};

void Report(const OpResult& r) {
  static int shown = 0;
  if (shown++ < 10)
    std::fprintf(stderr, "hostbench: %s %s: got '%.200s'\n",
                 r.error ? "FAILED" : "MISMATCH", r.key.c_str(),
                 r.observation.c_str());
}

void RunPhase(Workload& w, const Oracle& oracle, uint64_t seed,
              const Limit& limit, bool traced, Tally& tally, Phase& ph) {
  std::mt19937_64 rng(seed);
  const ProcCounters p0 = ProcCounters::Now();
  const auto c0 = bridgecl::interp::GetModuleCacheStats();
  const int64_t start = NowNs();
  int64_t last_pass_ns = 0;
  bool done = false;
  while (!done) {
    const int64_t pass_start = NowNs();
    for (size_t i : w.PassOrder(rng)) {
      if (traced) {
        ph.rec.set_op(tally.attempted);
        w.TraceExtras(i, ph.rec);
      }
      const int64_t t0 = NowNs();
      OpResult r = w.Run(i, oracle, traced ? &ph.rec : nullptr);
      const int64_t t1 = NowNs();
      if (traced) ph.rec.Record(Lane::kOp, Cat::kOther, "op", t0, t1, r.key);
      ph.latency_ms.push_back((t1 - t0) / 1e6);
      ph.op_ns += t1 - t0;
      AddStats(ph.work, r.stats);
      AddStats(tally.work, r.stats);
      ++tally.attempted;
      tally.errors += r.error;
      tally.mismatches += r.mismatch;
      if (r.error || r.mismatch) {
        ++tally.failed;
        Report(r);
      }
      tally.digest = Fnv1a(r.observation.data(), r.observation.size(),
                           Fnv1a(r.key.data(), r.key.size(), tally.digest));
      const double elapsed = (t1 - start) / 1e9;
      const bool by_time = !w.whole_passes() || limit.prefix;
      if (limit.ops > 0 ? ph.ops() >= limit.ops
                        : by_time && elapsed >= limit.seconds) {
        done = true;
        break;
      }
    }
    if (done) break;
    ++ph.passes;
    last_pass_ns = NowNs() - pass_start;
    if (w.whole_passes() && limit.ops == 0) {
      // Stop at the pass boundary nearest the time limit.
      const double elapsed = (NowNs() - start) / 1e9;
      done = ph.passes >= limit.min_passes &&
             elapsed + last_pass_ns / 2e9 >= limit.seconds;
    }
  }
  ph.wall_ns = NowNs() - start;
  const ProcCounters p1 = ProcCounters::Now();
  ph.proc.utime_s = p1.utime_s - p0.utime_s;
  ph.proc.stime_s = p1.stime_s - p0.stime_s;
  ph.proc.minflt = p1.minflt - p0.minflt;
  ph.proc.maxrss_kb = p1.maxrss_kb;
  const auto c1 = bridgecl::interp::GetModuleCacheStats();
  ph.cache.hits = c1.hits - c0.hits;
  ph.cache.misses = c1.misses - c0.misses;
}

// ---------------------------------------------------------------------------
// Metrics

/// Linear-interpolated quantile of sorted values.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * (sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - lo) * (sorted[hi] - sorted[lo]);
}

size_t Beyond(const std::vector<double>& sorted, double v) {
  return sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), v);
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ", ";
      out += bridgecl::StrFormat("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                 rows_[i].name.c_str(), rows_[i].value,
                                 rows_[i].unit);
    }
    return out + "}";
  }
  void PrintTable() const {
    for (const Row& r : rows_)
      std::printf("  %-34s %16.6g %s\n", r.name.c_str(), r.value, r.unit);
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void EndToEnd(const Phase& ph, Metrics& m) {
  std::vector<double> sorted = ph.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = Quantile(sorted, 0.50);
  const double p90 = Quantile(sorted, 0.90);
  const double p99 = Quantile(sorted, 0.99);
  std::printf("TAILS ops=%zu p90_beyond=%zu p99_beyond=%zu passes=%d\n",
              sorted.size(), Beyond(sorted, p90), Beyond(sorted, p99),
              ph.passes);
  const double ops = static_cast<double>(ph.ops());
  m.Add("throughput_ops_s", ops / (ph.wall_ns / 1e9), "1/s");
  m.Add("op_p50_ms", p50, "ms");
  m.Add("op_p90_ms", p90, "ms");
  m.Add("op_p99_ms", p99, "ms");
  m.Add("cpu_ms_per_op",
        (ph.proc.utime_s + ph.proc.stime_s) * 1e3 / std::max(1.0, ops), "ms");
  m.Add("peak_rss_mb", ProcCounters::Now().maxrss_kb / 1024.0, "MB");
}

/// The kernels with the most host time in a corpus pass at the seed commit;
/// fixed so every run reports the same metric names.
constexpr const char* kTopKernels[] = {
    "lud_update", "Fan2",     "lud_step",   "adjust_weights", "srad2",
    "nw_diagonal", "fwtBatch", "bfs_kernel", "compute_flux",   "Fan1"};

/// Native runtime lanes (the wrappers' calls into mocl and mcuda).
int64_t NativeNs(const Recorder& r, Cat c) {
  return r.lane(Lane::kMocl).ns_of(c) + r.lane(Lane::kMcuda).ns_of(c);
}

/// Per-layer metrics, each from the traced phase of the workload that
/// exercises its layer. `own`/`own_ref` are the requested workload's first
/// operations traced and untraced.
void PerLayer(const Phase& translate, const Phase& storm,
              const Phase& corpus_n, const Phase& corpus_1, const Phase& own,
              const Phase& own_ref, Metrics& m) {
  const Recorder& t = translate.rec;
  const NameTotals parse = t.named(Lane::kLang, "parse");
  const NameTotals sema = t.named(Lane::kLang, "sema");
  const NameTotals tparse = t.named(Lane::kLang, "target_parse");
  const NameTotals tsema = t.named(Lane::kLang, "target_sema");
  const NameTotals c2u = t.named(Lane::kTranslator, "cl_to_cu");
  const NameTotals u2c = t.named(Lane::kTranslator, "cu_to_cl");
  auto us_per_kb = [](int64_t ns, uint64_t bytes) {
    return Ratio(ns / 1e3, bytes / 1024.0);
  };
  m.Add("lang.parse_us_per_kb", us_per_kb(parse.ns, parse.bytes), "us/KB");
  m.Add("lang.sema_us_per_kb", us_per_kb(sema.ns, sema.bytes), "us/KB");
  m.Add("lang.target_frontend_us_per_kb",
        us_per_kb(tparse.ns + tsema.ns, tparse.bytes), "us/KB");
  m.Add("translator.cl_to_cu_us_per_kb", us_per_kb(c2u.ns, c2u.bytes),
        "us/KB");
  m.Add("translator.cu_to_cl_us_per_kb", us_per_kb(u2c.ns, u2c.bytes),
        "us/KB");
  const double translate_ns = c2u.ns + u2c.ns;
  m.Add("translator.rewrite_print_share",
        Ratio(translate_ns - parse.ns - sema.ns, translate_ns), "ratio");

  const Recorder& c = corpus_n.rec;
  const DeviceStats& work = corpus_n.work;
  const double launch_ns = NativeNs(c, Cat::kLaunch);
  m.Add("interp.host_ns_per_op", Ratio(launch_ns, work.ops_executed), "ns");
  m.Add("interp.host_us_per_item",
        Ratio(launch_ns / 1e3, work.work_items_executed), "us");
  m.Add("interp.host_us_per_launch",
        Ratio(launch_ns / 1e3, work.kernels_launched), "us");
  for (const char* k : kTopKernels) {
    auto ns_of = [&](const Phase& p) {
      auto it = p.rec.kernel_ns().find(k);
      return it == p.rec.kernel_ns().end() ? 0.0
                                           : static_cast<double>(it->second);
    };
    m.Add(std::string("interp.kernel.") + k + ".ms", ns_of(corpus_n) / 1e6,
          "ms");
    m.Add(std::string("interp.kernel.") + k + ".speedup_nw",
          Ratio(ns_of(corpus_1), ns_of(corpus_n)), "x");
  }
  const ProcCounters& proc = corpus_n.proc;
  m.Add("proc.sys_share",
        Ratio(proc.stime_s, proc.utime_s + proc.stime_s), "ratio");
  m.Add("proc.minflt_per_item", Ratio(proc.minflt, work.work_items_executed),
        "count");

  const Recorder& r = storm.rec;
  const double ops = std::max<double>(1, storm.ops());

  const LaneTotals& cl2cu = r.lane(Lane::kCl2cu);
  const LaneTotals& cu2cl = r.lane(Lane::kCu2cl);
  const LaneTotals& mocl = r.lane(Lane::kMocl);
  const LaneTotals& mcuda = r.lane(Lane::kMcuda);
  m.Add("cl2cu.self_ms_per_op",
        (cl2cu.total_ns() - mcuda.total_ns()) / 1e6 / ops, "ms");
  m.Add("cu2cl.self_ms_per_op",
        (cu2cl.total_ns() - mocl.total_ns()) / 1e6 / ops, "ms");
  m.Add("cl2cu.calls_per_op", cl2cu.total_calls() / ops, "count");
  m.Add("cu2cl.fanout", Ratio(mocl.total_calls(), cu2cl.total_calls()),
        "x");
  const std::pair<const char*, Cat> cats[] = {{"launch", Cat::kLaunch},
                                              {"copy", Cat::kCopy},
                                              {"alloc", Cat::kAlloc}};
  for (const auto& [name, cat] : cats) {
    m.Add(std::string("mocl.") + name + "_ms_per_op",
          mocl.ns_of(cat) / 1e6 / ops, "ms");
    m.Add(std::string("mcuda.") + name + "_ms_per_op",
          mcuda.ns_of(cat) / 1e6 / ops, "ms");
  }
  m.Add("sched.sync_ms_per_op", NativeNs(r, Cat::kSync) / 1e6 / ops, "ms");
  m.Add("simgpu.copy_gb_per_s",
        Ratio(mocl.copy_bytes + mcuda.copy_bytes, NativeNs(r, Cat::kCopy)),
        "GB/s");

  const double corpus_ops = std::max<double>(1, corpus_n.ops());
  m.Add("interp.module.hit_ratio",
        Ratio(corpus_n.cache.hits, corpus_n.cache.hits + corpus_n.cache.misses),
        "ratio");
  m.Add("mocl.build_ms_per_op",
        c.lane(Lane::kMocl).ns_of(Cat::kBuild) / 1e6 / corpus_ops, "ms");
  m.Add("mcuda.build_ms_per_op",
        c.lane(Lane::kMcuda).ns_of(Cat::kBuild) / 1e6 / corpus_ops, "ms");
  const double api_ns =
      c.lane(Lane::kCl2cu).total_ns() + c.lane(Lane::kCu2cl).total_ns();
  m.Add("apps.self_ms_per_op", (corpus_n.op_ns - api_ns) / 1e6 / corpus_ops,
        "ms");
  const size_t n = std::min(own.latency_ms.size(), own_ref.latency_ms.size());
  double traced_ms = 0, untraced_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    traced_ms += own.latency_ms[i];
    untraced_ms += own_ref.latency_ms[i];
  }
  m.Add("trace.overhead_pct", 100.0 * (Ratio(traced_ms, untraced_ms) - 1.0),
        "%");
}

// ---------------------------------------------------------------------------

constexpr int kMmapThreshold = 32 << 20;  // glibc's largest
constexpr int kTrimThreshold = 1 << 30;

void PrintFingerprint(const Options& o) {
  const ProcCounters p = ProcCounters::Now();
  std::printf(
      "FINGERPRINT {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"workers\": %d, \"mmap_threshold\": %d, "
      "\"trim_threshold\": %d, \"seed\": %" PRIu64
      ", \"workload\": \"%s\", \"traced\": %s, \"utime_s\": %.3f, "
      "\"stime_s\": %.3f, \"minflt\": %" PRIu64 ", \"maxrss_kb\": %" PRIu64
      "}\n",
      std::thread::hardware_concurrency(), HOSTBENCH_COMPILER,
      HOSTBENCH_BUILD_TYPE, bridgecl::interp::WorkerCount(), kMmapThreshold,
      kTrimThreshold, o.seed,
      o.workload.c_str(), o.trace ? "true" : "false", p.utime_s, p.stime_s,
      p.minflt, p.maxrss_kb);
}

int Record(const Options& o, Workload& w) {
  Oracle oracle, none;
  for (size_t i = 0; i < w.op_count(); ++i) {
    OpResult r = w.Run(i, none, nullptr);
    Status st = w.CheckForRecord(i, r);
    const std::string* prev = oracle.Find(r.key);
    if (st.ok() && prev != nullptr && *prev != r.observation)
      st = Status(bridgecl::StatusCode::kInternal,
                  r.key + ": the two wrapper directions disagree: '" +
                      *prev + "' vs '" + r.observation + "'");
    if (!st.ok()) {
      std::fprintf(stderr, "hostbench: record: %s\n", st.ToString().c_str());
      return 1;
    }
    oracle.Set(r.key, r.observation);
  }
  const std::string path = o.expected_dir + "/" + o.workload + ".tsv";
  Status st = oracle.Save(path);
  if (!st.ok()) {
    std::fprintf(stderr, "hostbench: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("recorded %zu expected values to %s\n", oracle.size(),
              path.c_str());
  return 0;
}

/// Per-layer metrics into `metrics`; false when a workload could not be
/// set up.
bool TracedRun(const Options& o, Workload& w, const Oracle& oracle,
               Tally& tally, Metrics& metrics) {
  // The requested workload's first operations untraced, then traced in
  // the same order: their time ratio is the tracing overhead. A traced
  // corpus run traces a whole pass, which starts with those operations.
  const bool corpus = o.workload == "corpus";
  Phase own_ref, own;
  RunPhase(w, oracle, o.seed, Limit{o.seconds / 4, o.ops, 1, true}, false,
           tally, own_ref);
  RunPhase(w, oracle, o.seed,
           corpus ? Limit{0, o.ops, 1} : Limit{0, own_ref.ops(), 1}, true,
           tally, own);
  std::map<std::string, std::unique_ptr<Workload>> probes;
  std::map<std::string, Oracle> probe_oracles;
  auto probe = [&](const std::string& name, const Limit& lim,
                   Phase& ph) -> bool {
    Workload* pw = &w;
    const Oracle* po = &oracle;
    if (name != o.workload) {
      auto& slot = probes[name];
      if (slot == nullptr) {
        slot = MakeWorkload(name, o.smoke, true);
        Status pst = slot->SetUp();
        if (pst.ok())
          pst = probe_oracles[name].Load(o.expected_dir + "/" + name +
                                         ".tsv");
        if (!pst.ok()) {
          std::fprintf(stderr, "hostbench: probe %s: %s\n", name.c_str(),
                       pst.ToString().c_str());
          return false;
        }
        if (o.corrupt_expected) probe_oracles[name].Corrupt();
      }
      pw = slot.get();
      po = &probe_oracles[name];
    }
    RunPhase(*pw, *po, o.seed, lim, true, tally, ph);
    return true;
  };
  // Each layer is measured on the workload that exercises it, whatever
  // the requested workload: lang and translator on translate, wrapper and
  // runtime calls on launch_storm, interpretation, builds and per-kernel
  // time on a whole corpus pass, at N workers and at one worker (so
  // speedup_nw shows which launches serialize).
  auto home = [&](const std::string& name, const Limit& lim,
                  Phase& probe_phase) -> const Phase* {
    if (name == o.workload) return &own;
    return probe(name, lim, probe_phase) ? &probe_phase : nullptr;
  };
  Phase translate_probe, storm_probe, corpus_probe, corpus_1;
  const Phase* translate =
      home("translate", Limit{1.0, o.ops, 1}, translate_probe);
  const Phase* storm =
      home("launch_storm", Limit{2.0, o.ops, 1}, storm_probe);
  const Phase* corpus_n = home("corpus", Limit{0, o.ops, 1}, corpus_probe);
  bridgecl::interp::SetWorkerCount(1);
  const bool one_ok = probe("corpus", Limit{0, o.ops, 1}, corpus_1);
  bridgecl::interp::SetWorkerCount(0);
  if (translate == nullptr || storm == nullptr || corpus_n == nullptr ||
      !one_ok)
    return false;
  PerLayer(*translate, *storm, *corpus_n, corpus_1, own, own_ref, metrics);
  if (!o.trace_out.empty()) {
    NamedRecorders recs = {
        {o.workload, &own.rec}};
    if (translate != &own) recs.push_back({"translate", &translate->rec});
    if (storm != &own) recs.push_back({"launch_storm", &storm->rec});
    if (corpus_n != &own) recs.push_back({"corpus", &corpus_n->rec});
    recs.push_back({"corpus (1 worker)", &corpus_1.rec});
    if (!WriteChromeTrace(o.trace_out, recs))
      std::fprintf(stderr, "hostbench: cannot write %s\n",
                   o.trace_out.c_str());
  }
  return true;
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "hostbench: refusing to report numbers from a build without "
               "optimization (build type '%s'); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               HOSTBENCH_BUILD_TYPE);
  return 3;
#endif
  // glibc adapts its mmap and trim thresholds to the allocation history,
  // which makes an operation's cost depend on the operations before it
  // (corpus passes ranged 1.8-4.7 ops/s across seeds). Fixed thresholds
  // keep freed memory in the process, so every order costs the same.
  if (mallopt(M_MMAP_THRESHOLD, kMmapThreshold) != 1 ||
      mallopt(M_TRIM_THRESHOLD, kTrimThreshold) != 1) {
    std::fprintf(stderr, "hostbench: mallopt failed\n");
    return 1;
  }
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, o.smoke, o.trace);
  if (w == nullptr) Usage(("unknown workload " + o.workload).c_str());
  Status st = w->SetUp();
  Oracle oracle;
  if (st.ok() && !o.record)
    st = oracle.Load(o.expected_dir + "/" + o.workload + ".tsv");
  if (!st.ok()) {
    std::fprintf(stderr, "hostbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (o.corrupt_expected) oracle.Corrupt();
  std::printf("READY\n");
  std::fflush(stdout);
  if (o.setup_only) return 0;
  if (o.record) return Record(o, *w);

  Tally tally;
  Metrics metrics;
  Limit limit{o.seconds, o.ops, 3};
  if (!o.trace) {
    Phase ph;
    RunPhase(*w, oracle, o.seed, limit, /*traced=*/false, tally, ph);
    EndToEnd(ph, metrics);
  } else if (!TracedRun(o, *w, oracle, tally, metrics)) {
    return 1;
  }

  PrintFingerprint(o);
  std::printf(
      "COUNTERS {\"ops\": %" PRIu64 ", \"digest\": \"%016" PRIx64
      "\", \"kernels\": %" PRIu64 ", \"items\": %" PRIu64
      ", \"interp_ops\": %" PRIu64 ", \"api_calls\": %" PRIu64 "}\n",
      tally.attempted, tally.digest, tally.work.kernels_launched,
      tally.work.work_items_executed, tally.work.ops_executed,
      tally.work.api_calls);
  const double error_rate =
      Ratio(static_cast<double>(tally.failed), tally.attempted);
  std::printf("ERRORS attempted=%" PRIu64 " failed=%" PRIu64
              " mismatched=%" PRIu64 " error_rate=%.6g\n",
              tally.attempted, tally.errors, tally.mismatches, error_rate);
  std::printf("METRICS %s\n", o.trace ? "per-layer" : "end-to-end");
  metrics.PrintTable();
  std::printf("RESULT {\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, metrics.Json().c_str());
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::Main(argc, argv); }
