// The benchmark's three closed-loop workloads. Each is a list of
// operations; a pass runs them in an order drawn from the seed. Every
// operation's observable result is compared with the expected value
// committed under hostbench/expected/.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "recorder.h"
#include "simgpu/device.h"
#include "support/status.h"

namespace hostbench {

/// Expected observations, one line per operation key:
///   <key>\t<observation>
class Oracle {
 public:
  bridgecl::Status Load(const std::string& path);
  bridgecl::Status Save(const std::string& path) const;

  /// Null when the key has no expected value.
  const std::string* Find(const std::string& key) const;
  void Set(const std::string& key, const std::string& observation) {
    rows_[key] = observation;
  }
  /// Alters every expected value (the self-test's corruption check).
  void Corrupt();
  size_t size() const { return rows_.size(); }

 private:
  std::map<std::string, std::string> rows_;
};

struct OpResult {
  std::string key;          // oracle key
  std::string observation;  // what the op produced, in oracle form
  bool error = false;       // the op failed where it was expected to pass
  bool mismatch = false;    // the observation differs from the oracle
  bridgecl::simgpu::DeviceStats stats;  // simulated work the op did
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the workload's inputs and warms what a steady state has warm
  /// (module cache, worker pool). Not timed as an operation.
  virtual bridgecl::Status SetUp() = 0;

  /// Number of distinct operations (indices 0 .. op_count()-1).
  virtual size_t op_count() const = 0;

  /// Operation indices of one pass, in seeded order.
  virtual std::vector<size_t> PassOrder(std::mt19937_64& rng) const = 0;

  /// Runs operation `i` and checks it against `oracle`. When `rec` is set
  /// the operation is traced into it.
  virtual OpResult Run(size_t i, const Oracle& oracle, Recorder* rec) = 0;

  /// Record mode: checks an operation's result against a reference that
  /// does not go through the translator, before it becomes the oracle.
  virtual bridgecl::Status CheckForRecord(size_t i, const OpResult& r) {
    (void)i;
    (void)r;
    return bridgecl::OkStatus();
  }

  /// Whole passes per run: a pass mixes operations of very different cost,
  /// so only whole passes give a steady throughput.
  virtual bool whole_passes() const { return false; }

  /// Traced-run extras measured outside the operations' timed sections
  /// (the translate workload's source front-end split).
  virtual void TraceExtras(size_t i, Recorder& rec) {
    (void)i;
    (void)rec;
  }
};

/// `name` is corpus | translate | launch_storm; `smoke` shrinks the corpus
/// and translate sets to a few cheap operations; `traced` prepares the
/// traced stacks too.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke,
                                       bool traced);

/// 64-bit FNV-1a.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ull);

}  // namespace hostbench
