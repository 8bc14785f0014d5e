#include "recorder.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>

namespace hostbench {

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kOp: return "op";
    case Lane::kCl2cu: return "cl2cu";
    case Lane::kCu2cl: return "cu2cl";
    case Lane::kMocl: return "mocl";
    case Lane::kMcuda: return "mcuda";
    case Lane::kLang: return "lang";
    case Lane::kTranslator: return "translator";
  }
  return "?";
}

int64_t LaneTotals::total_ns() const {
  int64_t sum = 0;
  for (int64_t v : ns) sum += v;
  return sum;
}

uint64_t LaneTotals::total_calls() const {
  uint64_t sum = 0;
  for (uint64_t v : calls) sum += v;
  return sum;
}

void Recorder::Record(Lane lane, Cat cat, const char* name, int64_t start_ns,
                      int64_t end_ns, const std::string& kernel,
                      uint64_t items, uint64_t bytes) {
  const int64_t dur = end_ns - start_ns;
  LaneTotals& t = lanes_[static_cast<int>(lane)];
  t.ns[static_cast<int>(cat)] += dur;
  t.calls[static_cast<int>(cat)] += 1;
  if (cat == Cat::kCopy) t.copy_bytes += bytes;
  NameTotals& n = named_[static_cast<int>(lane)][name];
  n.ns += dur;
  n.calls += 1;
  n.bytes += bytes;
  if (cat == Cat::kLaunch && (lane == Lane::kMocl || lane == Lane::kMcuda))
    kernel_ns_[kernel] += dur;
  if (spans_.size() < kMaxSpans)
    spans_.push_back(Span{lane, name, start_ns, dur, kernel, items, op_});
}

NameTotals Recorder::named(Lane lane, const std::string& name) const {
  const auto& m = named_[static_cast<int>(lane)];
  auto it = m.find(name);
  return it == m.end() ? NameTotals{} : it->second;
}

void Recorder::ResetTotals() {
  lanes_ = {};
  kernel_ns_.clear();
  for (auto& m : named_) m.clear();
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

void Recorder::AppendChromeEvents(int pid, const std::string& process_name,
                                  std::string* out, bool* first) const {
  char buf[256];
  auto sep = [&] {
    if (!*first) out->append(",\n");
    *first = false;
  };
  sep();
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                "\"args\":{\"name\":\"",
                pid);
  out->append(buf);
  AppendEscaped(process_name, out);
  out->append("\"}}");
  for (int l = 0; l < kLaneCount; ++l) {
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                  pid, l + 1, LaneName(static_cast<Lane>(l)));
    out->append(buf);
  }
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    sep();
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"op\":%" PRIu64,
                  pid, static_cast<int>(s.lane) + 1, (s.start_ns - t0) / 1e3,
                  s.dur_ns / 1e3, s.name, s.op);
    out->append(buf);
    if (!s.kernel.empty()) {
      out->append(",\"kernel\":\"");
      AppendEscaped(s.kernel, out);
      std::snprintf(buf, sizeof buf, "\",\"items\":%" PRIu64, s.items);
      out->append(buf);
    }
    out->append("}}");
  }
}

bool WriteChromeTrace(const std::string& path,
                      const NamedRecorders& recorders) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  int pid = 1;
  for (const auto& [name, rec] : recorders)
    rec->AppendChromeEvents(pid++, name, &out, &first);
  out += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

ProcCounters ProcCounters::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcCounters c;
  c.utime_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  c.stime_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  c.minflt = static_cast<uint64_t>(ru.ru_minflt);
  c.maxrss_kb = static_cast<uint64_t>(ru.ru_maxrss);
  return c;
}

}  // namespace hostbench
