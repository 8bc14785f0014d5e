#include "trace/exporters.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <tuple>

#include "support/strings.h"

namespace bridgecl::trace {
namespace {

/// JSON string escaping for event names (kernel names are identifiers,
/// but diagnostics must never produce invalid JSON).
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += StrFormat("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

/// Fixed-precision microseconds: deterministic across runs and platforms
/// (never scientific notation, which the trace viewers reject).
std::string Us(double v) { return StrFormat("%.4f", v); }

/// Direct-children durations, summed per parent in one pass.
std::vector<double> ChildTimePerEvent(const std::vector<TraceEvent>& events) {
  std::vector<double> child_us(events.size(), 0.0);
  for (const TraceEvent& e : events)
    if (e.parent >= 0) child_us[static_cast<size_t>(e.parent)] += e.duration_us();
  return child_us;
}

bool IsWrapperLayer(const char* layer) {
  std::string_view l = layer;
  return l == "cl2cu" || l == "cu2cl";
}

}  // namespace

std::string ChromeTraceJson(const TraceRecorder& recorder) {
  const auto& events = recorder.events();
  std::string out;
  out.reserve(events.size() * 200 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::string name = e.name;
    if (!e.kernel.empty()) name += "(" + e.kernel + ")";
    // tid maps lanes to rows: 1 = host API spans, 2 = copy engine,
    // 3 = compute engine — so chrome://tracing shows engine overlap as
    // visually parallel tracks (lane-0 traces stay byte-identical to the
    // pre-scheduler exporter).
    out += StrFormat(
        "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"cat\":\"%s,%s\","
        "\"ts\":%s,\"dur\":%s,\"args\":{\"seq\":%zu,\"depth\":%d,"
        "\"parent\":%lld,\"failed\":%s",
        e.lane + 1, JsonEscape(name).c_str(), e.layer, TraceKindName(e.kind),
        Us(e.begin_us).c_str(), Us(e.duration_us()).c_str(), i, e.depth,
        static_cast<long long>(e.parent), e.failed ? "true" : "false");
    if (e.stream != 0)
      out += StrFormat(",\"stream\":%llu",
                       static_cast<unsigned long long>(e.stream));
    if (e.bytes != 0)
      out += StrFormat(",\"bytes\":%llu",
                       static_cast<unsigned long long>(e.bytes));
    if (e.kind == TraceKind::kKernelLaunch && !e.kernel.empty()) {
      out += StrFormat(
          ",\"regs_per_thread\":%d,\"occupancy\":%s,\"work_items\":%llu,"
          "\"shared_bank_words\":%llu,\"global_accesses\":%llu,"
          "\"barriers\":%llu",
          e.regs_per_thread, Us(e.occupancy).c_str(),
          static_cast<unsigned long long>(e.delta.work_items_executed),
          static_cast<unsigned long long>(e.delta.shared_bank_words),
          static_cast<unsigned long long>(e.delta.global_accesses),
          static_cast<unsigned long long>(e.delta.barriers));
    }
    if (e.module_cache >= 0)
      out += StrFormat(",\"module_cache\":\"%s\"",
                       e.module_cache == 1 ? "hit" : "miss");
    if (e.delta.api_calls != 0)
      out += StrFormat(",\"api_calls\":%llu",
                       static_cast<unsigned long long>(e.delta.api_calls));
    out += "}}";
    out += (i + 1 < events.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

Status WriteChromeTrace(const TraceRecorder& recorder,
                        const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return InternalError("cannot open trace file '" + path + "'");
  f << ChromeTraceJson(recorder);
  f.flush();
  if (!f) return InternalError("failed writing trace file '" + path + "'");
  return OkStatus();
}

std::vector<CommandCost> CommandCosts(const TraceRecorder& recorder) {
  const auto& events = recorder.events();
  std::vector<double> child_us = ChildTimePerEvent(events);
  // std::map keys give a deterministic grouping order before the sort.
  std::map<std::tuple<std::string, std::string, std::string>, CommandCost>
      groups;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    CommandCost& g = groups[{e.layer, e.name, e.kernel}];
    g.layer = e.layer;
    g.name = e.name;
    g.kernel = e.kernel;
    ++g.count;
    g.inclusive_us += e.duration_us();
    g.exclusive_us += e.duration_us() - child_us[i];
  }
  std::vector<CommandCost> out;
  out.reserve(groups.size());
  for (auto& [key, g] : groups) out.push_back(std::move(g));
  std::stable_sort(out.begin(), out.end(),
                   [](const CommandCost& a, const CommandCost& b) {
                     return a.exclusive_us > b.exclusive_us;
                   });
  return out;
}

std::vector<CommandCost> TopCommands(const TraceRecorder& recorder,
                                     size_t n) {
  std::vector<CommandCost> all = CommandCosts(recorder);
  if (all.size() > n) all.resize(n);
  return all;
}

WrapperOverhead WrapperOverheadOf(const TraceRecorder& recorder) {
  const auto& events = recorder.events();
  WrapperOverhead r;
  if (events.empty()) return r;
  std::vector<double> child_us = ChildTimePerEvent(events);
  std::vector<uint64_t> child_count(events.size(), 0);
  for (const TraceEvent& e : events)
    if (e.parent >= 0) ++child_count[static_cast<size_t>(e.parent)];
  double min_begin = events.front().begin_us;
  double max_end = events.front().end_us;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    min_begin = std::min(min_begin, e.begin_us);
    max_end = std::max(max_end, e.end_us);
    if (IsWrapperLayer(e.layer)) {
      ++r.wrapper_calls;
      r.wrapper_gap_us += e.duration_us() - child_us[i];
      if (child_count[i] > 1) ++r.fanout_calls;
      // Only top-level wrapper spans count inclusively (a nested wrapper
      // span — e.g. WithEvent delegating to the plain enqueue — is
      // already inside its parent's window).
      bool nested_in_wrapper =
          e.parent >= 0 &&
          IsWrapperLayer(events[static_cast<size_t>(e.parent)].layer);
      if (!nested_in_wrapper) r.wrapper_incl_us += e.duration_us();
    } else if (e.parent >= 0 &&
               IsWrapperLayer(events[static_cast<size_t>(e.parent)].layer)) {
      r.native_us += e.duration_us();
    }
  }
  r.total_us = max_end - min_begin;
  return r;
}

std::string SummaryTable(const TraceRecorder& recorder) {
  const auto& events = recorder.events();
  std::string out;
  out += StrFormat("trace summary: %zu command spans, window %s us\n",
                   events.size(),
                   Us(WrapperOverheadOf(recorder).total_us).c_str());

  // Per-kernel table from *native-layer* kernel-launch spans (under a
  // wrapper binding each launch also has a wrapper span; counting only the
  // native one keeps launches = actual device executions).
  struct KernelRow {
    uint64_t launches = 0;
    double us = 0;
    uint64_t work_items = 0;
    uint64_t bank_words = 0;
    double occupancy = 0;  // last seen
    int regs = 0;
  };
  std::map<std::string, KernelRow> kernels;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceKind::kKernelLaunch || IsWrapperLayer(e.layer) ||
        e.kernel.empty())
      continue;
    KernelRow& row = kernels[e.kernel];
    ++row.launches;
    row.us += e.duration_us();
    row.work_items += e.delta.work_items_executed;
    row.bank_words += e.delta.shared_bank_words;
    row.occupancy = e.occupancy;
    row.regs = e.regs_per_thread;
  }
  if (!kernels.empty()) {
    out += StrFormat("%-24s %8s %12s %12s %12s %6s %5s\n", "kernel",
                     "launches", "time(us)", "work-items", "bank-words",
                     "occ", "regs");
    for (const auto& [name, row] : kernels)
      out += StrFormat(
          "%-24s %8llu %12.1f %12llu %12llu %6.2f %5d\n", name.c_str(),
          static_cast<unsigned long long>(row.launches), row.us,
          static_cast<unsigned long long>(row.work_items),
          static_cast<unsigned long long>(row.bank_words), row.occupancy,
          row.regs);
  }

  out += StrFormat("%-10s %-28s %8s %12s %12s\n", "layer", "command",
                   "count", "excl(us)", "incl(us)");
  for (const CommandCost& c : TopCommands(recorder, 10)) {
    std::string name = c.name;
    if (!c.kernel.empty()) name += "(" + c.kernel + ")";
    out += StrFormat("%-10s %-28s %8llu %12.1f %12.1f\n", c.layer,
                     name.c_str(), static_cast<unsigned long long>(c.count),
                     c.exclusive_us, c.inclusive_us);
  }

  WrapperOverhead w = WrapperOverheadOf(recorder);
  if (w.wrapper_calls > 0) {
    out += StrFormat(
        "wrapper overhead: %llu wrapper calls (%llu fan-out), gap %s us of "
        "%s us total = %.4f%%\n",
        static_cast<unsigned long long>(w.wrapper_calls),
        static_cast<unsigned long long>(w.fanout_calls),
        Us(w.wrapper_gap_us).c_str(), Us(w.total_us).c_str(),
        100.0 * w.fraction());
  }
  return out;
}

}  // namespace bridgecl::trace
