#include "support/source_location.h"

namespace bridgecl {

std::string SourceLoc::ToString() const {
  if (!valid()) return "<unknown>";
  return std::to_string(line) + ":" + std::to_string(column);
}

static const char* SeverityName(DiagSeverity s) {
  switch (s) {
    case DiagSeverity::kNote: return "note";
    case DiagSeverity::kWarning: return "warning";
    case DiagSeverity::kError: return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  return loc.ToString() + ": " + SeverityName(severity) + ": " + message;
}

void DiagnosticEngine::Error(SourceLoc loc, std::string message) {
  diags_.push_back({DiagSeverity::kError, loc, std::move(message)});
  ++error_count_;
}

void DiagnosticEngine::Warning(SourceLoc loc, std::string message) {
  diags_.push_back({DiagSeverity::kWarning, loc, std::move(message)});
}

void DiagnosticEngine::Note(SourceLoc loc, std::string message) {
  diags_.push_back({DiagSeverity::kNote, loc, std::move(message)});
}

std::string DiagnosticEngine::ToString() const {
  std::string out;
  for (const Diagnostic& d : diags_) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace bridgecl
