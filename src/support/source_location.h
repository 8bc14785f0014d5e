// Source positions and diagnostics for the kernel-language front end and
// the translator. Every token and AST node carries a SourceLoc so that
// translation failures point at the offending construct, mirroring the
// clang-based tooling of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bridgecl {

/// 1-based line/column position inside a named source buffer.
struct SourceLoc {
  uint32_t line = 0;    // 1-based; 0 means "unknown"
  uint32_t column = 0;  // 1-based
  bool valid() const { return line != 0; }
  std::string ToString() const;  // "line:col" or "<unknown>"
};

enum class DiagSeverity { kNote, kWarning, kError };

/// One diagnostic message anchored to a source position.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  SourceLoc loc;
  std::string message;
  std::string ToString() const;  // "12:4: error: ..."
};

/// Collects diagnostics during lexing/parsing/sema/translation.
/// Cheap to pass by reference through the front end.
class DiagnosticEngine {
 public:
  void Error(SourceLoc loc, std::string message);
  void Warning(SourceLoc loc, std::string message);
  void Note(SourceLoc loc, std::string message);

  bool has_errors() const { return error_count_ > 0; }
  int error_count() const { return error_count_; }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  /// All diagnostics, one per line; for error messages and tests.
  std::string ToString() const;

 private:
  std::vector<Diagnostic> diags_;
  int error_count_ = 0;
};

}  // namespace bridgecl
