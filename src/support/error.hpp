// Exception types used across Buffy. Per the C++ Core Guidelines we report
// unrecoverable analysis errors via exceptions rather than error codes.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "support/source_location.hpp"

namespace buffy {

/// Base class for all Buffy errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& msg) : std::runtime_error(msg) {}
  Error(const std::string& msg, SourceLoc loc)
      : std::runtime_error(loc.known() ? loc.str() + ": " + msg : msg),
        loc_(loc) {}

  [[nodiscard]] SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_{};
};

/// Lexing / parsing failure.
class SyntaxError : public Error {
 public:
  using Error::Error;
};

/// Type checking or semantic-pass failure.
class SemanticError : public Error {
 public:
  using Error::Error;
};

/// A compile-time resource budget was exhausted (CompileBudget, DESIGN.md
/// §10): unroll/inline blowup, AST or term-graph explosion, or nesting too
/// deep. Unlike SyntaxError/SemanticError this is not recoverable by
/// panic-mode synchronization — the governor aborts the whole compilation.
class BudgetExceeded : public Error {
 public:
  BudgetExceeded(std::string resource, std::uint64_t limit, SourceLoc loc)
      : Error("compile budget exceeded: " + resource + " limit " +
                  std::to_string(limit),
              loc),
        resource_(std::move(resource)),
        limit_(limit) {}

  /// Flag-style resource name ("unroll-stmts", "term-nodes", ...).
  [[nodiscard]] const std::string& resource() const { return resource_; }
  [[nodiscard]] std::uint64_t limit() const { return limit_; }

 private:
  std::string resource_;
  std::uint64_t limit_ = 0;
};

/// Evaluation / analysis failure (e.g. unsupported operation for the chosen
/// buffer model).
class AnalysisError : public Error {
 public:
  using Error::Error;
};

/// Backend (solver) failure.
class BackendError : public Error {
 public:
  using Error::Error;
};

/// Malformed serialized input (support/wire_map.hpp): a bad envelope, a
/// malformed WireMap payload, or a missing or ill-typed field in a record
/// decoded from one. The worker supervisor treats it as a garbled reply,
/// the verdict cache as a miss; it never becomes an answer.
class DecodeError : public Error {
 public:
  using Error::Error;
};

}  // namespace buffy
