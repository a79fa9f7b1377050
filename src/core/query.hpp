// Performance queries over monitor series (paper §3 "Assumptions and
// queries", §6.1's `assert(cdeq[T - 1] >= T/2)`).
//
// After encoding, every monitor and every buffer statistic is a *series*:
// one term per time step. A Query is a boolean expression over those
// series; the textual form supports:
//
//   series access:  name[idxExpr]       (name may be dotted: "fq.cdeq")
//   constants:      integers, true/false, and T (the horizon)
//   arithmetic:     + - * / %            (Euclidean div/mod)
//   comparison:     == != < <= > >=
//   boolean:        & | ! (also && and ||)
//   builtins:       sum(name, lo, hi)       (series summed over [lo,hi))
//                   min_over(name, lo, hi)  (series minimum over [lo,hi))
//                   max_over(name, lo, hi)  (series maximum over [lo,hi))
//                   min(a, b...), max(a, b...)
//
// Example: "cdeq[T-1] >= T/2", "fq.ob.dropped[T-1] > 0".
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/term.hpp"
#include "support/budget.hpp"

namespace buffy::core {

/// Read-only view over the per-step series of an encoding.
class SeriesView {
 public:
  SeriesView(const std::map<std::string, std::vector<ir::TermRef>>* series,
             int horizon)
      : series_(series), horizon_(horizon) {}

  [[nodiscard]] int horizon() const { return horizon_; }
  /// Series terms for `name`; null if unknown.
  [[nodiscard]] const std::vector<ir::TermRef>* find(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  const std::map<std::string, std::vector<ir::TermRef>>* series_;
  int horizon_;
};

class Query {
 public:
  /// A query from textual form (parsed when built against a view).
  static Query expr(std::string text);
  /// A programmatic query.
  static Query custom(
      std::string description,
      std::function<ir::TermRef(const SeriesView&, ir::TermArena&)> build);
  /// The trivially-true query (use to check only in-program asserts).
  static Query always();

  /// Builds the boolean term for this query. Throws AnalysisError on
  /// unknown series or malformed text, and BudgetExceeded
  /// ("nesting-depth") when query text nests deeper than
  /// `budget.maxNestingDepth` (0 lifts the cap).
  [[nodiscard]] ir::TermRef build(
      const SeriesView& view, ir::TermArena& arena,
      const CompileBudget& budget = CompileBudget::defaults()) const;
  [[nodiscard]] const std::string& description() const { return text_; }
  /// True for Query::expr queries: the text IS the query, so it can be
  /// re-parsed against a different series universe (the CHC backend builds
  /// it over transition-system state variables instead of the bounded
  /// unrolling). Custom queries are closures over one encoding and cannot.
  [[nodiscard]] bool textual() const { return textual_; }

 private:
  Query() = default;
  std::string text_;
  bool textual_ = false;
  std::function<ir::TermRef(const SeriesView&, ir::TermArena&)> build_;
};

}  // namespace buffy::core
