// Concrete evaluation of IR terms under a variable assignment. Used to
// extract per-step traces from solver models and by the interpreter
// backend's self-checks.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "ir/term.hpp"

namespace buffy::ir {

/// A total assignment of integer values to variables (bools as 0/1).
/// Variables absent from the map default to 0 (solver models may omit
/// don't-care variables).
using Assignment = std::map<std::string, std::int64_t>;

/// Evaluates `term` under `assignment`. Iterative (stack-safe) and
/// memoized per call.
[[nodiscard]] std::int64_t evalTerm(TermRef term, const Assignment& assignment);

/// Evaluates every term of `terms` under `assignment` with one memo, so a
/// subterm they share is evaluated once (a witness trace's series share
/// most of the encoding). Element i of the result is evalTerm(terms[i]).
/// The memo is a dense array indexed by term id, sized by the largest id
/// in `terms`, so every term must come from one arena: ids from a second
/// arena would collide. A DAG that mixes arenas throws buffy::Error.
[[nodiscard]] std::vector<std::int64_t> evalTerms(
    std::span<const TermRef> terms, const Assignment& assignment);

}  // namespace buffy::ir
