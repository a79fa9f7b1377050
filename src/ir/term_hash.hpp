// Canonical, cross-run-stable structural hashing over the term IR
// (DESIGN.md §14). The hash of a term depends only on its kind, sort,
// constant value, variable name, and the hashes of its arguments — never
// on pointers, arena ids, or interning order — so two arenas that build
// semantically identical DAGs (e.g. the same model recompiled in another
// process) produce identical hashes. This is what makes the verdict
// cache's keys content-addressed: a worker recompiling a WireJob from
// source lands on the same key its parent computed.
//
// A term's hash is computed once, when the arena interns it (Term::hash),
// from its fields and its arguments' stored hashes; the intern table
// probes with the same value. Nothing walks the DAG to hash it.
//
// Assertion *sets* are hashed order-insensitively (per-assertion hashes
// are sorted before combining) because the optimizer may emit the same
// slice in a different order across sessions; duplicates still count.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "ir/term.hpp"

namespace buffy::ir {

/// The structural hash of a term with these fields whose arguments carry
/// `args`' hashes (lane-wise FNV-style mixing over the canonical
/// encoding, nudged off 0). TermArena::intern stores it as Term::hash.
std::uint64_t structuralHash(TermKind kind, Sort sort, std::int64_t value,
                             std::string_view name,
                             std::span<const TermRef> args);

/// Order-insensitive, duplicate-sensitive hash of an assertion set.
std::uint64_t hashSet(std::span<const TermRef> terms);

}  // namespace buffy::ir
