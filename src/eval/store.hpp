// The symbolic store: maps program variables to IR terms, lists, and
// symbolic buffers. Supports cheap snapshots and ite-merging, which is how
// the evaluator encodes conditionals (snapshot the store, run both
// branches, merge with the branch condition) — the SSA/φ-node step of the
// paper's §4 pipeline.
//
// Two layers:
//  * a persistent layer (globals, monitors, buffers) that survives across
//    time steps and across program instances in a composition;
//  * a scoped local layer reset at every time step.
//
// Snapshots copy without copying buffers. A copy shares every buffer state
// with the original, and the write accessor clones a shared state before
// handing it out, so only a buffer a branch writes is ever cloned; reads go
// through the const accessor and never clone. Variables are flat: each
// qualified name gets a VarId once, in a name table that a store and all
// its copies share and only ever append to, and the globals and the scoped
// locals live in two vectors, so a snapshot copies a few arrays and a
// lookup by VarId needs no string.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffers/model.hpp"
#include "eval/sym_list.hpp"
#include "ir/term.hpp"

namespace buffy::eval {

/// A scalar, array, or list value in the store.
struct Value {
  enum class Kind { Scalar, Array, List };
  Kind kind = Kind::Scalar;
  ir::TermRef scalar = nullptr;
  std::vector<ir::TermRef> array;
  std::optional<SymList> list;

  static Value makeScalar(ir::TermRef t);
  static Value makeArray(std::vector<ir::TermRef> elems);
  static Value makeList(SymList l);

  [[nodiscard]] SymList& asList();
  [[nodiscard]] const SymList& asList() const;
};

class Store {
 public:
  /// A qualified variable name, resolved once (see var()).
  using VarId = std::uint32_t;
  /// A registered buffer, in registration order.
  using BufferId = std::uint32_t;

  explicit Store(ir::TermArena& arena);

  /// Copies share the name table and every buffer state (copy-on-write).
  Store(const Store&) = default;
  Store& operator=(const Store&) = default;
  Store(Store&&) = default;
  Store& operator=(Store&&) = default;

  [[nodiscard]] ir::TermArena& arena() const { return *arena_; }

  /// The id of a qualified variable name, added to the shared name table
  /// on first use. Valid in this store and every copy of it.
  [[nodiscard]] VarId var(const std::string& name);

  // --- persistent layer ---
  void defineGlobal(VarId id, Value v, bool monitor = false);
  void defineGlobal(const std::string& name, Value v, bool monitor = false);
  [[nodiscard]] bool hasGlobal(VarId id) const;
  [[nodiscard]] bool hasGlobal(const std::string& name) const;
  /// The qualified names of the monitor globals.
  [[nodiscard]] std::set<std::string> monitors() const;
  void addBuffer(const std::string& name,
                 std::unique_ptr<buffers::SymBuffer> buffer);
  /// The id of a registered buffer; false when there is none.
  [[nodiscard]] bool findBuffer(const std::string& name, BufferId& id) const;
  /// The write accessor: clones the state first when a copy shares it.
  [[nodiscard]] buffers::SymBuffer& buffer(BufferId id);
  /// The read accessor: never clones.
  [[nodiscard]] const buffers::SymBuffer& buffer(BufferId id) const;
  /// By name; null when no such buffer is registered.
  [[nodiscard]] buffers::SymBuffer* buffer(const std::string& name);
  [[nodiscard]] const buffers::SymBuffer* buffer(
      const std::string& name) const;
  /// Registration order.
  [[nodiscard]] const std::vector<std::string>& bufferNames() const {
    return names_->buffers;
  }

  // --- scoped local layer ---
  void pushScope();
  void popScope();
  /// Declares in the innermost scope. Throws on redeclaration in that scope.
  void declareLocal(VarId id, Value v);
  void declareLocal(const std::string& name, Value v);
  /// Drops all local scopes (between time steps).
  void clearLocals();
  [[nodiscard]] std::size_t scopeDepth() const { return scopes_.size(); }

  /// Innermost-scope-first lookup, falling back to globals. Null if absent.
  [[nodiscard]] Value* find(VarId id);
  [[nodiscard]] const Value* find(VarId id) const;
  [[nodiscard]] Value* find(const std::string& name);
  [[nodiscard]] const Value* find(const std::string& name) const;

  /// Makes this store ite(cond, *this, other). Both stores must have the
  /// same shape (they come from copies of one snapshot). Merges globals by
  /// qualified name, then each scope from outermost to innermost by name,
  /// then buffers by name; a buffer state both stores still share is left
  /// as it is.
  void mergeElse(ir::TermRef cond, const Store& other);

 private:
  /// Names seen by a store and its copies. Append-only, so an id never
  /// changes meaning while copies are alive.
  struct Names {
    std::vector<std::string> vars;  // by VarId
    std::unordered_map<std::string, VarId> varIds;
    /// rank[id] orders VarIds by name; ranks shift as names are added,
    /// but the relative order of existing names never changes.
    std::vector<std::uint32_t> rank;
    std::vector<VarId> varsByName;
    std::vector<std::string> buffers;  // by BufferId
    std::unordered_map<std::string, BufferId> bufferIds;
    std::vector<BufferId> buffersByName;
  };

  struct Global {
    bool defined = false;
    bool monitor = false;
    Value value;
  };

  struct Local {
    VarId id = 0;
    Value value;
  };

  [[nodiscard]] const std::string& varName(VarId id) const;
  [[nodiscard]] bool lookupVar(const std::string& name, VarId& id) const;
  [[nodiscard]] bool hasBuffer(BufferId id) const {
    return id < buffers_.size() && buffers_[id] != nullptr;
  }
  static void mergeValue(ir::TermArena& arena, ir::TermRef cond, Value& mine,
                         const Value& theirs, const std::string& name);

  ir::TermArena* arena_;
  std::shared_ptr<Names> names_;
  std::vector<Global> globals_;  // by VarId
  /// Every scope's locals, outermost first, each scope sorted by name.
  std::vector<Local> locals_;
  std::vector<std::size_t> scopes_;  // where each scope starts in locals_
  std::vector<std::shared_ptr<buffers::SymBuffer>> buffers_;  // by BufferId
};

}  // namespace buffy::eval
