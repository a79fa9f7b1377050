// The symbolic evaluator: executes one time step of a (typechecked,
// inlined) Buffy program over a symbolic Store, producing IR terms and
// collecting assumptions, assertion obligations, and model-soundness side
// conditions.
//
// Branching uses store snapshots merged with ite (the SSA/φ step of the
// paper's §4 pipeline); bounded loops are iterated directly when their
// bounds fold to constants (the explicit unroller in transform/ produces
// the same result and is differentially tested against this).
//
// When every input term is constant, all state folds to constants — the
// concrete interpreter backend reuses this evaluator unchanged.
//
// The evaluator never mutates the AST: it walks arena handles read-only,
// which is what lets the unroller share statement nodes between iteration
// blocks.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eval/store.hpp"
#include "ir/term.hpp"
#include "lang/ast.hpp"
#include "support/budget.hpp"

namespace buffy::eval {

/// A proof obligation produced by assert(E): `cond` must hold under the
/// collected assumptions.
struct Obligation {
  ir::TermRef cond = nullptr;
  SourceLoc loc{};
  std::string label;
};

/// Output channels of an evaluation. All pointers must outlive the
/// evaluator and be non-null.
struct EvalSinks {
  std::vector<ir::TermRef>* assumptions = nullptr;
  std::vector<Obligation>* obligations = nullptr;
  /// Conditions required for the model itself to be sound (e.g. no list
  /// overflow). The analyzer asserts them as assumptions and can check
  /// their reachability separately.
  std::vector<ir::TermRef>* soundness = nullptr;
};

class Evaluator {
 public:
  /// `prefix` namespaces every global/local/buffer of this program instance
  /// (e.g. "fq."); empty for single-program analyses.
  Evaluator(ir::TermArena& arena, Store& store, EvalSinks sinks,
            std::string prefix = "");

  /// Executes one time step. Buffer parameters of the program must already
  /// be registered in the store under bufferStoreName(). Global
  /// declarations initialize at step 0 only; locals are fresh every step.
  void execStep(const lang::Ast& ast, int step);

  /// The store name of a buffer parameter: prefix + param for scalars,
  /// prefix + param + "." + i for array elements.
  [[nodiscard]] std::string bufferStoreName(const std::string& param,
                                            int index = -1) const;

  /// Evaluates a standalone boolean/integer expression against the current
  /// store (used by the query engine for in-store conditions).
  [[nodiscard]] ir::TermRef evalExpr(const lang::AstArena& arena,
                                     lang::ExprId expr);

  /// Replaces the resource budget (defaults to CompileBudget::defaults()).
  /// maxExecStmts bounds statements executed per time step, so a
  /// constant-bounded loop bomb (`for (i in 0..1000000000)`) raises
  /// BudgetExceeded instead of grinding for hours.
  void setBudget(const CompileBudget& budget) { budget_ = budget; }

 private:
  struct BufferChoice {
    Store::BufferId buffer = 0;
    ir::TermRef cond = nullptr;
    std::optional<buffers::Filter> filter;
  };

  /// What a name of the current program denotes, worked out on its first
  /// use: its qualified name, its store variable and, once the name is
  /// used as a buffer, the store buffers it selects.
  struct Resolved {
    bool done = false;
    std::string qualified;  // prefix + name
    Store::VarId var = 0;
    bool buffersDone = false;
    /// `name` as a buffer parameter, if registered.
    std::optional<Store::BufferId> buffer;
    /// `name` as a buffer-array parameter: its size (-1 when it is not
    /// one) and the registered buffer of each element.
    int arraySize = -1;
    std::vector<std::optional<Store::BufferId>> elements;
  };

  /// The arena of the program currently being executed (valid only inside
  /// execStep / the public evalExpr).
  const lang::AstArena& ast() const { return *ast_; }
  /// Points the name cache at `arena`, dropping it if it was built for
  /// another program.
  void useArena(const lang::AstArena& arena);
  [[nodiscard]] Resolved& resolve(lang::NameId name);
  [[nodiscard]] const Resolved& resolveBuffers(lang::NameId name);

  void execBlock(lang::StmtId block);
  void execStmt(lang::StmtId stmt);
  void execDecl(lang::StmtId stmt);
  void execAssign(lang::StmtId stmt);
  void execIf(lang::StmtId stmt);
  void execFor(lang::StmtId stmt);
  void execMove(lang::StmtId stmt);

  [[nodiscard]] ir::TermRef eval(lang::ExprId expr);
  [[nodiscard]] Value defaultValue(const lang::Type& type,
                                   const std::string& name) const;
  /// The buffers `expr` selects, by store id: a move takes each through
  /// the store's write accessor, a backlog through the read accessor.
  [[nodiscard]] std::vector<BufferChoice> evalBufferChoices(lang::ExprId expr);
  [[nodiscard]] ir::TermRef evalBacklog(lang::ExprId expr);
  [[nodiscard]] SymList& findList(lang::NameId name, SourceLoc loc);
  [[nodiscard]] std::int64_t requireConst(lang::ExprId expr, const char* what);

  ir::TermArena& arena_;
  Store* store_;
  EvalSinks sinks_;
  std::string prefix_;
  const lang::AstArena* ast_ = nullptr;  // current program's arena
  ir::TermRef path_;  // current path condition (for sinks only)
  int step_ = 0;
  CompileBudget budget_ = CompileBudget::defaults();
  std::size_t execCount_ = 0;  // statements executed in the current step
  /// The name cache, by NameId of the arena it was built for. A deque,
  /// so a Resolved& stays valid while later names are added.
  const lang::AstArena* resolvedFor_ = nullptr;
  std::deque<Resolved> resolved_;
  /// Buffer-array parameter sizes of the current program, by name.
  std::map<std::string, int> bufferArraySizes_;
};

}  // namespace buffy::eval
