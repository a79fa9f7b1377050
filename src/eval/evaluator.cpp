#include "eval/evaluator.hpp"

#include <utility>

#include "ir/term_printer.hpp"
#include "support/error.hpp"

namespace buffy::eval {

using lang::ExprId;
using lang::ExprKind;
using lang::ExprNode;
using lang::StmtId;
using lang::StmtKind;
using lang::StmtNode;
using lang::StmtSpan;
using lang::Type;
using lang::TypeKind;

Evaluator::Evaluator(ir::TermArena& arena, Store& store, EvalSinks sinks,
                     std::string prefix)
    : arena_(arena), store_(&store), sinks_(sinks), prefix_(std::move(prefix)) {
  if (sinks_.assumptions == nullptr || sinks_.obligations == nullptr ||
      sinks_.soundness == nullptr) {
    throw AnalysisError("evaluator sinks must be non-null");
  }
  path_ = arena_.trueTerm();
}

std::string Evaluator::bufferStoreName(const std::string& param,
                                       int index) const {
  if (index < 0) return prefix_ + param;
  return prefix_ + param + "." + std::to_string(index);
}

void Evaluator::execStep(const lang::Ast& ast, int step) {
  ast_ = &ast.arena;
  step_ = step;
  execCount_ = 0;  // maxExecStmts is a per-step allowance
  path_ = arena_.trueTerm();
  if (resolvedFor_ != &ast.arena) {
    bufferArraySizes_.clear();
    for (const auto& p : ast.program.params) {
      if (p.type.kind == TypeKind::BufferArray) {
        bufferArraySizes_[p.name] = p.type.size;
      }
    }
  }
  useArena(ast.arena);
  store_->clearLocals();
  store_->pushScope();
  execBlock(ast.program.body);
  store_->popScope();
  ast_ = nullptr;
}

void Evaluator::useArena(const lang::AstArena& arena) {
  if (resolvedFor_ == &arena) return;
  resolvedFor_ = &arena;
  resolved_.clear();
}

Evaluator::Resolved& Evaluator::resolve(lang::NameId name) {
  if (resolved_.size() <= name.idx) resolved_.resize(name.idx + 1);
  Resolved& r = resolved_[name.idx];
  if (!r.done) {
    r.qualified = prefix_ + ast().str(name);
    r.var = store_->var(r.qualified);
    r.done = true;
  }
  return r;
}

const Evaluator::Resolved& Evaluator::resolveBuffers(lang::NameId name) {
  Resolved& r = resolve(name);
  if (!r.buffersDone) {
    Store::BufferId id = 0;
    const std::string& param = ast().str(name);
    if (store_->findBuffer(bufferStoreName(param), id)) r.buffer = id;
    const auto sizeIt = bufferArraySizes_.find(param);
    if (sizeIt != bufferArraySizes_.end()) {
      r.arraySize = sizeIt->second;
      for (int i = 0; i < r.arraySize; ++i) {
        r.elements.emplace_back();
        if (store_->findBuffer(bufferStoreName(param, i), id)) {
          r.elements.back() = id;
        }
      }
    }
    r.buffersDone = true;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

void Evaluator::execBlock(StmtId block) {
  store_->pushScope();
  const StmtSpan span = ast().stmt(block).block.stmts;
  for (std::uint32_t i = 0; i < span.count; ++i) {
    execStmt(ast().spanAt(span, i));
  }
  store_->popScope();
}

void Evaluator::execStmt(StmtId id) {
  ++execCount_;
  const StmtNode& stmt = ast().stmt(id);
  const SourceLoc loc = ast().stmtLoc(id);
  checkBudget(execCount_, budget_.maxExecStmts, "exec-stmts", loc);
  switch (stmt.kind) {
    case StmtKind::Block:
      execBlock(id);
      break;
    case StmtKind::Decl:
      execDecl(id);
      break;
    case StmtKind::Assign:
      execAssign(id);
      break;
    case StmtKind::If:
      execIf(id);
      break;
    case StmtKind::For:
      execFor(id);
      break;
    case StmtKind::Move:
      execMove(id);
      break;
    case StmtKind::ListPush: {
      const auto& s = stmt.listPush;
      const ir::TermRef value = eval(s.value);
      SymList& list = findList(s.list, loc);
      list.pushBack(value, arena_.trueTerm());
      sinks_.soundness->push_back(
          arena_.implies(path_, arena_.mkNot(list.overflowedTerm())));
      break;
    }
    case StmtKind::PopFront: {
      const auto& s = stmt.popFront;
      SymList& list = findList(s.list, loc);
      const ir::TermRef popped = list.popFront(arena_.trueTerm());
      Value* target = store_->find(resolve(s.target).var);
      if (target == nullptr || target->kind != Value::Kind::Scalar) {
        throw AnalysisError("pop_front target '" + ast().str(s.target) +
                                "' is not a scalar variable",
                            loc);
      }
      target->scalar = popped;
      break;
    }
    case StmtKind::Assert: {
      sinks_.obligations->push_back(Obligation{
          arena_.implies(path_, eval(stmt.guard.cond)), loc,
          "assert at " + loc.str()});
      break;
    }
    case StmtKind::Assume: {
      sinks_.assumptions->push_back(
          arena_.implies(path_, eval(stmt.guard.cond)));
      break;
    }
    case StmtKind::Return:
      throw AnalysisError(
          "return in program body (only allowed in def functions; run the "
          "inliner before evaluation)",
          loc);
    case StmtKind::ExprStmt: {
      const ExprId e = stmt.exprStmt.expr;
      if (ast().expr(e).kind == ExprKind::Call) {
        throw AnalysisError(
            "call to user function survives to evaluation; run the inliner "
            "first",
            loc);
      }
      eval(e);
      break;
    }
  }
}

Value Evaluator::defaultValue(const Type& type, const std::string& name) const {
  switch (type.kind) {
    case TypeKind::Int:
      return Value::makeScalar(arena_.intConst(0));
    case TypeKind::Bool:
      return Value::makeScalar(arena_.falseTerm());
    case TypeKind::IntArray:
      return Value::makeArray(std::vector<ir::TermRef>(
          static_cast<std::size_t>(type.size), arena_.intConst(0)));
    case TypeKind::BoolArray:
      return Value::makeArray(std::vector<ir::TermRef>(
          static_cast<std::size_t>(type.size), arena_.falseTerm()));
    case TypeKind::List:
      return Value::makeList(SymList(name, type.size, arena_));
    default:
      throw AnalysisError("cannot build a value of type " + type.str());
  }
}

void Evaluator::execDecl(StmtId id) {
  const auto& decl = ast().stmt(id).decl;
  const Resolved& name = resolve(decl.name);
  if (decl.storage == lang::Storage::Havoc) {
    // A fresh nondeterministic value every execution (paper §6: havoc
    // variables, constrained by subsequent assume statements).
    const ir::Sort sort = decl.declType.kind == lang::TypeKind::Bool
                              ? ir::Sort::Bool
                              : ir::Sort::Int;
    store_->declareLocal(
        name.var, Value::makeScalar(arena_.freshVar(name.qualified, sort)));
    return;
  }
  const bool persistent = decl.storage != lang::Storage::Local;
  if (persistent) {
    if (step_ > 0 || store_->hasGlobal(name.var)) return;  // persists
    Value v = defaultValue(decl.declType, name.qualified);
    if (decl.init.valid()) v.scalar = eval(decl.init);
    store_->defineGlobal(name.var, std::move(v),
                         decl.storage == lang::Storage::Monitor);
    return;
  }
  Value v = defaultValue(decl.declType, name.qualified);
  if (decl.init.valid()) v.scalar = eval(decl.init);
  store_->declareLocal(name.var, std::move(v));
}

void Evaluator::execAssign(StmtId id) {
  const auto& stmt = ast().stmt(id).assign;
  const SourceLoc loc = ast().stmtLoc(id);
  const std::string& targetName = ast().str(stmt.target);
  const ir::TermRef value = eval(stmt.value);
  Value* target = store_->find(resolve(stmt.target).var);
  if (target == nullptr) {
    throw AnalysisError("assignment to unknown variable '" + targetName + "'",
                        loc);
  }
  if (!stmt.index.valid()) {
    if (target->kind != Value::Kind::Scalar) {
      throw AnalysisError("cannot assign whole aggregate '" + targetName +
                              "'",
                          loc);
    }
    target->scalar = value;
    return;
  }
  if (target->kind != Value::Kind::Array) {
    throw AnalysisError("indexed assignment to non-array '" + targetName +
                            "'",
                        loc);
  }
  const ir::TermRef index = eval(stmt.index);
  const int n = static_cast<int>(target->array.size());
  if (const auto c = ir::constValue(index)) {
    if (*c < 0 || *c >= n) {
      throw AnalysisError("index " + std::to_string(*c) +
                              " out of bounds for '" + targetName + "' (size " +
                              std::to_string(n) + ")",
                          loc);
    }
    target->array[static_cast<std::size_t>(*c)] = value;
    return;
  }
  // Symbolic index: conditional write to every slot; out-of-range indices
  // are a no-op.
  for (int i = 0; i < n; ++i) {
    target->array[static_cast<std::size_t>(i)] =
        arena_.ite(arena_.eq(index, arena_.intConst(i)), value,
                   target->array[static_cast<std::size_t>(i)]);
  }
}

void Evaluator::execIf(StmtId id) {
  const auto stmt = ast().stmt(id).ifs;
  const ir::TermRef cond = eval(stmt.cond);
  if (cond->isTrue()) {
    execBlock(stmt.thenBlock);
    return;
  }
  if (cond->isFalse()) {
    if (stmt.elseBlock.valid()) execBlock(stmt.elseBlock);
    return;
  }

  const ir::TermRef pathIn = path_;
  Store snapshot = *store_;  // shares every buffer state until written

  path_ = arena_.mkAnd(pathIn, cond);
  execBlock(stmt.thenBlock);
  Store thenStore = std::move(*store_);

  *store_ = std::move(snapshot);
  path_ = arena_.mkAnd(pathIn, arena_.mkNot(cond));
  if (stmt.elseBlock.valid()) execBlock(stmt.elseBlock);

  thenStore.mergeElse(cond, *store_);
  *store_ = std::move(thenStore);
  path_ = pathIn;
}

std::int64_t Evaluator::requireConst(ExprId expr, const char* what) {
  const ir::TermRef term = eval(expr);
  const auto c = ir::constValue(term);
  if (!c) {
    throw AnalysisError(std::string(what) +
                            " must be a compile-time constant (got symbolic "
                            "term " +
                            ir::toSExpr(term) + ")",
                        ast().exprLoc(expr));
  }
  return *c;
}

void Evaluator::execFor(StmtId id) {
  const auto stmt = ast().stmt(id).fors;
  const std::int64_t lo = requireConst(stmt.lo, "loop lower bound");
  const std::int64_t hi = requireConst(stmt.hi, "loop upper bound");
  const Store::VarId var = resolve(stmt.var).var;
  for (std::int64_t i = lo; i < hi; ++i) {
    store_->pushScope();
    store_->declareLocal(var, Value::makeScalar(arena_.intConst(i)));
    execBlock(stmt.body);
    store_->popScope();
  }
}

void Evaluator::execMove(StmtId id) {
  const auto stmt = ast().stmt(id).move;
  const SourceLoc loc = ast().stmtLoc(id);
  const ir::TermRef amount = eval(stmt.amount);
  const auto srcChoices = evalBufferChoices(stmt.src);
  const auto dstChoices = evalBufferChoices(stmt.dst);
  for (const auto& src : srcChoices) {
    if (src.filter) {
      throw AnalysisError("move source cannot be a filtered view", loc);
    }
    for (const auto& dst : dstChoices) {
      if (dst.filter) {
        throw AnalysisError("move destination cannot be a filtered view",
                            loc);
      }
      if (src.buffer == dst.buffer) {
        // Symbolic selection may alias; a self-move is a no-op, so only
        // reject it when it is unconditional.
        if (src.cond->isTrue() && dst.cond->isTrue()) {
          throw AnalysisError("move with identical source and destination",
                              loc);
        }
        continue;
      }
      const ir::TermRef guard = arena_.mkAnd(src.cond, dst.cond);
      buffers::SymBuffer& from = store_->buffer(src.buffer);
      buffers::SymBuffer& to = store_->buffer(dst.buffer);
      if (stmt.packets) {
        buffers::moveP(from, to, amount, guard, arena_);
      } else {
        buffers::moveB(from, to, amount, guard, arena_);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

SymList& Evaluator::findList(lang::NameId name, SourceLoc loc) {
  Value* v = store_->find(resolve(name).var);
  if (v == nullptr || v->kind != Value::Kind::List) {
    throw AnalysisError("'" + ast().str(name) + "' is not a list in the store",
                        loc);
  }
  return v->asList();
}

std::vector<Evaluator::BufferChoice> Evaluator::evalBufferChoices(ExprId id) {
  const ExprNode& expr = ast().expr(id);
  const SourceLoc loc = ast().exprLoc(id);
  switch (expr.kind) {
    case ExprKind::VarRef: {
      const Resolved& r = resolveBuffers(expr.varRef.name);
      if (!r.buffer) {
        throw AnalysisError(
            "buffer '" + ast().str(expr.varRef.name) + "' is not registered",
            loc);
      }
      return {BufferChoice{*r.buffer, arena_.trueTerm(), std::nullopt}};
    }
    case ExprKind::Index: {
      const std::string& base = ast().str(expr.index.base);
      const Resolved& r = resolveBuffers(expr.index.base);
      if (r.arraySize < 0) {
        throw AnalysisError("'" + base + "' is not a buffer array", loc);
      }
      const int n = r.arraySize;
      const ir::TermRef index = eval(expr.index.index);
      const auto element = [&](int i) {
        const auto& buffer = r.elements[static_cast<std::size_t>(i)];
        if (!buffer) {
          throw AnalysisError("buffer '" + base + "[" + std::to_string(i) +
                                  "]' is not registered",
                              loc);
        }
        return *buffer;
      };
      std::vector<BufferChoice> choices;
      if (const auto c = ir::constValue(index)) {
        if (*c < 0 || *c >= n) {
          throw AnalysisError("buffer index " + std::to_string(*c) +
                                  " out of bounds for '" + base + "'",
                              loc);
        }
        choices.push_back(
            {element(static_cast<int>(*c)), arena_.trueTerm(), std::nullopt});
        return choices;
      }
      // Symbolic buffer selection: one guarded choice per element.
      for (int i = 0; i < n; ++i) {
        choices.push_back(
            {element(i), arena_.eq(index, arena_.intConst(i)), std::nullopt});
      }
      return choices;
    }
    case ExprKind::Filter: {
      auto choices = evalBufferChoices(expr.filter.base);
      const ir::TermRef value = eval(expr.filter.value);
      for (auto& choice : choices) {
        if (choice.filter) {
          throw AnalysisError("nested buffer filters are not supported", loc);
        }
        choice.filter = buffers::Filter{ast().str(expr.filter.field), value};
      }
      return choices;
    }
    default:
      throw AnalysisError("expression is not a buffer", loc);
  }
}

ir::TermRef Evaluator::evalBacklog(ExprId id) {
  const auto& expr = ast().expr(id).backlog;
  const auto choices = evalBufferChoices(expr.buffer);
  // Out-of-range symbolic selection (e.g. head == -1) yields backlog 0.
  ir::TermRef result = arena_.intConst(0);
  for (const auto& choice : choices) {
    const buffers::SymBuffer& buf = std::as_const(*store_).buffer(choice.buffer);
    ir::TermRef backlog = nullptr;
    if (choice.filter) {
      backlog = expr.packets ? buf.backlogP(*choice.filter)
                             : buf.backlogB(*choice.filter);
    } else {
      backlog = expr.packets ? buf.backlogP() : buf.backlogB();
    }
    result = arena_.ite(choice.cond, backlog, result);
  }
  return result;
}

ir::TermRef Evaluator::evalExpr(const lang::AstArena& arena,
                                lang::ExprId expr) {
  const lang::AstArena* saved = ast_;
  ast_ = &arena;
  useArena(arena);
  const ir::TermRef result = eval(expr);
  ast_ = saved;
  return result;
}

ir::TermRef Evaluator::eval(ExprId id) {
  const ExprNode& expr = ast().expr(id);
  const SourceLoc loc = ast().exprLoc(id);
  switch (expr.kind) {
    case ExprKind::IntLit:
      return arena_.intConst(expr.intLit.value);
    case ExprKind::BoolLit:
      return arena_.boolConst(expr.boolLit.value);
    case ExprKind::VarRef: {
      const Value* v = store_->find(resolve(expr.varRef.name).var);
      if (v == nullptr) {
        throw AnalysisError(
            "unknown variable '" + ast().str(expr.varRef.name) + "'", loc);
      }
      if (v->kind != Value::Kind::Scalar) {
        throw AnalysisError(
            "'" + ast().str(expr.varRef.name) + "' is not a scalar here", loc);
      }
      return v->scalar;
    }
    case ExprKind::Index: {
      const std::string& base = ast().str(expr.index.base);
      const Value* v = store_->find(resolve(expr.index.base).var);
      if (v == nullptr || v->kind != Value::Kind::Array) {
        throw AnalysisError("'" + base + "' is not an array", loc);
      }
      const ir::TermRef index = eval(expr.index.index);
      const int n = static_cast<int>(v->array.size());
      if (const auto c = ir::constValue(index)) {
        if (*c < 0 || *c >= n) {
          throw AnalysisError("index " + std::to_string(*c) +
                                  " out of bounds for '" + base + "'",
                              loc);
        }
        return v->array[static_cast<std::size_t>(*c)];
      }
      ir::TermRef result = arena_.intConst(0);
      for (int i = 0; i < n; ++i) {
        result = arena_.ite(arena_.eq(index, arena_.intConst(i)),
                            v->array[static_cast<std::size_t>(i)], result);
      }
      return result;
    }
    case ExprKind::Binary: {
      const auto& e = expr.binary;
      const ir::TermRef lhs = eval(e.lhs);
      const ir::TermRef rhs = eval(e.rhs);
      switch (e.op) {
        case lang::BinaryOp::Add: return arena_.add(lhs, rhs);
        case lang::BinaryOp::Sub: return arena_.sub(lhs, rhs);
        case lang::BinaryOp::Mul: return arena_.mul(lhs, rhs);
        case lang::BinaryOp::Div: return arena_.div(lhs, rhs);
        case lang::BinaryOp::Mod: return arena_.mod(lhs, rhs);
        case lang::BinaryOp::Eq: return arena_.eq(lhs, rhs);
        case lang::BinaryOp::Ne: return arena_.ne(lhs, rhs);
        case lang::BinaryOp::Lt: return arena_.lt(lhs, rhs);
        case lang::BinaryOp::Le: return arena_.le(lhs, rhs);
        case lang::BinaryOp::Gt: return arena_.gt(lhs, rhs);
        case lang::BinaryOp::Ge: return arena_.ge(lhs, rhs);
        case lang::BinaryOp::And: return arena_.mkAnd(lhs, rhs);
        case lang::BinaryOp::Or: return arena_.mkOr(lhs, rhs);
      }
      throw AnalysisError("unknown binary operator", loc);
    }
    case ExprKind::Unary: {
      const ir::TermRef operand = eval(expr.unary.operand);
      return expr.unary.op == lang::UnaryOp::Not ? arena_.mkNot(operand)
                                                 : arena_.neg(operand);
    }
    case ExprKind::Backlog:
      return evalBacklog(id);
    case ExprKind::Filter:
      throw AnalysisError("filtered buffer used as a value", loc);
    case ExprKind::ListHas:
      return findList(expr.listOp.list, loc).hasTerm(eval(expr.listOp.value));
    case ExprKind::ListEmpty:
      return findList(expr.listOp.list, loc).emptyTerm();
    case ExprKind::ListLen:
      return findList(expr.listOp.list, loc).lenTerm();
    case ExprKind::Call: {
      const auto& e = expr.call;
      const std::string callee = ast().str(e.callee);
      if (callee == "min" || callee == "max") {
        if (e.args.count == 0) {
          throw AnalysisError(callee + "() needs arguments", loc);
        }
        ir::TermRef acc = eval(ast().spanAt(e.args, 0));
        for (std::uint32_t i = 1; i < e.args.count; ++i) {
          const ir::TermRef next = eval(ast().spanAt(e.args, i));
          acc = callee == "min" ? arena_.min(acc, next) : arena_.max(acc, next);
        }
        return acc;
      }
      throw AnalysisError("call to '" + callee +
                              "' survives to evaluation; run the inliner "
                              "first",
                          loc);
    }
  }
  throw AnalysisError("unknown expression kind", loc);
}

}  // namespace buffy::eval
