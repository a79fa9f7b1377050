#include "eval/store.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace buffy::eval {

Value Value::makeScalar(ir::TermRef t) {
  Value v;
  v.kind = Kind::Scalar;
  v.scalar = t;
  return v;
}

Value Value::makeArray(std::vector<ir::TermRef> elems) {
  Value v;
  v.kind = Kind::Array;
  v.array = std::move(elems);
  return v;
}

Value Value::makeList(SymList l) {
  Value v;
  v.kind = Kind::List;
  v.list.emplace(std::move(l));
  return v;
}

SymList& Value::asList() {
  if (kind != Kind::List || !list) {
    throw AnalysisError("value is not a list");
  }
  return *list;
}

const SymList& Value::asList() const {
  if (kind != Kind::List || !list) {
    throw AnalysisError("value is not a list");
  }
  return *list;
}

Store::Store(ir::TermArena& arena)
    : arena_(&arena), names_(std::make_shared<Names>()) {}

Store::VarId Store::var(const std::string& name) {
  Names& names = *names_;
  const auto [it, added] =
      names.varIds.emplace(name, static_cast<VarId>(names.vars.size()));
  if (!added) return it->second;
  const VarId id = it->second;
  names.vars.push_back(name);
  const auto pos = std::lower_bound(
      names.varsByName.begin(), names.varsByName.end(), name,
      [&names](VarId v, const std::string& n) { return names.vars[v] < n; });
  const auto from = names.varsByName.insert(pos, id) - names.varsByName.begin();
  names.rank.push_back(0);
  for (auto r = static_cast<std::size_t>(from); r < names.varsByName.size();
       ++r) {
    names.rank[names.varsByName[r]] = static_cast<std::uint32_t>(r);
  }
  return id;
}

const std::string& Store::varName(VarId id) const {
  return names_->vars.at(id);
}

bool Store::lookupVar(const std::string& name, VarId& id) const {
  const auto it = names_->varIds.find(name);
  if (it == names_->varIds.end()) return false;
  id = it->second;
  return true;
}

void Store::defineGlobal(VarId id, Value v, bool monitor) {
  if (hasGlobal(id)) {
    throw AnalysisError("global '" + varName(id) + "' already defined");
  }
  if (globals_.size() <= id) globals_.resize(id + 1);
  globals_[id] = Global{true, monitor, std::move(v)};
}

void Store::defineGlobal(const std::string& name, Value v, bool monitor) {
  defineGlobal(var(name), std::move(v), monitor);
}

bool Store::hasGlobal(VarId id) const {
  return id < globals_.size() && globals_[id].defined;
}

bool Store::hasGlobal(const std::string& name) const {
  VarId id = 0;
  return lookupVar(name, id) && hasGlobal(id);
}

std::set<std::string> Store::monitors() const {
  std::set<std::string> out;
  for (VarId id = 0; id < globals_.size(); ++id) {
    if (globals_[id].defined && globals_[id].monitor) {
      out.insert(varName(id));
    }
  }
  return out;
}

void Store::addBuffer(const std::string& name,
                      std::unique_ptr<buffers::SymBuffer> buffer) {
  Names& names = *names_;
  const auto [it, added] = names.bufferIds.emplace(
      name, static_cast<BufferId>(names.buffers.size()));
  const BufferId id = it->second;
  if (hasBuffer(id)) {
    throw AnalysisError("buffer '" + name + "' already defined");
  }
  if (added) {
    names.buffers.push_back(name);
    const auto pos = std::lower_bound(
        names.buffersByName.begin(), names.buffersByName.end(), name,
        [&names](BufferId b, const std::string& n) {
          return names.buffers[b] < n;
        });
    names.buffersByName.insert(pos, id);
  }
  if (buffers_.size() <= id) buffers_.resize(id + 1);
  buffers_[id] = std::move(buffer);
}

bool Store::findBuffer(const std::string& name, BufferId& id) const {
  const auto it = names_->bufferIds.find(name);
  if (it == names_->bufferIds.end() || !hasBuffer(it->second)) return false;
  id = it->second;
  return true;
}

buffers::SymBuffer& Store::buffer(BufferId id) {
  if (!hasBuffer(id)) throw AnalysisError("no buffer with that id");
  std::shared_ptr<buffers::SymBuffer>& state = buffers_[id];
  if (state.use_count() > 1) state = state->clone();
  return *state;
}

const buffers::SymBuffer& Store::buffer(BufferId id) const {
  if (!hasBuffer(id)) throw AnalysisError("no buffer with that id");
  return *buffers_[id];
}

buffers::SymBuffer* Store::buffer(const std::string& name) {
  BufferId id = 0;
  return findBuffer(name, id) ? &buffer(id) : nullptr;
}

const buffers::SymBuffer* Store::buffer(const std::string& name) const {
  BufferId id = 0;
  return findBuffer(name, id) ? &buffer(id) : nullptr;
}

void Store::pushScope() { scopes_.push_back(locals_.size()); }

void Store::popScope() {
  if (scopes_.empty()) throw AnalysisError("popScope on empty scope stack");
  locals_.resize(scopes_.back());
  scopes_.pop_back();
}

void Store::declareLocal(VarId id, Value v) {
  if (scopes_.empty()) throw AnalysisError("local declared outside any scope");
  const std::vector<std::uint32_t>& rank = names_->rank;
  auto pos = locals_.begin() + static_cast<std::ptrdiff_t>(scopes_.back());
  for (; pos != locals_.end() && rank[pos->id] <= rank[id]; ++pos) {
    if (pos->id == id) {
      throw AnalysisError("local '" + varName(id) +
                          "' already declared in scope");
    }
  }
  locals_.insert(pos, Local{id, std::move(v)});
}

void Store::declareLocal(const std::string& name, Value v) {
  declareLocal(var(name), std::move(v));
}

void Store::clearLocals() {
  locals_.clear();
  scopes_.clear();
}

Value* Store::find(VarId id) {
  for (auto it = locals_.rbegin(); it != locals_.rend(); ++it) {
    if (it->id == id) return &it->value;
  }
  return hasGlobal(id) ? &globals_[id].value : nullptr;
}

const Value* Store::find(VarId id) const {
  return const_cast<Store*>(this)->find(id);
}

Value* Store::find(const std::string& name) {
  VarId id = 0;
  return lookupVar(name, id) ? find(id) : nullptr;
}

const Value* Store::find(const std::string& name) const {
  return const_cast<Store*>(this)->find(name);
}

void Store::mergeValue(ir::TermArena& arena, ir::TermRef cond, Value& mine,
                       const Value& theirs, const std::string& name) {
  if (mine.kind != theirs.kind) {
    throw AnalysisError("merge shape mismatch for '" + name + "'");
  }
  switch (mine.kind) {
    case Value::Kind::Scalar:
      mine.scalar = arena.ite(cond, mine.scalar, theirs.scalar);
      break;
    case Value::Kind::Array:
      if (mine.array.size() != theirs.array.size()) {
        throw AnalysisError("merge arity mismatch for '" + name + "'");
      }
      for (std::size_t i = 0; i < mine.array.size(); ++i) {
        mine.array[i] = arena.ite(cond, mine.array[i], theirs.array[i]);
      }
      break;
    case Value::Kind::List:
      mine.asList().mergeElse(cond, theirs.asList());
      break;
  }
}

void Store::mergeElse(ir::TermRef cond, const Store& other) {
  if (names_ != other.names_) {
    throw AnalysisError("merge on stores that are not copies of one store");
  }
  if (scopes_.size() != other.scopes_.size()) {
    throw AnalysisError("merge on stores with different scope depth");
  }
  for (const VarId id : names_->varsByName) {
    if (!hasGlobal(id)) continue;
    if (!other.hasGlobal(id)) {
      throw AnalysisError("merge: global '" + varName(id) +
                          "' missing in branch");
    }
    mergeValue(*arena_, cond, globals_[id].value, other.globals_[id].value,
               varName(id));
  }
  for (std::size_t s = 0; s < scopes_.size(); ++s) {
    const std::size_t end =
        s + 1 < scopes_.size() ? scopes_[s + 1] : locals_.size();
    const std::size_t otherEnd = s + 1 < other.scopes_.size()
                                     ? other.scopes_[s + 1]
                                     : other.locals_.size();
    for (std::size_t i = scopes_[s]; i < end; ++i) {
      Local& mine = locals_[i];
      const Local* theirs = nullptr;
      for (std::size_t j = other.scopes_[s]; j < otherEnd; ++j) {
        if (other.locals_[j].id == mine.id) {
          theirs = &other.locals_[j];
          break;
        }
      }
      if (theirs == nullptr) {
        throw AnalysisError("merge: local '" + varName(mine.id) +
                            "' missing in branch");
      }
      mergeValue(*arena_, cond, mine.value, theirs->value, varName(mine.id));
    }
  }
  for (const BufferId id : names_->buffersByName) {
    if (!hasBuffer(id)) continue;
    if (!other.hasBuffer(id)) {
      throw AnalysisError("merge: buffer '" + names_->buffers[id] +
                          "' missing in branch");
    }
    if (buffers_[id] == other.buffers_[id]) continue;  // neither side wrote
    buffer(id).mergeElse(cond, *other.buffers_[id]);
  }
}

}  // namespace buffy::eval
