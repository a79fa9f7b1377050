#include "core/query.hpp"

#include "ir/term_printer.hpp"
#include "lang/lexer.hpp"
#include "support/budget.hpp"
#include "support/error.hpp"

namespace buffy::core {

using lang::Token;
using lang::TokenKind;

const std::vector<ir::TermRef>* SeriesView::find(
    const std::string& name) const {
  const auto it = series_->find(name);
  return it != series_->end() ? &it->second : nullptr;
}

std::vector<std::string> SeriesView::names() const {
  std::vector<std::string> out;
  out.reserve(series_->size());
  for (const auto& [name, terms] : *series_) out.push_back(name);
  return out;
}

namespace {

/// Recursive-descent parser for query expressions (see query.hpp header
/// comment for the grammar). Reuses the Buffy lexer; dotted names are
/// re-assembled from Identifier (Dot Identifier)* runs.
class QueryParser {
 public:
  QueryParser(std::vector<Token> tokens, const SeriesView& view,
              ir::TermArena& arena, std::size_t maxDepth)
      : tokens_(std::move(tokens)),
        view_(view),
        arena_(arena),
        maxDepth_(maxDepth) {}

  ir::TermRef parse() {
    const ir::TermRef result = parseOr();
    if (!peek().is(TokenKind::EndOfFile)) {
      throw AnalysisError("trailing tokens in query", peek().loc);
    }
    if (result->sort != ir::Sort::Bool) {
      throw AnalysisError("query must be a boolean expression");
    }
    return result;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& tok = peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return tok;
  }
  bool match(TokenKind kind) {
    if (peek().is(kind)) {
      advance();
      return true;
    }
    return false;
  }
  void expect(TokenKind kind, const char* ctx) {
    if (!match(kind)) {
      throw AnalysisError(std::string("query: expected ") +
                              lang::tokenKindName(kind) + " " + ctx,
                          peek().loc);
    }
  }

  ir::TermRef parseOr() {
    ir::TermRef lhs = parseAnd();
    while (match(TokenKind::Pipe)) lhs = arena_.mkOr(lhs, parseAnd());
    return lhs;
  }
  ir::TermRef parseAnd() {
    ir::TermRef lhs = parseCmp();
    while (match(TokenKind::Amp)) lhs = arena_.mkAnd(lhs, parseCmp());
    return lhs;
  }
  ir::TermRef parseCmp() {
    ir::TermRef lhs = parseAdd();
    while (true) {
      if (match(TokenKind::EqEq)) {
        lhs = arena_.eq(lhs, parseAdd());
      } else if (match(TokenKind::NotEq)) {
        lhs = arena_.ne(lhs, parseAdd());
      } else if (match(TokenKind::Lt)) {
        lhs = arena_.lt(lhs, parseAdd());
      } else if (match(TokenKind::Le)) {
        lhs = arena_.le(lhs, parseAdd());
      } else if (match(TokenKind::Gt)) {
        lhs = arena_.gt(lhs, parseAdd());
      } else if (match(TokenKind::Ge)) {
        lhs = arena_.ge(lhs, parseAdd());
      } else {
        return lhs;
      }
    }
  }
  ir::TermRef parseAdd() {
    ir::TermRef lhs = parseMul();
    while (true) {
      if (match(TokenKind::Plus)) {
        lhs = arena_.add(lhs, parseMul());
      } else if (match(TokenKind::Minus)) {
        lhs = arena_.sub(lhs, parseMul());
      } else {
        return lhs;
      }
    }
  }
  ir::TermRef parseMul() {
    ir::TermRef lhs = parseUnary();
    while (true) {
      if (match(TokenKind::Star)) {
        lhs = arena_.mul(lhs, parseUnary());
      } else if (match(TokenKind::Slash)) {
        lhs = arena_.div(lhs, parseUnary());
      } else if (match(TokenKind::Percent)) {
        lhs = arena_.mod(lhs, parseUnary());
      } else {
        return lhs;
      }
    }
  }
  ir::TermRef parseUnary() {
    // Every recursion through the grammar passes here, so one level per
    // call bounds the parser's stack (CompileBudget::maxNestingDepth). An
    // exception abandons the whole parse: the count needs no unwinding.
    if (maxDepth_ != 0 && depth_ == maxDepth_) {
      throw BudgetExceeded("nesting-depth", maxDepth_, peek().loc);
    }
    ++depth_;
    const ir::TermRef term =
        match(TokenKind::Bang)    ? arena_.mkNot(parseUnary())
        : match(TokenKind::Minus) ? arena_.neg(parseUnary())
                                  : parsePrimary();
    --depth_;
    return term;
  }

  std::string parseDottedName() {
    std::string name = advance().text;  // first Identifier (already checked)
    // Components may be identifiers or numbers (monitor-array elements and
    // buffer-array units are named e.g. "fq.cdeq.0", "fq.ibs.1.backlog").
    while (peek().is(TokenKind::Dot) &&
           (peek(1).is(TokenKind::Identifier) ||
            peek(1).is(TokenKind::IntLiteral))) {
      advance();
      name += "." + advance().text;
    }
    return name;
  }

  int constStep(ir::TermRef idx, const char* ctx) {
    const auto c = ir::constValue(idx);
    if (!c) {
      throw AnalysisError(std::string("query: ") + ctx +
                          " must be a constant step expression");
    }
    if (*c < 0 || *c >= view_.horizon()) {
      throw AnalysisError(std::string("query: step ") + std::to_string(*c) +
                          " out of range [0, " +
                          std::to_string(view_.horizon()) + ")");
    }
    return static_cast<int>(*c);
  }

  const std::vector<ir::TermRef>& seriesOrThrow(const std::string& name) {
    const auto* s = view_.find(name);
    if (s == nullptr) {
      std::string known;
      for (const auto& n : view_.names()) {
        if (known.size() > 400) {
          known += ", ...";
          break;
        }
        known += (known.empty() ? "" : ", ") + n;
      }
      throw AnalysisError("query: unknown series '" + name +
                          "' (known: " + known + ")");
    }
    return *s;
  }

  ir::TermRef parsePrimary() {
    const Token& tok = peek();
    switch (tok.kind) {
      case TokenKind::IntLiteral:
        advance();
        return arena_.intConst(tok.value);
      case TokenKind::KwTrue:
        advance();
        return arena_.trueTerm();
      case TokenKind::KwFalse:
        advance();
        return arena_.falseTerm();
      case TokenKind::LParen: {
        advance();
        const ir::TermRef e = parseOr();
        expect(TokenKind::RParen, "after parenthesized expression");
        return e;
      }
      case TokenKind::Identifier: {
        if (tok.text == "T" && !peek(1).is(TokenKind::Dot) &&
            !peek(1).is(TokenKind::LBracket) &&
            !peek(1).is(TokenKind::LParen)) {
          advance();
          return arena_.intConst(view_.horizon());
        }
        if ((tok.text == "min_over" || tok.text == "max_over") &&
            peek(1).is(TokenKind::LParen)) {
          const bool isMin = tok.text == "min_over";
          advance();
          advance();
          if (!peek().is(TokenKind::Identifier)) {
            throw AnalysisError("query: " +
                                    std::string(isMin ? "min_over" : "max_over") +
                                    "() needs a series name",
                                peek().loc);
          }
          const std::string name = parseDottedName();
          expect(TokenKind::Comma, "in min_over/max_over()");
          const int lo = constStep(parseAdd(), "window lower bound");
          expect(TokenKind::Comma, "in min_over/max_over()");
          const ir::TermRef hiTerm = parseAdd();
          const auto hiConst = ir::constValue(hiTerm);
          if (!hiConst || *hiConst <= lo || *hiConst > view_.horizon()) {
            throw AnalysisError("query: bad min_over/max_over upper bound");
          }
          expect(TokenKind::RParen, "after min_over/max_over()");
          const auto& series = seriesOrThrow(name);
          ir::TermRef acc = series.at(static_cast<std::size_t>(lo));
          for (int t = lo + 1; t < static_cast<int>(*hiConst); ++t) {
            const ir::TermRef next = series.at(static_cast<std::size_t>(t));
            acc = isMin ? arena_.min(acc, next) : arena_.max(acc, next);
          }
          return acc;
        }
        if (tok.text == "sum" && peek(1).is(TokenKind::LParen)) {
          advance();
          advance();
          if (!peek().is(TokenKind::Identifier)) {
            throw AnalysisError("query: sum() needs a series name", peek().loc);
          }
          const std::string name = parseDottedName();
          expect(TokenKind::Comma, "in sum()");
          const int lo = constStep(parseAdd(), "sum() lower bound");
          expect(TokenKind::Comma, "in sum()");
          // Upper bound is exclusive and may equal T.
          const ir::TermRef hiTerm = parseAdd();
          const auto hiConst = ir::constValue(hiTerm);
          if (!hiConst || *hiConst < lo || *hiConst > view_.horizon()) {
            throw AnalysisError("query: bad sum() upper bound");
          }
          expect(TokenKind::RParen, "after sum()");
          const auto& series = seriesOrThrow(name);
          ir::TermRef total = arena_.intConst(0);
          for (int t = lo; t < static_cast<int>(*hiConst); ++t) {
            total = arena_.add(total, series.at(static_cast<std::size_t>(t)));
          }
          return total;
        }
        if ((tok.text == "min" || tok.text == "max") &&
            peek(1).is(TokenKind::LParen)) {
          const std::string callee = tok.text;
          advance();
          advance();
          ir::TermRef acc = parseAdd();
          while (match(TokenKind::Comma)) {
            const ir::TermRef next = parseAdd();
            acc = callee == "min" ? arena_.min(acc, next)
                                  : arena_.max(acc, next);
          }
          expect(TokenKind::RParen, "after min/max");
          return acc;
        }
        const std::string name = parseDottedName();
        expect(TokenKind::LBracket, "after series name (use name[step])");
        const int step = constStep(parseAdd(), "series index");
        expect(TokenKind::RBracket, "after series index");
        return seriesOrThrow(name).at(static_cast<std::size_t>(step));
      }
      default:
        throw AnalysisError("query: unexpected token", tok.loc);
    }
  }

  std::vector<Token> tokens_;
  const SeriesView& view_;
  ir::TermArena& arena_;
  std::size_t maxDepth_;
  std::size_t depth_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace

Query Query::expr(std::string text) {
  Query q;
  q.text_ = std::move(text);
  q.textual_ = true;
  return q;
}

Query Query::custom(
    std::string description,
    std::function<ir::TermRef(const SeriesView&, ir::TermArena&)> build) {
  Query q;
  q.text_ = std::move(description);
  q.build_ = std::move(build);
  return q;
}

Query Query::always() {
  return custom("true", [](const SeriesView&, ir::TermArena& arena) {
    return arena.trueTerm();
  });
}

ir::TermRef Query::build(const SeriesView& view, ir::TermArena& arena,
                         const CompileBudget& budget) const {
  if (textual_) {
    return QueryParser(lang::lex(text_), view, arena, budget.maxNestingDepth)
        .parse();
  }
  if (!build_) throw AnalysisError("empty query");
  return build_(view, arena);
}

}  // namespace buffy::core
