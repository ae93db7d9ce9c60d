#include "sbmp/frontend/parser.h"

#include <utility>

#include "sbmp/frontend/lexer.h"

namespace sbmp {

namespace {

/// Recursive-descent parser over the token stream. Error recovery is
/// line-based: on a statement-level error we skip to the next newline;
/// on a loop-level error we skip to the matching "end".
class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagEngine& diags)
      : tokens_(std::move(tokens)), diags_(diags) {}

  PreProgram parse() {
    PreProgram program;
    skip_newlines();
    while (!at(TokKind::kEof)) {
      if (auto loop = parse_loop()) program.loops.push_back(std::move(*loop));
      skip_newlines();
    }
    return program;
  }

 private:
  const Token& peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool at(TokKind k) const { return peek().kind == k; }
  bool at_ident(std::string_view word) const {
    return at(TokKind::kIdent) && peek().text == word;
  }
  Token advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool expect(TokKind k, const char* context) {
    if (at(k)) {
      advance();
      return true;
    }
    diags_.error(peek().loc, std::string("expected ") + tok_kind_name(k) +
                                 " " + context + ", found " +
                                 tok_kind_name(peek().kind));
    return false;
  }

  void skip_newlines() {
    while (at(TokKind::kNewline)) advance();
  }

  void skip_to_newline() {
    while (!at(TokKind::kNewline) && !at(TokKind::kEof)) advance();
  }

  void skip_to_end_keyword() {
    while (!at(TokKind::kEof)) {
      if (at_ident("end")) {
        advance();
        return;
      }
      advance();
    }
  }

  std::optional<PreLoop> parse_loop() {
    PreLoop loop;
    if (at_ident("loop")) {
      advance();
      if (at(TokKind::kIdent)) {
        loop.name = std::string(advance().text);
      } else {
        diags_.error(peek().loc, "expected loop name after 'loop'");
      }
      skip_newlines();
    }
    if (at_ident("doacross")) {
      loop.declared_doacross = true;
      advance();
    } else if (at_ident("do")) {
      advance();
    } else {
      diags_.error(peek().loc, "expected 'do' or 'doacross'");
      skip_to_end_keyword();
      return std::nullopt;
    }
    if (!at(TokKind::kIdent)) {
      diags_.error(peek().loc, "expected induction variable name");
      skip_to_end_keyword();
      return std::nullopt;
    }
    loop.iter_var = std::string(advance().text);
    bool header_ok = expect(TokKind::kAssign, "in loop header");
    header_ok = header_ok && parse_bound(loop.lower);
    header_ok = header_ok && expect(TokKind::kComma, "in loop header");
    header_ok = header_ok && parse_bound(loop.upper);
    if (!header_ok) {
      skip_to_end_keyword();
      return std::nullopt;
    }
    expect(TokKind::kNewline, "after loop header");

    while (true) {
      skip_newlines();
      if (at(TokKind::kEof)) {
        diags_.error(peek().loc, "missing 'end' for loop");
        return std::nullopt;
      }
      if (at_ident("end")) {
        advance();
        break;
      }
      if (at_ident("int") || at_ident("real")) {
        parse_decl(loop);
        continue;
      }
      if (at_ident("init")) {
        parse_init(loop);
        continue;
      }
      parse_statement(loop);
    }
    return loop;
  }

  bool parse_bound(std::int64_t& out) {
    bool negative = false;
    if (at(TokKind::kMinus)) {
      advance();
      negative = true;
    }
    if (!at(TokKind::kInt)) {
      diags_.error(peek().loc, "expected integer loop bound");
      return false;
    }
    out = advance().value;
    if (negative) out = -out;
    return true;
  }

  void parse_init(PreLoop& loop) {
    advance();  // 'init'
    if (!at(TokKind::kIdent)) {
      diags_.error(peek().loc, "expected scalar name after 'init'");
      skip_to_newline();
      return;
    }
    const std::string name = std::string(advance().text);
    if (!expect(TokKind::kAssign, "in init declaration")) {
      skip_to_newline();
      return;
    }
    std::int64_t value = 0;
    if (!parse_bound(value)) {
      skip_to_newline();
      return;
    }
    loop.scalar_inits[name] = value;
  }

  void parse_decl(PreLoop& loop) {
    const ElemType type = peek().text == "int" ? ElemType::kInt
                                               : ElemType::kReal;
    advance();
    while (true) {
      if (!at(TokKind::kIdent)) {
        diags_.error(peek().loc, "expected array name in declaration");
        skip_to_newline();
        return;
      }
      loop.array_types[std::string(advance().text)] = type;
      if (at(TokKind::kComma)) {
        advance();
        continue;
      }
      break;
    }
  }

  void parse_statement(PreLoop& loop) {
    if (!at(TokKind::kIdent)) {
      diags_.error(peek().loc, "expected statement");
      skip_to_newline();
      return;
    }
    PreStatement stmt;
    stmt.loc = peek().loc;
    std::string target(advance().text);
    if (at(TokKind::kLBracket)) {
      auto lhs_index = parse_subscript(loop.iter_var);
      if (!lhs_index) {
        skip_to_newline();
        return;
      }
      stmt.lhs = ArrayRef{std::move(target), *lhs_index};
    } else {
      stmt.scalar_lhs = std::move(target);
    }
    if (!expect(TokKind::kAssign, "in assignment")) {
      skip_to_newline();
      return;
    }
    auto rhs = parse_expr(loop.iter_var);
    if (!rhs) {
      skip_to_newline();
      return;
    }
    stmt.rhs = std::move(*rhs);
    loop.body.push_back(std::move(stmt));
    if (!at(TokKind::kEof)) expect(TokKind::kNewline, "after statement");
  }

  /// Parses "[ expr ]" and reduces the expr to affine form.
  std::optional<AffineIndex> parse_subscript(const std::string& iter_var) {
    const SourceLoc open = peek().loc;
    if (!expect(TokKind::kLBracket, "to open subscript")) return std::nullopt;
    auto expr = parse_expr(iter_var);
    if (!expr) return std::nullopt;
    if (!expect(TokKind::kRBracket, "to close subscript")) return std::nullopt;
    auto affine = extract_affine(*expr, iter_var);
    if (!affine) {
      diags_.error(open, "subscript is not affine in '" + iter_var + "'");
      return std::nullopt;
    }
    return affine;
  }

  std::optional<Expr> parse_expr(const std::string& iter_var) {
    auto lhs = parse_addexpr(iter_var);
    while (lhs && at(TokKind::kShl)) {
      advance();
      auto rhs = parse_addexpr(iter_var);
      if (!rhs) return std::nullopt;
      lhs = make_bin(BinOp::kShl, std::move(*lhs), std::move(*rhs));
    }
    return lhs;
  }

  std::optional<Expr> parse_addexpr(const std::string& iter_var) {
    auto lhs = parse_term(iter_var);
    while (lhs && (at(TokKind::kPlus) || at(TokKind::kMinus))) {
      const BinOp op = at(TokKind::kPlus) ? BinOp::kAdd : BinOp::kSub;
      advance();
      auto rhs = parse_term(iter_var);
      if (!rhs) return std::nullopt;
      lhs = make_bin(op, std::move(*lhs), std::move(*rhs));
    }
    return lhs;
  }

  std::optional<Expr> parse_term(const std::string& iter_var) {
    auto lhs = parse_unary(iter_var);
    while (lhs && (at(TokKind::kStar) || at(TokKind::kSlash))) {
      const BinOp op = at(TokKind::kStar) ? BinOp::kMul : BinOp::kDiv;
      advance();
      auto rhs = parse_unary(iter_var);
      if (!rhs) return std::nullopt;
      lhs = make_bin(op, std::move(*lhs), std::move(*rhs));
    }
    return lhs;
  }

  std::optional<Expr> parse_unary(const std::string& iter_var) {
    if (at(TokKind::kMinus)) {
      advance();
      auto operand = parse_unary(iter_var);
      if (!operand) return std::nullopt;
      // Fold -k for literals; otherwise lower as 0 - x.
      if (const auto* c = std::get_if<IntConst>(&*operand))
        return make_const(-c->value);
      return make_bin(BinOp::kSub, make_const(0), std::move(*operand));
    }
    return parse_primary(iter_var);
  }

  std::optional<Expr> parse_primary(const std::string& iter_var) {
    if (at(TokKind::kInt)) return make_const(advance().value);
    if (at(TokKind::kLParen)) {
      advance();
      auto inner = parse_expr(iter_var);
      if (!inner) return std::nullopt;
      if (!expect(TokKind::kRParen, "to close parenthesis"))
        return std::nullopt;
      return inner;
    }
    if (at(TokKind::kIdent)) {
      std::string name(advance().text);
      if (at(TokKind::kLBracket)) {
        auto index = parse_subscript(iter_var);
        if (!index) return std::nullopt;
        return Expr{ArrayRef{std::move(name), *index}};
      }
      if (name == iter_var) return Expr{IterVar{}};
      return make_scalar(std::move(name));
    }
    diags_.error(peek().loc, std::string("expected expression, found ") +
                                 tok_kind_name(peek().kind));
    return std::nullopt;
  }

  std::vector<Token> tokens_;
  DiagEngine& diags_;
  std::size_t pos_ = 0;
};

/// Affine view of an expression: coef*iv + offset, or nullopt.
struct AffineView {
  std::int64_t coef = 0;
  std::int64_t offset = 0;
};

std::optional<AffineView> affine_view(const Expr& e,
                                      const std::string& iter_var) {
  if (std::holds_alternative<IterVar>(e)) return AffineView{1, 0};
  if (const auto* c = std::get_if<IntConst>(&e)) return AffineView{0, c->value};
  if (const auto* s = std::get_if<ScalarRef>(&e)) {
    // An identifier equal to the induction variable parses as IterVar, so
    // any ScalarRef here is a true scalar: not affine in iv.
    (void)s;
    return std::nullopt;
  }
  const auto* bin = std::get_if<BinaryExpr>(&e);
  if (!bin || !bin->lhs || !bin->rhs) return std::nullopt;
  const auto l = affine_view(*bin->lhs, iter_var);
  const auto r = affine_view(*bin->rhs, iter_var);
  if (!l || !r) return std::nullopt;
  switch (bin->op) {
    case BinOp::kAdd:
      return AffineView{l->coef + r->coef, l->offset + r->offset};
    case BinOp::kSub:
      return AffineView{l->coef - r->coef, l->offset - r->offset};
    case BinOp::kMul:
      if (l->coef == 0) return AffineView{l->offset * r->coef,
                                          l->offset * r->offset};
      if (r->coef == 0) return AffineView{r->offset * l->coef,
                                          r->offset * l->offset};
      return std::nullopt;  // iv*iv is quadratic
    case BinOp::kShl:
      if (r->coef != 0 || r->offset < 0 || r->offset > 62) return std::nullopt;
      return AffineView{l->coef << r->offset, l->offset << r->offset};
    case BinOp::kDiv:
      return std::nullopt;  // integer division is not affine in general
  }
  return std::nullopt;
}

}  // namespace

std::optional<AffineIndex> extract_affine(const Expr& e,
                                          const std::string& iter_var) {
  const auto view = affine_view(e, iter_var);
  if (!view) return std::nullopt;
  return AffineIndex{view->coef, view->offset};
}

PreProgram parse_pre_program(std::string_view source, DiagEngine& diags) {
  auto tokens = lex(source, diags);
  Parser parser(std::move(tokens), diags);
  return parser.parse();
}

PreProgram parse_pre_program_or_throw(std::string_view source) {
  DiagEngine diags;
  PreProgram program = parse_pre_program(source, diags);
  if (!diags.ok()) throw SbmpError("LoopLang parse failed:\n" + diags.render());
  return program;
}

PreLoop parse_single_pre_loop_or_throw(std::string_view source) {
  PreProgram program = parse_pre_program_or_throw(source);
  if (program.loops.size() != 1)
    throw SbmpError("expected exactly one loop, found " +
                    std::to_string(program.loops.size()));
  return std::move(program.loops.front());
}

Program parse_program(std::string_view source, DiagEngine& diags) {
  PreProgram pre = parse_pre_program(source, diags);
  Program program;
  program.loops.reserve(pre.loops.size());
  for (auto& pre_loop : pre.loops) {
    bool plain = true;
    if (!pre_loop.scalar_inits.empty()) {
      diags.error({}, "loop '" + pre_loop.name +
                          "': init declarations require the restructuring "
                          "passes (parse_pre_program + restructure_loop)");
      plain = false;
    }
    for (const auto& stmt : pre_loop.body) {
      if (stmt.is_scalar()) {
        diags.error(stmt.loc,
                    "left-hand side must be an array element (scalar "
                    "assignments require the restructuring passes; use "
                    "parse_pre_program + restructure_loop)");
        plain = false;
      }
    }
    if (!plain) continue;
    if (auto loop = pre_to_plain(std::move(pre_loop)))
      program.loops.push_back(std::move(*loop));
  }
  return program;
}

Program parse_program_or_throw(std::string_view source) {
  DiagEngine diags;
  Program program = parse_program(source, diags);
  if (!diags.ok()) throw SbmpError("LoopLang parse failed:\n" + diags.render());
  return program;
}

Loop parse_single_loop_or_throw(std::string_view source) {
  Program program = parse_program_or_throw(source);
  if (program.loops.size() != 1)
    throw SbmpError("expected exactly one loop, found " +
                    std::to_string(program.loops.size()));
  return std::move(program.loops.front());
}

}  // namespace sbmp
