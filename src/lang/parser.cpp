#include "lang/parser.h"

#include "lang/lexer.h"
#include "lang/symtab.h"

namespace smartsock::lang {

const Token& Parser::peek(std::size_t ahead) const {
  std::size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.size() - 1;  // kEnd sentinel
  return tokens_[i];
}

const Token& Parser::advance() {
  const Token& token = peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return token;
}

bool Parser::match(TokenType type) {
  if (!check(type)) return false;
  advance();
  return true;
}

void Parser::fail(const std::string& message) {
  if (failed_) return;
  failed_ = true;
  error_ = {message, peek().line, peek().column};
}

bool Parser::parse(Program& out, ParseError& error) {
  out.statements.clear();
  while (!check(TokenType::kEnd) && !failed_) {
    if (match(TokenType::kNewline)) continue;  // empty line
    int line = peek().line;
    auto expr = parse_expr();
    if (failed_) break;
    if (!match(TokenType::kNewline) && !check(TokenType::kEnd)) {
      fail("expected end of statement, got " + peek().describe());
      break;
    }
    out.statements.push_back(Statement{std::move(expr), line});
  }
  if (failed_) {
    error = error_;
    return false;
  }
  resolve_symbols(out);
  return true;
}

bool Parser::parse_source(std::string_view source, Program& out, ParseError& error) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  LexError lex_error;
  if (!lexer.tokenize(tokens, lex_error)) {
    error = {lex_error.message, lex_error.line, lex_error.column};
    return false;
  }
  Parser parser(std::move(tokens));
  return parser.parse(out, error);
}

std::unique_ptr<Expr> Parser::parse_expr() {
  // assignment: IDENT '=' expr (the lexer distinguishes '=' from '==')
  if (check(TokenType::kIdentifier) && peek(1).type == TokenType::kAssign) {
    Token target = advance();
    advance();  // '='
    auto value = parse_expr();
    if (failed_) return nullptr;
    return Expr::make_assign(std::move(target.text), std::move(value), target.line);
  }
  return parse_or();
}

std::unique_ptr<Expr> Parser::parse_or() {
  auto lhs = parse_and();
  while (!failed_ && check(TokenType::kOr)) {
    int line = advance().line;
    auto rhs = parse_and();
    if (failed_) return nullptr;
    lhs = Expr::make_binary(BinaryOp::kOr, std::move(lhs), std::move(rhs), line);
  }
  return lhs;
}

std::unique_ptr<Expr> Parser::parse_and() {
  auto lhs = parse_relational();
  while (!failed_ && check(TokenType::kAnd)) {
    int line = advance().line;
    auto rhs = parse_relational();
    if (failed_) return nullptr;
    lhs = Expr::make_binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs), line);
  }
  return lhs;
}

std::unique_ptr<Expr> Parser::parse_relational() {
  auto lhs = parse_additive();
  while (!failed_) {
    BinaryOp op;
    if (check(TokenType::kEq)) op = BinaryOp::kEq;
    else if (check(TokenType::kNe)) op = BinaryOp::kNe;
    else if (check(TokenType::kLt)) op = BinaryOp::kLt;
    else if (check(TokenType::kLe)) op = BinaryOp::kLe;
    else if (check(TokenType::kGt)) op = BinaryOp::kGt;
    else if (check(TokenType::kGe)) op = BinaryOp::kGe;
    else break;
    int line = advance().line;
    auto rhs = parse_additive();
    if (failed_) return nullptr;
    lhs = Expr::make_binary(op, std::move(lhs), std::move(rhs), line);
  }
  return lhs;
}

std::unique_ptr<Expr> Parser::parse_additive() {
  auto lhs = parse_multiplicative();
  while (!failed_) {
    BinaryOp op;
    if (check(TokenType::kPlus)) op = BinaryOp::kAdd;
    else if (check(TokenType::kMinus)) op = BinaryOp::kSub;
    else break;
    int line = advance().line;
    auto rhs = parse_multiplicative();
    if (failed_) return nullptr;
    lhs = Expr::make_binary(op, std::move(lhs), std::move(rhs), line);
  }
  return lhs;
}

std::unique_ptr<Expr> Parser::parse_multiplicative() {
  auto lhs = parse_power();
  while (!failed_) {
    BinaryOp op;
    if (check(TokenType::kStar)) op = BinaryOp::kMul;
    else if (check(TokenType::kSlash)) op = BinaryOp::kDiv;
    else break;
    int line = advance().line;
    auto rhs = parse_power();
    if (failed_) return nullptr;
    lhs = Expr::make_binary(op, std::move(lhs), std::move(rhs), line);
  }
  return lhs;
}

std::unique_ptr<Expr> Parser::parse_power() {
  auto base = parse_unary();
  if (!failed_ && check(TokenType::kCaret)) {
    int line = advance().line;
    auto exponent = parse_power();  // right associative, as in hoc
    if (failed_) return nullptr;
    return Expr::make_binary(BinaryOp::kPow, std::move(base), std::move(exponent), line);
  }
  return base;
}

std::unique_ptr<Expr> Parser::parse_unary() {
  if (check(TokenType::kMinus)) {
    int line = advance().line;
    auto operand = parse_unary();
    if (failed_) return nullptr;
    return Expr::make_unary_minus(std::move(operand), line);
  }
  return parse_primary();
}

std::unique_ptr<Expr> Parser::parse_primary() {
  if (check(TokenType::kNumber)) {
    Token token = advance();
    return Expr::make_number(token.number, token.line);
  }
  if (check(TokenType::kNetAddr)) {
    Token token = advance();
    return Expr::make_netaddr(std::move(token.text), token.line);
  }
  if (check(TokenType::kIdentifier)) {
    Token token = advance();
    if (match(TokenType::kLParen)) {  // builtin call
      auto argument = parse_expr();
      if (failed_) return nullptr;
      if (!match(TokenType::kRParen)) {
        fail("expected ')' after function argument");
        return nullptr;
      }
      return Expr::make_call(std::move(token.text), std::move(argument), token.line);
    }
    return Expr::make_var(std::move(token.text), token.line);
  }
  if (match(TokenType::kLParen)) {
    auto inner = parse_expr();
    if (failed_) return nullptr;
    if (!match(TokenType::kRParen)) {
      fail("expected ')'");
      return nullptr;
    }
    return inner;
  }
  fail("expected expression, got " + peek().describe());
  return nullptr;
}

}  // namespace smartsock::lang
