// Recursive-descent parser for the requirement meta language.
//
// Grammar (precedence low to high, following the thesis's hoc-derived yacc
// rules in Fig 4.2):
//
//   program    := { statement NEWLINE }
//   statement  := expr
//   expr       := assignment | or_expr
//   assignment := IDENT '=' expr                     (right associative)
//   or_expr    := and_expr { '||' and_expr }
//   and_expr   := rel_expr { '&&' rel_expr }
//   rel_expr   := add_expr { ('=='|'!='|'<'|'<='|'>'|'>=') add_expr }
//   add_expr   := mul_expr { ('+'|'-') mul_expr }
//   mul_expr   := pow_expr { ('*'|'/') pow_expr }
//   pow_expr   := unary [ '^' pow_expr ]             (right associative)
//   unary      := '-' unary | primary
//   primary    := NUMBER | NETADDR | IDENT | IDENT '(' expr ')' | '(' expr ')'
#pragma once

#include <string>
#include <vector>

#include "lang/ast.h"
#include "lang/token.h"

namespace smartsock::lang {

struct ParseError {
  std::string message;
  int line = 0;
  int column = 0;

  std::string to_string() const {
    return "line " + std::to_string(line) + ":" + std::to_string(column) + ": " + message;
  }
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  /// Parses the whole token stream into a Program with every identifier
  /// bound (resolve_symbols). Returns false and fills `error` on the first
  /// syntax error.
  bool parse(Program& out, ParseError& error);

  /// Convenience: lex + parse in one call.
  static bool parse_source(std::string_view source, Program& out, ParseError& error);

 private:
  const Token& peek(std::size_t ahead = 0) const;
  const Token& advance();
  bool match(TokenType type);
  bool check(TokenType type) const { return peek().type == type; }
  void fail(const std::string& message);

  std::unique_ptr<Expr> parse_expr();
  std::unique_ptr<Expr> parse_or();
  std::unique_ptr<Expr> parse_and();
  std::unique_ptr<Expr> parse_relational();
  std::unique_ptr<Expr> parse_additive();
  std::unique_ptr<Expr> parse_multiplicative();
  std::unique_ptr<Expr> parse_power();
  std::unique_ptr<Expr> parse_unary();
  std::unique_ptr<Expr> parse_primary();

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  ParseError error_;
};

}  // namespace smartsock::lang
