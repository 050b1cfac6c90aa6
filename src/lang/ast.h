// AST for the requirement meta language (thesis Fig 4.2 grammar).
//
// One Program is a list of Statements, one per input line. Each statement is
// an expression tree; whether a statement is *logical* (participates in the
// qualified/not-qualified decision) is a property of the evaluated tree — the
// thesis tracks a global `logic` flag set by the last operator executed,
// which for a tree evaluation is exactly the root operator, with parentheses
// explicitly transparent ("this op will not change logic value").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace smartsock::lang {

enum class ExprKind : std::uint8_t {
  kNumber,    // literal
  kNetAddr,   // dotted-quad or dotted/hyphenated host name
  kVar,       // identifier reference (server var, constant, temp or UNDEF)
  kAssign,    // ident '=' expr
  kBinary,    // arithmetic / logical / relational
  kUnaryMinus,
  kCall,      // builtin '(' expr ')'
};

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kPow,             // non-logical
  kAnd, kOr, kEq, kNe, kLt, kLe, kGt, kGe,  // logical
};

/// What an identifier — a kVar read or a kAssign target — refers to. Fixed
/// once per program by resolve_symbols() (lang/symtab.h), so evaluation never
/// classifies a name.
enum class Binding : std::uint8_t {
  kName,       // temp (slot = temp index, -1 if never assigned), else an
               // extension attribute looked up by name, else undefined
  kAttribute,  // predefined server/monitor variable: slot in AttributeRow
  kUserSlot,   // user_preferred_host1..5 / user_denied_host1..5: slot 0..9
  kConstant,   // PI, E, ...: the value is in `number`
  kBuiltin,    // a math function's name used without parentheses
};

/// True for the operators the thesis classifies as logical (Fig 4.2 sets
/// logic = 1 for these).
bool is_logical_op(BinaryOp op);

/// Operator spelling for diagnostics and pretty-printing.
std::string_view binary_op_name(BinaryOp op);

struct Expr {
  ExprKind kind;
  // kNumber, and a kVar bound to a constant
  double number = 0.0;
  // kNetAddr / kVar / kAssign (target) / kCall (function name)
  std::string name;
  // kVar / kAssign
  Binding binding = Binding::kName;
  int slot = -1;
  // kBinary
  BinaryOp op = BinaryOp::kAdd;
  // children: kBinary uses [0]=lhs,[1]=rhs; kAssign/kUnaryMinus/kCall use [0]
  std::vector<std::unique_ptr<Expr>> children;

  int line = 0;

  static std::unique_ptr<Expr> make_number(double value, int line);
  static std::unique_ptr<Expr> make_netaddr(std::string text, int line);
  static std::unique_ptr<Expr> make_var(std::string name, int line);
  static std::unique_ptr<Expr> make_assign(std::string target, std::unique_ptr<Expr> value,
                                           int line);
  static std::unique_ptr<Expr> make_binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                           std::unique_ptr<Expr> rhs, int line);
  static std::unique_ptr<Expr> make_unary_minus(std::unique_ptr<Expr> operand, int line);
  static std::unique_ptr<Expr> make_call(std::string function, std::unique_ptr<Expr> argument,
                                         int line);

  /// Source-like rendering (fully parenthesized) for diagnostics.
  std::string to_string() const;
};

struct Statement {
  std::unique_ptr<Expr> expr;
  int line = 0;
};

struct Program {
  std::vector<Statement> statements;

  // Filled by resolve_symbols():
  std::uint32_t attribute_slots = 0;  // bit i set when slot i is read
  std::size_t temp_count = 0;         // distinct temp names assigned
  int rank_temp = -1;                 // temp index of `rank_by`, -1 if never assigned

  bool empty() const { return statements.empty(); }
};

}  // namespace smartsock::lang
