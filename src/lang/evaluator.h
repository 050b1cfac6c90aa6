// Evaluator for requirement programs (thesis Fig 4.2 semantics).
//
// Semantics reproduced from the thesis's yacc actions:
//  * Every line is a statement; a statement is *logical* iff the operator at
//    the root of its tree is logical (&&, ||, ==, !=, <, <=, >, >=);
//    parentheses are transparent.
//  * A server qualifies only if every logical statement evaluates non-zero
//    ("server_ok *= $2").
//  * '&&' / '||' evaluate both operands (yacc has no short-circuit).
//  * Use of an undefined variable makes the containing statement an error;
//    an errored statement disqualifies the server (conservative reading of
//    "the whole statement will be considered as a false statement").
//  * Assignments to the user-side host slots (user_preferred_hostN /
//    user_denied_hostN) capture the *name* of the right-hand side when it is
//    a bare host name or NETADDR — "user_denied_host1 = telesto" stores
//    "telesto" (store_uparams in the thesis). The assignment's value is 1 so
//    it can appear inside '&&' chains (Tables 5.5/5.6 do exactly this).
//  * Division by zero and math domain errors are statement errors.
//
// Identifiers arrive bound (lang/symtab.h resolve_symbols): a server-side
// variable reads its slot of an AttributeRow, a temp its slot of a per-call
// array. evaluate() over an AttributeSet and judge() over a row share one
// core; the first copies the slots the program reads out of the set and
// keeps the set for extension names.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.h"
#include "lang/symtab.h"

namespace smartsock::lang {

/// Host slots captured from user-side assignments during one evaluation.
class UserParams {
 public:
  void set_slot(const std::string& slot, const std::string& host);

  /// Hosts from user_preferred_host1..5, in slot order, empty slots skipped.
  std::vector<std::string> preferred() const;
  /// Hosts from user_denied_host1..5.
  std::vector<std::string> denied() const;

  bool empty() const { return slots_.empty(); }

 private:
  std::map<std::string, std::string> slots_;
};

struct StatementResult {
  int line = 0;
  double value = 0.0;
  bool logical = false;
  bool errored = false;
  std::string error;
};

struct EvalOutcome {
  bool qualified = true;
  std::vector<StatementResult> statements;
  UserParams params;

  /// Set when the requirement assigns the reserved temp variable `rank_by`:
  /// its per-server value lets the wizard order candidates ("3 servers with
  /// largest memory" — the thesis's Ch. 6 future-work item). Higher ranks
  /// first.
  std::optional<double> rank;

  /// Convenience: all error messages with line numbers.
  std::vector<std::string> errors() const;
};

/// A server's qualification without per-statement detail.
struct Verdict {
  bool qualified = true;
  std::optional<double> rank;  // see EvalOutcome::rank
};

class Evaluator {
 public:
  /// Evaluates `program` against one server's attributes. Temp variables are
  /// fresh per call; user params are harvested into the outcome.
  EvalOutcome evaluate(const Program& program, const AttributeSet& attrs);

  /// Evaluates `program` against one server's predefined variables (no
  /// extension attributes) for the verdict only. Each errored statement
  /// appends "line N: message" (as EvalOutcome::errors()) to `errors` when
  /// it is not null. Scratch space is kept across calls, so an evaluation
  /// without errors allocates nothing once this evaluator has run the
  /// program.
  Verdict judge(const Program& program, const AttributeRow& row,
                std::vector<std::string>* errors);

 private:
  struct Value {
    double number = 0.0;
    std::string_view host;  // a NETADDR's text, in the program's tree
    bool is_host = false;
    bool logical = false;  // the thesis's `logic` flag for this subtree

    static Value numeric(double v, bool logic = false) { return {v, {}, false, logic}; }
    static Value address(std::string_view h) { return {1.0, h, true, false}; }
  };

  Verdict run(const Program& program, const AttributeRow& row, const AttributeSet* extensions,
              EvalOutcome* outcome, std::vector<std::string>* errors);

  Value eval_expr(const Expr& expr);
  Value eval_binary(const Expr& expr);
  Value eval_assign(const Expr& expr);
  Value eval_var(const Expr& expr);

  void raise(const Expr& at, const std::string& message);

  const AttributeRow* row_ = nullptr;
  const AttributeSet* extensions_ = nullptr;  // null: no extension names
  std::vector<std::optional<double>> temps_;  // by temp slot
  std::array<std::string_view, 10> user_slots_;  // by user slot
  bool errored_ = false;
  std::string error_;
};

}  // namespace smartsock::lang
