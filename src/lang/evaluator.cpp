#include "lang/evaluator.h"

#include <bit>
#include <cmath>

#include "lang/builtins.h"

namespace smartsock::lang {

void UserParams::set_slot(const std::string& slot, const std::string& host) {
  slots_[slot] = host;
}

namespace {
std::vector<std::string> collect_slots(const std::map<std::string, std::string>& slots,
                                       const char* prefix) {
  std::vector<std::string> out;
  for (int i = 1; i <= 5; ++i) {
    auto it = slots.find(prefix + std::to_string(i));
    if (it != slots.end() && !it->second.empty()) out.push_back(it->second);
  }
  return out;
}
}  // namespace

std::vector<std::string> UserParams::preferred() const {
  return collect_slots(slots_, "user_preferred_host");
}

std::vector<std::string> UserParams::denied() const {
  return collect_slots(slots_, "user_denied_host");
}

std::vector<std::string> EvalOutcome::errors() const {
  std::vector<std::string> out;
  for (const StatementResult& s : statements) {
    if (s.errored) out.push_back("line " + std::to_string(s.line) + ": " + s.error);
  }
  return out;
}

EvalOutcome Evaluator::evaluate(const Program& program, const AttributeSet& attrs) {
  AttributeRow row;
  for (std::uint32_t bits = program.attribute_slots; bits != 0; bits &= bits - 1) {
    auto slot = static_cast<std::size_t>(std::countr_zero(bits));
    auto it = attrs.find(attribute_names()[slot]);
    if (it != attrs.end()) row.set(slot, it->second);
  }

  EvalOutcome outcome;
  Verdict verdict = run(program, row, &attrs, &outcome, nullptr);
  outcome.qualified = verdict.qualified;
  outcome.rank = verdict.rank;
  for (std::size_t slot = 0; slot < user_slots_.size(); ++slot) {
    if (!user_slots_[slot].empty()) {
      outcome.params.set_slot(user_variable_names()[slot], std::string(user_slots_[slot]));
    }
  }
  return outcome;
}

Verdict Evaluator::judge(const Program& program, const AttributeRow& row,
                         std::vector<std::string>* errors) {
  return run(program, row, nullptr, nullptr, errors);
}

Verdict Evaluator::run(const Program& program, const AttributeRow& row,
                       const AttributeSet* extensions, EvalOutcome* outcome,
                       std::vector<std::string>* errors) {
  row_ = &row;
  extensions_ = extensions;
  temps_.assign(program.temp_count, std::nullopt);
  user_slots_.fill({});

  Verdict verdict;
  for (const Statement& statement : program.statements) {
    errored_ = false;
    error_.clear();

    Value value = eval_expr(*statement.expr);

    if (outcome) {
      outcome->statements.push_back(
          StatementResult{statement.line, value.number, value.logical, errored_, error_});
    }
    if (errored_) {
      // Conservative: a statement the wizard cannot evaluate must not let a
      // server through.
      verdict.qualified = false;
      if (errors) errors->push_back("line " + std::to_string(statement.line) + ": " + error_);
    } else if (value.logical && value.number == 0.0) {
      verdict.qualified = false;  // server_ok *= $2
    }
  }
  if (program.rank_temp >= 0) verdict.rank = temps_[static_cast<std::size_t>(program.rank_temp)];
  return verdict;
}

void Evaluator::raise(const Expr& at, const std::string& message) {
  if (errored_) return;  // keep the first error
  errored_ = true;
  error_ = message + " in '" + at.to_string() + "'";
}

Evaluator::Value Evaluator::eval_expr(const Expr& expr) {
  // No early-exit on error: the yacc grammar evaluates both operands of
  // every operator, so side effects (user-side host assignments) must run
  // even when a sibling subtree already failed. raise() keeps the first
  // error; an errored statement disqualifies the server regardless of the
  // values computed after the error.
  switch (expr.kind) {
    case ExprKind::kNumber:
      return Value::numeric(expr.number);
    case ExprKind::kNetAddr:
      return Value::address(expr.name);
    case ExprKind::kVar:
      return eval_var(expr);
    case ExprKind::kAssign:
      return eval_assign(expr);
    case ExprKind::kBinary:
      return eval_binary(expr);
    case ExprKind::kUnaryMinus: {
      Value operand = eval_expr(*expr.children[0]);
      return Value::numeric(-operand.number);
    }
    case ExprKind::kCall: {
      Value argument = eval_expr(*expr.children[0]);
      if (errored_) return Value::numeric(0.0);
      BuiltinResult result = call_builtin(expr.name, argument.number);
      if (!result.ok) {
        raise(expr, result.error);
        return Value::numeric(0.0);
      }
      return Value::numeric(result.value);
    }
  }
  raise(expr, "internal: unknown expression kind");
  return Value::numeric(0.0);
}

Evaluator::Value Evaluator::eval_var(const Expr& expr) {
  const std::string& name = expr.name;
  switch (expr.binding) {
    case Binding::kAttribute: {
      auto slot = static_cast<std::size_t>(expr.slot);
      if (!row_->has(slot)) {
        raise(expr, "server variable '" + name + "' has no value in this report");
        return Value::numeric(0.0);
      }
      return Value::numeric(row_->values[slot]);
    }
    case Binding::kUserSlot:
      // Reading back a host slot yields truthy 1 if it was set this
      // evaluation, mirroring hoc's UPARAM -> u.val access.
      return Value::numeric(1.0);
    case Binding::kConstant:
      return Value::numeric(expr.number);
    case Binding::kBuiltin:
      raise(expr, "'" + name + "' is a function; call it with parentheses");
      return Value::numeric(0.0);
    case Binding::kName: {
      if (expr.slot >= 0) {
        const std::optional<double>& temp = temps_[static_cast<std::size_t>(expr.slot)];
        if (temp) return Value::numeric(*temp);
      }
      // A name present in the attribute set but not predefined still
      // resolves — the thesis calls adding new parameters "a standard
      // procedure" (Ch. 7).
      if (extensions_) {
        auto it = extensions_->find(name);
        if (it != extensions_->end()) return Value::numeric(it->second);
      }
      raise(expr, "undefined variable '" + name + "'");
      return Value::numeric(0.0);
    }
  }
  raise(expr, "internal: unknown symbol class");
  return Value::numeric(0.0);
}

Evaluator::Value Evaluator::eval_assign(const Expr& expr) {
  const std::string& target = expr.name;
  const Expr& rhs = *expr.children[0];

  switch (expr.binding) {
    case Binding::kUserSlot: {
      // Host slots capture names syntactically: a bare identifier or NETADDR
      // on the right-hand side is the host, not a value to evaluate.
      std::string_view host;
      if (rhs.kind == ExprKind::kNetAddr || rhs.kind == ExprKind::kVar) {
        host = rhs.name;
      } else {
        Value value = eval_expr(rhs);
        if (errored_) return Value::numeric(0.0);
        if (value.is_host) host = value.host;
        if (host.empty()) {
          raise(expr, "'" + target + "' must be assigned a host name or address");
          return Value::numeric(0.0);
        }
      }
      user_slots_[static_cast<std::size_t>(expr.slot)] = host;
      return Value::numeric(1.0);  // truthy so it composes with '&&'
    }
    case Binding::kAttribute:
      raise(expr, "cannot assign to server-side variable '" + target + "'");
      return Value::numeric(0.0);
    case Binding::kConstant:
      raise(expr, "cannot assign to constant '" + target + "'");
      return Value::numeric(0.0);
    case Binding::kBuiltin:
      raise(expr, "cannot assign to built-in function '" + target + "'");
      return Value::numeric(0.0);
    case Binding::kName:
      break;
  }

  Value value = eval_expr(rhs);
  if (errored_) return Value::numeric(0.0);
  if (value.is_host) {
    raise(expr, "cannot store a host address in temp variable '" + target + "'");
    return Value::numeric(0.0);
  }
  temps_[static_cast<std::size_t>(expr.slot)] = value.number;
  // Assignment propagates the value but clears the logic flag (yacc: asgn
  // sets logic = 0).
  return Value::numeric(value.number);
}

Evaluator::Value Evaluator::eval_binary(const Expr& expr) {
  Value lhs = eval_expr(*expr.children[0]);
  Value rhs = eval_expr(*expr.children[1]);
  if (errored_) return Value::numeric(0.0);

  // Host addresses compare as strings under == and !=; under any other
  // operator they coerce to their numeric value (1).
  if ((expr.op == BinaryOp::kEq || expr.op == BinaryOp::kNe) && lhs.is_host && rhs.is_host) {
    bool equal = lhs.host == rhs.host;
    bool result = expr.op == BinaryOp::kEq ? equal : !equal;
    return Value::numeric(result ? 1.0 : 0.0, /*logic=*/true);
  }

  double a = lhs.number;
  double b = rhs.number;
  switch (expr.op) {
    case BinaryOp::kAdd:
      return Value::numeric(a + b);
    case BinaryOp::kSub:
      return Value::numeric(a - b);
    case BinaryOp::kMul:
      return Value::numeric(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) {
        raise(expr, "division by 0");
        return Value::numeric(0.0);
      }
      return Value::numeric(a / b);
    case BinaryOp::kPow: {
      BuiltinResult result = checked_pow(a, b);
      if (!result.ok) {
        raise(expr, result.error);
        return Value::numeric(0.0);
      }
      return Value::numeric(result.value);
    }
    case BinaryOp::kAnd:
      return Value::numeric((a != 0.0 && b != 0.0) ? 1.0 : 0.0, true);
    case BinaryOp::kOr:
      return Value::numeric((a != 0.0 || b != 0.0) ? 1.0 : 0.0, true);
    case BinaryOp::kEq:
      return Value::numeric(a == b ? 1.0 : 0.0, true);
    case BinaryOp::kNe:
      return Value::numeric(a != b ? 1.0 : 0.0, true);
    case BinaryOp::kLt:
      return Value::numeric(a < b ? 1.0 : 0.0, true);
    case BinaryOp::kLe:
      return Value::numeric(a <= b ? 1.0 : 0.0, true);
    case BinaryOp::kGt:
      return Value::numeric(a > b ? 1.0 : 0.0, true);
    case BinaryOp::kGe:
      return Value::numeric(a >= b ? 1.0 : 0.0, true);
  }
  raise(expr, "internal: unknown operator");
  return Value::numeric(0.0);
}

}  // namespace smartsock::lang
