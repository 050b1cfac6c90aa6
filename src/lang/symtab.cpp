#include "lang/symtab.h"

#include <algorithm>
#include <cmath>

#include "lang/builtins.h"

namespace smartsock::lang {

std::optional<std::size_t> attribute_slot(std::string_view name) {
  for (std::size_t slot = 0; slot < kAttributeSlots; ++slot) {
    if (kAttributeNames[slot] == name) return slot;
  }
  return std::nullopt;
}

const std::vector<std::string>& attribute_names() {
  static const std::vector<std::string> names(kAttributeNames.begin(), kAttributeNames.end());
  return names;
}

AttributeSet AttributeRow::to_set() const {
  AttributeSet attrs;
  for (std::size_t slot = 0; slot < kAttributeSlots; ++slot) {
    if (has(slot)) attrs.emplace(attribute_names()[slot], values[slot]);
  }
  return attrs;
}

const std::vector<std::string>& server_variable_names() {
  static const std::vector<std::string> names(kAttributeNames.begin(),
                                              kAttributeNames.begin() + kServerVariables);
  return names;
}

const std::vector<std::string>& user_variable_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (int i = 1; i <= 5; ++i) out.push_back("user_preferred_host" + std::to_string(i));
    for (int i = 1; i <= 5; ++i) out.push_back("user_denied_host" + std::to_string(i));
    return out;
  }();
  return names;
}

bool is_preferred_slot(std::string_view name) {
  return name.rfind("user_preferred_host", 0) == 0;
}

std::optional<double> constant_value(std::string_view name) {
  // The constants hoc predefines (Kernighan & Pike), which the thesis's
  // parser inherits.
  if (name == "PI") return 3.14159265358979323846;
  if (name == "E") return 2.71828182845904523536;
  if (name == "GAMMA") return 0.57721566490153286060;  // Euler-Mascheroni
  if (name == "DEG") return 57.29577951308232087680;   // degrees per radian
  if (name == "PHI") return 1.61803398874989484820;    // golden ratio
  return std::nullopt;
}

namespace {

struct NameBinding {
  Binding binding = Binding::kName;
  int slot = -1;
  double constant = 0.0;
};

/// The one classification order for a name, independent of any server:
/// user slot, server-side variable, constant, builtin, else a plain name.
NameBinding bind_name(std::string_view name) {
  const auto& users = user_variable_names();
  auto user = std::find(users.begin(), users.end(), name);
  if (user != users.end()) {
    return {Binding::kUserSlot, static_cast<int>(user - users.begin())};
  }
  if (auto slot = attribute_slot(name)) return {Binding::kAttribute, static_cast<int>(*slot)};
  if (auto value = constant_value(name)) return {Binding::kConstant, -1, *value};
  if (is_builtin(name)) return {Binding::kBuiltin};
  return {};
}

}  // namespace

SymbolClass classify_symbol(std::string_view name, const AttributeSet& attrs,
                            const TempScope& temps) {
  switch (bind_name(name).binding) {
    case Binding::kUserSlot: return SymbolClass::kUserParam;
    case Binding::kAttribute: return SymbolClass::kServerVar;
    case Binding::kConstant: return SymbolClass::kConstant;
    case Binding::kBuiltin: return SymbolClass::kBuiltin;
    case Binding::kName: break;
  }
  if (temps.lookup(std::string(name))) return SymbolClass::kTemp;
  // A name present in the attribute set but not predefined still resolves —
  // the thesis calls adding new parameters "a standard procedure" (Ch. 7).
  if (attrs.count(std::string(name))) return SymbolClass::kServerVar;
  return SymbolClass::kUndefined;
}

namespace {

void bind_identifiers(Expr& expr, Program& program, std::vector<std::string>& temps) {
  if (expr.kind == ExprKind::kVar || expr.kind == ExprKind::kAssign) {
    NameBinding bound = bind_name(expr.name);
    expr.binding = bound.binding;
    expr.slot = bound.slot;
    if (bound.binding == Binding::kConstant) expr.number = bound.constant;
    if (bound.binding == Binding::kAttribute && expr.kind == ExprKind::kVar) {
      program.attribute_slots |= 1u << bound.slot;
    }
    if (bound.binding == Binding::kName && expr.kind == ExprKind::kAssign &&
        std::find(temps.begin(), temps.end(), expr.name) == temps.end()) {
      temps.push_back(expr.name);
    }
  }
  for (auto& child : expr.children) bind_identifiers(*child, program, temps);
}

int temp_index(const std::vector<std::string>& temps, const std::string& name) {
  auto it = std::find(temps.begin(), temps.end(), name);
  return it == temps.end() ? -1 : static_cast<int>(it - temps.begin());
}

// A temp read may precede its first assignment in the text, so temp slots
// are linked in a second pass once every assigned name is known.
void link_temps(Expr& expr, const std::vector<std::string>& temps) {
  if ((expr.kind == ExprKind::kVar || expr.kind == ExprKind::kAssign) &&
      expr.binding == Binding::kName) {
    expr.slot = temp_index(temps, expr.name);
  }
  for (auto& child : expr.children) link_temps(*child, temps);
}

}  // namespace

void resolve_symbols(Program& program) {
  program.attribute_slots = 0;
  std::vector<std::string> temps;
  for (Statement& statement : program.statements) {
    bind_identifiers(*statement.expr, program, temps);
  }
  for (Statement& statement : program.statements) link_temps(*statement.expr, temps);
  program.temp_count = temps.size();
  program.rank_temp = temp_index(temps, "rank_by");
}

}  // namespace smartsock::lang
