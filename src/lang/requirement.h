// Compiled server requirement — the user-facing entry into the language.
//
// A Requirement is compiled once from the user's requirement file (§3.6.2)
// and then evaluated by the wizard against every candidate server's
// attributes. Compiling binds every predefined variable and temp to a
// slot, so evaluation looks up only extension names. The preferred/denied host lists are harvested with a
// server-independent pre-pass: the thesis's grammar evaluates both operands
// of '&&' unconditionally, so user-side assignments always execute no matter
// which server is under test.
#pragma once

#include <optional>
#include <string>

#include "lang/evaluator.h"
#include "lang/parser.h"

namespace smartsock::lang {

class Requirement {
 public:
  /// Compiles requirement text. On syntax errors returns nullopt and fills
  /// `error` with a line/column diagnostic.
  static std::optional<Requirement> compile(std::string_view source, std::string* error = nullptr);

  /// Loads the requirement from a file (the client library's input format).
  static std::optional<Requirement> load_file(const std::string& path,
                                              std::string* error = nullptr);

  /// Evaluates against one server's attributes.
  EvalOutcome evaluate(const AttributeSet& attrs) const;

  /// Verdict for one server's predefined variables, reusing `scratch`
  /// across servers (Evaluator::judge). The wizard's matcher calls this once
  /// per sysdb record.
  Verdict judge(const AttributeRow& row, Evaluator& scratch,
                std::vector<std::string>* errors) const {
    return scratch.judge(program_, row, errors);
  }

  /// True if the server described by `attrs` qualifies.
  bool qualifies(const AttributeSet& attrs) const { return evaluate(attrs).qualified; }

  /// Hosts the user marked preferred/denied (server-independent).
  const std::vector<std::string>& preferred_hosts() const { return preferred_; }
  const std::vector<std::string>& denied_hosts() const { return denied_; }

  /// Number of statements in the compiled program.
  std::size_t statement_count() const { return program_.statements.size(); }

  const std::string& source() const { return source_; }

 private:
  Requirement() = default;

  std::string source_;
  Program program_;
  std::vector<std::string> preferred_;
  std::vector<std::string> denied_;
};

}  // namespace smartsock::lang
