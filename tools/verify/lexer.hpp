// Minimal C++ token scanner for the rtdls-verify checks.
//
// This is not a compiler front end: it produces a flat token stream with
// line/column positions, which is exactly enough for the project-specific
// pattern checks in checks.hpp (epsilon literals in comparison statements,
// allocation constructs in RTDLS_HOT bodies, guard acquisitions against
// the declared lock order). Comments, string/char literal *contents*, and
// preprocessor directives are consumed but not tokenized; numeric literals
// carry a parsed value and a float/integer classification so the checks
// can reason about magnitudes. The scanner is dependency-free, so the
// checks run everywhere the project builds.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace rtdls::verify {

enum class TokenKind {
  kIdentifier,  ///< identifiers and keywords (text distinguishes them)
  kNumber,      ///< numeric literal; see Token::is_float / Token::value
  kString,      ///< string or char literal (contents dropped)
  kPunct,       ///< operator or punctuator, longest-match (e.g. "<=", "::")
};

struct Token {
  TokenKind kind;
  std::string text;
  int line = 0;  ///< 1-based
  int col = 0;   ///< 1-based
  bool is_float = false;  ///< kNumber: literal has a '.', exponent, or f/F/l suffix
  double value = 0.0;     ///< kNumber: parsed magnitude (0.0 when unparseable)
};

/// Tokenizes `source`. Handles //, /* */, ', ", R"( )" raw strings, digit
/// separators, and line-continuation preprocessor directives. Never throws
/// on malformed input; it simply stops classifying and moves on, which is
/// the right failure mode for a linter.
std::vector<Token> lex(std::string_view source);

/// True for punctuator tokens that compare two values: < > <= >= == !=.
bool is_comparison_punct(const Token& token);

/// True when `text` reads as an epsilon/tolerance name: some '_'- or
/// camelCase-segment equals (case-insensitively) "eps", "epsilon", "tol",
/// or "tolerance", optionally after a leading constant 'k'. "kEps",
/// "deadline_eps", "kTimeTolerance" match; "total", "epsilons_used" do not.
bool is_epsilon_name(std::string_view text);

}  // namespace rtdls::verify
