#ifndef DIALITE_TOOLS_ANALYZE_LEXER_H_
#define DIALITE_TOOLS_ANALYZE_LEXER_H_

#include <cstddef>
#include <string>
#include <vector>

namespace dialite {
namespace analyze {

/// One lexical token of a C++ translation unit with comments, string
/// contents and preprocessor lines stripped. `line` is 1-based and survives
/// backslash-newline splices (the token is stamped with the line it starts
/// on in the original file).
struct Token {
  enum class Kind {
    kIdent,    ///< identifier or keyword
    kNumber,   ///< numeric literal (incl. hex / digit separators)
    kString,   ///< string literal, contents dropped (text is "\"\"")
    kChar,     ///< character literal, contents dropped
    kPunct,    ///< punctuation; "::" is fused into a single token
  };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

/// A `// analyze: <directive>(<detail>)` waiver comment. A waiver covers
/// its own line and the following line, so it can trail a construct or sit
/// on the line above it.
struct Waiver {
  std::string directive;  ///< "no-cancel", "allow-blocking", ...
  std::string detail;     ///< the reason text
  int line = 0;
  /// Set by HasWaiver when the waiver actually suppresses a finding; the
  /// stale-waiver pass warns about waivers that never fire.
  /// Mutable because checks only see the project const.
  mutable bool used = false;
};

/// Lexed view of one file: the token stream, every waiver comment, and the
/// quoted-include list (for the include graph). Angle includes are kept too,
/// flagged by `system`.
struct Include {
  std::string path;
  bool system = false;  ///< <...> include
  int line = 0;
};

/// One preprocessor line, reduced to its directive name and first
/// identifier argument: `#ifndef X` is {"ifndef", "X"}, `#pragma once` is
/// {"pragma", "once"}. The include-guard check reads these.
struct Directive {
  std::string name;
  std::string arg;  ///< "" when the directive has no identifier argument
  int line = 0;
  /// A #define's tokens after the macro name, each stamped with `line`;
  /// the token rules scan them beside the file's own stream.
  std::vector<Token> body;
};

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Waiver> waivers;
  std::vector<Include> includes;
  std::vector<Directive> directives;
};

/// Tokenizes `source`. Handles //-comments, /*...*/ block comments (which
/// do NOT nest, per the language), ordinary/char/raw string literals
/// (R"delim(...)delim" with optional encoding prefix), backslash-newline
/// line splices (inside tokens, strings and comments alike) and
/// preprocessor logical lines (consumed entirely; each is recorded as a
/// Directive, and #include paths as Includes).
LexedFile Lex(std::string path, const std::string& source);

/// True if any waiver in `file` with the given directive covers `line`
/// (waivers cover their own line and the next).
bool HasWaiver(const LexedFile& file, const std::string& directive, int line);

/// ts[open] is the opener punctuation; returns the index ONE PAST the
/// matching closer (or ts.size() if unbalanced). Shared by the declaration
/// parser, the CFG builder, and the checks.
size_t SkipBalanced(const std::vector<Token>& ts, size_t open, char open_ch,
                    char close_ch);

}  // namespace analyze
}  // namespace dialite

#endif  // DIALITE_TOOLS_ANALYZE_LEXER_H_
