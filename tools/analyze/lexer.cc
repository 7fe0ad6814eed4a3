#include "analyze/lexer.h"

#include <cctype>
#include <cstddef>

namespace dialite {
namespace analyze {

namespace {

/// Character cursor over the source with backslash-newline splicing: a
/// `\`+newline pair is invisible to the token stream but still advances the
/// line counter, exactly like translation phase 2.
class Cursor {
 public:
  explicit Cursor(const std::string& src) : src_(src) { Splice(); }

  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek() const { return AtEnd() ? '\0' : src_[pos_]; }
  char PeekAt(size_t ahead) const {
    // Lookahead ignores splices only at the current position (done in
    // Splice); a splice between lookahead chars is rare enough that callers
    // re-check after Advance().
    size_t p = pos_ + ahead;
    return p < src_.size() ? src_[p] : '\0';
  }
  int line() const { return line_; }

  void Advance() {
    if (AtEnd()) return;
    if (src_[pos_] == '\n') ++line_;
    ++pos_;
    Splice();
  }

 private:
  void Splice() {
    while (pos_ + 1 < src_.size() && src_[pos_] == '\\' &&
           (src_[pos_ + 1] == '\n' ||
            (src_[pos_ + 1] == '\r' && pos_ + 2 < src_.size() &&
             src_[pos_ + 2] == '\n'))) {
      pos_ += src_[pos_ + 1] == '\r' ? 3 : 2;
      ++line_;
    }
  }

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `analyze: <directive>(<detail>)` waivers out of one comment's
/// text.
void ScanCommentForWaivers(const std::string& comment, int line,
                           std::vector<Waiver>* waivers) {
  static const std::string kMarker = "analyze:";
  for (size_t at = comment.find(kMarker); at != std::string::npos;
       at = comment.find(kMarker, at + kMarker.size())) {
    size_t p = at + kMarker.size();
    while (p < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[p]))) {
      ++p;
    }
    std::string directive;
    while (p < comment.size() &&
           (IsIdentChar(comment[p]) || comment[p] == '-')) {
      directive += comment[p++];
    }
    if (directive.empty() || p >= comment.size() || comment[p] != '(') {
      continue;
    }
    const size_t close = comment.find(')', p);
    if (close == std::string::npos) continue;
    waivers->push_back(
        {directive, comment.substr(p + 1, close - p - 1), line});
  }
}

/// After 'R' and an optional encoding prefix, true if a raw string opens
/// here (cursor on the '"').
bool ConsumeRawString(Cursor* cur) {
  // cur is on '"'. Read the delimiter up to '('.
  cur->Advance();
  std::string delim;
  while (!cur->AtEnd() && cur->Peek() != '(') {
    delim += cur->Peek();
    cur->Advance();
  }
  cur->Advance();  // '('
  const std::string closer = ")" + delim + "\"";
  std::string tail;
  while (!cur->AtEnd()) {
    tail += cur->Peek();
    if (tail.size() > closer.size()) tail.erase(0, 1);
    cur->Advance();
    if (tail == closer) return true;
  }
  return false;  // unterminated; tolerate
}

void ConsumeQuoted(Cursor* cur, char quote) {
  cur->Advance();  // opening quote
  while (!cur->AtEnd()) {
    char c = cur->Peek();
    if (c == '\\') {
      cur->Advance();
      cur->Advance();
      continue;
    }
    cur->Advance();
    if (c == quote || c == '\n') break;  // newline: unterminated, recover
  }
}

/// Consumes a preprocessor logical line (cursor on '#'); records the
/// directive and #include targets. Splices are already handled by Cursor,
/// so "logical line" is simply up to the next real newline; comments are
/// skipped, and include targets and strings read whole, so a '/' in a path
/// or a "//" in a macro string can't derail the scan.
void ConsumePreprocessor(Cursor* cur, LexedFile* out,
                         std::vector<Waiver>* waivers) {
  const int line = cur->line();
  std::string text;
  while (!cur->AtEnd() && cur->Peek() != '\n') {
    char c = cur->Peek();
    if (c == '/' && cur->PeekAt(1) == '/') {
      std::string comment;
      while (!cur->AtEnd() && cur->Peek() != '\n') {
        comment += cur->Peek();
        cur->Advance();
      }
      ScanCommentForWaivers(comment, cur->line(), waivers);
      break;
    }
    if (c == '/' && cur->PeekAt(1) == '*') {
      cur->Advance();
      cur->Advance();
      std::string comment;
      while (!cur->AtEnd()) {
        if (cur->Peek() == '*' && cur->PeekAt(1) == '/') {
          cur->Advance();
          cur->Advance();
          break;
        }
        comment += cur->Peek();
        cur->Advance();
      }
      ScanCommentForWaivers(comment, line, waivers);
      continue;
    }
    if ((c == '"' || c == '<') && text.find("include") != std::string::npos) {
      const char closer = c == '"' ? '"' : '>';
      cur->Advance();
      std::string target;
      while (!cur->AtEnd() && cur->Peek() != closer && cur->Peek() != '\n') {
        target += cur->Peek();
        cur->Advance();
      }
      if (!cur->AtEnd() && cur->Peek() == closer) cur->Advance();
      if (!target.empty()) {
        out->includes.push_back({target, closer == '>', line});
      }
      text += closer;
      continue;
    }
    if (c == '"') {
      // A string in a macro body is copied whole, so a "//" inside it
      // cannot start a comment and the body re-lexes as written.
      text += c;
      cur->Advance();
      while (!cur->AtEnd() && cur->Peek() != '\n') {
        const char ch = cur->Peek();
        text += ch;
        cur->Advance();
        if (ch == '\\' && !cur->AtEnd() && cur->Peek() != '\n') {
          text += cur->Peek();
          cur->Advance();
        } else if (ch == '"') {
          break;
        }
      }
      continue;
    }
    text += c;
    cur->Advance();
  }
  // text is "#", optional blanks, the directive name, then its arguments.
  Directive d;
  d.line = line;
  size_t p = 1;
  auto skip_blanks = [&] {
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p]))) {
      ++p;
    }
  };
  auto read_ident = [&](std::string* to) {
    while (p < text.size() && IsIdentChar(text[p])) *to += text[p++];
  };
  skip_blanks();
  read_ident(&d.name);
  skip_blanks();
  read_ident(&d.arg);
  if (d.name == "define") {
    // The replacement list (with a function-like macro's parameters) is
    // lexed too, so the token checks see what the macro expands to.
    d.body = Lex(out->path, text.substr(p)).tokens;
    for (Token& t : d.body) t.line = line;
  }
  out->directives.push_back(std::move(d));
}

}  // namespace

LexedFile Lex(std::string path, const std::string& source) {
  LexedFile out;
  out.path = std::move(path);
  Cursor cur(source);
  bool line_start = true;  // only whitespace seen since the last newline

  while (!cur.AtEnd()) {
    char c = cur.Peek();
    if (c == '\n') {
      line_start = true;
      cur.Advance();
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      cur.Advance();
      continue;
    }
    if (c == '#' && line_start) {
      ConsumePreprocessor(&cur, &out, &out.waivers);
      continue;
    }
    line_start = false;
    if (c == '/' && cur.PeekAt(1) == '/') {
      std::string comment;
      while (!cur.AtEnd() && cur.Peek() != '\n') {
        comment += cur.Peek();
        cur.Advance();
      }
      // Waivers anchor at the line the comment ENDS on: a backslash splice
      // extends a // comment onto further physical lines, and "this line
      // plus the next" must count from the last of them.
      ScanCommentForWaivers(comment, cur.line(), &out.waivers);
      continue;
    }
    if (c == '/' && cur.PeekAt(1) == '*') {
      // Block comments do not nest: the first "*/" closes, even after an
      // inner "/*" (a classic lexer trap the fixtures exercise).
      cur.Advance();
      cur.Advance();
      std::string comment;
      while (!cur.AtEnd()) {
        if (cur.Peek() == '*' && cur.PeekAt(1) == '/') {
          cur.Advance();
          cur.Advance();
          break;
        }
        comment += cur.Peek();
        cur.Advance();
      }
      // Same end-line anchoring for multi-line block comments.
      ScanCommentForWaivers(comment, cur.line(), &out.waivers);
      continue;
    }
    if (c == '"') {
      out.tokens.push_back({Token::Kind::kString, "\"\"", cur.line()});
      ConsumeQuoted(&cur, '"');
      continue;
    }
    if (c == '\'') {
      out.tokens.push_back({Token::Kind::kChar, "''", cur.line()});
      ConsumeQuoted(&cur, '\'');
      continue;
    }
    if (IsIdentStart(c)) {
      const int line = cur.line();
      std::string ident;
      while (!cur.AtEnd() && IsIdentChar(cur.Peek())) {
        ident += cur.Peek();
        cur.Advance();
      }
      // Raw string with an optional encoding prefix: R"..., u8R"..., LR"...
      if (!ident.empty() && ident.back() == 'R' && cur.Peek() == '"' &&
          (ident == "R" || ident == "LR" || ident == "uR" || ident == "UR" ||
           ident == "u8R")) {
        out.tokens.push_back({Token::Kind::kString, "\"\"", line});
        ConsumeRawString(&cur);
        continue;
      }
      out.tokens.push_back({Token::Kind::kIdent, std::move(ident), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const int line = cur.line();
      std::string num;
      while (!cur.AtEnd() &&
             (IsIdentChar(cur.Peek()) || cur.Peek() == '.' ||
              cur.Peek() == '\'')) {
        num += cur.Peek();
        cur.Advance();
      }
      out.tokens.push_back({Token::Kind::kNumber, std::move(num), line});
      continue;
    }
    if (c == ':' && cur.PeekAt(1) == ':') {
      out.tokens.push_back({Token::Kind::kPunct, "::", cur.line()});
      cur.Advance();
      cur.Advance();
      continue;
    }
    out.tokens.push_back({Token::Kind::kPunct, std::string(1, c), cur.line()});
    cur.Advance();
  }
  return out;
}

size_t SkipBalanced(const std::vector<Token>& ts, size_t open, char open_ch,
                    char close_ch) {
  int depth = 0;
  const std::string open_s(1, open_ch);
  const std::string close_s(1, close_ch);
  for (size_t i = open; i < ts.size(); ++i) {
    if (ts[i].kind == Token::Kind::kPunct) {
      if (ts[i].text == open_s) ++depth;
      if (ts[i].text == close_s && --depth == 0) return i + 1;
    }
  }
  return ts.size();
}

bool HasWaiver(const LexedFile& file, const std::string& directive, int line) {
  bool found = false;
  for (const Waiver& w : file.waivers) {
    if (w.directive == directive && (w.line == line || w.line == line - 1)) {
      w.used = true;
      found = true;
    }
  }
  return found;
}

}  // namespace analyze
}  // namespace dialite
