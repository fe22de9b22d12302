#include "sql/token.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/strings.h"

namespace dbfa::sql {

Result<std::vector<Token>> Tokenize(std::string_view sql) {
  std::vector<Token> tokens;
  // Audit-log SQL averages about four bytes per token; reserving for that
  // density avoids regrowth on short statements without claiming a slot
  // per byte of a multi-row INSERT.
  tokens.reserve(sql.size() / 4 + 2);
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token& t = tokens.emplace_back();
    t.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_' || sql[i] == '#')) {
        ++i;
      }
      t.type = TokenType::kIdentifier;
      t.text.assign(sql.substr(start, i - start));
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (sql[j] == '+' || sql[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) {
          is_float = true;
          i = j;
          while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
        }
      }
      t.text.assign(sql.substr(start, i - start));
      const char* first = sql.data() + start;
      const char* last = sql.data() + i;
      // from_chars leaves its output untouched when the literal is out of
      // range; strtod/strtoll then give the saturated value (HUGE_VAL or 0,
      // INT64_MAX).
      if (is_float) {
        t.type = TokenType::kFloat;
        if (std::from_chars(first, last, t.float_value).ec != std::errc()) {
          t.float_value = std::strtod(t.text.c_str(), nullptr);
        }
      } else {
        t.type = TokenType::kInteger;
        if (std::from_chars(first, last, t.int_value).ec != std::errc()) {
          t.int_value = std::strtoll(t.text.c_str(), nullptr, 10);
        }
      }
    } else if (c == '\'') {
      // Unescaped runs of the body are appended whole; '' decodes to '.
      ++i;
      bool closed = false;
      while (i < n) {
        size_t quote = sql.find('\'', i);
        if (quote == std::string_view::npos) break;
        t.text.append(sql.substr(i, quote - i));
        i = quote + 1;
        if (i < n && sql[i] == '\'') {
          t.text += '\'';
          ++i;
          continue;
        }
        closed = true;
        break;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string at offset %zu", t.position));
      }
      t.type = TokenType::kString;
    } else {
      t.type = TokenType::kSymbol;
      // Multi-char operators first.
      std::string_view two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        t.text.assign(two == "!=" ? "<>" : two);
        i += 2;
        continue;
      }
      // The array's terminating NUL is one of the accepted singles.
      static constexpr char kSingles[] = "()*,.<>=+-/;";
      if (std::memchr(kSingles, c, sizeof(kSingles)) == nullptr) {
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at offset %zu", c, i));
      }
      t.text.assign(1, c);
      ++i;
    }
  }
  Token& end = tokens.emplace_back();
  end.type = TokenType::kEnd;
  end.position = n;
  return tokens;
}

}  // namespace dbfa::sql
