#include "oracles/tokenize_reference.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "common/strings.h"

namespace dbfa::oracle {

Result<std::vector<sql::Token>> TokenizeReference(std::string_view sql) {
  std::vector<sql::Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    sql::Token t;
    t.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_' || sql[i] == '#')) {
        ++i;
      }
      t.type = sql::TokenType::kIdentifier;
      t.text = std::string(sql.substr(start, i - start));
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
      std::string text(sql.substr(start, i - start));
      if (is_float) {
        t.type = sql::TokenType::kFloat;
        t.float_value = std::strtod(text.c_str(), nullptr);
      } else {
        t.type = sql::TokenType::kInteger;
        t.int_value = std::strtoll(text.c_str(), nullptr, 10);
      }
      t.text = std::move(text);
    } else if (c == '\'') {
      ++i;
      std::string body;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            body += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        body += sql[i++];
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string at offset %zu", t.position));
      }
      t.type = sql::TokenType::kString;
      t.text = std::move(body);
    } else {
      t.type = sql::TokenType::kSymbol;
      // Multi-char operators first.
      if (i + 1 < n) {
        std::string two(sql.substr(i, 2));
        if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
          t.text = two == "!=" ? "<>" : two;
          i += 2;
          tokens.push_back(std::move(t));
          continue;
        }
      }
      static const char kSingles[] = "()*,.<>=+-/;";
      bool known = false;
      for (char s : kSingles) {
        if (s == c) {
          known = true;
          break;
        }
      }
      if (!known) {
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at offset %zu", c, i));
      }
      t.text = std::string(1, c);
      ++i;
    }
    tokens.push_back(std::move(t));
  }
  sql::Token end;
  end.type = sql::TokenType::kEnd;
  end.position = n;
  tokens.push_back(std::move(end));
  return tokens;
}

}  // namespace dbfa::oracle
