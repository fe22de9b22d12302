// The original SQL tokenizer, kept as the differential oracle for the
// production one (src/sql/token.cc): every number is copied into a
// temporary string for strtod/strtoll, every symbol builds a two-character
// string, and string bodies are decoded one character at a time.
// tests/sql_test.cc compares both token by token over real audit logs and
// hand-written edge cases. Compiled into test targets only.
#ifndef DBFA_TESTS_ORACLES_TOKENIZE_REFERENCE_H_
#define DBFA_TESTS_ORACLES_TOKENIZE_REFERENCE_H_

#include <string_view>
#include <vector>

#include "sql/token.h"

namespace dbfa::oracle {

/// The tokens (or the error) sql::Tokenize must reproduce for `sql`.
Result<std::vector<sql::Token>> TokenizeReference(std::string_view sql);

}  // namespace dbfa::oracle

#endif  // DBFA_TESTS_ORACLES_TOKENIZE_REFERENCE_H_
