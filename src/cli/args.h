// Strict key=value argument parsing for the scenario/runner layer.
//
// The legacy per-binary parsers silently ignored unknown flags and pushed
// every value through atof (so "--facets 36.9" truncated and "--mahc 8"
// did nothing).  This layer is the opposite: every token must be a
// well-formed `key=value` pair, unknown keys raise an error that lists the
// valid keys, and integers are parsed as integers — trailing junk or a
// fractional part is a hard error, not a truncation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace cmdsmc::cli {

// All parse/override failures throw this; the CLI prints .what() and exits
// nonzero.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct KeyValue {
  std::string key;
  std::string value;
};

// Splits `key=value` tokens.  A token without '=' or with an empty key is
// an ArgError.
std::vector<KeyValue> parse_key_values(const std::vector<std::string>& tokens);
std::vector<KeyValue> parse_key_values(int argc, char** argv, int start);

// Strict scalar parsing: the whole token must be consumed.  `key` is used
// in the error message only.
int parse_int(const std::string& key, const std::string& value);
std::uint64_t parse_uint64(const std::string& key, const std::string& value);
double parse_double(const std::string& key, const std::string& value);
// Accepts 0/1, true/false, on/off, yes/no (case-insensitive).
bool parse_bool(const std::string& key, const std::string& value);

// Raises ArgError naming the offending key and listing every valid key.
[[noreturn]] void throw_unknown_key(const std::string& key,
                                    const std::vector<std::string>& valid);

// Raises ArgError naming the key and listing the accepted choices (for
// enum-valued keys like wall=specular|diffuse_isothermal|...).
[[noreturn]] void throw_bad_choice(const std::string& key,
                                   const std::string& value,
                                   const std::vector<std::string>& choices);

// --- Machine-readable failure reporting -------------------------------------
// `cmdsmc run` (and the fleet's failure isolation) promise a non-zero exit
// plus one parseable error line on any failure.  These helpers are the
// single definition of that contract.

// `s` escaped for the inside of a JSON string: quotes and backslashes,
// \n \r \t, and every other byte below 0x20 as \u00XX, so the result is
// one line with no control byte.  The JSON writers of every layer share it.
std::string json_escape(const std::string& s);

// One JSON line: {"error": {"type": "<type>", "message": "<message>"}}.
std::string error_json(const std::string& type, const std::string& message);

// Exit-code/type classification shared by the CLI commands:
//   ArgError / std::invalid_argument (validate())  -> 2, "usage"/"config"
//   anything else (runtime failure)                -> 3, "runtime"
int error_exit_code(const std::exception& e);
const char* error_type(const std::exception& e);

}  // namespace cmdsmc::cli
