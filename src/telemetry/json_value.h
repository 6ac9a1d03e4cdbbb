#pragma once

// The repo's one JSON reader: a strict RFC 8259 recursive-descent parser
// producing an immutable value tree. It reads back what the writers emit
// (json_writer.h): radiomc.perf/v1 reports and radiomc.bench/v1 tables for
// `radiomc_perf`, radiomc.snap/v1 and radiomc.health/v1 lines for
// `radiomc_monitor`, and radiomc.trace/v2 lines for the offline trace
// reader (analysis/trace_reader.h), which adds its typed field checks on
// top.
//
// Malformed input is an error with a byte offset: leading '+' or zeros,
// a bare '.', numbers beyond the double range (1e999, 1e-400), raw
// control bytes inside strings, nesting past 512 levels, trailing
// garbage. \uXXXX escapes decode to UTF-8 (BMP only; a lone surrogate
// encodes as-is). Numbers are held as double; a token made only of
// digits that fits 64 bits also keeps its exact value (as_u64), so
// counts past 2^53 do not round.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace radiomc::telemetry {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  JsonValue() : kind_(Kind::kNull) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool(bool dflt = false) const noexcept {
    return is_bool() ? bool_ : dflt;
  }
  double as_double(double dflt = 0.0) const noexcept {
    return is_number() ? num_ : dflt;
  }
  /// The number truncated toward zero; `dflt` when not a number or when
  /// the value lies outside the int64 range.
  std::int64_t as_int(std::int64_t dflt = 0) const noexcept {
    return is_number() && num_ >= -0x1p63 && num_ < 0x1p63
               ? static_cast<std::int64_t>(num_)
               : dflt;
  }
  /// The exact value of a number token made only of digits that fits 64
  /// bits; std::nullopt for anything else (sign, fraction, exponent,
  /// overflow, or not a number).
  std::optional<std::uint64_t> as_u64() const noexcept { return u64_; }
  const std::string& as_string() const noexcept { return str_; }

  const std::vector<JsonValue>& items() const noexcept { return arr_; }
  /// Object members in document order (writers emit deterministically, so
  /// order is meaningful for golden comparisons).
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return obj_;
  }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// Member lookup; null-kind sentinel when absent or not an object.
  const JsonValue& at(std::string_view key) const noexcept;
  /// True iff the member exists (even with a null value).
  bool has(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }

  // Construction (parser + tests building synthetic documents).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d,
                               std::optional<std::uint64_t> exact = {});
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::optional<std::uint64_t> u64_;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

struct JsonParseResult {
  bool ok = false;
  std::string error;   ///< non-empty iff !ok; includes a byte offset
  JsonValue value;     ///< valid iff ok
};

/// Parses one JSON document; trailing whitespace is permitted, trailing
/// garbage is an error.
JsonParseResult parse_json(std::string_view text);

/// Reads and parses a whole file; a missing/unreadable file is an error,
/// not an exception.
JsonParseResult parse_json_file(const std::string& path);

}  // namespace radiomc::telemetry
