#include "support/parse.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace radiomc {

namespace {

// std::from_chars takes no leading whitespace or '+', and no '-' for an
// unsigned type; what is left to check is that it consumed everything.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  return parse_whole<std::uint64_t>(text);
}

std::optional<double> parse_f64(std::string_view text) {
  const std::optional<double> v = parse_whole<double>(text);
  if (v && !std::isfinite(*v)) return std::nullopt;
  return v;
}

}  // namespace radiomc
