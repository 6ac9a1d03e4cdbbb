#pragma once

// Strict decimal number parsing for every textual input the tree reads:
// topology specs, arrival specs, alert rules, trace fields, environment
// variables and command-line flags. The whole of `text` must be the
// number. Rejected, as std::nullopt: empty input, leading whitespace or
// '+', a '-' on an unsigned value, trailing junk, overflow, and (for
// doubles) inf/nan. Callers attach their own error wording.

#include <cstdint>
#include <optional>
#include <string_view>

namespace radiomc {

std::optional<std::uint64_t> parse_u64(std::string_view text);
std::optional<double> parse_f64(std::string_view text);

}  // namespace radiomc
