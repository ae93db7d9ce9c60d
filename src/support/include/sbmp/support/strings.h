#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sbmp {

/// Returns `s` with leading and trailing ASCII whitespace removed.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Parses `text` as a whole decimal int64 (optional leading '-', no
/// whitespace, no trailing characters). Leaves `*out` unspecified and
/// returns false on anything else, including overflow.
[[nodiscard]] bool parse_i64(std::string_view text, std::int64_t* out);

/// Parses `text` as a whole finite decimal double (same rules: optional
/// leading '-', no whitespace, no trailing characters; "inf"/"nan" and
/// out-of-range values are rejected). Leaves `*out` unspecified and
/// returns false on anything else.
[[nodiscard]] bool parse_f64(std::string_view text, double* out);

/// Splits `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Formats `value` with `decimals` digits after the point (locale-free).
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Formats `value` as a percentage string like "83.37%".
[[nodiscard]] std::string format_percent(double fraction, int decimals = 2);

/// printf-appends to `out`. Report renderers build their output in
/// strings (loops render off-thread and print in order, so output is
/// identical for any job count); this is their one formatting primitive,
/// shared by the CLI driver and the serving layer.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...);

}  // namespace sbmp
