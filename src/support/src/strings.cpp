#include "sbmp/support/strings.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace sbmp {

std::string_view trim(std::string_view s) {
  const char* ws = " \t\r\n";
  const auto first = s.find_first_not_of(ws);
  if (first == std::string_view::npos) return {};
  const auto last = s.find_last_not_of(ws);
  return s.substr(first, last - first + 1);
}

bool parse_i64(std::string_view text, std::int64_t* out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

bool parse_f64(std::string_view text, double* out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last && std::isfinite(*out);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string format_percent(double fraction, int decimals) {
  return format_fixed(fraction * 100.0, decimals) + "%";
}

void appendf(std::string& out, const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  const int needed = std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  if (needed < static_cast<int>(sizeof buffer)) {
    out.append(buffer, static_cast<std::size_t>(needed > 0 ? needed : 0));
    return;
  }
  std::vector<char> big(static_cast<std::size_t>(needed) + 1);
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  out.append(big.data(), static_cast<std::size_t>(needed));
}

}  // namespace sbmp
