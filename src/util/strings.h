#ifndef SPARQLOG_UTIL_STRINGS_H_
#define SPARQLOG_UTIL_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sparqlog::util {

/// Returns `s` with ASCII letters lowercased.
std::string AsciiLower(std::string_view s);

/// Returns `s` with ASCII letters uppercased.
std::string AsciiUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True iff `s` starts with `prefix` (case-insensitive ASCII).
bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Percent-decodes a URL-encoded string ("%20" -> ' ', '+' -> ' ').
/// Invalid escapes are passed through verbatim.
std::string PercentDecode(std::string_view s);

/// Appends the percent-decoding of `s` to `out` (no clear). Lets hot
/// loops reuse one scratch buffer instead of allocating per call.
void PercentDecodeTo(std::string_view s, std::string& out);

/// Percent-encodes a string for use as a URL query parameter value.
std::string PercentEncode(std::string_view s);

/// Formats `n` with thousands separators, e.g. 1234567 -> "1,234,567".
std::string WithThousands(long long n);

/// Formats a ratio as a percentage with two decimals, e.g. "87.97%".
std::string Percent(double numerator, double denominator);

/// Parses a count strictly: decimal digits only (no sign, no whitespace,
/// no trailing junk), at most `max`. Returns nullopt otherwise, so a
/// command-line flag can reject junk instead of reading it as 0.
std::optional<uint64_t> ParseCount(std::string_view s, uint64_t max);

}  // namespace sparqlog::util

#endif  // SPARQLOG_UTIL_STRINGS_H_
