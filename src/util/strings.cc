#include "util/strings.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "util/ascii.h"
#include "util/simd_scan.h"

namespace sparqlog::util {

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string AsciiUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  return EqualsIgnoreCase(s.substr(0, prefix.size()), prefix);
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(std::count(s.begin(), s.end(), sep)) + 1);
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  if (!parts.empty()) {
    size_t total = sep.size() * (parts.size() - 1);
    for (const std::string& p : parts) total += p.size();
    out.reserve(total);
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

namespace {
int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

void PercentDecodeTo(std::string_view s, std::string& out) {
  out.reserve(out.size() + s.size());
  size_t i = 0;
  while (i < s.size()) {
    // Bulk-copy the span up to the next '%' or '+'; only escapes drop
    // to byte-at-a-time handling.
    const size_t esc = scan::FindEscape(s, i);
    if (esc > i) out.append(s.data() + i, esc - i);
    if (esc >= s.size()) return;
    i = esc;
    if (s[i] == '%' && i + 2 < s.size()) {
      int hi = HexValue(s[i + 1]), lo = HexValue(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 3;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
    ++i;
  }
}

std::string PercentDecode(std::string_view s) {
  std::string out;
  PercentDecodeTo(s, out);
  return out;
}

std::string PercentEncode(std::string_view s) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                      c == '_' || c == '~';
    if (unreserved) {
      out.push_back(c);
    } else if (c == ' ') {
      out.push_back('+');
    } else {
      unsigned char u = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    }
  }
  return out;
}

std::string WithThousands(long long n) {
  std::string digits = std::to_string(n < 0 ? -n : n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (n < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

std::string Percent(double numerator, double denominator) {
  double pct = denominator == 0.0 ? 0.0 : 100.0 * numerator / denominator;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", pct);
  return buf;
}

std::optional<uint64_t> ParseCount(std::string_view s, uint64_t max) {
  uint64_t v = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return std::nullopt;
  return v;
}

}  // namespace sparqlog::util
