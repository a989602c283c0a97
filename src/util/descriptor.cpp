#include "util/descriptor.h"

#include "util/check.h"
#include "util/format.h"

namespace shlcp {

std::vector<std::string> DescriptorParser::split(
    const std::string& descriptor, std::size_t count) const {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t semi = descriptor.find(';', start);
    fields.push_back(descriptor.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start));
    if (semi == std::string::npos) {
      break;
    }
    start = semi + 1;
  }
  SHLCP_CHECK_MSG(fields.size() == count,
                  format("%s descriptor needs %zu ';'-fields, got %zu: %s",
                         what, count, fields.size(), descriptor.c_str()));
  return fields;
}

std::string DescriptorParser::value(const std::string& field,
                                    const char* key) const {
  const std::string prefix = std::string(key) + "=";
  SHLCP_CHECK_MSG(field.rfind(prefix, 0) == 0,
                  format("%s descriptor: expected '%s=...', got '%s'", what,
                         key, field.c_str()));
  return field.substr(prefix.size());
}

namespace {

/// Decimal digits only, no sign or trailing bytes, no 64-bit overflow.
bool parse_whole(std::string_view text, std::uint64_t* out) {
  std::uint64_t v = 0;
  bool ok = !text.empty();
  for (const char c : text) {
    const auto d = static_cast<std::uint64_t>(c - '0');
    ok = ok && c >= '0' && c <= '9' &&
         v <= (std::numeric_limits<std::uint64_t>::max() - d) / 10;
    v = ok ? v * 10 + d : v;
  }
  *out = v;
  return ok;
}

}  // namespace

int DescriptorParser::number(std::string_view text, int max) const {
  std::uint64_t v = 0;
  const bool ok =
      parse_whole(text, &v) && v <= static_cast<std::uint64_t>(max);
  SHLCP_CHECK_MSG(ok, format("%s descriptor: '%s' is not a whole number in "
                             "[0, %d]",
                             what, std::string(text).c_str(), max));
  return static_cast<int>(v);
}

std::uint64_t DescriptorParser::number64(std::string_view text) const {
  std::uint64_t v = 0;
  SHLCP_CHECK_MSG(parse_whole(text, &v),
                  format("%s descriptor: '%s' is not a whole 64-bit number",
                         what, std::string(text).c_str()));
  return v;
}

std::uint64_t DescriptorParser::seed(std::string_view text) const {
  const bool hex = text.size() > 2 && text.substr(0, 2) == "0x";
  const std::string_view digits = hex ? text.substr(2) : text;
  std::uint64_t v = 0;
  bool ok = !digits.empty() && (!hex || digits.size() <= 16);
  for (const char c : digits) {
    int d = -1;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (hex && c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (hex && c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    }
    const std::uint64_t base = hex ? 16 : 10;
    ok = ok && d >= 0 &&
         (hex || v <= (std::numeric_limits<std::uint64_t>::max() -
                       static_cast<std::uint64_t>(d)) / base);
    v = ok ? v * base + static_cast<std::uint64_t>(d) : v;
  }
  SHLCP_CHECK_MSG(ok, format("%s descriptor: seed '%s' is not a 64-bit "
                             "number",
                             what, std::string(text).c_str()));
  return v;
}

}  // namespace shlcp
