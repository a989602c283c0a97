// Strict field parsing for the seeded plan descriptors:
//
//   FaultPlan (sim/faults.h)
//     "label;seed=0x..;drop=N;dup=N;corrupt=N;crash=NODES@ROUND;byz=NODES"
//   ChaosPlan (service/chaos.h)
//     "label;seed=0x..;wchop=N;rchop=N;corrupt=N;reset=N;delay=N@Mms"
//
// Descriptors arrive from untrusted input (run_decoder's "plan" param,
// shlcp_loadgen --chaos), so every number is read whole: decimal digits
// only, no sign, no whitespace, no trailing bytes, and inside the range
// its field allows. Seeds are the one exception, a full-range 64-bit
// value written as "0x" + hex digits (describe()'s form) or in decimal.
// Every parser throws CheckError naming the descriptor kind.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace shlcp {

/// Upper bound of every per-mille rate field.
inline constexpr int kPermilleMax = 1000;

struct DescriptorParser {
  /// The descriptor kind, e.g. "fault-plan"; prefixes every error.
  const char* what;

  /// Splits `descriptor` on ';' and requires exactly `count` fields.
  std::vector<std::string> split(const std::string& descriptor,
                                 std::size_t count) const;

  /// The value of a "key=value" field; throws unless the key matches.
  std::string value(const std::string& field, const char* key) const;

  /// A whole decimal number in [0, max].
  int number(std::string_view text,
             int max = std::numeric_limits<int>::max()) const;

  /// A whole decimal number in the full 64-bit range (byte budgets,
  /// millisecond spans).
  std::uint64_t number64(std::string_view text) const;

  /// A 64-bit seed: "0x" + 1..16 hex digits, or a decimal number.
  std::uint64_t seed(std::string_view text) const;
};

}  // namespace shlcp
