/**
 * @file
 * Validation of numeric command-line flag values, shared by the bench
 * harnesses and bespoke_io so both reject the same malformed input with
 * the same diagnostic.
 */

#ifndef BESPOKE_UTIL_FLAG_VALUE_HH
#define BESPOKE_UTIL_FLAG_VALUE_HH

#include <cstdint>
#include <optional>
#include <string>

namespace bespoke
{

/** The values a numeric flag accepts. */
enum class FlagKind : uint8_t
{
    Count,      ///< non-negative int: thread counts, depths
    Bytes,      ///< non-negative 64-bit integer: byte and queue caps
    Lanes,      ///< activity-analysis lane width, 1..64
    PlaneBits,  ///< lane-plane width: 64, 128, 256 or 512
};

/**
 * Parse `text`, the value given for numeric flag `flag`. It must be a
 * plain decimal integer (digits only: no sign, blanks or suffix) that
 * `kind` accepts. Returns the value, or std::nullopt with `error` set
 * to a diagnostic that names the flag.
 */
std::optional<uint64_t> parseFlagValue(const std::string &flag,
                                       const std::string &text,
                                       FlagKind kind, std::string &error);

} // namespace bespoke

#endif // BESPOKE_UTIL_FLAG_VALUE_HH
