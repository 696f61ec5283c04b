/**
 * @file
 * The shared numeric-flag validator behind the bench harnesses and
 * bespoke_io: malformed values, and values above the flag's bound, are
 * rejected with a diagnostic that names the flag, never parsed to a
 * silent default.
 */

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "src/util/flag_value.hh"

namespace bespoke
{
namespace
{

TEST(FlagValue, AcceptsOnlyWellFormedValuesOfTheKind)
{
    constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
    struct Case
    {
        const char *flag;
        const char *text;
        uint64_t max;
        std::optional<uint64_t> want;  ///< nullopt = rejected
    };
    const Case cases[] = {
        {"--threads", "abc", kIntMax, std::nullopt},
        {"--threads", "", kIntMax, std::nullopt},
        {"--threads", "-1", kIntMax, std::nullopt},
        {"--threads", "1x", kIntMax, std::nullopt},
        {"--threads", " 1", kIntMax, std::nullopt},
        {"--threads", "+1", kIntMax, std::nullopt},
        {"--threads", "99999999999999999999999", kIntMax,
         std::nullopt},  // > UINT64_MAX
        {"--threads", "2147483648", kIntMax, std::nullopt},  // > INT_MAX
        {"--sat-depth", "100001", 100000, std::nullopt},
        {"--sat-depth", "100000", 100000, 100000},
        {"--sat-depth", "0", 100000, 0},
        {"--threads", "0", kIntMax, 0},
        {"--threads", "3", kIntMax, 3},
        {"--threads", "2147483647", kIntMax, kIntMax},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.flag) + " '" + c.text + "'");
        std::string error;
        std::optional<uint64_t> got =
            parseFlagValue(c.flag, c.text, c.max, error);
        EXPECT_EQ(got, c.want);
        if (c.want)
            EXPECT_TRUE(error.empty()) << error;
        else
            EXPECT_EQ(error.rfind(std::string(c.flag) + " needs ", 0), 0u)
                << error;
    }
}

} // namespace
} // namespace bespoke
