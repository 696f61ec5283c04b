/**
 * @file
 * The shared numeric-flag validator behind the bench harnesses and
 * bespoke_io: malformed values are rejected with a diagnostic that
 * names the flag, never parsed to a silent default.
 */

#include <cstdint>
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
    struct Case
    {
        const char *flag;
        const char *text;
        FlagKind kind;
        std::optional<uint64_t> want;  ///< nullopt = rejected
    };
    const Case cases[] = {
        {"--threads", "abc", FlagKind::Count, std::nullopt},
        {"--threads", "", FlagKind::Count, std::nullopt},
        {"--threads", "-1", FlagKind::Count, std::nullopt},
        {"--threads", "1x", FlagKind::Count, std::nullopt},
        {"--threads", " 1", FlagKind::Count, std::nullopt},
        {"--threads", "+1", FlagKind::Count, std::nullopt},
        {"--checkpoint-max-bytes", "99999999999999999999999",
         FlagKind::Bytes, std::nullopt},  // > UINT64_MAX
        {"--threads", "2147483648", FlagKind::Count,
         std::nullopt},  // > INT_MAX
        {"--plane-bits", "100", FlagKind::PlaneBits, std::nullopt},
        {"--plane-bits", "0", FlagKind::PlaneBits, std::nullopt},
        {"--lanes", "0", FlagKind::Lanes, std::nullopt},
        {"--lanes", "65", FlagKind::Lanes, std::nullopt},
        {"--lanes", "7", FlagKind::Lanes, std::nullopt},
        {"--lanes", "1", FlagKind::Lanes, 1},
        {"--threads", "0", FlagKind::Count, 0},
        {"--threads", "3", FlagKind::Count, 3},
        {"--checkpoint-max-bytes", "2147483648", FlagKind::Bytes,
         2147483648ull},
        {"--checkpoint-max-bytes", "18446744073709551615", FlagKind::Bytes,
         UINT64_MAX},
        {"--lanes", "64", FlagKind::Lanes, 64},
        {"--plane-bits", "256", FlagKind::PlaneBits, 256},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.flag) + " '" + c.text + "'");
        std::string error;
        std::optional<uint64_t> got =
            parseFlagValue(c.flag, c.text, c.kind, error);
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
