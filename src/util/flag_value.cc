#include "src/util/flag_value.hh"

#include <charconv>

namespace bespoke
{

std::optional<uint64_t>
parseFlagValue(const std::string &flag, const std::string &text,
               uint64_t max, std::string &error)
{
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (!text.empty() && ec == std::errc() && ptr == end && v <= max)
        return v;
    error = flag + " needs an integer from 0 to " + std::to_string(max) +
            " (got '" + text + "')";
    return std::nullopt;
}

} // namespace bespoke
