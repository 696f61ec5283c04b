#include "src/util/flag_value.hh"

#include <charconv>
#include <limits>

namespace bespoke
{

std::optional<uint64_t>
parseFlagValue(const std::string &flag, const std::string &text,
               FlagKind kind, std::string &error)
{
    uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = !text.empty() && ec == std::errc() && ptr == end;
    const char *needs = "a non-negative integer";
    switch (kind) {
      case FlagKind::Count:
        ok = ok && v <= std::numeric_limits<int>::max();
        break;
      case FlagKind::Lanes:
        ok = ok && (v == 1 || v == 64);
        needs = "1 or 64";
        break;
    }
    if (ok)
        return v;
    error = flag + " needs " + needs + " (got '" + text + "')";
    return std::nullopt;
}

} // namespace bespoke
