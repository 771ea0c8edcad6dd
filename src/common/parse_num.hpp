/**
 * @file
 * The one strict number parser behind every command-line flag,
 * environment knob and fault-plan field. A value must be the whole
 * string: no leading blanks, no sign, no trailing junk, in range for
 * the field it lands in. A lenient parse (strtoul, atof) reads "abc"
 * as 0 and lets a run "succeed" with a silently wrong configuration.
 */

#ifndef ESPNUCA_COMMON_PARSE_NUM_HPP_
#define ESPNUCA_COMMON_PARSE_NUM_HPP_

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace espnuca {

/** A value that is not a number of the expected shape; what() names
 *  the flag or field (`what`) and quotes the value. */
class NumberError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** Largest value of a u32 field. */
inline constexpr std::uint64_t kMaxU32 = 0xFFFFFFFFu;

/**
 * An unsigned integer no larger than `max`. `base` 10 takes decimal
 * only (flags and env knobs), 16 hex digits (trace addresses); base 0
 * also takes 0x-hex and 0-octal (the fault-plan grammar's way masks).
 */
inline std::uint64_t
parseUnsigned(const std::string &s, const std::string &what,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
              int base = 10)
{
    if (s.empty())
        throw NumberError(what + ": empty number");
    // std::stoull would skip leading blanks and negate a '-' sign.
    const unsigned char lead = static_cast<unsigned char>(s[0]);
    if (!(base == 16 ? std::isxdigit(lead) : std::isdigit(lead)))
        throw NumberError(what + ": bad number '" + s + "'");
    std::size_t used = 0;
    std::uint64_t v = 0;
    try {
        v = std::stoull(s, &used, base);
    } catch (const std::exception &) {
        throw NumberError(what + ": bad number '" + s + "'");
    }
    if (used != s.size())
        throw NumberError(what + ": trailing junk in '" + s + "'");
    if (v > max)
        throw NumberError(what + ": '" + s + "' out of range");
    return v;
}

/** A finite decimal real in [0, limit), e.g. a fraction for limit 1. */
inline double
parseReal(const std::string &s, const std::string &what,
          double limit = std::numeric_limits<double>::infinity())
{
    if (s.empty())
        throw NumberError(what + ": empty number");
    if (!std::isdigit(static_cast<unsigned char>(s[0])) && s[0] != '.')
        throw NumberError(what + ": bad number '" + s + "'");
    double v = 0.0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || !std::isfinite(v))
        throw NumberError(what + ": bad number '" + s + "'");
    if (end != s.data() + s.size())
        throw NumberError(what + ": trailing junk in '" + s + "'");
    if (!(v < limit))
        throw NumberError(what + ": '" + s + "' out of range");
    return v;
}

/** A "CxR" grid such as "8x4", each side a u32. */
inline std::pair<std::uint32_t, std::uint32_t>
parseGrid(const std::string &s, const std::string &what)
{
    const std::size_t x = s.find('x');
    if (x == std::string::npos)
        throw NumberError(what + " expects CxR (e.g. 8x4), got '" + s +
                          "'");
    return {static_cast<std::uint32_t>(
                parseUnsigned(s.substr(0, x), what, kMaxU32)),
            static_cast<std::uint32_t>(
                parseUnsigned(s.substr(x + 1), what, kMaxU32))};
}

/**
 * Run `parse` (one of the parsers above) on a command-line flag or an
 * environment knob: a NumberError is printed and exits 2, the
 * usage-error status of every tool.
 */
template <typename Parse>
auto
parseOrExit(Parse parse)
{
    try {
        return parse();
    } catch (const NumberError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

} // namespace espnuca

#endif // ESPNUCA_COMMON_PARSE_NUM_HPP_
