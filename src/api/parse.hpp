/**
 * @file
 * Strict parsing of numeric command-line and environment values.
 *
 * The whole string must be the number: unlike atoi/atof, garbage is an
 * error rather than a silent 0, and trailing text, a sign on an
 * unsigned value and non-finite doubles are rejected. Run options are
 * parsed through the knob table (api/config.hpp); countOrExit is for
 * a program's own options (sweep_main --host-threads): a bad value prints
 * "bad value '<v>' for <name> (<expected>)" and exits 2.
 */

#ifndef RETCON_API_PARSE_HPP
#define RETCON_API_PARSE_HPP

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace retcon::api {

/** Parse all of @p s as a base-10 unsigned integer. */
inline bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
}

/** Parse all of @p s as a finite double. */
inline bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtod(s.c_str(), &end);
    return errno == 0 && end == s.c_str() + s.size() && std::isfinite(out);
}

/** @p value as an integer in [@p lo, @p hi], or exit 2 naming @p what. */
inline unsigned
countOrExit(const char *what, const char *value, unsigned lo, unsigned hi)
{
    std::uint64_t u = 0;
    if (!parseU64(value, u) || u < lo || u > hi) {
        std::fprintf(stderr, "bad value '%s' for %s (an integer %u-%u)\n",
                     value, what, lo, hi);
        std::exit(2);
    }
    return static_cast<unsigned>(u);
}

} // namespace retcon::api

#endif // RETCON_API_PARSE_HPP
