/**
 * @file
 * Strict parsing of numeric command-line and environment values.
 */

#ifndef MOENTWINE_COMMON_PARSE_HH
#define MOENTWINE_COMMON_PARSE_HH

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

namespace moentwine {

/**
 * Strict base-10 parse of a positive int: the whole string must be
 * consumed (no "4abc", no empty string), and the value must fit an
 * int. Returns -1 on any violation, so each caller rejects loudly with
 * its own message instead of running on an atoi-truncated value.
 */
inline int
parsePositiveInt(const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (errno == ERANGE || end == text.c_str() || *end != '\0' ||
        value <= 0 || value > INT_MAX)
        return -1;
    return static_cast<int>(value);
}

} // namespace moentwine

#endif // MOENTWINE_COMMON_PARSE_HH
