/**
 * @file
 * Error-reporting helpers for the sleepscale library.
 *
 * Follows the gem5 fatal/panic discipline: fatal() is for conditions caused
 * by the caller (bad configuration, invalid arguments) and throws
 * ConfigError; panic() is for violated internal invariants (library bugs)
 * and throws InternalError. Both build and throw an exception, so they
 * belong on error paths only. fatalIf() runs on hot simulation paths (it
 * guards every offered job) and is cheap when the check passes: its
 * message is a std::string_view, and the std::string is built only when
 * the check fails.
 */

#ifndef SLEEPSCALE_UTIL_ERROR_HH
#define SLEEPSCALE_UTIL_ERROR_HH

#include <stdexcept>
#include <string>
#include <string_view>

namespace sleepscale {

/** Exception thrown on user-caused errors (bad configuration or inputs). */
class ConfigError : public std::invalid_argument
{
  public:
    /** @param what_arg Message naming the offending input. */
    explicit ConfigError(const std::string &what_arg)
        : std::invalid_argument(what_arg)
    {}
};

/** Exception thrown when a library-internal invariant is violated. */
class InternalError : public std::logic_error
{
  public:
    /** @param what_arg Message naming the broken invariant. */
    explicit InternalError(const std::string &what_arg)
        : std::logic_error(what_arg)
    {}
};

/**
 * Report a user-caused error. Never returns.
 *
 * @param msg Description of what the caller did wrong and how to fix it.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report a violated internal invariant (a sleepscale bug). Never returns.
 *
 * @param msg Description of the broken invariant.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Check a user-supplied condition, raising ConfigError when it fails.
 * Allocates nothing when the check passes.
 *
 * @param bad Condition that makes the configuration or input invalid.
 * @param msg Message used if the condition holds; copied into a
 *            std::string only then.
 */
inline void
fatalIf(bool bad, std::string_view msg)
{
    if (bad)
        fatal(std::string(msg));
}

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_ERROR_HH
