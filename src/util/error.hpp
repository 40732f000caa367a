// Error handling primitives for the sable library.
//
// Construction and parsing errors are reported with exceptions derived from
// sable::Error; invariant violations in library internals use SABLE_ASSERT,
// which is active in all build types (these networks are small, the checks
// are cheap, and a silently malformed network would invalidate every
// downstream power result).
#pragma once

#include <stdexcept>
#include <string>

namespace sable {

/// Base class of all exceptions thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when textual input (expressions) cannot be parsed.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// Thrown when an argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void assert_fail(const char* cond, const char* file, int line,
                              const std::string& msg);
}  // namespace detail

}  // namespace sable

/// Always-on invariant check. `msg` may use stream-free string concatenation.
#define SABLE_ASSERT(cond, msg)                                        \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::sable::detail::assert_fail(#cond, __FILE__, __LINE__, (msg));  \
    }                                                                  \
  } while (false)

/// Marks a point no input reaches: the end of an exhaustive switch, or of
/// a loop that always returns. Aborts as a failed SABLE_ASSERT(false, msg)
/// would, but as a direct [[noreturn]] call, so the compiler knows control
/// never falls through at any optimization level (-Werror=return-type
/// holds at -O0 too).
#define SABLE_UNREACHABLE(msg) \
  ::sable::detail::assert_fail("false", __FILE__, __LINE__, (msg))

/// Precondition check that throws InvalidArgument instead of aborting.
#define SABLE_REQUIRE(cond, msg)                       \
  do {                                                 \
    if (!(cond)) {                                     \
      throw ::sable::InvalidArgument((msg));           \
    }                                                  \
  } while (false)
