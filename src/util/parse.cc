#include "util/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace pghive::util {

StatusOr<int64_t> ParseInt64(const std::string& text) {
  if (text.empty()) return Status::ParseError("empty integer");
  // strtoll silently skips leading whitespace; a knob value of " 3" should
  // be rejected like any other non-integer, not quietly accepted.
  if (std::isspace(static_cast<unsigned char>(text.front()))) {
    return Status::ParseError("'" + text + "' is not an integer");
  }
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return Status::ParseError("'" + text + "' is not an integer");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("'" + text + "' overflows a 64-bit integer");
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<int64_t> ParseInt64InRange(const std::string& text, int64_t min,
                                    int64_t max, const std::string& what) {
  StatusOr<int64_t> parsed = ParseInt64(text);
  if (!parsed.ok()) {
    return Status::ParseError(what + ": " + parsed.status().message());
  }
  if (*parsed < min || *parsed > max) {
    return Status::OutOfRange(what + " must be in [" + std::to_string(min) +
                              ", " + std::to_string(max) + "], got " + text);
  }
  return *parsed;
}

StatusOr<double> ParseDoubleInRange(const std::string& text, double lo,
                                    double hi, const std::string& what) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  // strtod skips leading whitespace and reads "inf" / "nan"; an overflow
  // comes back as HUGE_VAL, so the finiteness check refuses it too.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())) ||
      end == text.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return Status::ParseError(what + ": '" + text +
                              "' is not a finite number");
  }
  if (!(parsed > lo && parsed <= hi)) {
    std::ostringstream range;
    range << "(" << lo << ", " << hi << "]";
    return Status::OutOfRange(what + " must be in " + range.str() + ", got " +
                              text);
  }
  return parsed;
}

}  // namespace pghive::util
