#ifndef PGHIVE_UTIL_ATOMIC_WRITE_H_
#define PGHIVE_UTIL_ATOMIC_WRITE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace pghive::util {

/// Replaces `path` with `bytes` atomically: the bytes go to the sibling
/// `path + ".tmp"`, the stream is closed and checked (so a failed final
/// flush is caught), and only then is the tmp renamed over `path`. A crash
/// mid-write never leaves a torn file under the real name, and every failure
/// removes the tmp and returns IoError naming the file.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

}  // namespace pghive::util

#endif  // PGHIVE_UTIL_ATOMIC_WRITE_H_
