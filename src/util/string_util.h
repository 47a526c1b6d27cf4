#ifndef LLMULATOR_UTIL_STRING_UTIL_H
#define LLMULATOR_UTIL_STRING_UTIL_H

/**
 * @file
 * Small string helpers shared by the tokenizer, the IR pretty-printer and
 * the table formatter.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace llmulator {
namespace util {

/** Split on runs of ASCII whitespace; drops empty fields. */
std::vector<std::string> splitWhitespace(const std::string& s);

/** Join with separator. */
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/** True if s consists only of decimal digits (and is non-empty). */
bool isAllDigits(const std::string& s);

/** printf-style formatting into a std::string. */
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Stable 64-bit FNV-1a hash of a byte string. */
uint64_t fnv1a(const std::string& s);

/** Combine two hashes (boost-style). */
uint64_t hashCombine(uint64_t a, uint64_t b);

/** Fixed-width left-aligned cell used by the table printers. */
std::string padRight(const std::string& s, size_t width);

} // namespace util
} // namespace llmulator

#endif // LLMULATOR_UTIL_STRING_UTIL_H
