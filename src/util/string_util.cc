#include "util/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace llmulator {
namespace util {

std::vector<std::string>
splitWhitespace(const std::string& s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!cur.empty()) {
                out.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string>& parts, const std::string& sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
isAllDigits(const std::string& s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

std::string
format(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    va_end(args2);
    return out;
}

uint64_t
fnv1a(const std::string& s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
hashCombine(uint64_t a, uint64_t b)
{
    return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}

std::string
padRight(const std::string& s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

} // namespace util
} // namespace llmulator
