#pragma once
// Strict positional-argument parsing for the bench binaries: a missing
// argument takes its default, anything else must be a whole decimal integer
// in [lo, hi]. A non-integer ("abc", "3x") or out-of-range value prints the
// usage line and exits with status 2 instead of silently running a
// different configuration.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace octo::bench {

inline int int_arg(int argc, char** argv, int index, int fallback, int lo,
                   int hi, const char* usage) {
    if (index >= argc) return fallback;
    const char* s = argv[index];
    const char* end = s + std::strlen(s);
    int v = 0;
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
        std::fprintf(stderr, "%s: bad argument '%s'\nusage: %s %s\n", argv[0],
                     s, argv[0], usage);
        std::exit(2);
    }
    return v;
}

} // namespace octo::bench
