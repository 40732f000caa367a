// The harness the std::chrono probes share (bench_round_kernel,
// bench_codec, bench_feed): their one flag, a best-of-N timer and the
// round key they simulate under.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "crypto/round_target.hpp"

#include "../examples/parse_number.hpp"

namespace sable::probe {

/// Reads the probes' one flag, `--repeats N` (default 1000, at least 1).
/// On an unknown flag, a malformed number or 0 it prints why to stderr
/// and returns false; the probe then exits 2.
inline bool parse_repeats(int argc, char** argv, std::size_t* repeats) {
  *repeats = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      if (!parse_number("--repeats", argv[++i], repeats)) return false;
    } else {
      std::fprintf(stderr, "usage: %s [--repeats N]\n", argv[0]);
      return false;
    }
  }
  if (*repeats == 0) {
    std::fprintf(stderr, "--repeats must be at least 1\n");
    return false;
  }
  return true;
}

/// The fastest of `repeats` runs of `body` over `count` traces, in ns per
/// trace. `setup` runs before each one, outside the timed span. Best-of-N
/// is the cost with the least interference from the rest of the machine.
template <typename Setup, typename Body>
double best_ns_per_trace(std::size_t repeats, std::size_t count,
                         Setup&& setup, Body&& body) {
  using Clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    setup();
    const auto start = Clock::now();
    body();
    const std::chrono::duration<double, std::nano> took =
        Clock::now() - start;
    best = std::min(best, took.count());
  }
  return best / static_cast<double>(count);
}

template <typename Body>
double best_ns_per_trace(std::size_t repeats, std::size_t count,
                         Body&& body) {
  return best_ns_per_trace(repeats, count, [] {}, body);
}

/// The probes' subkeys: instance i's is (0x7 + 5i) masked to its width.
inline std::vector<std::size_t> subkeys(const RoundSpec& round) {
  std::vector<std::size_t> keys(round.num_sboxes());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t mask = (std::size_t{1} << round.sboxes[i].in_bits) - 1;
    keys[i] = (0x7 + 5 * i) & mask;
  }
  return keys;
}

}  // namespace sable::probe
