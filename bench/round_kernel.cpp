// Round-kernel probe: the in-process cost of the round target's lookup
// kernels, per trace, timed with std::chrono alone.
//
// For PRESENT x16 and AES x16 (SubBytes), each in SABL-enhanced (constant
// rows) and in static CMOS (transition history), it times one call of
// 4096 traces (a campaign shard's worth) of
//   - trace_batch with noise off and with noise on,
//   - trace_batch_sampled with noise off,
//   - RoundSpec::fill_random_states (the plaintexts those calls read),
// `--repeats` times each (default 1000), and prints the fastest call in
// ns/trace. Each call starts from fresh CMOS history, as a campaign shard
// does. Best-of-N is the kernel's cost with the least interference from
// the rest of the machine; pin the process for stable numbers:
//
//     taskset -c 2 ./build/bench_round_kernel --repeats 3000
//
// There is no timing assertion: CI runs it with a tiny repeat count as a
// smoke test of the kernels at full width.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "crypto/round_target.hpp"

#include "../examples/parse_number.hpp"

using namespace sable;

namespace {

// Traces per timed call.
constexpr std::size_t kCount = 4096;

// The fastest of `repeats` runs of `body`, in ns per trace. `setup` runs
// before each one, outside the timed span.
template <typename Setup, typename Body>
double best_ns_per_trace(std::size_t repeats, Setup&& setup, Body&& body) {
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
  return best / static_cast<double>(kCount);
}

void probe(const char* name, const RoundSpec& round, std::size_t repeats) {
  const Technology tech = Technology::generic_180nm();
  RoundTarget target(round, tech);
  std::vector<std::size_t> subkeys(round.num_sboxes());
  for (std::size_t i = 0; i < subkeys.size(); ++i) {
    const std::size_t mask = (std::size_t{1} << round.sboxes[i].in_bits) - 1;
    subkeys[i] = (0x7 + 5 * i) & mask;
  }
  const std::vector<std::uint8_t> key = round.pack_subkeys(subkeys);
  std::vector<std::uint8_t> pts(kCount * round.state_bytes());
  Rng pt_rng(0x9E0BE);
  round.fill_random_states(pt_rng, kCount, pts.data());
  std::vector<double> out(kCount * target.num_levels());
  Rng noise(0x7015E);
  const auto fresh = [&] { target.reset_state(); };
  // Builds the time-resolved rows before anything is timed.
  target.trace_batch_sampled(pts.data(), 1, key.data(), 0.0, noise,
                             out.data());

  const auto row = [&](const char* kernel, double ns) {
    std::printf("%-12s %-14s %-24s %10.2f\n", name, to_string(round.style),
                kernel, ns);
  };
  row("trace_batch", best_ns_per_trace(repeats, fresh, [&] {
        target.trace_batch(pts.data(), kCount, key.data(), 0.0, noise,
                           out.data());
      }));
  row("trace_batch noisy", best_ns_per_trace(repeats, fresh, [&] {
        target.trace_batch(pts.data(), kCount, key.data(), 1e-15, noise,
                           out.data());
      }));
  row("trace_batch_sampled", best_ns_per_trace(repeats, fresh, [&] {
        target.trace_batch_sampled(pts.data(), kCount, key.data(), 0.0, noise,
                                   out.data());
      }));
  row("fill_random_states", best_ns_per_trace(repeats, [] {}, [&] {
        round.fill_random_states(pt_rng, kCount, pts.data());
      }));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeats = 1000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      if (!parse_number("--repeats", argv[++i], &repeats)) return 2;
    } else {
      std::fprintf(stderr, "usage: %s [--repeats N]\n", argv[0]);
      return 2;
    }
  }
  if (repeats == 0) {
    std::fprintf(stderr, "--repeats must be at least 1\n");
    return 2;
  }
  std::printf("%-12s %-14s %-24s %10s\n", "round", "style", "kernel",
              "ns/trace");
  for (LogicStyle style :
       {LogicStyle::kSablEnhanced, LogicStyle::kStaticCmos}) {
    probe("PRESENT x16", present_round(16, style), repeats);
    probe("AES x16", aes_subbytes_round(16, style), repeats);
  }
  return 0;
}
