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
#include <cstdio>
#include <vector>

#include "crypto/round_target.hpp"
#include "probe.hpp"

using namespace sable;

namespace {

// Traces per timed call.
constexpr std::size_t kCount = 4096;

void probe_round(const char* name, const RoundSpec& round,
                 std::size_t repeats) {
  const Technology tech = Technology::generic_180nm();
  RoundTarget target(round, tech);
  const std::vector<std::size_t> subkeys = probe::subkeys(round);
  const std::vector<std::uint8_t> key = round.pack_subkeys(subkeys);
  std::vector<std::uint8_t> pts(kCount * round.state_bytes());
  Rng pt_rng(0x9E0BE);
  round.fill_random_states(pt_rng, kCount, pts.data());
  std::vector<double> out(kCount * target.num_levels());
  Rng noise(0x7015E);
  // Each kernel call starts from fresh CMOS history.
  const auto fresh = [&](const auto& body) {
    return probe::best_ns_per_trace(
        repeats, kCount, [&] { target.reset_state(); }, body);
  };
  // Builds the time-resolved rows before anything is timed.
  target.trace_batch_sampled(pts.data(), 1, key.data(), 0.0, noise,
                             out.data());

  const auto row = [&](const char* kernel, double ns) {
    std::printf("%-12s %-14s %-24s %10.2f\n", name, to_string(round.style),
                kernel, ns);
  };
  row("trace_batch", fresh([&] {
        target.trace_batch(pts.data(), kCount, key.data(), 0.0, noise,
                           out.data());
      }));
  row("trace_batch noisy", fresh([&] {
        target.trace_batch(pts.data(), kCount, key.data(), 1e-15, noise,
                           out.data());
      }));
  row("trace_batch_sampled", fresh([&] {
        target.trace_batch_sampled(pts.data(), kCount, key.data(), 0.0, noise,
                                   out.data());
      }));
  row("fill_random_states", probe::best_ns_per_trace(repeats, kCount, [&] {
        round.fill_random_states(pt_rng, kCount, pts.data());
      }));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeats = 0;
  if (!probe::parse_repeats(argc, argv, &repeats)) return 2;
  std::printf("%-12s %-14s %-24s %10s\n", "round", "style", "kernel",
              "ns/trace");
  for (LogicStyle style :
       {LogicStyle::kSablEnhanced, LogicStyle::kStaticCmos}) {
    probe_round("PRESENT x16", present_round(16, style), repeats);
    probe_round("AES x16", aes_subbytes_round(16, style), repeats);
  }
  return 0;
}
