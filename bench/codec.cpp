// Corpus codec probe: the in-process cost of encoding and decoding one
// recorded shard's streams, per trace, timed with std::chrono alone.
//
// The shard is 8192 traces (the engine's default shard size) of a static
// CMOS PRESENT x16 round, the record_corpus workload's campaign:
//   - the packed plaintext stream (8 state bytes per trace),
//   - the sample stream with campaign_cli's default measurement noise
//     (the delta-plane mode wins; every sample is distinct, so the
//     dictionary attempt gives up at trace 256),
//   - the noiseless sample stream (about 400 distinct energies: the
//     dictionary attempt gives up near trace 1,000),
//   - the noiseless sample stream of the same round in SABL-enhanced,
//     whose energy is one constant (the dictionary runs in full and wins).
// Each encode and decode runs `--repeats` times (default 1000) and the
// fastest call is printed in ns/trace, with the stream's size in bytes
// per trace. Every decode is checked against the shard once, outside the
// timed span. Pin the process for stable numbers:
//
//     taskset -c 2 ./build/bench_codec --repeats 3000
//
// There is no timing assertion: CI runs it with a tiny repeat count as a
// smoke test of the codec on a full-size shard.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "crypto/round_target.hpp"
#include "io/codec.hpp"
#include "io/serial.hpp"

#include "../examples/parse_number.hpp"

using namespace sable;

namespace {

// Traces per shard.
constexpr std::size_t kCount = 8192;
// campaign_cli's default --noise.
constexpr double kNoise = 2e-16;

// The fastest of `repeats` runs of `body`, in ns per trace.
template <typename Body>
double best_ns_per_trace(std::size_t repeats, Body&& body) {
  using Clock = std::chrono::steady_clock;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    body();
    const std::chrono::duration<double, std::nano> took =
        Clock::now() - start;
    best = std::min(best, took.count());
  }
  return best / static_cast<double>(kCount);
}

void row(const char* stream, const char* op, double ns,
         std::size_t bytes) {
  std::printf("%-22s %-8s %10.2f %10.2f\n", stream, op, ns,
              static_cast<double>(bytes) / static_cast<double>(kCount));
}

void fail(const char* stream) {
  std::fprintf(stderr, "%s: decode does not reproduce the shard\n", stream);
  std::exit(1);
}

void probe_plaintexts(const std::vector<std::uint8_t>& pts,
                      std::size_t stride, std::size_t repeats) {
  CodecScratch scratch;
  std::vector<std::uint8_t> encoded;
  const double enc = best_ns_per_trace(repeats, [&] {
    encoded.clear();
    corpus_encode_plaintexts(pts.data(), kCount, stride, scratch, encoded);
  });
  std::vector<std::uint8_t> decoded(pts.size());
  const auto decode = [&] {
    ByteReader in(encoded.data(), encoded.size(), "probe");
    corpus_decode_plaintexts(in, kCount, stride, scratch, decoded.data());
  };
  decode();
  if (decoded != pts) fail("plaintexts");
  const double dec = best_ns_per_trace(repeats, decode);
  row("plaintexts", "encode", enc, encoded.size());
  row("plaintexts", "decode", dec, encoded.size());
}

void probe_samples(const char* name, const std::vector<double>& samples,
                   std::size_t repeats) {
  CodecScratch scratch;
  std::vector<std::uint8_t> encoded;
  const double enc = best_ns_per_trace(repeats, [&] {
    encoded.clear();
    corpus_encode_samples(samples.data(), kCount, 1, scratch, encoded);
  });
  std::vector<double> decoded(samples.size());
  const auto decode = [&] {
    ByteReader in(encoded.data(), encoded.size(), "probe");
    corpus_decode_samples(in, kCount, 1, scratch, decoded.data());
  };
  decode();
  if (std::memcmp(decoded.data(), samples.data(),
                  samples.size() * sizeof(double)) != 0) {
    fail(name);
  }
  const double dec = best_ns_per_trace(repeats, decode);
  row(name, "encode", enc, encoded.size());
  row(name, "decode", dec, encoded.size());
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

  const RoundSpec round = present_round(16, LogicStyle::kStaticCmos);
  RoundTarget target(round, Technology::generic_180nm());
  std::vector<std::size_t> subkeys(round.num_sboxes());
  for (std::size_t i = 0; i < subkeys.size(); ++i) {
    const std::size_t mask = (std::size_t{1} << round.sboxes[i].in_bits) - 1;
    subkeys[i] = (0x7 + 5 * i) & mask;
  }
  const std::vector<std::uint8_t> key = round.pack_subkeys(subkeys);
  const std::size_t stride = round.state_bytes();
  std::vector<std::uint8_t> pts(kCount * stride);
  Rng pt_rng(0xC0DEC);
  round.fill_random_states(pt_rng, kCount, pts.data());
  std::vector<double> noisy(kCount);
  std::vector<double> noiseless(kCount);
  Rng noise(0x7015E);
  target.trace_batch(pts.data(), kCount, key.data(), kNoise, noise,
                     noisy.data());
  target.reset_state();
  target.trace_batch(pts.data(), kCount, key.data(), 0.0, noise,
                     noiseless.data());

  std::vector<double> constant(kCount);
  RoundTarget(present_round(16, LogicStyle::kSablEnhanced),
              Technology::generic_180nm())
      .trace_batch(pts.data(), kCount, key.data(), 0.0, noise,
                   constant.data());

  std::printf("%-22s %-8s %10s %10s\n", "stream", "op", "ns/trace",
              "B/trace");
  probe_plaintexts(pts, stride, repeats);
  probe_samples("samples noisy", noisy, repeats);
  probe_samples("samples noiseless", noiseless, repeats);
  probe_samples("samples constant", constant, repeats);
  return 0;
}
