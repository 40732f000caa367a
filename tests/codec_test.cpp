// Direct oracles for the corpus sample codec (io/codec.hpp), below the
// corpus container. The delta-plane image is rebuilt by a test-local
// reader of the documented RLE token format and checked bit for bit
// against an XOR-delta computed here, so an encoder change that its own
// decoder still inverts cannot pass unnoticed. Inputs mix IEEE-754
// corner patterns (NaN payloads, ±0.0, ±inf, denormals, all-ones words)
// into random words, and every shape ends a 64-word transpose block at a
// different lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>
#include <vector>

#include "io/codec.hpp"
#include "io/serial.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

constexpr std::uint8_t kModeDeltaPlanes = 0;
constexpr std::uint8_t kModeDictionary = 1;

constexpr std::uint64_t kHostile[] = {
    0x7FF8000000000001ull,  // quiet NaN with a payload
    0x7FF0000000000001ull,  // signalling NaN
    0xFFF8DEADBEEF0000ull,  // negative NaN with a payload
    0x0000000000000000ull,  // +0.0
    0x8000000000000000ull,  // -0.0
    0x7FF0000000000000ull,  // +inf
    0xFFF0000000000000ull,  // -inf
    0x0000000000000001ull,  // smallest denormal
    0x800FFFFFFFFFFFFFull,  // largest negative denormal
    0xFFFFFFFFFFFFFFFFull,  // all ones
};
constexpr std::size_t kHostileCount = std::size(kHostile);

struct Shape {
  std::size_t count;
  std::size_t width;
};

// Random words with a corner pattern every 32 traces, per level
// (trace-major storage, as the recorder hands samples to the codec).
std::vector<double> hostile_samples(const Shape& shape) {
  Rng rng(0xC0DEC);
  std::vector<double> samples(shape.count * shape.width);
  for (std::size_t i = 0; i < shape.count; ++i) {
    for (std::size_t l = 0; l < shape.width; ++l) {
      const std::uint64_t u = i % 32 == 0
                                  ? kHostile[(i / 32 + l) % kHostileCount]
                                  : rng.next();
      samples[i * shape.width + l] = std::bit_cast<double>(u);
    }
  }
  return samples;
}

std::size_t min_distinct_per_level(const std::vector<double>& samples,
                                   const Shape& shape) {
  std::size_t fewest = shape.count;
  for (std::size_t l = 0; l < shape.width; ++l) {
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < shape.count; ++i) {
      seen.insert(std::bit_cast<std::uint64_t>(samples[i * shape.width + l]));
    }
    fewest = std::min(fewest, seen.size());
  }
  return fewest;
}

// Test-local reader of the RLE token stream in in[at..]: each token is a
// varint (len << 1) | is_literal, followed by `len` verbatim bytes
// (literal) or the one repeated byte (run). The tokens must expand to
// exactly `size` bytes and consume the whole stream.
void rle_expand(const std::vector<std::uint8_t>& in, std::size_t at,
                std::size_t size, std::vector<std::uint8_t>& out) {
  out.clear();
  while (at < in.size()) {
    std::uint64_t token = 0;
    for (unsigned shift = 0;; shift += 7) {
      ASSERT_LT(shift, 64u) << "varint longer than 64 bits";
      ASSERT_LT(at, in.size()) << "varint runs past the stream";
      const std::uint8_t b = in[at++];
      token |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
    }
    const std::uint64_t len = token >> 1;
    ASSERT_GT(len, 0u) << "zero-length token";
    ASSERT_LE(len, size - out.size()) << "token expands past the image";
    if (token & 1) {
      ASSERT_LE(len, in.size() - at) << "literal runs past the stream";
      out.insert(out.end(), in.begin() + at, in.begin() + at + len);
      at += len;
    } else {
      ASSERT_LT(at, in.size()) << "run without its byte";
      out.insert(out.end(), len, in[at++]);
    }
  }
  ASSERT_EQ(out.size(), size);
}

void expect_round_trip(const std::vector<std::uint8_t>& encoded,
                       const std::vector<double>& samples,
                       const Shape& shape) {
  ByteReader in(encoded.data(), encoded.size(), "mem");
  CodecScratch scratch;
  std::vector<double> decoded(samples.size());
  corpus_decode_samples(in, shape.count, shape.width, scratch,
                        decoded.data());
  for (std::size_t k = 0; k < samples.size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(decoded[k]),
              std::bit_cast<std::uint64_t>(samples[k]))
        << "sample " << k;
  }
}

// More than 255 distinct patterns in every level rule the dictionary
// out, so the stream must be mode 0. Its RLE payload expands to the
// plane-major image: plane v of block b is the 8 little-endian bytes at
// (v * blocks + b) * 8, and bit r of it is bit v of delta word
// b * 64 + r, where the delta words run column-major (level by level,
// trace by trace) as u ^ previous u of the level, and are zero past the
// last sample. Counts 257, 319, 320 and 321 end the last block after 1,
// 63, 64 and 1 lanes, as 1, 63, 64 and 65 would, but with room for 256
// distinct patterns; 300 × 3 spans three levels.
TEST(CodecTest, DeltaPlaneImageMatchesPerBitXorDelta) {
  const Shape shapes[] = {{257, 1}, {319, 1}, {320, 1}, {321, 1}, {300, 3}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << shape.count << " x " << shape.width);
    const std::vector<double> samples = hostile_samples(shape);
    ASSERT_GT(min_distinct_per_level(samples, shape), 255u);

    std::vector<std::uint8_t> encoded = {0xAB};  // appends after this
    CodecScratch scratch;
    const std::size_t appended = corpus_encode_samples(
        samples.data(), shape.count, shape.width, scratch, encoded);
    ASSERT_EQ(appended, encoded.size() - 1);
    encoded.erase(encoded.begin());
    ASSERT_EQ(encoded[0], kModeDeltaPlanes);

    const std::size_t m = shape.count * shape.width;
    const std::size_t blocks = (m + 63) / 64;
    std::vector<std::uint64_t> delta(blocks * 64, 0);
    std::size_t k = 0;
    for (std::size_t l = 0; l < shape.width; ++l) {
      std::uint64_t prev = 0;
      for (std::size_t i = 0; i < shape.count; ++i) {
        const std::uint64_t u =
            std::bit_cast<std::uint64_t>(samples[i * shape.width + l]);
        delta[k++] = u ^ prev;
        prev = u;
      }
    }

    std::vector<std::uint8_t> image;
    ASSERT_NO_FATAL_FAILURE(rle_expand(encoded, 1, blocks * 64 * 8, image));
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t v = 0; v < 64; ++v) {
        std::uint64_t plane;
        std::memcpy(&plane, image.data() + (v * blocks + b) * 8, 8);
        for (std::size_t r = 0; r < 64; ++r) {
          ASSERT_EQ((plane >> r) & 1u, (delta[b * 64 + r] >> v) & 1u)
              << "block " << b << " plane " << v << " row " << r;
        }
      }
    }
    expect_round_trip(encoded, samples, shape);
  }
}

// At most 255 patterns per level, each a dense word whose XOR-deltas
// cost far more than an 8-byte dictionary entry: the encoder must take
// the dictionary (mode 1) and still round-trip bit-exactly.
TEST(CodecTest, FewPatternsTakeTheDictionaryAndRoundTrip) {
  const Shape shapes[] = {{1, 1}, {63, 1}, {64, 1}, {65, 1}, {100, 3}};
  Rng rng(0xD1C7);
  const std::uint64_t pool[] = {
      0xFFFFFFFFFFFFFFFFull,                          // all ones
      0x7FF8000000000000ull | (rng.next() >> 13),     // NaN payload
      0xFFF8000000000000ull | (rng.next() >> 13),     // negative NaN
      0x800FFFFFFFFFFFFFull & rng.next(),             // denormal
      rng.next(),
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << shape.count << " x " << shape.width);
    std::vector<double> samples(shape.count * shape.width);
    for (std::size_t k = 0; k < samples.size(); ++k) {
      samples[k] = std::bit_cast<double>(
          pool[k == 0 ? 0 : rng.below(std::size(pool))]);
    }
    std::vector<std::uint8_t> encoded;
    CodecScratch scratch;
    corpus_encode_samples(samples.data(), shape.count, shape.width, scratch,
                          encoded);
    ASSERT_FALSE(encoded.empty());
    EXPECT_EQ(encoded[0], kModeDictionary);
    expect_round_trip(encoded, samples, shape);
  }
}

}  // namespace
}  // namespace sable
