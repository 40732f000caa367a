// Direct oracles for the corpus sample codec (io/codec.hpp), below the
// corpus container. The delta-plane image is rebuilt by a test-local
// reader of the documented RLE token format and checked bit for bit
// against an XOR-delta computed here, so an encoder change that its own
// decoder still inverts cannot pass unnoticed. Inputs mix IEEE-754
// corner patterns (NaN payloads, ±0.0, ±inf, denormals, all-ones words)
// into random words, and every shape ends a 64-word transpose block at a
// different lane. A test-local copy of the byte-at-a-time encoder pins
// every stream byte of the word-at-a-time one (CodecOracleTest).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <set>
#include <unordered_map>
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

// ---- byte-identity oracle of the encoder ----------------------------------
//
// A test-local copy of the byte-at-a-time encoder the word-at-a-time one
// replaced: the same RLE tokens, column reorder, delta-plane image (with
// a per-bit transpose instead of the library's) and dictionary attempt.
// The library encoder must emit exactly these bytes on every input, and
// decode them back bit for bit.
namespace ref {

constexpr std::size_t kMinRun = 4;
constexpr std::size_t kMaxDictValues = 255;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void rle_encode(const std::uint8_t* data, std::size_t n,
                std::vector<std::uint8_t>& out) {
  std::size_t lit_start = 0;
  std::size_t i = 0;
  const auto flush_literal = [&](std::size_t end) {
    if (end == lit_start) return;
    put_varint(out, (static_cast<std::uint64_t>(end - lit_start) << 1) | 1);
    out.insert(out.end(), data + lit_start, data + end);
  };
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && data[j] == data[i]) ++j;
    if (j - i >= kMinRun) {
      flush_literal(i);
      put_varint(out, static_cast<std::uint64_t>(j - i) << 1);
      out.push_back(data[i]);
      lit_start = j;
    }
    i = j;
  }
  flush_literal(n);
}

std::vector<std::uint8_t> encode_plaintexts(const std::uint8_t* pts,
                                            std::size_t count,
                                            std::size_t stride) {
  std::vector<std::uint8_t> planes(count * stride);
  for (std::size_t k = 0; k < stride; ++k) {
    for (std::size_t i = 0; i < count; ++i) {
      planes[k * count + i] = pts[i * stride + k];
    }
  }
  std::vector<std::uint8_t> out;
  rle_encode(planes.data(), planes.size(), out);
  return out;
}

std::vector<std::uint8_t> encode_delta_planes(const double* samples,
                                              std::size_t count,
                                              std::size_t width) {
  const std::size_t m = count * width;
  const std::size_t blocks = (m + 63) / 64;
  std::vector<std::uint64_t> words(blocks * 64, 0);
  std::size_t k = 0;
  for (std::size_t l = 0; l < width; ++l) {
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t u =
          std::bit_cast<std::uint64_t>(samples[i * width + l]);
      words[k++] = u ^ prev;
      prev = u;
    }
  }
  // Plane v of block b holds bit v of the block's 64 words, row r at
  // bit r, stored plane-major.
  std::vector<std::uint8_t> planes(blocks * 64 * 8);
  for (std::size_t v = 0; v < 64; ++v) {
    for (std::size_t b = 0; b < blocks; ++b) {
      std::uint64_t plane = 0;
      for (std::size_t r = 0; r < 64; ++r) {
        plane |= ((words[b * 64 + r] >> v) & 1u) << r;
      }
      std::memcpy(planes.data() + (v * blocks + b) * 8, &plane, 8);
    }
  }
  std::vector<std::uint8_t> out;
  rle_encode(planes.data(), planes.size(), out);
  return out;
}

bool encode_dictionary(const double* samples, std::size_t count,
                       std::size_t width, std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> planes(count * width);
  std::unordered_map<std::uint64_t, std::uint8_t> dict;
  for (std::size_t l = 0; l < width; ++l) {
    dict.clear();
    std::uint8_t* col = planes.data() + l * count;
    const std::size_t dict_start = out.size();
    put_varint(out, 0);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t u =
          std::bit_cast<std::uint64_t>(samples[i * width + l]);
      const auto [it, inserted] =
          dict.emplace(u, static_cast<std::uint8_t>(distinct));
      if (inserted) {
        if (distinct == kMaxDictValues) return false;
        ++distinct;
        const std::size_t at = out.size();
        out.resize(at + sizeof(u));
        std::memcpy(out.data() + at, &u, sizeof(u));
      }
      col[i] = it->second;
    }
    if (distinct < 128) {
      out[dict_start] = static_cast<std::uint8_t>(distinct);
    } else {
      out[dict_start] = static_cast<std::uint8_t>(distinct) | 0x80;
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(dict_start) + 1,
                 static_cast<std::uint8_t>(distinct >> 7));
    }
  }
  rle_encode(planes.data(), planes.size(), out);
  return true;
}

std::vector<std::uint8_t> encode_samples(const double* samples,
                                         std::size_t count,
                                         std::size_t width) {
  std::vector<std::uint8_t> dict;
  const bool dict_ok = encode_dictionary(samples, count, width, dict);
  const std::vector<std::uint8_t> planes =
      encode_delta_planes(samples, count, width);
  const bool use_dict = dict_ok && dict.size() < planes.size();
  std::vector<std::uint8_t> out = use_dict ? dict : planes;
  out.insert(out.begin(), use_dict ? kModeDictionary : kModeDeltaPlanes);
  return out;
}

}  // namespace ref

// Encodes `pts` through the library after a prefix it must leave alone,
// requires the reference's bytes, and decodes them back.
void expect_plaintexts_match(const std::vector<std::uint8_t>& pts,
                             std::size_t count, std::size_t stride,
                             CodecScratch& scratch) {
  const std::vector<std::uint8_t> want =
      ref::encode_plaintexts(pts.data(), count, stride);
  std::vector<std::uint8_t> got = {0x5A, 0xA5};
  const std::size_t appended =
      corpus_encode_plaintexts(pts.data(), count, stride, scratch, got);
  ASSERT_EQ(appended, got.size() - 2);
  ASSERT_EQ(got[0], 0x5A);
  ASSERT_EQ(got[1], 0xA5);
  got.erase(got.begin(), got.begin() + 2);
  ASSERT_EQ(got, want);

  ByteReader in(got.data(), got.size(), "mem");
  std::vector<std::uint8_t> decoded(count * stride + 1, 0xEE);
  corpus_decode_plaintexts(in, count, stride, scratch, decoded.data());
  ASSERT_EQ(decoded.back(), 0xEE) << "decode wrote past its output";
  decoded.pop_back();
  ASSERT_EQ(decoded, pts);
}

void expect_samples_match(const std::vector<double>& samples,
                          std::size_t count, std::size_t width,
                          CodecScratch& scratch) {
  const std::vector<std::uint8_t> want =
      ref::encode_samples(samples.data(), count, width);
  std::vector<std::uint8_t> got = {0x5A};
  const std::size_t appended = corpus_encode_samples(
      samples.data(), count, width, scratch, got);
  ASSERT_EQ(appended, got.size() - 1);
  ASSERT_EQ(got[0], 0x5A);
  got.erase(got.begin());
  ASSERT_EQ(got, want);
  expect_round_trip(got, samples, Shape{count, width});
}

// A byte that differs from both neighbours, so runs come only from what a
// case plants.
std::uint8_t distinct_byte(std::size_t i) {
  return static_cast<std::uint8_t>(0x40 + i % 3);
}

// A run of every length 1..9 around kMinRun planted at every position of
// every buffer of 0..40 otherwise-distinct bytes: runs at the start, at
// the end and across every 8-byte word boundary. Stride 1 makes the
// plaintext stream the bare RLE of the buffer.
TEST(CodecOracleTest, EveryRunAtEveryPositionMatchesTheReference) {
  CodecScratch scratch;
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<std::uint8_t> base(n);
    for (std::size_t i = 0; i < n; ++i) base[i] = distinct_byte(i);
    ASSERT_NO_FATAL_FAILURE(expect_plaintexts_match(base, n, 1, scratch));
    for (std::size_t len = 1; len <= 9 && len <= n; ++len) {
      for (std::size_t at = 0; at + len <= n; ++at) {
        SCOPED_TRACE(::testing::Message()
                     << "n " << n << " run " << len << " at " << at);
        std::vector<std::uint8_t> data = base;
        std::fill(data.begin() + at, data.begin() + at + len, 0x17);
        ASSERT_NO_FATAL_FAILURE(expect_plaintexts_match(data, n, 1, scratch));
        // A second run right behind the first, of another length.
        const std::size_t second = at + len;
        for (std::size_t len2 = 1; len2 <= 9 && second + len2 <= n;
             len2 += 2) {
          std::fill(data.begin() + second, data.begin() + second + len2,
                    0x71);
          ASSERT_NO_FATAL_FAILURE(
              expect_plaintexts_match(data, n, 1, scratch));
          std::copy(base.begin() + second, base.begin() + second + len2,
                    data.begin() + second);
        }
      }
    }
  }
}

// Random sequences of runs of 1..9 equal bytes (neighbouring runs may
// share a byte and merge), all-equal and all-distinct buffers, at every
// size 0..40 and at ragged sizes up to 5,000.
TEST(CodecOracleTest, RunStructuredBuffersMatchTheReference) {
  CodecScratch scratch;
  Rng rng(0x5EED0);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  for (std::size_t n : {63, 64, 65, 127, 511, 1000, 2049, 4095, 4999, 5003}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    std::vector<std::uint8_t> data(n, 0xC3);
    ASSERT_NO_FATAL_FAILURE(expect_plaintexts_match(data, n, 1, scratch));
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    ASSERT_NO_FATAL_FAILURE(expect_plaintexts_match(data, n, 1, scratch));
    for (int trial = 0; trial < 8; ++trial) {
      // Few byte values make neighbouring runs merge often.
      const std::uint64_t values = trial % 2 == 0 ? 3 : 256;
      for (std::size_t i = 0; i < n;) {
        const std::size_t len = std::min<std::size_t>(1 + rng.below(9), n - i);
        std::fill(data.begin() + i, data.begin() + i + len,
                  static_cast<std::uint8_t>(rng.below(values)));
        i += len;
      }
      ASSERT_NO_FATAL_FAILURE(expect_plaintexts_match(data, n, 1, scratch));
    }
  }
}

// Plaintext strides 1..9 at trace counts around the 8-trace groups:
// constant columns, random columns and run-structured columns side by
// side, so the reorder's column boundaries fall inside and outside runs.
TEST(CodecOracleTest, PlaintextStridesMatchTheReference) {
  CodecScratch scratch;
  Rng rng(0x57D1DE);
  for (std::size_t stride = 1; stride <= 9; ++stride) {
    for (std::size_t count : {0, 1, 2, 7, 8, 9, 15, 16, 17, 40, 63, 64, 65,
                              333, 555}) {
      SCOPED_TRACE(::testing::Message()
                   << "stride " << stride << " count " << count);
      std::vector<std::uint8_t> pts(count * stride);
      for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t k = 0; k < stride; ++k) {
          std::uint8_t b;
          switch (k % 3) {
            case 0: b = 0x00; break;  // constant pad byte
            case 1: b = static_cast<std::uint8_t>(rng.next()); break;
            default: b = static_cast<std::uint8_t>(i / (1 + k) % 4); break;
          }
          pts[i * stride + k] = b;
        }
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_plaintexts_match(pts, count, stride, scratch));
      for (std::uint8_t& b : pts) b = static_cast<std::uint8_t>(rng.below(3));
      ASSERT_NO_FATAL_FAILURE(
          expect_plaintexts_match(pts, count, stride, scratch));
    }
  }
}

// Widths 1..4 of noisy words (mode 0), of near-equal energies whose high
// planes are constant (mode 0 with long runs), and of a few patterns per
// level (the dictionary), at counts that end transpose blocks at every
// kind of lane.
TEST(CodecOracleTest, SampleWidthsMatchTheReference) {
  CodecScratch scratch;
  Rng rng(0x5A3B1E);
  for (std::size_t width = 1; width <= 4; ++width) {
    for (std::size_t count : {0, 1, 2, 5, 31, 63, 64, 65, 127, 128, 129, 300,
                              1000, 1250}) {
      SCOPED_TRACE(::testing::Message()
                   << "width " << width << " count " << count);
      const Shape shape{count, width};
      std::vector<double> samples = hostile_samples(shape);
      ASSERT_NO_FATAL_FAILURE(
          expect_samples_match(samples, count, width, scratch));
      for (std::size_t k = 0; k < samples.size(); ++k) {
        samples[k] = 1.25e-13 + 1e-16 * static_cast<double>(rng.below(1000));
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_samples_match(samples, count, width, scratch));
      for (std::size_t k = 0; k < samples.size(); ++k) {
        samples[k] = 1e-13 * static_cast<double>(1 + rng.below(12));
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_samples_match(samples, count, width, scratch));
    }
  }
}

// Dictionaries of exactly 254, 255 and 256 distinct patterns per level,
// with -0.0, 0.0 and NaN patterns among them: 256 in any level rules the
// dictionary out. Repeats make the dictionary win where it may, and the
// level that reaches 256 is placed first and last.
TEST(CodecOracleTest, DictionaryEdgesMatchTheReference) {
  CodecScratch scratch;
  std::size_t modes[2] = {0, 0};  // streams per mode the reference chose
  const auto check = [&](const std::vector<double>& samples,
                         std::size_t count, std::size_t width) {
    ++modes[ref::encode_samples(samples.data(), count, width)[0]];
    expect_samples_match(samples, count, width, scratch);
  };
  Rng rng(0xD1C7ED6E);
  std::vector<std::uint64_t> pool = {
      0x0000000000000000ull, 0x8000000000000000ull, 0x7FF8000000000000ull,
      0x7FF8000000000001ull, 0xFFF8DEADBEEF0000ull, 0x7FF0000000000001ull};
  while (pool.size() < 256) pool.push_back(rng.next());
  for (std::size_t width = 1; width <= 3; ++width) {
    for (std::size_t distinct : {254, 255, 256}) {
      for (std::size_t wide_level = 0; wide_level < width; ++wide_level) {
        for (std::size_t count :
             {distinct, 3 * distinct + 5, std::size_t{4096}}) {
          SCOPED_TRACE(::testing::Message()
                       << "width " << width << " distinct " << distinct
                       << " level " << wide_level << " count " << count);
          std::vector<double> samples(count * width);
          for (std::size_t i = 0; i < count; ++i) {
            for (std::size_t l = 0; l < width; ++l) {
              // Every pattern appears once, in a shuffled-ish order, then
              // repeats; the other levels use a few patterns.
              const std::size_t pick =
                  l == wide_level
                      ? (i < distinct ? (i * 97) % distinct
                                      : rng.below(distinct))
                      : rng.below(3);
              samples[i * width + l] = std::bit_cast<double>(pool[pick]);
            }
          }
          ASSERT_NO_FATAL_FAILURE(check(samples, count, width));
          // Runs of one pattern: a long-run index stream.
          for (std::size_t i = 0; i < count; ++i) {
            samples[i * width + wide_level] = std::bit_cast<double>(
                pool[i < distinct ? i : distinct - 1 - i / 64 % 8]);
          }
          ASSERT_NO_FATAL_FAILURE(check(samples, count, width));
        }
      }
    }
  }
  EXPECT_GT(modes[kModeDeltaPlanes], 0u);
  EXPECT_GT(modes[kModeDictionary], 0u);
}

}  // namespace
}  // namespace sable
