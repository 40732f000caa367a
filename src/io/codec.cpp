#include "io/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "io/serial.hpp"
#include "switchsim/cycle_sim.hpp"

namespace sable {

namespace {

static_assert(std::endian::native == std::endian::little,
              "streams are scanned and transposed as little-endian words");

// Runs shorter than this are cheaper as part of a literal: a run token
// costs 2 bytes (varint + byte) plus up to 2 bytes of literal framing
// around it.
constexpr std::size_t kMinRun = 4;

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

// Grows `buf` (never shrinks it) to at least `n` bytes and returns its
// data: steady-state calls reuse the bytes without zero-filling them.
std::uint8_t* room(std::vector<std::uint8_t>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

std::uint64_t get_varint(ByteReader& in) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    const std::uint8_t b = in.u8();
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw BadFileError(in.path(), "corpus chunk varint is longer than 64 bits");
}

// Byte-level RLE over `data`: alternating literal and run tokens, each a
// varint (len << 1) | is_literal. The encoder never emits a zero-length
// token, and runs only at kMinRun or more equal bytes.
//
// Worst case, rle_bound(n) bytes: a run of R >= 4 bytes costs
// 1 + varint(2R) <= R - 2 bytes, and a literal of L bytes L + varint(2L+1).
// Literals and runs alternate, so every literal but the last can be
// paired with the run that follows it: a pair grows the output only if
// its literal's varint is longer than 2 bytes (L >= 8192), and then by at
// most 8 bytes; the last literal adds at most a 10-byte varint.
constexpr std::size_t rle_bound(std::size_t n) {
  return n + n / 1024 + 10;
}

// 0x80 in every byte of `x` that is zero, exactly: no borrow crosses
// bytes, so a set byte never marks its neighbour.
std::uint64_t zero_bytes(std::uint64_t x) {
  constexpr std::uint64_t k7F = 0x7F7F7F7F7F7F7F7Full;
  return ~(((x & k7F) + k7F) | x) & ~k7F;
}

// The first p >= from that starts kMinRun equal bytes, or n. One step
// reads bytes p..p+8: byte j of load64(p) ^ load64(p + 1) is zero where
// data[p + j] == data[p + j + 1], so three equal neighbour pairs in a row
// (the mask ANDed with itself shifted by 8 and 16) mark a run start, at
// the 6 positions p..p+5 at once.
static_assert(kMinRun == 4, "a run start is three equal neighbour pairs");
std::size_t find_run(const std::uint8_t* data, std::size_t from,
                     std::size_t n) {
  std::size_t p = from;
  for (; p + 9 <= n; p += 6) {
    const std::uint64_t eq =
        zero_bytes(load64(data + p) ^ load64(data + p + 1));
    const std::uint64_t starts = eq & (eq >> 8) & (eq >> 16);
    if (starts != 0) return p + std::countr_zero(starts) / 8;
  }
  for (; p + kMinRun <= n; ++p) {
    if (data[p] == data[p + 1] && data[p] == data[p + 2] &&
        data[p] == data[p + 3]) {
      return p;
    }
  }
  return n;
}

// The end of the run of data[p] that starts at p (kMinRun bytes long at
// least), eight bytes per step.
std::size_t run_end(const std::uint8_t* data, std::size_t p, std::size_t n) {
  const std::uint64_t pattern = data[p] * 0x0101010101010101ull;
  std::size_t q = p + kMinRun;
  for (; q + 8 <= n; q += 8) {
    const std::uint64_t diff = load64(data + q) ^ pattern;
    if (diff != 0) return q + std::countr_zero(diff) / 8;
  }
  while (q < n && data[q] == data[p]) ++q;
  return q;
}

std::uint8_t* put_literal(std::uint8_t* out, const std::uint8_t* data,
                          std::size_t len) {
  if (len == 0) return out;
  out = put_varint(out, (static_cast<std::uint64_t>(len) << 1) | 1);
  std::memcpy(out, data, len);
  return out + len;
}

// Writes the tokens of data[0, n) to `out`, which must hold rle_bound(n)
// bytes, and returns the end of what it wrote. Each run is a maximal
// stretch of equal bytes: the literal before it ends where the previous
// run did, and a run is only searched for from there.
std::uint8_t* rle_encode(const std::uint8_t* data, std::size_t n,
                         std::uint8_t* out) {
  std::size_t lit = 0;
  for (std::size_t p = find_run(data, 0, n); p < n;
       p = find_run(data, lit, n)) {
    const std::size_t end = run_end(data, p, n);
    out = put_literal(out, data + lit, p - lit);
    out = put_varint(out, static_cast<std::uint64_t>(end - p) << 1);
    *out++ = data[p];
    lit = end;
  }
  return put_literal(out, data + lit, n - lit);
}

// Decodes exactly `n` bytes into `out` and requires the reader to be
// fully consumed — the caller hands a reader spanning exactly the stored
// stream, so both a short and an over-long token stream are corruption.
void rle_decode(ByteReader& in, std::uint8_t* out, std::size_t n) {
  std::size_t o = 0;
  while (o < n) {
    const std::uint64_t token = get_varint(in);
    const std::uint64_t len = token >> 1;
    if (len == 0 || len > n - o) {
      throw BadFileError(in.path(),
                         "corpus chunk RLE token overflows its stream");
    }
    if (token & 1) {
      in.bytes(out + o, static_cast<std::size_t>(len));
    } else {
      std::memset(out + o, in.u8(), static_cast<std::size_t>(len));
    }
    o += static_cast<std::size_t>(len);
  }
  if (in.remaining() != 0) {
    throw BadFileError(in.path(),
                       "corpus chunk carries bytes past its RLE stream");
  }
}

// Up to 8 bytes as one little-endian word, zero above `len`.
std::uint64_t load_partial(const std::uint8_t* p, std::size_t len) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, len);
  return v;
}

// dst[c * dst_pitch + r] = src[r * src_pitch + c] for every r < rows and
// c < cols: the byte-column-major reorder (rows = traces, cols = state
// bytes) and its inverse. One 8×8 tile per byte transpose, whole tiles
// in eight-byte loads and stores.
void transpose_bytes(const std::uint8_t* src, std::size_t src_pitch,
                     std::uint8_t* dst, std::size_t dst_pitch,
                     std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; r += 8) {
    const std::size_t h = std::min<std::size_t>(8, rows - r);
    for (std::size_t c = 0; c < cols; c += 8) {
      const std::size_t w = std::min<std::size_t>(8, cols - c);
      const std::uint8_t* in = src + r * src_pitch + c;
      std::uint8_t* out = dst + c * dst_pitch + r;
      std::uint64_t t[8] = {};
      if (h == 8 && w == 8) {
        for (std::size_t j = 0; j < 8; ++j) t[j] = load64(in + j * src_pitch);
        transpose_8_rows<8>(t);
        for (std::size_t j = 0; j < 8; ++j) store64(out + j * dst_pitch, t[j]);
      } else {
        for (std::size_t j = 0; j < h; ++j) {
          t[j] = load_partial(in + j * src_pitch, w);
        }
        transpose_8_rows<8>(t);
        for (std::size_t j = 0; j < w; ++j) {
          std::memcpy(out + j * dst_pitch, &t[j], h);
        }
      }
    }
  }
}

}  // namespace

std::size_t corpus_encode_plaintexts(const std::uint8_t* pts,
                                     std::size_t count, std::size_t stride,
                                     CodecScratch& scratch,
                                     std::vector<std::uint8_t>& out) {
  // Byte-column-major reorder: byte k of every trace lands contiguously,
  // so constant pad/state bytes become shard-long runs.
  const std::size_t n = count * stride;
  std::uint8_t* cols = room(scratch.planes, n);
  transpose_bytes(pts, stride, cols, count, count, stride);
  std::uint8_t* stream = room(scratch.mode_a, rle_bound(n));
  std::uint8_t* end = rle_encode(cols, n, stream);
  out.insert(out.end(), stream, end);
  return static_cast<std::size_t>(end - stream);
}

namespace {

constexpr std::uint8_t kSampleModeDeltaPlanes = 0;
constexpr std::uint8_t kSampleModeDictionary = 1;
constexpr std::size_t kMaxDictValues = 255;  // indices must fit a byte

// Walks the delta words of a count × width sample matrix in their
// column-major order k = level * count + i, one 64-word block at a time:
// per level, each trace's bit pattern XOR the previous trace's, and zero
// past the last sample. `prev` carries a level's last pattern across
// blocks.
class DeltaWalk {
 public:
  DeltaWalk(std::size_t count, std::size_t width)
      : count_(count), m_(count * width), width_(width) {}

  // The next block's 64 delta words.
  void load(const double* samples, std::uint64_t a[64]) {
    if (i_ + 64 <= count_) {  // the whole block lies in one level
      const double* src = samples + i_ * width_ + level_;
      for (std::size_t r = 0; r < 64; ++r) {
        const std::uint64_t u = std::bit_cast<std::uint64_t>(src[r * width_]);
        a[r] = u ^ prev_;
        prev_ = u;
      }
      advance(64);
      return;
    }
    for (std::size_t r = 0; r < 64; ++r) {
      if (k_ == m_) {
        a[r] = 0;
        continue;
      }
      const std::uint64_t u =
          std::bit_cast<std::uint64_t>(samples[i_ * width_ + level_]);
      a[r] = u ^ prev_;
      prev_ = u;
      advance(1);
    }
  }

  // The inverse: XORs the next block's delta words onto their levels'
  // running patterns and stores them. Words past the last sample are
  // ignored.
  void store(const std::uint64_t a[64], double* samples) {
    if (i_ + 64 <= count_) {
      double* dst = samples + i_ * width_ + level_;
      for (std::size_t r = 0; r < 64; ++r) {
        prev_ ^= a[r];
        dst[r * width_] = std::bit_cast<double>(prev_);
      }
      advance(64);
      return;
    }
    for (std::size_t r = 0; r < 64 && k_ < m_; ++r) {
      prev_ ^= a[r];
      samples[i_ * width_ + level_] = std::bit_cast<double>(prev_);
      advance(1);
    }
  }

 private:
  void advance(std::size_t words) {
    k_ += words;
    i_ += words;
    if (i_ == count_) {
      i_ = 0;
      ++level_;
      prev_ = 0;
    }
  }

  const std::size_t count_;
  const std::size_t m_;
  const std::size_t width_;
  std::size_t k_ = 0;
  std::size_t level_ = 0;
  std::size_t i_ = 0;  // trace of word k_
  std::uint64_t prev_ = 0;
};

// Blocks per tile of the plane image: a tile's 8 words of one plane are
// one 64-byte line of the image.
constexpr std::size_t kTileBlocks = 8;

// The delta-plane image of `samples`, plane v of block b at
// (v * blocks + b) * 8: each tile's delta words are loaded straight into
// the 64×64 transpose, and its planes stored straight to their places.
void delta_plane_image(const double* samples, std::size_t count,
                       std::size_t width, std::uint8_t* planes) {
  const std::size_t blocks = (count * width + 63) / 64;
  DeltaWalk walk(count, width);
  std::uint64_t tile[kTileBlocks][64];
  for (std::size_t b = 0; b < blocks; b += kTileBlocks) {
    const std::size_t n = std::min(kTileBlocks, blocks - b);
    for (std::size_t j = 0; j < n; ++j) walk.load(samples, tile[j]);
    bit_transpose_blocks(tile[0], n);
    for (std::size_t v = 0; v < 64; ++v) {
      std::uint8_t* dst = planes + (v * blocks + b) * 8;
      for (std::size_t j = 0; j < n; ++j) store64(dst + 8 * j, tile[j][v]);
    }
  }
}

// The inverse of delta_plane_image: each tile's planes are gathered
// straight into the transpose, and its delta words undone into samples.
void samples_from_delta_planes(const std::uint8_t* planes, std::size_t count,
                               std::size_t width, double* samples) {
  const std::size_t blocks = (count * width + 63) / 64;
  DeltaWalk walk(count, width);
  std::uint64_t tile[kTileBlocks][64];
  for (std::size_t b = 0; b < blocks; b += kTileBlocks) {
    const std::size_t n = std::min(kTileBlocks, blocks - b);
    for (std::size_t v = 0; v < 64; ++v) {
      const std::uint8_t* src = planes + (v * blocks + b) * 8;
      for (std::size_t j = 0; j < n; ++j) tile[j][v] = load64(src + 8 * j);
    }
    bit_transpose_blocks(tile[0], n);
    for (std::size_t j = 0; j < n; ++j) walk.store(tile[j], samples);
  }
}

// Writes the mode-0 stream of `samples` to `out`, grown to the stream's
// worst case, and returns its end.
std::uint8_t* encode_delta_planes(const double* samples, std::size_t count,
                                  std::size_t width, CodecScratch& scratch,
                                  std::vector<std::uint8_t>& out) {
  const std::size_t bytes = (count * width + 63) / 64 * 64 * 8;
  std::uint8_t* planes = room(scratch.planes, bytes);
  delta_plane_image(samples, count, width, planes);
  return rle_encode(planes, bytes, room(out, rle_bound(bytes)));
}

// One level's dictionary: an open-addressed table of the level's
// distinct bit patterns, at most half full, so a lookup probes a slot or
// two. tag[s] is slot s's dictionary index + 1, or 0 when the slot is
// empty.
struct LevelDictionary {
  static constexpr unsigned kSlotBits = 9;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static_assert(kSlots >= 2 * kMaxDictValues);

  std::uint64_t key[kSlots];
  std::uint8_t tag[kSlots];
  std::uint64_t values[kMaxDictValues];  // in first-appearance order
  std::size_t size;

  void clear() {
    std::memset(tag, 0, sizeof(tag));
    size = 0;
  }

  // The index of `u`, added if new; -1 once a (kMaxDictValues + 1)-th
  // distinct pattern appears.
  int index(std::uint64_t u) {
    std::size_t s = (u * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits);
    for (;; s = (s + 1) & (kSlots - 1)) {
      if (tag[s] == 0) break;
      if (key[s] == u) return tag[s] - 1;
    }
    if (size == kMaxDictValues) return -1;
    key[s] = u;
    values[size] = u;
    tag[s] = static_cast<std::uint8_t>(++size);
    return static_cast<int>(size - 1);
  }
};

// Per-level dictionary attempt: nullptr (and `out` meaningless) as soon
// as one level exceeds kMaxDictValues distinct bit patterns, else the
// end of the mode-1 stream written to `out`. Comparison is on bit
// patterns, not double values, so -0.0/0.0 and NaNs round-trip exactly
// like every other sample.
std::uint8_t* encode_dictionary(const double* samples, std::size_t count,
                                std::size_t width, CodecScratch& scratch,
                                std::vector<std::uint8_t>& out) {
  const std::size_t m = count * width;
  std::uint8_t* index = room(scratch.planes, m);
  // Per level a varint count (at most 2 bytes) and at most 255 values.
  std::uint8_t* o =
      room(out, width * (2 + 8 * kMaxDictValues) + rle_bound(m));
  LevelDictionary dict;
  for (std::size_t l = 0; l < width; ++l) {
    dict.clear();
    std::uint8_t* col = index + l * count;
    for (std::size_t i = 0; i < count; ++i) {
      const int at =
          dict.index(std::bit_cast<std::uint64_t>(samples[i * width + l]));
      if (at < 0) return nullptr;
      col[i] = static_cast<std::uint8_t>(at);
    }
    o = put_varint(o, dict.size);
    std::memcpy(o, dict.values, dict.size * sizeof(std::uint64_t));
    o += dict.size * sizeof(std::uint64_t);
  }
  return rle_encode(index, m, o);
}

}  // namespace

std::size_t corpus_encode_samples(const double* samples, std::size_t count,
                                  std::size_t width, CodecScratch& scratch,
                                  std::vector<std::uint8_t>& out) {
  // Encode both candidate modes and keep the smaller one. This runs in
  // every record party, once per shard, so both encoders are hot paths.
  const std::uint8_t* dict_end =
      encode_dictionary(samples, count, width, scratch, scratch.mode_a);
  const std::uint8_t* planes_end =
      encode_delta_planes(samples, count, width, scratch, scratch.mode_b);
  const std::uint8_t* dict = scratch.mode_a.data();
  const std::uint8_t* planes = scratch.mode_b.data();
  const bool use_dict =
      dict_end != nullptr && dict_end - dict < planes_end - planes;
  const std::size_t before = out.size();
  out.push_back(use_dict ? kSampleModeDictionary : kSampleModeDeltaPlanes);
  if (use_dict) {
    out.insert(out.end(), dict, dict_end);
  } else {
    out.insert(out.end(), planes, planes_end);
  }
  return out.size() - before;
}

void corpus_decode_plaintexts(ByteReader& in, std::size_t count,
                              std::size_t stride, CodecScratch& scratch,
                              std::uint8_t* out) {
  const std::size_t n = count * stride;
  std::uint8_t* cols = room(scratch.planes, n);
  rle_decode(in, cols, n);
  transpose_bytes(cols, count, out, stride, stride, count);
}

void corpus_decode_samples(ByteReader& in, std::size_t count,
                           std::size_t width, CodecScratch& scratch,
                           double* out) {
  const std::uint8_t mode = in.u8();
  if (mode == kSampleModeDeltaPlanes) {
    const std::size_t bytes = (count * width + 63) / 64 * 64 * 8;
    std::uint8_t* planes = room(scratch.planes, bytes);
    rle_decode(in, planes, bytes);
    samples_from_delta_planes(planes, count, width, out);
    return;
  }
  if (mode != kSampleModeDictionary) {
    throw BadFileError(in.path(), "corpus sample stream carries an unknown "
                                  "codec mode");
  }
  // Dictionary mode. All allocations below are sized from the validated
  // shard layout (count, width) or hard constants — never from stream
  // fields — and every stream read goes through the bounds-checked
  // reader.
  scratch.words.clear();
  // Per-level dictionary sizes, packed ahead of the flat value table.
  std::vector<std::size_t> sizes(width);
  for (std::size_t l = 0; l < width; ++l) {
    const std::uint64_t k = get_varint(in);
    if (k < 1 || k > kMaxDictValues) {
      throw BadFileError(in.path(), "corpus sample dictionary size is "
                                    "outside [1, 255]");
    }
    sizes[l] = static_cast<std::size_t>(k);
    for (std::uint64_t j = 0; j < k; ++j) {
      std::uint64_t u;
      in.bytes(&u, sizeof(u));
      scratch.words.push_back(u);
    }
  }
  std::uint8_t* index = room(scratch.planes, count * width);
  rle_decode(in, index, count * width);
  std::size_t base = 0;
  for (std::size_t l = 0; l < width; ++l) {
    const std::uint8_t* col = index + l * count;
    const std::uint64_t* dict = scratch.words.data() + base;
    const std::size_t k = sizes[l];
    for (std::size_t i = 0; i < count; ++i) {
      if (col[i] >= k) {
        throw BadFileError(in.path(), "corpus sample index is outside its "
                                      "level's dictionary");
      }
      std::memcpy(&out[i * width + l], &dict[col[i]], sizeof(std::uint64_t));
    }
    base += k;
  }
}

}  // namespace sable
