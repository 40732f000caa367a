// The SABLCORP v2/v3 chunk codec: lossless, dependency-free compression of
// recorded trace shards. A sample stream opens with one mode byte and
// the encoder picks, per shard, whichever mode stores fewer bytes:
//
// Mode 0 — delta + bit-plane + RLE, three stages that each turn a
// property of campaign data into runs of equal bytes:
//
//   1. XOR-delta along the trace axis, per sample level (column-major):
//      consecutive traces of one level have near-equal energies — for
//      constant-power styles often EXACTLY equal — so the IEEE-754 bit
//      patterns share sign/exponent/high-mantissa bits and the delta
//      words are mostly zero in the high bits.
//   2. 64×64 bit-plane transpose per 64-value block
//      (bit_transpose_blocks, one portable body): bit v of
//      every delta word lands contiguously in plane v, so a bit that is
//      constant across a block becomes 8 equal bytes, and the buffer is
//      laid out plane-major so constant planes concatenate across the
//      whole shard. Stages 1 and 2 are one pass: the deltas are computed
//      as the transpose loads its block, and the planes stored to their
//      plane-major places as it finishes.
//   3. Byte-level RLE with LEB128 varint framing: token = (len << 1) |
//      is_literal; a run token is followed by its one repeated byte, a
//      literal token by `len` verbatim bytes. Runs are emitted at >= 4
//      equal bytes, so incompressible planes cost < 1% framing overhead.
//      The encoder finds runs a word at a time and writes into a buffer
//      reserved once at the stream's worst-case size.
//
// Mode 1 — per-level dictionary. A NOISELESS simulated energy is a sum
// of discrete per-node switching energies, so each level's column draws
// from a small set of distinct doubles (often one for constant-power
// styles, dozens for static CMOS) even though XOR-deltas between
// consecutive draws look random. The stream stores, per level, a varint
// count and the distinct bit patterns in first-appearance order, then
// the column-major u8 index stream under the stage-3 RLE. The encoder
// falls back to mode 0 whenever any level exceeds 255 distinct values
// (any campaign with measurement noise).
//
// Packed plaintext states get stages 2'+3: a byte-column-major reorder
// (byte k of every trace contiguous — low S-box nibbles vary, high pad
// bytes do not), through 8×8 byte transposes, and the same RLE framing,
// no delta.
//
// Encoding runs in every record party, once per shard, and decoding in
// every replay, so both directions are hot paths.
//
// Every stage is exactly invertible and operates on whole shards, so v2
// chunks stay independently decodable and seekable like v1's raw chunks.
// Decoding writes into caller-provided buffers sized from the VALIDATED
// shard layout — never from fields of the (possibly hostile) stream —
// and a malformed stream throws typed IoErrors, never reads or writes
// out of bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sable {

class ByteReader;

/// Reusable intermediate buffers of the codec. Encode/decode grow them
/// to the largest shard seen and never shrink — one scratch per thread
/// keeps replay memory at O(threads * shard bytes).
struct CodecScratch {
  std::vector<std::uint64_t> words;   // decoded dictionary values
  std::vector<std::uint8_t> planes;   // plane image / byte or index columns
  std::vector<std::uint8_t> mode_a;   // encoded streams: the plaintexts,
  std::vector<std::uint8_t> mode_b;   //   and the two sample candidates
};

/// Appends the encoded plaintext stream (count traces of `stride` packed
/// state bytes) to `out`; returns the number of bytes appended.
std::size_t corpus_encode_plaintexts(const std::uint8_t* pts,
                                     std::size_t count, std::size_t stride,
                                     CodecScratch& scratch,
                                     std::vector<std::uint8_t>& out);

/// Appends the encoded sample stream (count traces of `width` doubles,
/// trace-major as stored in memory) to `out`; returns bytes appended.
std::size_t corpus_encode_samples(const double* samples, std::size_t count,
                                  std::size_t width, CodecScratch& scratch,
                                  std::vector<std::uint8_t>& out);

/// Decodes exactly `count * stride` plaintext bytes from `in` (a reader
/// spanning exactly the stored stream) into `out`. Throws BadFileError
/// on malformed framing, FileTruncatedError when the stream ends early.
void corpus_decode_plaintexts(ByteReader& in, std::size_t count,
                              std::size_t stride, CodecScratch& scratch,
                              std::uint8_t* out);

/// Decodes exactly `count * width` doubles from `in` into `out`
/// (trace-major), bit-exactly reproducing the encoded values.
void corpus_decode_samples(ByteReader& in, std::size_t count,
                           std::size_t width, CodecScratch& scratch,
                           double* out);

}  // namespace sable
