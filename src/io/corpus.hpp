// Recorded trace corpora: the on-disk twin of a streamed campaign.
//
// A corpus file stores one campaign's traces in the engine's canonical
// shard decomposition — SoA per shard (packed plaintext states, then
// sample rows) — so replay hands whole shard blocks to distinguisher
// accumulators exactly as the live engine would: same shard boundaries,
// same block order, bit-identical trace data. Shards are individually
// seekable through a per-shard index, which is what makes split-range
// multi-process replay (worker k reads only shards [a, b)) an O(1)
// seek instead of a scan.
//
// Layout (all integers little-endian; header fields 8-byte aligned, each
// shard chunk 8-byte aligned so raw sample rows are safely
// mmap-addressable as double arrays):
//
//   magic            8 bytes  "SABLCORP"
//   version          u32      3 (1 and 2 in read-only old-stream files)
//   kind             u32      0 = scalar, 1 = cycle-sampled
//   compression      u32      v2+: 0 = none, 1 = delta+plane+RLE
//   manifest         CampaignManifest (spec hash, seed, counts, key)
//   pt_stride        u64      bytes of packed plaintext state per trace
//   sample_width     u64      doubles per trace (1 for scalar)
//   [pad to 8]
//   shard index      v1: num_shards x { offset u64, count u64 }
//                    v2+: num_shards x { offset u64, count u64,
//                                        pt_bytes u64, samp_bytes u64 }
//   shard chunks     per shard: the stored plaintext stream (pt_bytes,
//                    padded to 8), then the stored sample stream
//                    (samp_bytes, padded to 8)
//
// With compression none the stored streams ARE the raw SoA data
// (pt_bytes = count * pt_stride, samp_bytes = count * sample_width * 8),
// byte-identical to the v1 chunk layout; with delta+plane+RLE each
// stream is the io/codec.hpp encoding and the index's stored sizes are
// what make chunks independently seekable. v3 has v2's byte layout; the
// version alone says which trace stream the file holds (v1 and v2:
// stream 1, v3: stream 2, see io/manifest.hpp). The writer emits v3
// only; v1 (always raw) and v2 files stay fully readable, and replay
// rejects them by their manifest's stream.
//
// CorpusWriter streams: the header and index placeholder go out first,
// shard chunks append in canonical order (encoded anywhere, written in
// order — see encode_shard / append_encoded), finish() back-patches the
// index and renames the .tmp file into place — constant memory however
// long the campaign, and no half-written corpus ever appears under the
// final name. CorpusReader validates the whole structure ONCE up front
// (magic, version, counts, every index entry against the file size and
// the manifest's shard layout, decoded-size ceilings on compressed
// chunks) and caches the per-shard extents — accessors and replay trust
// that validation and are plain pointer arithmetic / bounded decodes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "io/codec.hpp"
#include "io/manifest.hpp"
#include "io/serial.hpp"

namespace sable {

/// Trace data kind tags of the corpus format (mirrors TraceDataKind
/// without dragging the dpa layer into io).
inline constexpr std::uint32_t kCorpusKindScalar = 0;
inline constexpr std::uint32_t kCorpusKindSampled = 1;

/// Chunk compression tags (v2+ header field; v1 files are always raw).
inline constexpr std::uint32_t kCorpusCompressionNone = 0;
inline constexpr std::uint32_t kCorpusCompressionDeltaPlaneRle = 1;

/// Format versions the reader accepts. The writer emits v3 only; v1 (the
/// historic raw-only format) and v2 files hold stream 1 and are
/// read-only.
inline constexpr std::uint32_t kCorpusVersion1 = 1;
inline constexpr std::uint32_t kCorpusVersion2 = 2;
inline constexpr std::uint32_t kCorpusVersion3 = 3;

/// Everything a corpus file's header pins down.
struct CorpusManifest {
  CampaignManifest campaign;
  std::uint32_t kind = kCorpusKindScalar;
  std::uint32_t compression = kCorpusCompressionNone;
  std::uint64_t pt_stride = 1;
  std::uint64_t sample_width = 1;
};

/// One decoded (or raw, zero-copy) shard: `count` packed plaintext
/// states of pt_stride bytes and `count * sample_width` doubles. Valid
/// as long as its backing storage (the mapping, a scratch, or a
/// SharedCorpus) stays alive.
struct CorpusShardView {
  const std::uint8_t* pts = nullptr;
  const double* samples = nullptr;
  std::size_t count = 0;
};

/// Per-thread reusable decode buffers: replay over compressed corpora
/// stays O(threads * shard bytes) however many shards stream through.
struct CorpusDecodeScratch {
  CodecScratch codec;
  std::vector<std::uint8_t> pts;
  std::vector<double> samples;
};

/// One shard's chunk as it goes to disk: the stored plaintext stream
/// padded to 8 bytes, then the stored sample stream padded to 8, plus
/// the index entry's trace count and stream sizes. Produced by
/// CorpusWriter::encode_shard, consumed by append_encoded; its buffer is
/// reused shard after shard.
struct EncodedShard {
  std::vector<std::uint8_t> bytes;
  std::uint64_t count = 0;
  std::uint64_t pt_bytes = 0;    // stored plaintext stream, unpadded
  std::uint64_t samp_bytes = 0;  // stored sample stream, unpadded
};

/// Streaming corpus writer. Feed shards strictly in canonical order
/// (shard 0, 1, ...), one append per shard with the layout's exact trace
/// count, then finish(). The destructor discards an unfinished file
/// (removes the .tmp), and so does a finish() that fails — only a
/// successful finish() publishes. A constructor that fails to write the
/// header closes and removes the .tmp before it throws. Always emits the
/// v3 format, so the manifest's stream must be kCampaignStream.
///
/// Appending is two steps, so the costly one can run in parallel:
/// encode_shard turns a shard's traces into its chunk, and
/// append_encoded writes the chunk in order. append_shard is the two in
/// sequence.
class CorpusWriter {
 public:
  CorpusWriter(const std::string& path, const CorpusManifest& manifest);
  ~CorpusWriter();
  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  /// Encodes `count` packed plaintext states (`pt_stride` bytes each) and
  /// `count * sample_width` doubles into `out` under the manifest's
  /// compression (a copy for raw chunks). Pure: it reads only the
  /// manifest, so any number of threads may encode at once — each with
  /// its own scratch and output — while another appends. Throws
  /// InvalidArgument when `count` is zero or exceeds the shard size.
  void encode_shard(const std::uint8_t* pts, const double* samples,
                    std::size_t count, CodecScratch& scratch,
                    EncodedShard& out) const;

  /// Writes the next canonical shard's chunk, as encode_shard produced it
  /// for this writer's manifest, and records its index entry. Throws
  /// InvalidArgument when called out of order or with the wrong count
  /// for the shard, IoError on write failure. Not thread-safe: one
  /// caller at a time.
  void append_encoded(const EncodedShard& shard);

  /// Appends the next canonical shard's traces in one call: encode_shard
  /// into the writer's own scratch, then append_encoded, with their
  /// throws.
  void append_shard(const std::uint8_t* pts, const double* samples,
                    std::size_t count);

  /// Back-patches the shard index and atomically publishes the file.
  /// Requires every shard to have been appended. Throws IoError when the
  /// index write, close or rename fails, after removing the .tmp.
  void finish();

  const std::string& path() const { return path_; }

 private:
  void write_raw(const void* data, std::size_t size);

  std::string path_;
  std::string tmp_path_;
  CorpusManifest manifest_;
  std::FILE* file_ = nullptr;
  std::size_t next_shard_ = 0;
  std::size_t index_offset_ = 0;  // file offset of the shard index
  std::size_t write_offset_ = 0;  // current file offset
  std::vector<std::uint64_t> index_;  // flattened 4-u64 entries
  CodecScratch scratch_;              // append_shard's encode scratch
  EncodedShard encoded_;              // append_shard's chunk, reused
  bool finished_ = false;
};

/// Validated, mmap-backed corpus reader. Construction verifies magic,
/// version, kind, the manifest's internal consistency and EVERY shard
/// index entry (offset alignment, count against the canonical layout,
/// stored extents against the file size, decoded-size ceilings), then
/// caches the per-shard extents — every accessor below trusts that
/// one-time validation.
class CorpusReader {
 public:
  explicit CorpusReader(const std::string& path);

  const CorpusManifest& manifest() const { return manifest_; }
  const std::string& path() const { return file_.path(); }
  std::uint32_t version() const { return version_; }
  bool compressed() const {
    return manifest_.compression != kCorpusCompressionNone;
  }
  std::size_t num_shards() const { return manifest_.campaign.num_shards; }

  /// Trace count of shard `s` (throws ShardIndexError past num_shards()).
  std::size_t shard_count(std::size_t s) const;

  /// The shard's traces regardless of compression: zero-copy views into
  /// the mapping for raw corpora (packed plaintext states, then 8-byte
  /// aligned sample rows), decoded through `scratch` for compressed ones
  /// (the view then aliases the scratch and is invalidated by its next
  /// use). Typed IoErrors on corrupt streams.
  CorpusShardView read_shard(std::size_t s, CorpusDecodeScratch& scratch) const;

  /// Decodes a compressed shard into caller-owned buffers (resized to
  /// the exact decoded sizes) — the SharedCorpus cache's fill hook.
  void decode_shard_into(std::size_t s, CodecScratch& codec,
                         std::vector<std::uint8_t>& pts,
                         std::vector<double>& samples) const;

  /// Stored (on-disk, possibly compressed) vs raw (decoded SoA) bytes of
  /// shard `s` — corpus-info and the bench report ratios from these.
  std::uint64_t shard_stored_bytes(std::size_t s) const;
  std::uint64_t shard_raw_bytes(std::size_t s) const;

 private:
  struct Shard {
    std::uint64_t offset;      // chunk start (8-aligned)
    std::uint64_t count;       // traces, equals the canonical layout
    std::uint64_t pt_bytes;    // stored plaintext stream size
    std::uint64_t samp_bytes;  // stored sample stream size
  };

  void require_shard(std::size_t s) const;

  MappedFile file_;
  CorpusManifest manifest_;
  std::uint32_t version_ = kCorpusVersion1;
  std::vector<Shard> shards_;  // validated at construction
};

}  // namespace sable
