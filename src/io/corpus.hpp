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
//   version          u32      2 (1 in read-only legacy files)
//   kind             u32      0 = scalar, 1 = cycle-sampled
//   compression      u32      v2 only: 0 = none, 1 = delta+plane+RLE
//   manifest         CampaignManifest (spec hash, seed, counts, key)
//   pt_stride        u64      bytes of packed plaintext state per trace
//   sample_width     u64      doubles per trace (1 for scalar)
//   [pad to 8]
//   shard index      v1: num_shards x { offset u64, count u64 }
//                    v2: num_shards x { offset u64, count u64,
//                                       pt_bytes u64, samp_bytes u64 }
//   shard chunks     per shard: the stored plaintext stream (pt_bytes,
//                    padded to 8), then the stored sample stream
//                    (samp_bytes, padded to 8)
//
// With compression none the stored streams ARE the raw SoA data
// (pt_bytes = count * pt_stride, samp_bytes = count * sample_width * 8),
// byte-identical to the v1 chunk layout; with delta+plane+RLE each
// stream is the io/codec.hpp encoding and the index's stored sizes are
// what make chunks independently seekable. The writer emits v2 only; v1
// files (always raw) remain fully readable.
//
// CorpusWriter streams: the header and index placeholder go out first,
// shard chunks append in canonical order, finish() back-patches the
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

#include "io/codec.hpp"
#include "io/manifest.hpp"
#include "io/serial.hpp"

namespace sable {

/// Trace data kind tags of the corpus format (mirrors TraceDataKind
/// without dragging the dpa layer into io).
inline constexpr std::uint32_t kCorpusKindScalar = 0;
inline constexpr std::uint32_t kCorpusKindSampled = 1;

/// Chunk compression tags (v2 header field; v1 files are always raw).
inline constexpr std::uint32_t kCorpusCompressionNone = 0;
inline constexpr std::uint32_t kCorpusCompressionDeltaPlaneRle = 1;

/// Format versions the reader accepts. The writer emits v2 only; v1
/// files (the historic raw-only format) are read-only.
inline constexpr std::uint32_t kCorpusVersion1 = 1;
inline constexpr std::uint32_t kCorpusVersion2 = 2;

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

/// Streaming corpus writer. Feed shards strictly in canonical order
/// (shard 0, 1, ...), one append_shard per shard with the layout's exact
/// trace count, then finish(). The destructor discards an unfinished
/// file (removes the .tmp) — only finish() publishes. Always emits the
/// v2 format.
class CorpusWriter {
 public:
  CorpusWriter(const std::string& path, const CorpusManifest& manifest);
  ~CorpusWriter();
  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  /// Appends the next canonical shard's traces: `count` packed plaintext
  /// states (`pt_stride` bytes each) and `count * sample_width` doubles.
  /// Throws InvalidArgument when called out of order or with the wrong
  /// count for the shard, IoError on write failure.
  void append_shard(const std::uint8_t* pts, const double* samples,
                    std::size_t count);

  /// Back-patches the shard index and atomically publishes the file.
  /// Requires every shard to have been appended.
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
  CodecScratch scratch_;              // encode intermediates, reused
  std::vector<std::uint8_t> encoded_;  // encoded streams, reused
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

  /// Canonical start index / trace count of shard `s` (throws
  /// ShardIndexError past num_shards()).
  std::size_t shard_start(std::size_t s) const;
  std::size_t shard_count(std::size_t s) const;

  /// Zero-copy pointers into the mapping: packed plaintext states
  /// (shard_count(s) * pt_stride bytes) and sample rows
  /// (shard_count(s) * sample_width doubles, 8-byte aligned). Raw
  /// corpora only — compressed chunks have no in-mapping raw form
  /// (InvalidArgument); go through read_shard instead.
  const std::uint8_t* shard_plaintexts(std::size_t s) const;
  const double* shard_samples(std::size_t s) const;

  /// The shard's traces regardless of compression: zero-copy views into
  /// the mapping for raw corpora, decoded through `scratch` for
  /// compressed ones (the view then aliases the scratch and is
  /// invalidated by its next use). Typed IoErrors on corrupt streams.
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
