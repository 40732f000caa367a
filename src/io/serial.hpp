// Binary (de)serialization primitives of the campaign-persistence
// subsystem: bounded little-endian readers/writers and the typed error
// hierarchy every on-disk artifact (recorded corpora, campaign state
// files) reports hostile input through.
//
// Format ground rules, shared by every sable file format:
//   - little-endian fixed-width integers; doubles as their IEEE-754 bit
//     pattern in a u64 (bit-exact round trips — the determinism
//     guarantees extend to serialized accumulator state);
//   - every multi-byte structure is length- or count-prefixed, and every
//     read is bounds-checked against the file size BEFORE it happens, so
//     a truncated or corrupt file throws a typed error instead of
//     reading out of bounds;
//   - writers produce the file atomically (write `path + ".tmp"`, then
//     rename), so a crash mid-checkpoint can never leave a half-written
//     state file under the final name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace sable {

/// Base of every persistence error: carries the offending file's path so
/// multi-file operations (merge_partials over N worker states) report
/// WHICH input was bad.
class IoError : public Error {
 public:
  IoError(const std::string& path, const std::string& what)
      : Error(what + " [" + path + "]"), path_(path) {}

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The file ends before a promised structure: header cut short, a shard
/// chunk or accumulator blob running past EOF.
class FileTruncatedError : public IoError {
 public:
  using IoError::IoError;
};

/// Not a sable file of the expected kind, an unsupported format version,
/// or structurally corrupt contents (bad tags, impossible counts).
class BadFileError : public IoError {
 public:
  using IoError::IoError;
};

/// A shard index entry is out of bounds — or, when assembling partial
/// campaign states, two files claim the same canonical shard.
class ShardIndexError : public IoError {
 public:
  using IoError::IoError;
};

/// The file is internally consistent but belongs to a DIFFERENT campaign:
/// trace stream, spec hash, seed, trace count, shard size or key disagree
/// with what the caller is running.
class ManifestMismatchError : public IoError {
 public:
  using IoError::IoError;
};

/// Growing little-endian byte buffer. Campaign state files are written
/// from one buffer per shard through write_file_atomically
/// (io/campaign_state.hpp), and the corpus writer streams
/// (io/corpus.hpp); both build only their headers whole.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern in a u64 — round trips are bit-exact.
  void f64(double v);
  void bytes(const void* data, std::size_t size);
  void f64s(const double* data, std::size_t count);
  /// Zero-pads to the next multiple of `alignment` bytes.
  void pad_to(std::size_t alignment);

  std::size_t offset() const { return buf_.size(); }
  /// Overwrites the u64 previously written at `offset` (index patching).
  void patch_u64(std::size_t offset, std::uint64_t v);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Writes `parts` back to back to `path` atomically: `path + ".tmp"`,
/// then publish_temp_file. Throws IoError on filesystem failure.
void write_file_atomically(
    const std::string& path,
    std::span<const std::span<const std::uint8_t>> parts);

/// The publish step every atomic writer shares: closes `file`, which
/// holds `path + ".tmp"`, and renames that temporary file onto `path`.
/// `written` reports whether every earlier write and the flush succeeded.
/// On any failure the temporary file is removed before IoError is thrown,
/// so a failed publish leaves neither a torn `path` nor a stray `.tmp`.
void publish_temp_file(std::FILE* file, const std::string& path,
                       bool written);

/// Read-only memory mapping of a whole file (mmap on POSIX, a buffered
/// read fallback elsewhere) — the zero-copy substrate under CorpusReader:
/// a replayed shard's samples are handed to accumulators straight out of
/// the mapping. Throws IoError when the file cannot be opened or mapped.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                 // true: munmap on destruction
  std::vector<std::uint8_t> fallback_;  // owns the bytes when not mapped
};

/// Bounds-checked cursor over a byte span. Every accessor verifies the
/// remaining size first and throws FileTruncatedError (tagged with the
/// file's path) on shortfall — the single choke point that makes hostile
/// input handling uniform across formats.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}
  explicit ByteReader(const MappedFile& file)
      : ByteReader(file.data(), file.size(), file.path()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  void bytes(void* out, std::size_t size);
  void f64s(double* out, std::size_t count);
  /// Zero-copy view of the next `size` bytes; advances the cursor.
  const std::uint8_t* view(std::size_t size);
  void skip(std::size_t size);

  std::size_t offset() const { return offset_; }
  std::size_t size() const { return size_; }
  std::size_t remaining() const { return size_ - offset_; }
  const std::string& path() const { return path_; }

  /// Throws FileTruncatedError unless `size` more bytes are available.
  void require(std::size_t size) const;
  /// Reads a count that is about to size an allocation of `elem_size`-byte
  /// elements and validates it against the bytes actually remaining, so a
  /// corrupt length field throws BadFileError instead of driving a
  /// multi-gigabyte allocation.
  std::uint64_t checked_count(std::size_t elem_size);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
  std::string path_;
};

}  // namespace sable
