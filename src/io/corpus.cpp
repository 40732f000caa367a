#include "io/corpus.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace sable {

namespace {

constexpr char kCorpusMagic[8] = {'S', 'A', 'B', 'L', 'C', 'O', 'R', 'P'};

// Sanity ceilings on hostile header fields, chosen so every size product
// below fits a u64 with room to spare (a real round's state is tens of
// bytes wide and sample rows are tens of doubles).
constexpr std::uint64_t kMaxPtStride = 1u << 20;
constexpr std::uint64_t kMaxSampleWidth = 1u << 20;
constexpr std::uint64_t kMaxShardSize = 1ull << 32;

// Ceiling on one shard's DECODED size. Raw chunks cannot out-allocate
// their file (the mapping is the storage), but decoding a compressed
// chunk allocates the raw size from index fields a hostile file
// controls — bound it before any allocation happens. Far above any real
// shard (the autotuner caps shards at 64Ki traces).
constexpr std::uint64_t kMaxShardDecodedBytes = 1ull << 31;

std::uint64_t pad8(std::uint64_t n) { return (n + 7) / 8 * 8; }

// Canonical trace count of shard s under the manifest's layout (mirrors
// the engine's ShardLayout::count).
std::uint64_t layout_count(const CampaignManifest& m, std::uint64_t s) {
  return std::min<std::uint64_t>(m.shard_size,
                                 m.num_traces - s * m.shard_size);
}

void write_header(ByteWriter& writer, const CorpusManifest& manifest) {
  writer.bytes(kCorpusMagic, sizeof(kCorpusMagic));
  writer.u32(kCorpusVersion3);
  writer.u32(manifest.kind);
  writer.u32(manifest.compression);
  manifest.campaign.save(writer);
  writer.u64(manifest.pt_stride);
  writer.u64(manifest.sample_width);
  writer.pad_to(8);
}

}  // namespace

CorpusWriter::CorpusWriter(const std::string& path,
                           const CorpusManifest& manifest)
    : path_(path), tmp_path_(path + ".tmp"), manifest_(manifest) {
  const CampaignManifest& c = manifest_.campaign;
  SABLE_REQUIRE(manifest_.kind == kCorpusKindScalar ||
                    manifest_.kind == kCorpusKindSampled,
                "corpus kind must be scalar or sampled");
  SABLE_REQUIRE(manifest_.compression == kCorpusCompressionNone ||
                    manifest_.compression == kCorpusCompressionDeltaPlaneRle,
                "corpus compression must be none or delta+plane+RLE");
  SABLE_REQUIRE(c.stream == kCampaignStream,
                "a corpus can only be written in the current trace stream");
  SABLE_REQUIRE(manifest_.pt_stride >= 1 && manifest_.sample_width >= 1,
                "corpus strides must be at least one");
  SABLE_REQUIRE(c.num_traces >= 1 && c.shard_size >= 1 &&
                    c.num_shards ==
                        (c.num_traces + c.shard_size - 1) / c.shard_size,
                "corpus manifest must carry a resolved, consistent shard "
                "layout");
  ByteWriter header;
  write_header(header, manifest_);
  index_offset_ = header.offset();
  // Index placeholder, back-patched by finish().
  for (std::uint64_t w = 0; w < 4 * c.num_shards; ++w) header.u64(0);
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (!file_) {
    throw IoError(tmp_path_, "cannot open corpus file for writing");
  }
  // A throwing constructor never runs the destructor, so a failed header
  // write discards the .tmp here.
  try {
    write_raw(header.buffer().data(), header.buffer().size());
  } catch (...) {
    std::fclose(std::exchange(file_, nullptr));
    std::remove(tmp_path_.c_str());
    throw;
  }
}

CorpusWriter::~CorpusWriter() {
  if (file_) {
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
  }
}

void CorpusWriter::write_raw(const void* data, std::size_t size) {
  if (size != 0 && std::fwrite(data, 1, size, file_) != size) {
    throw IoError(tmp_path_, "corpus write failed");
  }
  write_offset_ += size;
}

void CorpusWriter::encode_shard(const std::uint8_t* pts,
                                const double* samples, std::size_t count,
                                CodecScratch& scratch,
                                EncodedShard& out) const {
  SABLE_REQUIRE(count >= 1 && count <= manifest_.campaign.shard_size,
                "encoded shard's trace count must fit the corpus layout");
  const std::size_t stride = static_cast<std::size_t>(manifest_.pt_stride);
  const std::size_t width = static_cast<std::size_t>(manifest_.sample_width);
  std::vector<std::uint8_t>& bytes = out.bytes;
  bytes.clear();
  out.count = count;
  if (manifest_.compression == kCorpusCompressionNone) {
    out.pt_bytes = count * stride;
    out.samp_bytes = count * width * sizeof(double);
    bytes.insert(bytes.end(), pts, pts + out.pt_bytes);
    bytes.resize(pad8(out.pt_bytes));
    const auto* raw = reinterpret_cast<const std::uint8_t*>(samples);
    bytes.insert(bytes.end(), raw, raw + out.samp_bytes);
  } else {
    out.pt_bytes =
        corpus_encode_plaintexts(pts, count, stride, scratch, bytes);
    bytes.resize(pad8(out.pt_bytes));
    out.samp_bytes =
        corpus_encode_samples(samples, count, width, scratch, bytes);
    bytes.resize(pad8(out.pt_bytes) + pad8(out.samp_bytes));
  }
}

void CorpusWriter::append_encoded(const EncodedShard& shard) {
  SABLE_REQUIRE(!finished_, "corpus writer already finished");
  SABLE_REQUIRE(next_shard_ < manifest_.campaign.num_shards,
                "more shards appended than the corpus layout defines");
  SABLE_REQUIRE(shard.count == layout_count(manifest_.campaign, next_shard_),
                "appended shard's trace count must match the canonical "
                "layout");
  SABLE_REQUIRE(shard.bytes.size() ==
                    pad8(shard.pt_bytes) + pad8(shard.samp_bytes),
                "encoded shard's chunk must hold its two padded streams");
  const std::uint64_t offset = write_offset_;
  write_raw(shard.bytes.data(), shard.bytes.size());
  index_.insert(index_.end(),
                {offset, shard.count, shard.pt_bytes, shard.samp_bytes});
  ++next_shard_;
}

void CorpusWriter::append_shard(const std::uint8_t* pts,
                                const double* samples, std::size_t count) {
  encode_shard(pts, samples, count, scratch_, encoded_);
  append_encoded(encoded_);
}

void CorpusWriter::finish() {
  SABLE_REQUIRE(!finished_, "corpus writer already finished");
  SABLE_REQUIRE(next_shard_ == manifest_.campaign.num_shards,
                "corpus finish() requires every canonical shard appended");
  ByteWriter index;
  for (std::uint64_t v : index_) index.u64(v);
  // From here publish_temp_file owns the file: it closes it and removes
  // the .tmp on every failure path, so the destructor must not see it.
  std::FILE* file = std::exchange(file_, nullptr);
  const bool written =
      std::fseek(file, static_cast<long>(index_offset_), SEEK_SET) == 0 &&
      std::fwrite(index.buffer().data(), 1, index.buffer().size(), file) ==
          index.buffer().size() &&
      std::fflush(file) == 0;
  publish_temp_file(file, path_, written);
  finished_ = true;
}

CorpusReader::CorpusReader(const std::string& path) : file_(path) {
  ByteReader reader(file_);
  char magic[8];
  reader.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kCorpusMagic, sizeof(magic)) != 0) {
    throw BadFileError(path, "not a sable corpus file (bad magic)");
  }
  version_ = reader.u32();
  if (version_ < kCorpusVersion1 || version_ > kCorpusVersion3) {
    throw BadFileError(path, "unsupported corpus format version " +
                                 std::to_string(version_));
  }
  manifest_.kind = reader.u32();
  if (manifest_.kind != kCorpusKindScalar &&
      manifest_.kind != kCorpusKindSampled) {
    throw BadFileError(path, "corpus trace kind is neither scalar nor "
                             "sampled");
  }
  manifest_.compression =
      version_ >= kCorpusVersion2 ? reader.u32() : kCorpusCompressionNone;
  if (manifest_.compression != kCorpusCompressionNone &&
      manifest_.compression != kCorpusCompressionDeltaPlaneRle) {
    throw BadFileError(path, "corpus carries an unknown compression tag");
  }
  manifest_.campaign.load(reader);
  manifest_.campaign.stream =
      version_ >= kCorpusVersion3 ? kCampaignStream : 1;
  manifest_.pt_stride = reader.u64();
  manifest_.sample_width = reader.u64();
  reader.skip((8 - reader.offset() % 8) % 8);

  const CampaignManifest& c = manifest_.campaign;
  if (manifest_.pt_stride < 1 || manifest_.pt_stride > kMaxPtStride ||
      manifest_.sample_width < 1 || manifest_.sample_width > kMaxSampleWidth ||
      c.num_traces < 1 || c.shard_size < 1 || c.shard_size > kMaxShardSize ||
      c.num_shards != (c.num_traces + c.shard_size - 1) / c.shard_size) {
    throw BadFileError(path, "corpus header carries an inconsistent shard "
                             "layout");
  }
  const std::size_t entry_bytes = version_ == kCorpusVersion1 ? 16 : 32;
  if (c.num_shards > reader.remaining() / entry_bytes) {
    throw FileTruncatedError(path, "corpus shard index runs past the end of "
                                   "the file");
  }
  shards_.reserve(static_cast<std::size_t>(c.num_shards));
  for (std::uint64_t s = 0; s < c.num_shards; ++s) {
    Shard shard;
    shard.offset = reader.u64();
    shard.count = reader.u64();
    if (shard.count != layout_count(c, s)) {
      throw ShardIndexError(
          path, "corpus index entry " + std::to_string(s) +
                    " disagrees with the canonical shard layout");
    }
    const std::uint64_t raw_pt = shard.count * manifest_.pt_stride;
    const std::uint64_t raw_samp =
        shard.count * manifest_.sample_width * sizeof(double);
    if (version_ == kCorpusVersion1) {
      shard.pt_bytes = raw_pt;
      shard.samp_bytes = raw_samp;
    } else {
      shard.pt_bytes = reader.u64();
      shard.samp_bytes = reader.u64();
    }
    if (manifest_.compression == kCorpusCompressionNone &&
        (shard.pt_bytes != raw_pt || shard.samp_bytes != raw_samp)) {
      throw ShardIndexError(
          path, "corpus index entry " + std::to_string(s) +
                    " disagrees with the raw chunk sizes its layout implies");
    }
    // Decoding allocates the raw size; bound it before any decode does.
    if (raw_pt + raw_samp > kMaxShardDecodedBytes) {
      throw BadFileError(path, "corpus shard " + std::to_string(s) +
                                   " would decode past the per-shard size "
                                   "ceiling");
    }
    if (shard.offset % 8 != 0 || shard.offset > file_.size() ||
        shard.pt_bytes > file_.size() || shard.samp_bytes > file_.size() ||
        pad8(shard.pt_bytes) + pad8(shard.samp_bytes) >
            file_.size() - shard.offset) {
      throw ShardIndexError(path, "corpus index entry " + std::to_string(s) +
                                      " points outside the file");
    }
    shards_.push_back(shard);
  }
}

void CorpusReader::require_shard(std::size_t s) const {
  if (s >= shards_.size()) {
    throw ShardIndexError(path(), "shard " + std::to_string(s) +
                                      " is out of range for this corpus");
  }
}

std::size_t CorpusReader::shard_count(std::size_t s) const {
  require_shard(s);
  return static_cast<std::size_t>(shards_[s].count);
}

CorpusShardView CorpusReader::read_shard(std::size_t s,
                                         CorpusDecodeScratch& scratch) const {
  require_shard(s);
  CorpusShardView view;
  view.count = static_cast<std::size_t>(shards_[s].count);
  if (!compressed()) {
    view.pts = file_.data() + shards_[s].offset;
    view.samples = reinterpret_cast<const double*>(
        file_.data() + shards_[s].offset + pad8(shards_[s].pt_bytes));
    return view;
  }
  decode_shard_into(s, scratch.codec, scratch.pts, scratch.samples);
  view.pts = scratch.pts.data();
  view.samples = scratch.samples.data();
  return view;
}

void CorpusReader::decode_shard_into(std::size_t s, CodecScratch& codec,
                                     std::vector<std::uint8_t>& pts,
                                     std::vector<double>& samples) const {
  require_shard(s);
  SABLE_REQUIRE(compressed(), "decode_shard_into requires a compressed "
                              "corpus");
  const Shard& shard = shards_[s];
  const std::size_t count = static_cast<std::size_t>(shard.count);
  const std::size_t stride = static_cast<std::size_t>(manifest_.pt_stride);
  const std::size_t width = static_cast<std::size_t>(manifest_.sample_width);
  pts.resize(count * stride);
  samples.resize(count * width);
  ByteReader pt_in(file_.data() + shard.offset,
                   static_cast<std::size_t>(shard.pt_bytes), path());
  corpus_decode_plaintexts(pt_in, count, stride, codec, pts.data());
  ByteReader samp_in(file_.data() + shard.offset + pad8(shard.pt_bytes),
                     static_cast<std::size_t>(shard.samp_bytes), path());
  corpus_decode_samples(samp_in, count, width, codec, samples.data());
}

std::uint64_t CorpusReader::shard_stored_bytes(std::size_t s) const {
  require_shard(s);
  return shards_[s].pt_bytes + shards_[s].samp_bytes;
}

std::uint64_t CorpusReader::shard_raw_bytes(std::size_t s) const {
  require_shard(s);
  return shards_[s].count *
         (manifest_.pt_stride + manifest_.sample_width * sizeof(double));
}

}  // namespace sable
