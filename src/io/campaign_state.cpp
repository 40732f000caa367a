#include "io/campaign_state.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

constexpr char kStateMagic[8] = {'S', 'A', 'B', 'L', 'S', 'T', 'A', 'T'};
constexpr std::uint32_t kStateVersion = 2;

// One covered shard's part of the blob section: per distinguisher, in
// list order, { blob_len u64, blob bytes }.
void serialize_segment(const ShardStates& states, std::size_t s,
                       ByteWriter& segment) {
  for (const auto& row : states) {
    SABLE_REQUIRE(row.size() == states[0].size() && row[s] != nullptr,
                  "distinguishers disagree on which shards are covered");
    const std::size_t len_at = segment.offset();
    segment.u64(0);  // blob length, patched below
    const std::size_t begin = segment.offset();
    row[s]->save(segment);
    segment.patch_u64(len_at, segment.offset() - begin);
  }
}

// The one SABLSTAT writer: the header and the covered shard list from a
// small buffer, then each covered shard's segment as it is, with no
// whole-file buffer.
void write_state_file(const std::string& path,
                      const CampaignManifest& manifest,
                      std::size_t num_distinguishers,
                      std::span<const std::size_t> covered,
                      std::span<const ByteWriter> segments) {
  SABLE_REQUIRE(manifest.stream == kCampaignStream,
                "campaign state can only be saved in the current trace "
                "stream");
  ByteWriter header;
  header.bytes(kStateMagic, sizeof(kStateMagic));
  header.u32(kStateVersion);
  manifest.save(header);
  header.u64(num_distinguishers);
  header.u64(covered.size());
  for (std::size_t s : covered) header.u64(s);
  std::vector<std::span<const std::uint8_t>> parts;
  parts.reserve(covered.size() + 1);
  parts.emplace_back(header.buffer());
  for (std::size_t s : covered) parts.emplace_back(segments[s].buffer());
  write_file_atomically(path, parts);
}

}  // namespace

void save_campaign_state(const std::string& path,
                         const CampaignManifest& manifest,
                         const ShardStates& states) {
  SABLE_REQUIRE(!states.empty(), "campaign state needs at least one "
                                 "distinguisher");
  const std::size_t num_shards = states[0].size();
  SABLE_REQUIRE(num_shards == manifest.num_shards,
                "shard-state matrix must span the manifest's shard count");
  std::vector<std::size_t> covered;
  std::vector<ByteWriter> segments(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!states[0][s]) continue;
    covered.push_back(s);
    serialize_segment(states, s, segments[s]);
  }
  write_state_file(path, manifest, states.size(), covered, segments);
}

std::size_t load_campaign_state(
    const std::string& path, const CampaignManifest& expected,
    std::span<Distinguisher* const> distinguishers, ShardStates& states) {
  MappedFile file(path);
  ByteReader reader(file);
  char magic[8];
  reader.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kStateMagic, sizeof(magic)) != 0) {
    throw BadFileError(path, "not a sable campaign-state file (bad magic)");
  }
  const std::uint32_t version = reader.u32();
  if (version < 1 || version > kStateVersion) {
    throw BadFileError(path, "unsupported campaign-state format version " +
                                 std::to_string(version));
  }
  CampaignManifest actual;
  actual.load(reader);
  actual.stream = version == kStateVersion ? kCampaignStream : 1;
  require_manifest_match(path, expected, actual);
  const std::uint64_t num_ds = reader.u64();
  if (num_ds != distinguishers.size()) {
    throw BadFileError(
        path, "campaign state was written for " + std::to_string(num_ds) +
                  " distinguishers, not the " +
                  std::to_string(distinguishers.size()) + " being run");
  }
  SABLE_REQUIRE(states.size() == distinguishers.size(),
                "shard-state matrix must match the distinguisher list");
  const std::uint64_t covered_count = reader.checked_count(8);
  std::vector<std::size_t> covered;
  covered.reserve(covered_count);
  for (std::uint64_t i = 0; i < covered_count; ++i) {
    const std::uint64_t s = reader.u64();
    if (s >= expected.num_shards) {
      throw ShardIndexError(path, "covered shard " + std::to_string(s) +
                                      " is out of range for the campaign");
    }
    if (i > 0 && s <= covered.back()) {
      throw BadFileError(path, "covered shard list is not strictly "
                               "ascending");
    }
    covered.push_back(static_cast<std::size_t>(s));
  }
  for (std::size_t s : covered) {
    for (std::size_t d = 0; d < distinguishers.size(); ++d) {
      SABLE_REQUIRE(states[d].size() == expected.num_shards,
                    "shard-state matrix must span the campaign's shards");
      if (states[d][s]) {
        throw ShardIndexError(
            path, "shard " + std::to_string(s) +
                      " is covered twice (overlapping partial states)");
      }
      const std::uint64_t blob_len = reader.checked_count(1);
      ByteReader blob(reader.view(static_cast<std::size_t>(blob_len)),
                      static_cast<std::size_t>(blob_len), path);
      auto acc = distinguishers[d]->make_shard_accumulator();
      try {
        acc->load(blob);
      } catch (const IoError&) {
        throw;
      } catch (const Error& e) {
        // The accumulators' tagged loads throw InvalidArgument on
        // type/config mismatch; surface it as a typed, path-tagged error.
        throw BadFileError(path, std::string("corrupt accumulator blob for "
                                             "shard ") +
                                     std::to_string(s) + ": " + e.what());
      }
      if (blob.remaining() != 0) {
        throw BadFileError(path, "accumulator blob for shard " +
                                     std::to_string(s) +
                                     " has trailing bytes");
      }
      states[d][s] = std::move(acc);
    }
  }
  return covered.size();
}

CheckpointDrain::CheckpointDrain(const CampaignManifest& manifest,
                                 const ShardStates& states,
                                 const CampaignPersistence& persist,
                                 std::span<const std::size_t> work)
    : manifest_(manifest),
      states_(states),
      path_(persist.checkpoint_path),
      work_(work),
      // Never 0: a divisor, and an ordered drain's window.
      every_(std::max<std::size_t>(persist.checkpoint_every_shards == 0
                                       ? work.size()
                                       : persist.checkpoint_every_shards,
                                   1)),
      segments_(states.empty() ? 0 : states[0].size()),
      drain_(std::max<std::size_t>(work.size(), 1)) {
  SABLE_REQUIRE(!states.empty(), "campaign state needs at least one "
                                 "distinguisher");
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    if (!states[0][s]) continue;
    resumed_.push_back(s);
    serialize_segment(states, s, segments_[s]);
  }
  // No shard_done() will come: publish the resumed state now.
  if (work_.empty()) publish(0);
}

void CheckpointDrain::shard_done(std::size_t k) {
  // The party owns states[·][work_[k]] and its segment until complete()
  // hands both to the drainer.
  serialize_segment(states_, work_[k], segments_[work_[k]]);
  drain_.complete(k, [&](std::size_t j) {
    const std::size_t done = j + 1;
    if (done % every_ == 0 || done == work_.size()) publish(done);
  });
}

void CheckpointDrain::publish(std::size_t done) {
  covered_.clear();
  std::merge(resumed_.begin(), resumed_.end(), work_.begin(),
             work_.begin() + static_cast<std::ptrdiff_t>(done),
             std::back_inserter(covered_));
  write_state_file(path_, manifest_, states_.size(), covered_, segments_);
}

}  // namespace sable
