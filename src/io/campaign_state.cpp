#include "io/campaign_state.hpp"

#include <algorithm>
#include <cstring>

#include "io/serial.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

constexpr char kStateMagic[8] = {'S', 'A', 'B', 'L', 'S', 'T', 'A', 'T'};
constexpr std::uint32_t kStateVersion = 2;

}  // namespace

void save_campaign_state(const std::string& path,
                         const CampaignManifest& manifest,
                         const ShardStates& states) {
  SABLE_REQUIRE(!states.empty(), "campaign state needs at least one "
                                 "distinguisher");
  SABLE_REQUIRE(manifest.stream == kCampaignStream,
                "campaign state can only be saved in the current trace "
                "stream");
  const std::size_t num_shards = states[0].size();
  SABLE_REQUIRE(num_shards == manifest.num_shards,
                "shard-state matrix must span the manifest's shard count");
  std::vector<std::size_t> covered;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (states[0][s]) covered.push_back(s);
  }
  ByteWriter writer;
  writer.bytes(kStateMagic, sizeof(kStateMagic));
  writer.u32(kStateVersion);
  manifest.save(writer);
  writer.u64(states.size());
  writer.u64(covered.size());
  for (std::size_t s : covered) writer.u64(s);
  for (std::size_t s : covered) {
    for (std::size_t d = 0; d < states.size(); ++d) {
      SABLE_REQUIRE(states[d].size() == num_shards && states[d][s] != nullptr,
                    "distinguishers disagree on which shards are covered");
      const std::size_t len_at = writer.offset();
      writer.u64(0);  // blob length, patched below
      const std::size_t begin = writer.offset();
      states[d][s]->save(writer);
      writer.patch_u64(len_at, writer.offset() - begin);
    }
  }
  writer.write_file(path);
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

bool run_persisted_waves(
    const CampaignManifest& manifest,
    std::span<Distinguisher* const> distinguishers, ShardStates& states,
    const CampaignPersistence& persist,
    const std::function<void(const std::vector<std::size_t>&)>& accumulate) {
  const std::size_t num_shards = static_cast<std::size_t>(manifest.num_shards);
  SABLE_REQUIRE(!states.empty() && states[0].size() == num_shards,
                "shard-state matrix must span the campaign's shards");
  if (!persist.resume_path.empty()) {
    load_campaign_state(persist.resume_path, manifest, distinguishers,
                        states);
  }
  SABLE_REQUIRE(persist.shard_begin <= persist.shard_end,
                "campaign shard range is reversed");
  SABLE_REQUIRE(persist.shard_begin <= num_shards,
                "campaign shard range starts past the campaign");
  const std::size_t end = std::min(persist.shard_end, num_shards);
  std::vector<std::size_t> work;
  for (std::size_t s = persist.shard_begin; s < end; ++s) {
    if (!states[0][s]) work.push_back(s);
  }
  const std::size_t covered = static_cast<std::size_t>(
      std::count_if(states[0].begin(), states[0].end(),
                    [](const auto& state) { return state != nullptr; }));
  const bool complete = covered + work.size() == num_shards;
  // A partial run that was never persisted is lost work — refuse it
  // before any shard runs unless the caller asked for a checkpoint.
  SABLE_REQUIRE(complete || !persist.checkpoint_path.empty(),
                "partial campaign range needs a checkpoint path to persist "
                "its shard states");
  const std::size_t wave =
      persist.checkpoint_every_shards == 0 ? std::max<std::size_t>(1, work.size())
                                           : persist.checkpoint_every_shards;
  for (std::size_t done = 0; done < work.size(); done += wave) {
    const std::vector<std::size_t> chunk(
        work.begin() + static_cast<std::ptrdiff_t>(done),
        work.begin() +
            static_cast<std::ptrdiff_t>(std::min(done + wave, work.size())));
    accumulate(chunk);
    if (!persist.checkpoint_path.empty()) {
      save_campaign_state(persist.checkpoint_path, manifest, states);
    }
  }
  if (complete) return true;
  if (work.empty()) {
    // Nothing new was accumulated (e.g. pure range-split bookkeeping);
    // still publish the state so the invocation has an artifact.
    save_campaign_state(persist.checkpoint_path, manifest, states);
  }
  return false;
}

}  // namespace sable
