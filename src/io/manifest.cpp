#include "io/manifest.hpp"

#include <bit>
#include <string>

#include "io/serial.hpp"

namespace sable {

void CampaignManifest::save(ByteWriter& writer) const {
  writer.u64(spec_hash);
  writer.u64(seed);
  writer.u64(num_traces);
  writer.u64(shard_size);
  writer.u64(num_shards);
  writer.f64(noise_sigma);
  writer.u64(key.size());
  writer.bytes(key.data(), key.size());
}

void CampaignManifest::load(ByteReader& reader) {
  spec_hash = reader.u64();
  seed = reader.u64();
  num_traces = reader.u64();
  shard_size = reader.u64();
  num_shards = reader.u64();
  noise_sigma = reader.f64();
  const std::uint64_t key_len = reader.checked_count(1);
  key.resize(static_cast<std::size_t>(key_len));
  reader.bytes(key.data(), key.size());
}

void require_manifest_match(const std::string& path,
                            const CampaignManifest& expected,
                            const CampaignManifest& actual) {
  const auto fail = [&](const char* field, const std::string& detail = "") {
    throw ManifestMismatchError(
        path, std::string("campaign manifest mismatch: ") + field +
                  " differs from the running campaign" + detail);
  };
  if (actual.stream != expected.stream) {
    fail("stream", " (the file holds stream " +
                       std::to_string(actual.stream) + ", the campaign " +
                       "runs stream " + std::to_string(expected.stream) +
                       ")");
  }
  if (actual.spec_hash != expected.spec_hash) fail("round spec hash");
  if (actual.seed != expected.seed) fail("seed");
  if (actual.num_traces != expected.num_traces) fail("num_traces");
  if (actual.shard_size != expected.shard_size) fail("shard_size");
  if (actual.num_shards != expected.num_shards) fail("num_shards");
  // Bit-pattern comparison: NaN-safe and exact, matching how the sigma
  // enters the stream.
  if (std::bit_cast<std::uint64_t>(actual.noise_sigma) !=
      std::bit_cast<std::uint64_t>(expected.noise_sigma)) {
    fail("noise_sigma");
  }
  if (actual.key != expected.key) fail("key");
}

}  // namespace sable
