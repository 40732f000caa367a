// SharedCorpus: one validated mapping + decoded-chunk cache shared by
// concurrent readers of one corpus.
//
// SharedCorpus owns ONE validated reader and a cache of decoded shards:
// the first acquirer of a shard decodes it (outside the lock),
// concurrent acquirers of the same shard wait on the decode and then
// share the buffers, and later acquirers hit the cache — each chunk is
// decoded once per SharedCorpus (asserted by decode_count() in tests; a
// failed decode is retried by the next acquirer). Decoded shards stay
// cached until the SharedCorpus is destroyed. Raw corpora bypass the
// cache entirely: leases are zero-copy views into the shared mapping.
// Waiting and decoding are internally synchronized — acquire() from any
// number of threads is safe (and TSan-verified).
//
// Replay does not go through the cache: replay_shared flattens its
// attack sets into one list and decodes each shard once per party into
// that party's scratch. perfbench's per-layer pass, which times acquire
// hits and misses, is the only non-test user of acquire() and Lease.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/corpus.hpp"

namespace sable {

class SharedCorpus {
 public:
  /// Opens, maps and validates the corpus once (any CorpusReader
  /// constructor error propagates).
  explicit SharedCorpus(const std::string& path);

  /// One shard's traces. Decoded slots are never evicted, so the view
  /// stays valid for the SharedCorpus's lifetime.
  class Lease {
   public:
    Lease() = default;

    const CorpusShardView& view() const { return view_; }

   private:
    friend class SharedCorpus;
    explicit Lease(const CorpusShardView& view) : view_(view) {}

    CorpusShardView view_;
  };

  /// The shard's traces, decoded at most once however many threads ask.
  /// Blocks while another thread is decoding the same shard; rethrows
  /// that decode's typed IoError in the decoding thread and lets waiters
  /// retry. Throws ShardIndexError past num_shards().
  Lease acquire(std::size_t shard);

  const CorpusReader& reader() const { return reader_; }
  const CorpusManifest& manifest() const { return reader_.manifest(); }
  std::size_t num_shards() const { return reader_.num_shards(); }

  /// Total chunk decodes performed so far (0 for raw corpora), bounded
  /// by num_shards() — the decode-once guarantee.
  std::uint64_t decode_count() const {
    return decode_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    bool ready = false;
    std::vector<std::uint8_t> pts;
    std::vector<double> samples;
  };

  // A lease on a ready slot.
  Lease lease(std::size_t shard, const Slot& slot) const;

  CorpusReader reader_;
  std::atomic<std::uint64_t> decode_count_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  // unique_ptr values: the decoder fills its Slot outside the lock while
  // other acquirers insert, so slots must not move on rehash.
  std::unordered_map<std::size_t, std::unique_ptr<Slot>> slots_;
};

}  // namespace sable
