#include "io/corpus_cache.hpp"

namespace sable {

SharedCorpus::SharedCorpus(const std::string& path) : reader_(path) {}

SharedCorpus::Lease SharedCorpus::lease(std::size_t shard,
                                        const Slot& slot) const {
  return Lease(CorpusShardView{
      slot.pts.data(), slot.samples.data(),
      static_cast<std::size_t>(reader_.shard_count(shard))});
}

SharedCorpus::Lease SharedCorpus::acquire(std::size_t shard) {
  if (!reader_.compressed()) {
    // Raw chunks live in the shared mapping already — zero-copy view, no
    // slot (the scratch is never touched on this path).
    CorpusDecodeScratch none;
    return Lease(reader_.read_shard(shard, none));
  }
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto it = slots_.find(shard);
    if (it == slots_.end()) break;
    if (it->second->ready) return lease(shard, *it->second);
    // Never touch the slot again after this wait — the decoder may have
    // erased it on failure; the loop re-finds from scratch.
    cv_.wait(lock);
  }
  // First acquirer decodes. The slot is published not-ready so
  // concurrent acquirers wait instead of decoding again, and the decode
  // itself runs outside the lock.
  Slot* slot =
      slots_.emplace(shard, std::make_unique<Slot>()).first->second.get();
  decode_count_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();
  try {
    CodecScratch codec;
    reader_.decode_shard_into(shard, codec, slot->pts, slot->samples);
  } catch (...) {
    // Waiters re-find the slot after every wake: erasing it here sends
    // them back to the decode-or-wait decision, so a corrupt chunk
    // throws in every acquirer instead of deadlocking them.
    lock.lock();
    slots_.erase(shard);
    cv_.notify_all();
    throw;
  }
  lock.lock();
  slot->ready = true;
  cv_.notify_all();
  return lease(shard, *slot);
}

}  // namespace sable
