// Measurements-to-disclosure (MTD): the number of traces after which the
// attack ranks the correct key first and keeps it first — the standard
// effectiveness metric for DPA countermeasures. Campaigns compute it with
// MtdDistinguisher (dpa/distinguisher.hpp); this header holds the result
// type and the checkpoint-ladder helpers it shares with its callers.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sable {

struct MtdResult {
  bool disclosed = false;
  /// Smallest checkpoint trace count from which the correct key stays
  /// ranked first through the final checkpoint (0 when never disclosed).
  std::size_t mtd = 0;
  /// (trace count, rank of correct key) at each evaluated checkpoint.
  std::vector<std::pair<std::size_t, std::size_t>> rank_history;
};

/// Folds a (trace count, rank) history into the MTD verdict: the first
/// checkpoint from which the rank stays 0 through the end.
MtdResult mtd_from_history(
    std::vector<std::pair<std::size_t, std::size_t>> rank_history);

/// Convenience checkpoint ladder: roughly logarithmic up to `max_traces`.
std::vector<std::size_t> default_checkpoints(std::size_t max_traces);

}  // namespace sable
