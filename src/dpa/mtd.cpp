#include "dpa/mtd.hpp"

namespace sable {

MtdResult mtd_from_history(
    std::vector<std::pair<std::size_t, std::size_t>> rank_history) {
  MtdResult result;
  result.rank_history = std::move(rank_history);
  // MTD: first checkpoint from which the rank stays 0 to the end.
  std::size_t stable_from = result.rank_history.size();
  for (std::size_t i = result.rank_history.size(); i-- > 0;) {
    if (result.rank_history[i].second != 0) break;
    stable_from = i;
  }
  if (stable_from < result.rank_history.size()) {
    result.disclosed = true;
    result.mtd = result.rank_history[stable_from].first;
  }
  return result;
}

std::vector<std::size_t> default_checkpoints(std::size_t max_traces) {
  std::vector<std::size_t> pts;
  for (std::size_t n = 16; n < max_traces; n = n + (n / 2)) {
    pts.push_back(n);
  }
  pts.push_back(max_traces);
  return pts;
}

}  // namespace sable
