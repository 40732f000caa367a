#include "support/isomorphism.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <tuple>

namespace sable {

namespace {

// Unlabelled-node signature: sorted multiset of (gate var, polarity, role,
// other-endpoint-is-external ? external id : -1) over incident devices.
using Signature = std::vector<std::array<int, 4>>;

Signature node_signature(const DpdnNetwork& net,
                         const std::vector<std::vector<std::size_t>>& adj,
                         NodeId n) {
  Signature sig;
  for (std::size_t idx : adj[n]) {
    const Switch& d = net.devices()[idx];
    const NodeId other = d.other(n);
    sig.push_back({static_cast<int>(d.gate.var), d.gate.positive ? 1 : 0,
                   static_cast<int>(d.role),
                   net.is_external(other) ? static_cast<int>(other) : -1});
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

struct Matcher {
  const DpdnNetwork& a;
  const DpdnNetwork& b;
  std::vector<std::vector<std::size_t>> adj_a;
  std::vector<std::vector<std::size_t>> adj_b;
  // mapping[node in a] = node in b (externals pre-mapped identity).
  std::vector<NodeId> mapping;
  std::vector<bool> used_b;

  Matcher(const DpdnNetwork& na, const DpdnNetwork& nb)
      : a(na), b(nb), adj_a(na.adjacency()), adj_b(nb.adjacency()),
        mapping(na.node_count(), 0), used_b(nb.node_count(), false) {
    for (NodeId n = 0; n < 3; ++n) {
      mapping[n] = n;
      used_b[n] = true;
    }
  }

  // Checks that the devices of `a` map onto a permutation of `b`'s devices
  // under the current (complete) node mapping.
  bool devices_match() const {
    std::map<std::tuple<int, int, int, NodeId, NodeId>, int> count;
    auto key = [](const Switch& d, NodeId x, NodeId y) {
      if (x > y) std::swap(x, y);
      return std::make_tuple(static_cast<int>(d.gate.var),
                             d.gate.positive ? 1 : 0,
                             static_cast<int>(d.role), x, y);
    };
    for (const Switch& d : a.devices()) {
      ++count[key(d, mapping[d.a], mapping[d.b])];
    }
    for (const Switch& d : b.devices()) {
      if (--count[key(d, d.a, d.b)] < 0) return false;
    }
    return true;
  }

  bool assign(NodeId next) {
    if (next == a.node_count()) return devices_match();
    const Signature sig_a = node_signature(a, adj_a, next);
    for (NodeId candidate = 3; candidate < b.node_count(); ++candidate) {
      if (used_b[candidate]) continue;
      if (node_signature(b, adj_b, candidate) != sig_a) continue;
      mapping[next] = candidate;
      used_b[candidate] = true;
      if (assign(next + 1)) return true;
      used_b[candidate] = false;
    }
    return false;
  }
};

}  // namespace

bool networks_isomorphic(const DpdnNetwork& a, const DpdnNetwork& b) {
  if (a.num_vars() != b.num_vars() || a.node_count() != b.node_count() ||
      a.device_count() != b.device_count()) {
    return false;
  }
  Matcher matcher(a, b);
  return matcher.assign(3);
}

}  // namespace sable
