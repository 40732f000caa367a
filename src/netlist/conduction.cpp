#include "netlist/conduction.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>

#include "util/error.hpp"

namespace sable {

UnionFind conduction_components(const DpdnNetwork& net,
                                std::uint64_t assignment) {
  UnionFind uf(net.node_count());
  for (const auto& d : net.devices()) {
    if (d.gate.conducts(assignment)) uf.unite(d.a, d.b);
  }
  return uf;
}

bool conducts(const DpdnNetwork& net, std::uint64_t assignment, NodeId from,
              NodeId to) {
  UnionFind uf = conduction_components(net, assignment);
  return uf.same(from, to);
}

TruthTable conduction_function(const DpdnNetwork& net, NodeId from,
                               NodeId to) {
  TruthTable t(net.num_vars());
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    t.set(row, conducts(net, row, from, to));
  }
  return t;
}

std::vector<bool> connected_to_external(const DpdnNetwork& net,
                                        std::uint64_t assignment) {
  UnionFind uf = conduction_components(net, assignment);
  const std::size_t cx = uf.find(DpdnNetwork::kNodeX);
  const std::size_t cy = uf.find(DpdnNetwork::kNodeY);
  const std::size_t cz = uf.find(DpdnNetwork::kNodeZ);
  std::vector<bool> out(net.node_count(), false);
  for (NodeId n = 0; n < net.node_count(); ++n) {
    const std::size_t c = uf.find(n);
    out[n] = (c == cx || c == cy || c == cz);
  }
  return out;
}

void device_conduction_masks(const DpdnNetwork& net,
                             const std::vector<std::uint64_t>& var_words,
                             std::vector<std::uint64_t>& out) {
  SABLE_ASSERT(var_words.size() >= net.num_vars(),
               "one lane word per input variable required");
  out.resize(net.device_count());
  for (std::size_t d = 0; d < net.device_count(); ++d) {
    const SignalLiteral& gate = net.devices()[d].gate;
    const std::uint64_t w = var_words[gate.var];
    out[d] = gate.positive ? w : ~w;
  }
}

void propagate_conduction(const DpdnNetwork& net,
                          const std::vector<std::uint64_t>& device_masks,
                          std::vector<std::uint64_t>& reach) {
  // DPDNs are a handful of nodes, so a few device sweeps reach the fixpoint
  // faster than any per-lane union-find would.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t d = 0; d < net.device_count(); ++d) {
      const std::uint64_t m = device_masks[d];
      if (m == 0) continue;
      const Switch& sw = net.devices()[d];
      const std::uint64_t joint = (reach[sw.a] | reach[sw.b]) & m;
      if ((joint & ~reach[sw.a]) != 0 || (joint & ~reach[sw.b]) != 0) {
        reach[sw.a] |= joint;
        reach[sw.b] |= joint;
        changed = true;
      }
    }
  }
}

std::vector<std::uint64_t> connected_to_external_batch(
    const DpdnNetwork& net, const std::vector<std::uint64_t>& var_words) {
  std::vector<std::uint64_t> masks;
  device_conduction_masks(net, var_words, masks);
  std::vector<std::uint64_t> reach(net.node_count(), 0);
  reach[DpdnNetwork::kNodeX] = ~std::uint64_t{0};
  reach[DpdnNetwork::kNodeY] = ~std::uint64_t{0};
  reach[DpdnNetwork::kNodeZ] = ~std::uint64_t{0};
  propagate_conduction(net, masks, reach);
  return reach;
}

namespace {

struct PathSearch {
  const DpdnNetwork& net;
  const std::vector<std::vector<std::size_t>> adj;
  NodeId target;
  std::size_t max_paths;
  std::vector<ConductionPath>& out;
  std::vector<bool> on_path_node;
  std::vector<std::size_t> device_stack;

  PathSearch(const DpdnNetwork& n, NodeId to, std::size_t cap,
             std::vector<ConductionPath>& o)
      : net(n),
        adj(n.adjacency()),
        target(to),
        max_paths(cap),
        out(o),
        on_path_node(n.node_count(), false) {}

  void emit() {
    ConductionPath p;
    p.device_indices = device_stack;
    // A path is satisfiable unless two *logic* switches on it demand
    // opposite polarities of the same variable. Pass-gate halves never
    // constrain: the parallel partner provides the other polarity.
    std::set<VarId> vars;
    std::set<std::pair<VarId, bool>> required;
    bool sat = true;
    for (std::size_t idx : device_stack) {
      const Switch& d = net.devices()[idx];
      vars.insert(d.gate.var);
      if (d.role == DeviceRole::kLogic) {
        required.insert({d.gate.var, d.gate.positive});
        if (required.count({d.gate.var, !d.gate.positive})) sat = false;
      }
    }
    p.satisfiable = sat;
    p.variables.assign(vars.begin(), vars.end());
    out.push_back(std::move(p));
  }

  void dfs(NodeId node) {
    if (out.size() >= max_paths) return;
    if (node == target) {
      emit();
      return;
    }
    on_path_node[node] = true;
    for (std::size_t idx : adj[node]) {
      const Switch& d = net.devices()[idx];
      const NodeId next = d.other(node);
      if (on_path_node[next]) continue;
      // Both external endpoints other than the target act as walls: a
      // simple conduction path never passes *through* X, Y or Z.
      if (net.is_external(next) && next != target) continue;
      device_stack.push_back(idx);
      dfs(next);
      device_stack.pop_back();
    }
    on_path_node[node] = false;
  }
};

}  // namespace

std::vector<ConductionPath> enumerate_paths(const DpdnNetwork& net,
                                            NodeId from, NodeId to,
                                            std::size_t max_paths) {
  std::vector<ConductionPath> out;
  PathSearch search(net, to, max_paths, out);
  search.dfs(from);
  return out;
}

std::size_t shortest_conducting_path(const DpdnNetwork& net,
                                     std::uint64_t assignment, NodeId from,
                                     NodeId to) {
  const auto adj = net.adjacency();
  std::vector<std::size_t> dist(net.node_count(),
                                std::numeric_limits<std::size_t>::max());
  std::deque<NodeId> queue;
  dist[from] = 0;
  queue.push_back(from);
  while (!queue.empty()) {
    const NodeId node = queue.front();
    queue.pop_front();
    if (node == to) return dist[node];
    for (std::size_t idx : adj[node]) {
      const Switch& d = net.devices()[idx];
      if (!d.gate.conducts(assignment)) continue;
      const NodeId next = d.other(node);
      if (dist[next] != std::numeric_limits<std::size_t>::max()) continue;
      dist[next] = dist[node] + 1;
      queue.push_back(next);
    }
  }
  return dist[to];
}

}  // namespace sable
