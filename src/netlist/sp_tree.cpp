#include "netlist/sp_tree.hpp"

#include <algorithm>
#include <map>

#include "netlist/union_find.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

// Reverses the series (top-to-bottom) orientation of an SP expression:
// AND operand order flips, OR operand order is kept (parallel branches are
// unordered), literals are unchanged.
ExprPtr reverse_series(const ExprPtr& e) {
  if (e->is_literal()) return e;
  std::vector<ExprPtr> ops;
  ops.reserve(e->operands().size());
  if (e->kind() == ExprKind::kAnd) {
    for (auto it = e->operands().rbegin(); it != e->operands().rend(); ++it) {
      ops.push_back(reverse_series(*it));
    }
    return Expr::conj(std::move(ops));
  }
  SABLE_ASSERT(e->kind() == ExprKind::kOr, "SP expression must be AND/OR/lit");
  for (const auto& op : e->operands()) ops.push_back(reverse_series(op));
  return Expr::disj(std::move(ops));
}

struct Edge {
  NodeId u;  // expression reads top-down from u ...
  NodeId v;  // ... to v
  ExprPtr expr;
  bool alive = true;
};

}  // namespace

BranchPartition partition_branches(const DpdnNetwork& net) {
  // Internal nodes are grouped by devices connecting internal-internal;
  // each group is then attributed to the X or Y side by adjacency.
  UnionFind groups(net.node_count());
  for (const auto& d : net.devices()) {
    if (!net.is_external(d.a) && !net.is_external(d.b)) {
      groups.unite(d.a, d.b);
    }
  }
  enum class Side : std::uint8_t { kNone, kX, kY, kBoth };
  std::map<std::size_t, Side> side;
  auto mark = [&](NodeId internal, Side s) {
    const std::size_t g = groups.find(internal);
    auto [it, inserted] = side.try_emplace(g, s);
    if (!inserted && it->second != s) it->second = Side::kBoth;
  };
  for (const auto& d : net.devices()) {
    const bool a_ext = net.is_external(d.a);
    const bool b_ext = net.is_external(d.b);
    if (a_ext && b_ext) continue;
    const NodeId ext = a_ext ? d.a : d.b;
    const NodeId internal = a_ext ? d.b : d.a;
    if (ext == DpdnNetwork::kNodeX) mark(internal, Side::kX);
    if (ext == DpdnNetwork::kNodeY) mark(internal, Side::kY);
  }

  BranchPartition part;
  for (std::size_t i = 0; i < net.devices().size(); ++i) {
    const Switch& d = net.devices()[i];
    const bool a_ext = net.is_external(d.a);
    const bool b_ext = net.is_external(d.b);
    if (a_ext && b_ext) {
      // Direct external-external device: X-Z or Y-Z (X-Y is malformed).
      const bool touches_x = d.touches(DpdnNetwork::kNodeX);
      const bool touches_y = d.touches(DpdnNetwork::kNodeY);
      SABLE_REQUIRE(d.touches(DpdnNetwork::kNodeZ) && (touches_x != touches_y),
                    "device must connect X-Z or Y-Z");
      (touches_x ? part.x_branch : part.y_branch).push_back(i);
      continue;
    }
    const NodeId internal = a_ext ? d.b : d.a;
    const auto it = side.find(groups.find(internal));
    SABLE_REQUIRE(it != side.end() && it->second != Side::kNone,
                  "internal node not reachable from X or Y");
    SABLE_REQUIRE(it->second != Side::kBoth,
                  "branches share an internal node; network is not genuine");
    (it->second == Side::kX ? part.x_branch : part.y_branch).push_back(i);
  }
  return part;
}

ExprPtr extract_sp_expression(const DpdnNetwork& net,
                              const std::vector<std::size_t>& device_indices,
                              NodeId top) {
  SABLE_REQUIRE(!device_indices.empty(), "branch has no devices");
  std::vector<Edge> edges;
  edges.reserve(device_indices.size());
  for (std::size_t idx : device_indices) {
    const Switch& d = net.devices()[idx];
    ExprPtr lit = Expr::variable(d.gate.var);
    if (!d.gate.positive) lit = Expr::negate(lit);
    edges.push_back(Edge{d.a, d.b, std::move(lit), true});
  }

  const NodeId bottom = DpdnNetwork::kNodeZ;
  auto degree = [&](NodeId n) {
    std::size_t deg = 0;
    for (const auto& e : edges) {
      if (e.alive && (e.u == n || e.v == n)) ++deg;
    }
    return deg;
  };
  // Orients edge `e` so that it reads from `from`: returns the expression
  // top-down starting at `from` and the far endpoint.
  auto oriented = [&](const Edge& e, NodeId from) {
    SABLE_ASSERT(e.u == from || e.v == from, "edge does not touch node");
    if (e.u == from) return std::pair{e.expr, e.v};
    return std::pair{reverse_series(e.expr), e.u};
  };

  std::size_t alive = edges.size();
  bool progress = true;
  while (alive > 1 && progress) {
    progress = false;
    // Parallel reduction: two alive edges with the same endpoint set.
    for (std::size_t i = 0; i < edges.size() && !progress; ++i) {
      if (!edges[i].alive) continue;
      for (std::size_t j = i + 1; j < edges.size(); ++j) {
        if (!edges[j].alive) continue;
        const bool same = (edges[i].u == edges[j].u && edges[i].v == edges[j].v);
        const bool swapped =
            (edges[i].u == edges[j].v && edges[i].v == edges[j].u);
        if (!same && !swapped) continue;
        const ExprPtr other =
            same ? edges[j].expr : reverse_series(edges[j].expr);
        edges[i].expr = Expr::disj2(edges[i].expr, other);
        edges[j].alive = false;
        --alive;
        progress = true;
        break;
      }
    }
    if (progress) continue;
    // Series reduction at an internal node of degree 2.
    for (NodeId n = 0; n < net.node_count() && !progress; ++n) {
      if (net.is_external(n) || degree(n) != 2) continue;
      std::size_t first = SIZE_MAX;
      std::size_t second = SIZE_MAX;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (!edges[i].alive || !(edges[i].u == n || edges[i].v == n)) continue;
        if (first == SIZE_MAX) {
          first = i;
        } else {
          second = i;
        }
      }
      // oriented() reads outward from n; reverse the first half so the new
      // edge reads a -> n -> b.
      const auto [n_to_a, a] = oriented(edges[first], n);
      const auto [n_to_b, b] = oriented(edges[second], n);
      if (a == b) continue;  // would create a self-loop; not reducible here
      edges[first].u = a;
      edges[first].v = b;
      edges[first].expr = Expr::conj2(reverse_series(n_to_a), n_to_b);
      edges[second].alive = false;
      --alive;
      progress = true;
    }
  }

  SABLE_REQUIRE(alive == 1,
                "branch is not two-terminal series-parallel reducible");
  for (const auto& e : edges) {
    if (!e.alive) continue;
    SABLE_REQUIRE((e.u == top && e.v == bottom) ||
                      (e.u == bottom && e.v == top),
                  "reduced branch does not span the expected terminals");
    return e.u == top ? e.expr : reverse_series(e.expr);
  }
  SABLE_UNREACHABLE("unreachable: exactly one alive edge exists");
}

}  // namespace sable
