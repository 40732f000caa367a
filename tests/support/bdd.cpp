#include "support/bdd.hpp"

#include "util/error.hpp"

namespace sable {

namespace {
// Terminal marker: larger than any real variable so terminals sort last.
constexpr std::uint32_t kTerminalVar = 0xFFFFFFFFu;
}  // namespace

BddManager::BddManager(std::size_t num_vars) : num_vars_(num_vars) {
  SABLE_REQUIRE(num_vars <= 61, "BddManager supports at most 61 variables");
  nodes_.push_back(Node{kTerminalVar, kFalse, kFalse});  // 0
  nodes_.push_back(Node{kTerminalVar, kTrue, kTrue});    // 1
}

BddRef BddManager::make(std::uint32_t var, BddRef low, BddRef high) {
  if (low == high) return low;  // reduction rule
  SABLE_ASSERT(low < (1u << 24) && high < (1u << 24),
               "BDD exceeded 16M nodes");
  const std::uint64_t key =
      (std::uint64_t{var} << 48) | (std::uint64_t{low} << 24) | high;
  const auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  nodes_.push_back(Node{var, low, high});
  const BddRef ref = static_cast<BddRef>(nodes_.size() - 1);
  unique_.emplace(key, ref);
  return ref;
}

BddRef BddManager::var(VarId v) {
  SABLE_REQUIRE(v < num_vars_, "BDD variable out of range");
  return make(v, kFalse, kTrue);
}

BddRef BddManager::nvar(VarId v) {
  SABLE_REQUIRE(v < num_vars_, "BDD variable out of range");
  return make(v, kTrue, kFalse);
}

std::uint32_t BddManager::top_var(BddRef a, BddRef b, BddRef c) const {
  std::uint32_t top = nodes_[a].var;
  if (nodes_[b].var < top) top = nodes_[b].var;
  if (nodes_[c].var < top) top = nodes_[c].var;
  return top;
}

BddRef BddManager::cofactor(BddRef f, std::uint32_t var, bool value) const {
  if (nodes_[f].var != var) return f;  // f does not test var at its root
  return value ? nodes_[f].high : nodes_[f].low;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const IteKey key{f, g, h};
  const auto it = ite_cache_.find(key);
  if (it != ite_cache_.end()) return it->second;

  const std::uint32_t v = top_var(f, g, h);
  const BddRef low = ite(cofactor(f, v, false), cofactor(g, v, false),
                         cofactor(h, v, false));
  const BddRef high = ite(cofactor(f, v, true), cofactor(g, v, true),
                          cofactor(h, v, true));
  const BddRef result = make(v, low, high);
  ite_cache_.emplace(key, result);
  return result;
}

BddRef BddManager::apply_and(BddRef a, BddRef b) { return ite(a, b, kFalse); }
BddRef BddManager::apply_or(BddRef a, BddRef b) { return ite(a, kTrue, b); }
BddRef BddManager::apply_xor(BddRef a, BddRef b) {
  return ite(a, negate(b), b);
}
BddRef BddManager::negate(BddRef a) { return ite(a, kFalse, kTrue); }

BddRef BddManager::from_expr(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kConst0:
      return kFalse;
    case ExprKind::kConst1:
      return kTrue;
    case ExprKind::kVar:
      return var(e->var());
    case ExprKind::kNot:
      return negate(from_expr(e->operands()[0]));
    case ExprKind::kAnd: {
      BddRef acc = kTrue;
      for (const auto& op : e->operands()) {
        acc = apply_and(acc, from_expr(op));
      }
      return acc;
    }
    case ExprKind::kOr: {
      BddRef acc = kFalse;
      for (const auto& op : e->operands()) {
        acc = apply_or(acc, from_expr(op));
      }
      return acc;
    }
  }
  SABLE_UNREACHABLE("unreachable expression kind");
}

double BddManager::sat_fraction(BddRef f) {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  const auto it = count_cache_.find(f);
  if (it != count_cache_.end()) return it->second;
  // Each branch covers half the assignment space of the tested variable;
  // skipped variables contribute factor 1 on both sides automatically with
  // this fraction formulation.
  const double result = 0.5 * sat_fraction(nodes_[f].low) +
                        0.5 * sat_fraction(nodes_[f].high);
  count_cache_.emplace(f, result);
  return result;
}

std::uint64_t BddManager::any_sat(BddRef f) const {
  SABLE_REQUIRE(f != kFalse, "any_sat of the constant-false function");
  std::uint64_t assignment = 0;
  while (f != kTrue) {
    const Node& n = nodes_[f];
    if (n.high != kFalse) {
      assignment |= std::uint64_t{1} << n.var;
      f = n.high;
    } else {
      f = n.low;
    }
  }
  return assignment;
}

bool BddManager::evaluate(BddRef f, std::uint64_t assignment) const {
  while (f != kFalse && f != kTrue) {
    const Node& n = nodes_[f];
    f = ((assignment >> n.var) & 1u) ? n.high : n.low;
  }
  return f == kTrue;
}

}  // namespace sable
