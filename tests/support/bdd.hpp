// Reduced ordered binary decision diagrams (ROBDDs), a test oracle.
//
// The exhaustive checkers in src/core enumerate all 2^n complementary
// inputs — complete and honest for gate-sized n, but not for wide complex
// gates (an AES S-box output bit has n = 8, a whole substitution layer
// more). This module provides the standard symbolic alternative: canonical
// BDDs with a unique table and memoized apply, so functional equality is
// pointer equality and the §3 full-connectivity condition becomes a
// tautology check (see support/symbolic.hpp). It shares no code with
// core/checks, which is what makes it an independent check of it.
//
// Variable order is the natural VarId order; the networks this library
// builds are small enough that reordering is unnecessary.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "expr/expression.hpp"

namespace sable {

/// Handle to a BDD node. 0 and 1 are the terminal constants.
using BddRef = std::uint32_t;

class BddManager {
 public:
  explicit BddManager(std::size_t num_vars);

  static constexpr BddRef kFalse = 0;
  static constexpr BddRef kTrue = 1;

  std::size_t num_vars() const { return num_vars_; }

  /// The function "variable v".
  BddRef var(VarId v);
  /// The function "not variable v".
  BddRef nvar(VarId v);

  BddRef apply_and(BddRef a, BddRef b);
  BddRef apply_or(BddRef a, BddRef b);
  BddRef apply_xor(BddRef a, BddRef b);
  BddRef negate(BddRef a);
  /// If-then-else: f ? g : h — the universal connective.
  BddRef ite(BddRef f, BddRef g, BddRef h);

  /// Builds the BDD of an expression (any form; negations handled).
  BddRef from_expr(const ExprPtr& e);

  /// Fraction of the 2^num_vars assignments satisfying `f` (exact).
  double sat_fraction(BddRef f);

  /// One satisfying assignment of `f`; only valid when f != kFalse.
  std::uint64_t any_sat(BddRef f) const;

  /// Evaluates `f` under an assignment (bit k of `assignment` = var k).
  bool evaluate(BddRef f, std::uint64_t assignment) const;

  /// Number of live nodes (terminals included) — a size/health metric.
  std::size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    std::uint32_t var;
    BddRef low;
    BddRef high;
  };

  BddRef make(std::uint32_t var, BddRef low, BddRef high);
  std::uint32_t top_var(BddRef a, BddRef b, BddRef c) const;
  BddRef cofactor(BddRef f, std::uint32_t var, bool value) const;

  std::size_t num_vars_;
  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, BddRef> unique_;
  struct IteKey {
    BddRef f, g, h;
    bool operator==(const IteKey&) const = default;
  };
  struct IteKeyHash {
    std::size_t operator()(const IteKey& k) const {
      std::uint64_t x = (std::uint64_t{k.f} << 42) ^ (std::uint64_t{k.g} << 21) ^
                        k.h;
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 33;
      return static_cast<std::size_t>(x);
    }
  };
  std::unordered_map<IteKey, BddRef, IteKeyHash> ite_cache_;
  std::unordered_map<BddRef, double> count_cache_;
};

}  // namespace sable
