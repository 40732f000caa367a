// Boolean expression AST.
//
// Expressions are immutable, shared DAG nodes. The design methods of the
// paper (§4) operate on negation-normal form (NNF): complements appear only
// on variables ("until the network consists of only 1 literal", step 4).
// Factory functions perform light canonicalization: constant folding,
// flattening of nested AND/OR, and double-negation elimination.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sable {

/// Index of an interned input variable.
using VarId = std::uint32_t;

/// Maps variable names to ids and back. Shared by parser, printer and the
/// netlist modules so that devices can be labelled with the paper's names
/// (A, B, C, D ...).
class VarTable {
 public:
  /// Returns the id of `name`, interning it on first use.
  VarId intern(const std::string& name);

  /// Name of variable `id`.
  const std::string& name(VarId id) const;

  std::size_t size() const { return names_.size(); }

  /// Convenience: intern names "A", "B", ... for `n` variables.
  static VarTable alphabetic(std::size_t n);

 private:
  std::vector<std::string> names_;
};

enum class ExprKind : std::uint8_t { kConst0, kConst1, kVar, kNot, kAnd, kOr };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// One immutable AST node. Build through the static factories only.
class Expr {
 public:
  ExprKind kind() const { return kind_; }
  bool is_const() const {
    return kind_ == ExprKind::kConst0 || kind_ == ExprKind::kConst1;
  }
  bool is_var() const { return kind_ == ExprKind::kVar; }
  /// A literal is a variable or a negated variable.
  bool is_literal() const;

  /// Variable id; valid when kind()==kVar, or for a literal via literal_var().
  VarId var() const;

  /// For a literal: its variable id.
  VarId literal_var() const;
  /// For a literal: true if the literal is positive (un-negated).
  bool literal_positive() const;

  const std::vector<ExprPtr>& operands() const { return ops_; }

  // -- Factories -------------------------------------------------------

  static ExprPtr constant(bool value);
  static ExprPtr variable(VarId id);
  /// Negation; folds constants and double negation.
  static ExprPtr negate(ExprPtr e);
  /// N-ary AND; flattens nested ANDs, folds constants, requires >= 1 operand.
  static ExprPtr conj(std::vector<ExprPtr> ops);
  /// N-ary OR; flattens nested ORs, folds constants, requires >= 1 operand.
  static ExprPtr disj(std::vector<ExprPtr> ops);
  /// XOR of two operands, expanded to NNF-friendly AND/OR form.
  static ExprPtr exclusive_or(ExprPtr a, ExprPtr b);

  // Binary conveniences.
  static ExprPtr conj2(ExprPtr a, ExprPtr b);
  static ExprPtr disj2(ExprPtr a, ExprPtr b);

  // -- Structure queries ------------------------------------------------

  /// Number of literal occurrences (leaf count counting repeats).
  std::size_t literal_count() const;
  /// All distinct variables, sorted ascending.
  std::vector<VarId> variables() const;

 private:
  Expr(ExprKind kind, VarId var, std::vector<ExprPtr> ops)
      : kind_(kind), var_(var), ops_(std::move(ops)) {}

  /// Shared flatten/fold logic behind conj() and disj().
  static ExprPtr make_nary(ExprKind kind, std::vector<ExprPtr> ops);

  ExprKind kind_;
  VarId var_ = 0;
  std::vector<ExprPtr> ops_;
};

}  // namespace sable
