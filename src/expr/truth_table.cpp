#include "expr/truth_table.hpp"

#include <bit>

#include "util/error.hpp"

namespace sable {

TruthTable::TruthTable(std::size_t num_vars) : num_vars_(num_vars) {
  SABLE_REQUIRE(num_vars <= kMaxVars, "truth table limited to 20 variables");
  bits_.assign((num_rows() + 63) / 64, 0);
}

bool TruthTable::get(std::size_t row) const {
  SABLE_ASSERT(row < num_rows(), "truth table row out of range");
  return (bits_[row / 64] >> (row % 64)) & 1u;
}

void TruthTable::set(std::size_t row, bool value) {
  SABLE_ASSERT(row < num_rows(), "truth table row out of range");
  const std::uint64_t mask = std::uint64_t{1} << (row % 64);
  if (value) {
    bits_[row / 64] |= mask;
  } else {
    bits_[row / 64] &= ~mask;
  }
}

std::size_t TruthTable::popcount() const {
  std::size_t n = 0;
  for (auto word : bits_) n += static_cast<std::size_t>(std::popcount(word));
  return n;
}

TruthTable TruthTable::complemented() const {
  TruthTable out(num_vars_);
  for (std::size_t i = 0; i < bits_.size(); ++i) out.bits_[i] = ~bits_[i];
  // Clear padding bits beyond num_rows() so operator== stays meaningful.
  const std::size_t used = num_rows() % 64;
  if (used != 0) {
    out.bits_.back() &= (std::uint64_t{1} << used) - 1;
  }
  return out;
}

bool evaluate(const ExprPtr& e, std::uint64_t assignment) {
  switch (e->kind()) {
    case ExprKind::kConst0:
      return false;
    case ExprKind::kConst1:
      return true;
    case ExprKind::kVar:
      return (assignment >> e->var()) & 1u;
    case ExprKind::kNot:
      return !evaluate(e->operands()[0], assignment);
    case ExprKind::kAnd:
      for (const auto& op : e->operands()) {
        if (!evaluate(op, assignment)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const auto& op : e->operands()) {
        if (evaluate(op, assignment)) return true;
      }
      return false;
  }
  SABLE_UNREACHABLE("unreachable expression kind");
}

TruthTable table_of(const ExprPtr& e, std::size_t num_vars) {
  TruthTable t(num_vars);
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    t.set(row, evaluate(e, row));
  }
  return t;
}

bool equivalent(const ExprPtr& a, const ExprPtr& b, std::size_t num_vars) {
  return table_of(a, num_vars) == table_of(b, num_vars);
}

}  // namespace sable
