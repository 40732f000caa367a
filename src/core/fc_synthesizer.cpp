#include "core/fc_synthesizer.hpp"

#include <algorithm>

#include "core/enhancer.hpp"
#include "expr/transforms.hpp"
#include "util/error.hpp"

namespace sable {

namespace {

class Synthesizer {
 public:
  Synthesizer(DpdnNetwork& net, bool enhance) : net_(net), enhance_(enhance) {}

  // Emits the differential module of NNF expression `e` between true-top P,
  // false-top Q and bottom R.
  void emit(const ExprPtr& e, NodeId p, NodeId q, NodeId r) {
    if (e->is_literal()) {
      const SignalLiteral lit{e->literal_var(), e->literal_positive()};
      net_.add_switch(lit, p, r);
      net_.add_switch(SignalLiteral{lit.var, !lit.positive}, q, r);
      return;
    }
    switch (e->kind()) {
      case ExprKind::kAnd:
        emit_nary(e, p, q, r, /*is_and=*/true, 0);
        return;
      case ExprKind::kOr:
        emit_nary(e, p, q, r, /*is_and=*/false, 0);
        return;
      default:
        throw InvalidArgument(
            "FC synthesis requires a non-constant NNF expression");
    }
  }

 private:
  // Right-fold of operand `index` of the n-ary node `e`.
  void emit_nary(const ExprPtr& e, NodeId p, NodeId q, NodeId r, bool is_and,
                 std::size_t index) {
    const auto& ops = e->operands();
    if (index + 1 == ops.size()) {
      emit(ops[index], p, q, r);
      return;
    }
    const ExprPtr& x = ops[index];
    if (is_and) {
      // Case A: f = x.y — share the y network at the bottom of the series
      // chain; the false branch of y hangs from Q (possibly padded).
      const NodeId w = net_.add_internal_node();
      emit(x, p, q, w);
      const NodeId q_pad = enhance_ ? pad_with_pass_gates(q, x) : q;
      emit_nary(e, w, q_pad, r, is_and, index + 1);
    } else {
      // Case B: f = x+y — share the y' network at the bottom of the dual
      // series chain; the direct true branch of y hangs from P (padded).
      const NodeId v = net_.add_internal_node("V" + next_v_suffix());
      emit(x, p, q, v);
      const NodeId p_pad = enhance_ ? pad_with_pass_gates(p, x) : p;
      emit_nary(e, p_pad, v, r, is_and, index + 1);
    }
  }

  // §5: inserts a series chain of pass gates covering every variable of the
  // skipped sub-network `skipped`, starting at `from`; returns the far end.
  NodeId pad_with_pass_gates(NodeId from, const ExprPtr& skipped) {
    std::vector<VarId> vars = skipped->variables();
    std::sort(vars.begin(), vars.end());
    NodeId current = from;
    for (VarId v : vars) {
      const NodeId next = net_.add_internal_node("P" + next_p_suffix());
      net_.add_pass_gate(v, current, next);
      current = next;
    }
    return current;
  }

  std::string next_v_suffix() { return std::to_string(++v_counter_); }
  std::string next_p_suffix() { return std::to_string(++p_counter_); }

  DpdnNetwork& net_;
  bool enhance_;
  std::size_t v_counter_ = 0;
  std::size_t p_counter_ = 0;
};

DpdnNetwork synthesize(const ExprPtr& f, std::size_t num_vars, bool enhance) {
  SABLE_REQUIRE(!f->is_const(),
                "cannot synthesize a DPDN for a constant function");
  DpdnNetwork net(num_vars);
  Synthesizer synth(net, enhance);
  synth.emit(to_nnf(f), DpdnNetwork::kNodeX, DpdnNetwork::kNodeY,
             DpdnNetwork::kNodeZ);
  return net;
}

}  // namespace

DpdnNetwork synthesize_fc_dpdn(const ExprPtr& f, std::size_t num_vars) {
  return synthesize(f, num_vars, /*enhance=*/false);
}

DpdnNetwork synthesize_enhanced_dpdn(const ExprPtr& f, std::size_t num_vars) {
  return synthesize(f, num_vars, /*enhance=*/true);
}

}  // namespace sable
