// Tests for the transistor-network representation and conduction analysis.
#include <gtest/gtest.h>

#include <limits>

#include "core/genuine_builder.hpp"
#include "expr/parser.hpp"
#include "netlist/conduction.hpp"
#include "netlist/network.hpp"
#include "netlist/sp_tree.hpp"
#include "netlist/union_find.hpp"
#include "util/error.hpp"

namespace sable {
namespace {

TEST(UnionFindTest, BasicOperations) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.same(0, 1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));
  EXPECT_TRUE(uf.same(0, 1));
  uf.unite(2, 3);
  uf.unite(1, 2);
  EXPECT_TRUE(uf.same(0, 3));
  EXPECT_FALSE(uf.same(0, 4));
}

TEST(SignalLiteralTest, Conduction) {
  const SignalLiteral a_pos{0, true};
  const SignalLiteral a_neg{0, false};
  EXPECT_TRUE(a_pos.conducts(0b1));
  EXPECT_FALSE(a_pos.conducts(0b0));
  EXPECT_FALSE(a_neg.conducts(0b1));
  EXPECT_TRUE(a_neg.conducts(0b0));
}

TEST(NetworkTest, NodeBookkeeping) {
  DpdnNetwork net(2);
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_EQ(net.internal_node_count(), 0u);
  const NodeId w = net.add_internal_node();
  EXPECT_EQ(net.node_name(w), "W1");
  EXPECT_FALSE(net.is_external(w));
  EXPECT_TRUE(net.is_external(DpdnNetwork::kNodeZ));
}

TEST(NetworkTest, RejectsInvalidSwitches) {
  DpdnNetwork net(2);
  EXPECT_THROW(net.add_switch(SignalLiteral{0, true}, 0, 0), InvalidArgument);
  EXPECT_THROW(net.add_switch(SignalLiteral{0, true}, 0, 99), InvalidArgument);
  EXPECT_THROW(net.add_switch(SignalLiteral{7, true}, 0, 1), InvalidArgument);
}

TEST(NetworkTest, PassGateCountsTwoDevices) {
  DpdnNetwork net(2);
  const NodeId w = net.add_internal_node();
  net.add_pass_gate(0, DpdnNetwork::kNodeY, w);
  EXPECT_EQ(net.device_count(), 2u);
  EXPECT_EQ(net.pass_gate_device_count(), 2u);
  // A pass gate conducts for both polarities of its variable.
  EXPECT_TRUE(conducts(net, 0b0, DpdnNetwork::kNodeY, w));
  EXPECT_TRUE(conducts(net, 0b1, DpdnNetwork::kNodeY, w));
}

// Fig. 2 (left): genuine AND-NAND network built by hand.
DpdnNetwork fig2_genuine() {
  DpdnNetwork net(2);  // A = 0, B = 1
  const NodeId w = net.add_internal_node("W");
  net.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeX, w);   // A
  net.add_switch(SignalLiteral{1, true}, w, DpdnNetwork::kNodeZ);   // B
  net.add_switch(SignalLiteral{0, false}, DpdnNetwork::kNodeY,
                 DpdnNetwork::kNodeZ);                              // A'
  net.add_switch(SignalLiteral{1, false}, DpdnNetwork::kNodeY,
                 DpdnNetwork::kNodeZ);                              // B'
  return net;
}

TEST(ConductionTest, GenuineAndNandFunctionality) {
  const DpdnNetwork net = fig2_genuine();
  VarTable vars;
  const ExprPtr f = parse_expression("A.B", vars);
  const TruthTable fx =
      conduction_function(net, DpdnNetwork::kNodeX, DpdnNetwork::kNodeZ);
  const TruthTable fy =
      conduction_function(net, DpdnNetwork::kNodeY, DpdnNetwork::kNodeZ);
  EXPECT_EQ(fx, table_of(f, 2));
  EXPECT_EQ(fy, table_of(f, 2).complemented());
}

TEST(ConductionTest, FloatingNodeDetection) {
  const DpdnNetwork net = fig2_genuine();
  // (0,0): A and B low -> W disconnected from everything (the paper's
  // memory-effect example).
  const auto connected = connected_to_external(net, 0b00);
  const NodeId w = 3;
  EXPECT_FALSE(connected[w]);
  // (1,1): W conducts to X and Z.
  const auto connected11 = connected_to_external(net, 0b11);
  EXPECT_TRUE(connected11[w]);
}

TEST(ConductionTest, ShortestConductingPath) {
  const DpdnNetwork net = fig2_genuine();
  EXPECT_EQ(shortest_conducting_path(net, 0b11, DpdnNetwork::kNodeX,
                                     DpdnNetwork::kNodeZ),
            2u);
  EXPECT_EQ(shortest_conducting_path(net, 0b00, DpdnNetwork::kNodeY,
                                     DpdnNetwork::kNodeZ),
            1u);
  EXPECT_EQ(shortest_conducting_path(net, 0b00, DpdnNetwork::kNodeX,
                                     DpdnNetwork::kNodeZ),
            std::numeric_limits<std::size_t>::max());
}

TEST(ConductionTest, PathEnumeration) {
  const DpdnNetwork net = fig2_genuine();
  const auto x_paths =
      enumerate_paths(net, DpdnNetwork::kNodeX, DpdnNetwork::kNodeZ);
  ASSERT_EQ(x_paths.size(), 1u);
  EXPECT_EQ(x_paths[0].device_indices.size(), 2u);
  EXPECT_TRUE(x_paths[0].satisfiable);
  const auto y_paths =
      enumerate_paths(net, DpdnNetwork::kNodeY, DpdnNetwork::kNodeZ);
  EXPECT_EQ(y_paths.size(), 2u);
}

TEST(ConductionTest, ContradictoryPathMarkedUnsatisfiable) {
  DpdnNetwork net(1);
  const NodeId w = net.add_internal_node();
  net.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeX, w);
  net.add_switch(SignalLiteral{0, false}, w, DpdnNetwork::kNodeZ);
  const auto paths =
      enumerate_paths(net, DpdnNetwork::kNodeX, DpdnNetwork::kNodeZ);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_FALSE(paths[0].satisfiable);
}

TEST(SpTreeTest, PartitionsGenuineBranches) {
  const DpdnNetwork net = fig2_genuine();
  const BranchPartition part = partition_branches(net);
  EXPECT_EQ(part.x_branch.size(), 2u);
  EXPECT_EQ(part.y_branch.size(), 2u);
}

TEST(SpTreeTest, ExtractsSeriesParallelExpression) {
  VarTable vars;
  const ExprPtr f = parse_expression("(A+B).(C+D)", vars);
  const DpdnNetwork net = build_genuine_dpdn(f, 4);
  const BranchPartition part = partition_branches(net);
  const ExprPtr fx =
      extract_sp_expression(net, part.x_branch, DpdnNetwork::kNodeX);
  EXPECT_TRUE(equivalent(fx, f, 4));
  // Structural: top-to-bottom AND order is preserved.
  ASSERT_EQ(fx->kind(), ExprKind::kAnd);
  EXPECT_TRUE(equivalent(fx->operands()[0],
                         parse_expression("A+B", vars), 4));
}

TEST(SpTreeTest, RejectsNonSeparableNetwork) {
  // An FC network shares internal nodes between branches: not partitionable.
  DpdnNetwork net(2);
  const NodeId w = net.add_internal_node();
  net.add_switch(SignalLiteral{0, true}, DpdnNetwork::kNodeX, w);
  net.add_switch(SignalLiteral{1, true}, w, DpdnNetwork::kNodeZ);
  net.add_switch(SignalLiteral{0, false}, DpdnNetwork::kNodeY, w);
  net.add_switch(SignalLiteral{1, false}, DpdnNetwork::kNodeY,
                 DpdnNetwork::kNodeZ);
  EXPECT_THROW(partition_branches(net), InvalidArgument);
}

TEST(NetworkTest, ToStringListsDevices) {
  VarTable vars = VarTable::alphabetic(2);
  const DpdnNetwork net = fig2_genuine();
  const std::string text = net.to_string(vars);
  EXPECT_NE(text.find("A: X -- W"), std::string::npos);
  EXPECT_NE(text.find("B': Y -- Z"), std::string::npos);
}

}  // namespace
}  // namespace sable
