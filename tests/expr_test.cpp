// Tests for the expression module: AST construction, parsing, printing,
// truth tables and the NNF/complement transforms.
#include <gtest/gtest.h>

#include "expr/expression.hpp"
#include "expr/parser.hpp"
#include "expr/printer.hpp"
#include "expr/random_expr.hpp"
#include "expr/transforms.hpp"
#include "expr/truth_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sable {
namespace {

TEST(VarTableTest, InternsAndLooksUp) {
  VarTable vars;
  const VarId a = vars.intern("A");
  const VarId b = vars.intern("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(vars.intern("A"), a);
  EXPECT_EQ(vars.intern("B"), b);
  EXPECT_EQ(vars.name(a), "A");
  EXPECT_EQ(vars.size(), 2u);
}

TEST(VarTableTest, AlphabeticNames) {
  const VarTable vars = VarTable::alphabetic(4);
  EXPECT_EQ(vars.size(), 4u);
  EXPECT_EQ(vars.name(0), "A");
  EXPECT_EQ(vars.name(3), "D");
}

TEST(ExprTest, ConstantsAreSingletons) {
  EXPECT_EQ(Expr::constant(true), Expr::constant(true));
  EXPECT_EQ(Expr::constant(false), Expr::constant(false));
  EXPECT_NE(Expr::constant(true), Expr::constant(false));
}

TEST(ExprTest, FactoriesFoldConstants) {
  const ExprPtr a = Expr::variable(0);
  EXPECT_EQ(Expr::conj2(a, Expr::constant(false)), Expr::constant(false));
  EXPECT_EQ(Expr::conj2(a, Expr::constant(true)), a);
  EXPECT_EQ(Expr::disj2(a, Expr::constant(true)), Expr::constant(true));
  EXPECT_EQ(Expr::disj2(a, Expr::constant(false)), a);
  EXPECT_EQ(Expr::negate(Expr::negate(a)), a);
  EXPECT_EQ(Expr::negate(Expr::constant(true)), Expr::constant(false));
}

TEST(ExprTest, NaryFlattening) {
  const ExprPtr a = Expr::variable(0);
  const ExprPtr b = Expr::variable(1);
  const ExprPtr c = Expr::variable(2);
  const ExprPtr nested = Expr::conj2(a, Expr::conj2(b, c));
  EXPECT_EQ(nested->kind(), ExprKind::kAnd);
  EXPECT_EQ(nested->operands().size(), 3u);
}

TEST(ExprTest, LiteralQueries) {
  const ExprPtr a = Expr::variable(3);
  const ExprPtr na = Expr::negate(a);
  EXPECT_TRUE(a->is_literal());
  EXPECT_TRUE(na->is_literal());
  EXPECT_EQ(na->literal_var(), 3u);
  EXPECT_FALSE(na->literal_positive());
  EXPECT_TRUE(a->literal_positive());
  EXPECT_FALSE(Expr::conj2(a, na)->is_literal());
}

TEST(ExprTest, StructureQueries) {
  VarTable vars;
  const ExprPtr e = parse_expression("(A+B).(C+D)", vars);
  EXPECT_EQ(e->literal_count(), 4u);
  EXPECT_EQ(e->variables().size(), 4u);
}

TEST(ParserTest, ParsesPaperNotation) {
  VarTable vars;
  const ExprPtr e = parse_expression("A.B' + B'", vars);
  const ExprPtr f = parse_expression("A'.B + B'", vars);
  EXPECT_EQ(e->kind(), ExprKind::kOr);
  // A.B' + B' simplifies semantically to B' but must parse structurally.
  EXPECT_EQ(e->operands().size(), 2u);
  EXPECT_TRUE(equivalent(f, parse_expression("(A.B)'", vars), 2));
}

TEST(ParserTest, OperatorsAndPrecedence) {
  VarTable vars;
  EXPECT_TRUE(equivalent(parse_expression("A & B | C", vars),
                         parse_expression("(A.B) + C", vars), 3));
  EXPECT_TRUE(equivalent(parse_expression("!A", vars),
                         parse_expression("A'", vars), 1));
  EXPECT_TRUE(equivalent(parse_expression("A ^ B", vars),
                         parse_expression("A.B' + A'.B", vars), 2));
  EXPECT_TRUE(equivalent(parse_expression("A''", vars),
                         parse_expression("A", vars), 1));
}

TEST(ParserTest, Constants) {
  VarTable vars;
  EXPECT_EQ(parse_expression("0", vars), Expr::constant(false));
  EXPECT_EQ(parse_expression("1", vars), Expr::constant(true));
  EXPECT_EQ(parse_expression("A.0", vars), Expr::constant(false));
}

TEST(ParserTest, RejectsMalformedInput) {
  VarTable vars;
  EXPECT_THROW(parse_expression("A +", vars), ParseError);
  EXPECT_THROW(parse_expression("(A.B", vars), ParseError);
  EXPECT_THROW(parse_expression("A B", vars), ParseError);
  EXPECT_THROW(parse_expression("", vars), ParseError);
  EXPECT_THROW(parse_expression("A @ B", vars), ParseError);
}

TEST(PrinterTest, RoundTripsThroughParser) {
  VarTable vars;
  const char* cases[] = {"A.B", "A + B", "(A+B).(C+D)", "A.B' + B'",
                         "A.(B + C.D)"};
  for (const char* text : cases) {
    const ExprPtr e = parse_expression(text, vars);
    const std::string printed = to_string(e, vars);
    const ExprPtr back = parse_expression(printed, vars);
    EXPECT_TRUE(equivalent(e, back, 4)) << text << " -> " << printed;
  }
}

TEST(PrinterTest, PaperStyleOutput) {
  VarTable vars;
  const ExprPtr e = parse_expression("A'.B + B'", vars);
  EXPECT_EQ(to_string(e, vars), "A'.B + B'");
}

TEST(TruthTableTest, EvaluateBasics) {
  VarTable vars;
  const ExprPtr e = parse_expression("A.B", vars);
  EXPECT_FALSE(evaluate(e, 0b00));
  EXPECT_FALSE(evaluate(e, 0b01));
  EXPECT_FALSE(evaluate(e, 0b10));
  EXPECT_TRUE(evaluate(e, 0b11));
}

TEST(TruthTableTest, TableAndComplement) {
  VarTable vars;
  const ExprPtr e = parse_expression("(A+B).(C+D)", vars);
  const TruthTable t = table_of(e, 4);
  const TruthTable tc = t.complemented();
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    EXPECT_EQ(t.get(row), !tc.get(row));
  }
  EXPECT_EQ(t.popcount() + tc.popcount(), t.num_rows());
}

TEST(TruthTableTest, RejectsTooManyVariables) {
  EXPECT_THROW(TruthTable t(21), InvalidArgument);
}

TEST(TransformsTest, NnfPushesNegationsToLiterals) {
  VarTable vars;
  const ExprPtr e = parse_expression("((A+B).(C+D))'", vars);
  const ExprPtr nnf = to_nnf(e);
  EXPECT_TRUE(equivalent(e, nnf, 4));
  // Every NOT in the result must sit directly on a variable.
  std::vector<const Expr*> stack = {nnf.get()};
  while (!stack.empty()) {
    const Expr* node = stack.back();
    stack.pop_back();
    if (node->kind() == ExprKind::kNot) {
      EXPECT_TRUE(node->is_literal());
    }
    for (const auto& op : node->operands()) stack.push_back(op.get());
  }
}

TEST(TransformsTest, ComplementMatchesNegation) {
  VarTable vars;
  const ExprPtr e = parse_expression("A.B + C.D", vars);
  const ExprPtr comp = complement_nnf(e);
  EXPECT_TRUE(equivalent(comp, Expr::negate(e), 4));
  // The paper's OAI22 example: complement of (A+B).(C+D) is A'.B' + C'.D'.
  const ExprPtr oai = parse_expression("(A+B).(C+D)", vars);
  EXPECT_TRUE(equivalent(complement_nnf(oai),
                         parse_expression("A'.B' + C'.D'", vars), 4));
}

// Property sweep: complement and NNF agree with semantic negation on random
// expressions.
class RandomExprProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomExprProperty, ComplementAndNnfAreSound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  RandomExprOptions opt;
  opt.num_vars = 5;
  opt.num_literals = 12;
  const ExprPtr e = random_nnf(rng, opt);
  EXPECT_TRUE(equivalent(to_nnf(e), e, opt.num_vars));
  EXPECT_TRUE(equivalent(complement_nnf(e), Expr::negate(e), opt.num_vars));
  EXPECT_EQ(e->literal_count(), opt.num_literals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace sable
