#include <gtest/gtest.h>

#include "sbmp/frontend/lexer.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/suite.h"

namespace sbmp {
namespace {

// The paper's Fig 1(a) running example.
constexpr const char* kFig1 = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

// The compile corpus's stencil (bench_common.h).
constexpr const char* kStencil = R"(
doacross I = 1, 100
  U[I] = (U[I-1] + V[I]) * w1 + V[I+1] * w2
  R[I] = V[I-2] * w3 + V[I+2]
  Q[I] = R[I] + V[I] / w4
end
)";

TEST(Lexer, BasicTokens) {
  DiagEngine diags;
  const auto tokens = lex("A[I-2] = 4 * x", diags);
  EXPECT_TRUE(diags.ok());
  ASSERT_GE(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].kind, TokKind::kIdent);
  EXPECT_EQ(tokens[0].text, "A");
  EXPECT_EQ(tokens[1].kind, TokKind::kLBracket);
  EXPECT_EQ(tokens[2].kind, TokKind::kIdent);
  EXPECT_EQ(tokens[3].kind, TokKind::kMinus);
  EXPECT_EQ(tokens[4].kind, TokKind::kInt);
  EXPECT_EQ(tokens[4].value, 2);
}

TEST(Lexer, CommentsIgnored) {
  DiagEngine diags;
  const auto tokens = lex("x # comment here\n! another\ny", diags);
  EXPECT_TRUE(diags.ok());
  // x NL y NL EOF
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[1].kind, TokKind::kNewline);
  EXPECT_EQ(tokens[2].text, "y");
}

TEST(Lexer, CollapsesNewlines) {
  DiagEngine diags;
  const auto tokens = lex("a\n\n\nb", diags);
  ASSERT_EQ(tokens.size(), 5u);  // a NL b NL EOF
  EXPECT_EQ(tokens[1].kind, TokKind::kNewline);
  EXPECT_EQ(tokens[2].text, "b");
}

TEST(Lexer, ShiftOperator) {
  DiagEngine diags;
  const auto tokens = lex("a << 2", diags);
  EXPECT_TRUE(diags.ok());
  EXPECT_EQ(tokens[1].kind, TokKind::kShl);
}

TEST(Lexer, TracksLocations) {
  DiagEngine diags;
  const auto tokens = lex("a\n  b", diags);
  EXPECT_EQ(tokens[0].loc.line, 1u);
  EXPECT_EQ(tokens[0].loc.column, 1u);
  EXPECT_EQ(tokens[2].loc.line, 2u);
  EXPECT_EQ(tokens[2].loc.column, 3u);
}

TEST(Lexer, ReportsBadCharacter) {
  DiagEngine diags;
  (void)lex("a @ b", diags);
  EXPECT_FALSE(diags.ok());
}

TEST(Parser, ParsesFig1Loop) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  EXPECT_TRUE(loop.declared_doacross);
  EXPECT_EQ(loop.iter_var, "I");
  EXPECT_EQ(loop.lower, 1);
  EXPECT_EQ(loop.upper, 100);
  EXPECT_EQ(loop.trip_count(), 100);
  ASSERT_EQ(loop.body.size(), 3u);
  EXPECT_EQ(loop.body[0].lhs.array, "B");
  EXPECT_EQ(loop.body[0].lhs.index, (AffineIndex{1, 0}));
  EXPECT_EQ(loop.body[1].lhs.array, "G");
  EXPECT_EQ(loop.body[1].lhs.index, (AffineIndex{1, -3}));
  EXPECT_EQ(loop.body[2].label(), "S3");
}

TEST(Parser, StatementRendering) {
  const Loop loop = parse_single_loop_or_throw(kFig1);
  EXPECT_EQ(statement_to_string(loop.body[0], loop.iter_var),
            "S1: B[I] = (A[I-2]+E[I+1])");
  EXPECT_EQ(statement_to_string(loop.body[2], loop.iter_var),
            "S3: A[I] = (B[I]+C[I+3])");
}

TEST(Parser, NamedLoopAndDeclarations) {
  const Loop loop = parse_single_loop_or_throw(R"(
loop demo
do I = 1, 10
  int K
  K[I] = K[I-1] + 1
end
)");
  EXPECT_EQ(loop.name, "demo");
  EXPECT_FALSE(loop.declared_doacross);
  EXPECT_EQ(loop.array_type("K"), ElemType::kInt);
  EXPECT_EQ(loop.array_type("unknown"), ElemType::kReal);
}

TEST(Parser, MultipleLoops) {
  const Program program = parse_program_or_throw(R"(
do I = 1, 5
  A[I] = B[I]
end
doacross J = 1, 7
  C[J] = C[J-1] * 2
end
)");
  ASSERT_EQ(program.loops.size(), 2u);
  EXPECT_EQ(program.loops[1].iter_var, "J");
  EXPECT_EQ(program.loops[1].trip_count(), 7);
}

TEST(Parser, ScaledSubscript) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 8
  A[2*I+1] = B[3*I-2]
end
)");
  EXPECT_EQ(loop.body[0].lhs.index, (AffineIndex{2, 1}));
  std::vector<ArrayRef> reads;
  collect_array_refs(loop.body[0].rhs, reads);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].index, (AffineIndex{3, -2}));
}

TEST(Parser, AffineFoldsArithmetic) {
  // (I+1)*2 - I  =>  coef 1, offset 2
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 8
  A[(I+1)*2-I] = B[I]
end
)");
  EXPECT_EQ(loop.body[0].lhs.index, (AffineIndex{1, 2}));
}

TEST(Parser, RejectsNonAffineSubscript) {
  DiagEngine diags;
  (void)parse_program("do I = 1, 4\n A[I*I] = B[I]\nend\n", diags);
  EXPECT_FALSE(diags.ok());
}

TEST(Parser, RejectsScalarLhs) {
  DiagEngine diags;
  (void)parse_program("do I = 1, 4\n s = B[I]\nend\n", diags);
  EXPECT_FALSE(diags.ok());
}

TEST(Parser, RejectsMissingEnd) {
  DiagEngine diags;
  (void)parse_program("do I = 1, 4\n A[I] = B[I]\n", diags);
  EXPECT_FALSE(diags.ok());
}

TEST(Parser, NegativeBounds) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = -3, 3
  A[I] = B[I]
end
)");
  EXPECT_EQ(loop.lower, -3);
  EXPECT_EQ(loop.trip_count(), 7);
}

TEST(Parser, UnaryMinusFoldsIntoConstant) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 4
  A[I] = B[I] * -2
end
)");
  const auto& bin = std::get<BinaryExpr>(loop.body[0].rhs);
  const auto& rhs = std::get<IntConst>(*bin.rhs);
  EXPECT_EQ(rhs.value, -2);
}

TEST(Parser, UnaryMinusOnExpressionLowersAsSubtraction) {
  const Loop loop = parse_single_loop_or_throw(R"(
do I = 1, 4
  A[I] = -B[I]
end
)");
  const auto& bin = std::get<BinaryExpr>(loop.body[0].rhs);
  EXPECT_EQ(bin.op, BinOp::kSub);
  EXPECT_EQ(std::get<IntConst>(*bin.lhs).value, 0);
}

TEST(Parser, SemicolonSeparatesStatements) {
  const Loop loop = parse_single_loop_or_throw(
      "do I = 1, 4\n A[I] = B[I]; C[I] = A[I]\nend\n");
  EXPECT_EQ(loop.body.size(), 2u);
}

TEST(Parser, SingleLoopHelperRejectsMany) {
  EXPECT_THROW((void)parse_single_loop_or_throw(R"(
do I = 1, 2
  A[I] = B[I]
end
do J = 1, 2
  C[J] = D[J]
end
)"),
               SbmpError);
}

TEST(Parser, LoopRoundTripsThroughToString) {
  // Rendering is a fixed point of parse: parse(render(L)) renders back
  // to exactly render(L). The serving layer probes its cache with
  // request text on this premise, so the whole text is compared over
  // the compile corpus (the running example, the stencil) and every
  // Perfect-suite loop.
  std::vector<Loop> loops = {parse_single_loop_or_throw(kFig1),
                             parse_single_loop_or_throw(kStencil)};
  for (const auto& bench : perfect_suite())
    for (const Loop& loop : bench.program().loops) loops.push_back(loop);
  for (const Loop& loop : loops) {
    SCOPED_TRACE(loop.name);
    const std::string rendering = loop.to_string();
    const Loop again = parse_single_loop_or_throw(rendering);
    EXPECT_EQ(again.to_string(), rendering);
    ASSERT_EQ(again.body.size(), loop.body.size());
    for (std::size_t s = 0; s < loop.body.size(); ++s) {
      EXPECT_EQ(statement_to_string(again.body[s], again.iter_var),
                statement_to_string(loop.body[s], loop.iter_var));
    }
  }
  EXPECT_GT(loops.size(), 20u);
}

TEST(ExtractAffine, NonAffineShapes) {
  const Expr quad =
      make_bin(BinOp::kMul, Expr{IterVar{}}, Expr{IterVar{}});
  EXPECT_FALSE(extract_affine(quad, "I").has_value());
  const Expr scalar = make_scalar("s");
  EXPECT_FALSE(extract_affine(scalar, "I").has_value());
  const Expr div = make_bin(BinOp::kDiv, Expr{IterVar{}}, make_const(2));
  EXPECT_FALSE(extract_affine(div, "I").has_value());
}

TEST(ExtractAffine, ShiftScales) {
  const Expr shifted = make_bin(BinOp::kShl, Expr{IterVar{}}, make_const(3));
  const auto affine = extract_affine(shifted, "I");
  ASSERT_TRUE(affine.has_value());
  EXPECT_EQ(*affine, (AffineIndex{8, 0}));
}

}  // namespace
}  // namespace sbmp
