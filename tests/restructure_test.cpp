#include <gtest/gtest.h>

#include "sbmp/core/pipeline.h"
#include "sbmp/restructure/classify.h"
#include "sbmp/restructure/restructure.h"

namespace sbmp {
namespace {

RestructureResult restructure(const char* src) {
  return restructure_or_throw(parse_single_pre_loop_or_throw(src));
}

std::string loop_body(const RestructureResult& r) {
  std::string out;
  for (const auto& stmt : r.loop.body)
    out += statement_to_string(stmt, r.loop.iter_var) + "\n";
  return out;
}

TEST(PreParser, ScalarStatementsAndInit) {
  const PreLoop pre = parse_single_pre_loop_or_throw(R"(
do I = 1, 100
  init k = 3
  sum = sum + A[I]
  B[I] = sum * 2
  k = k + 2
end
)");
  ASSERT_EQ(pre.body.size(), 3u);
  EXPECT_TRUE(pre.body[0].is_scalar());
  EXPECT_EQ(pre.body[0].scalar_lhs, "sum");
  EXPECT_FALSE(pre.body[1].is_scalar());
  EXPECT_EQ(pre.scalar_inits.at("k"), 3);
}

TEST(PreParser, PlainParserStillRejectsScalars) {
  DiagEngine diags;
  (void)parse_program("do I = 1, 4\n s = B[I]\nend\n", diags);
  EXPECT_FALSE(diags.ok());
}

TEST(PreParser, PreLoopRoundTrips) {
  const PreLoop pre = parse_single_pre_loop_or_throw(R"(
do I = 1, 10
  init k = -2
  k = k + 1
  A[I] = B[I] * k
end
)");
  const PreLoop again = parse_single_pre_loop_or_throw(pre.to_string());
  EXPECT_EQ(again.scalar_inits.at("k"), -2);
  ASSERT_EQ(again.body.size(), pre.body.size());
}

TEST(Restructure, ReductionReplacement) {
  const auto r = restructure(R"(
do I = 1, 100
  sum = sum + A[I] * B[I]
end
)");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.notes.size(), 1u);
  EXPECT_EQ(r.notes[0].kind, RestructureNote::Kind::kReductionReplacement);
  EXPECT_EQ(loop_body(r), "S1: sum_x[I] = (sum_x[I-1]+(A[I]*B[I]))\n");
  // The partial-sum recurrence is a distance-1 LBD DOACROSS loop.
  const DepAnalysis deps = analyze_dependences(r.loop);
  EXPECT_FALSE(deps.is_doall());
  EXPECT_EQ(deps.count_lbd(), 1);
}

TEST(Restructure, ProductReductionToo) {
  const auto r = restructure(R"(
do I = 1, 50
  prod = prod * A[I]
end
)");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.applied(RestructureNote::Kind::kReductionReplacement));
}

TEST(Restructure, ReductionWithOtherUsesBecomesExpansion) {
  const auto r = restructure(R"(
do I = 1, 100
  sum = sum + A[I]
  B[I] = sum / 2
end
)");
  ASSERT_TRUE(r.ok);
  // `sum` is observed each iteration, so this is a running prefix sum:
  // scalar expansion, not reduction replacement.
  EXPECT_TRUE(r.applied(RestructureNote::Kind::kScalarExpansion));
  EXPECT_FALSE(r.applied(RestructureNote::Kind::kReductionReplacement));
  EXPECT_EQ(loop_body(r),
            "S1: sum_x[I] = (sum_x[I-1]+A[I])\n"
            "S2: B[I] = (sum_x[I]/2)\n");
}

TEST(Restructure, ScalarExpansionUsesBeforeDefReadPreviousIteration) {
  const auto r = restructure(R"(
do I = 1, 100
  B[I] = t + A[I]
  t = C[I] * 2
end
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(loop_body(r),
            "S1: B[I] = (t_x[I-1]+A[I])\n"
            "S2: t_x[I] = (C[I]*2)\n");
  // The expanded use creates a genuine backward carried dependence.
  const DepAnalysis deps = analyze_dependences(r.loop);
  EXPECT_EQ(deps.count_lbd(), 1);
}

TEST(Restructure, ScalarExpansionUsesAfterDefStayInIteration) {
  const auto r = restructure(R"(
do I = 1, 100
  t = C[I] * 2
  B[I] = t + A[I]
end
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(loop_body(r),
            "S1: t_x[I] = (C[I]*2)\n"
            "S2: B[I] = (t_x[I]+A[I])\n");
  EXPECT_TRUE(analyze_dependences(r.loop).is_doall());
}

TEST(Restructure, MultipleDefinitionsChainCorrectly) {
  const auto r = restructure(R"(
do I = 1, 100
  t = A[I] + 1
  t = t * B[I]
  C[I] = t - 3
end
)");
  ASSERT_TRUE(r.ok);
  // First def's self-use would read the previous iteration (none here);
  // the second def reads this iteration's first write.
  EXPECT_EQ(loop_body(r),
            "S1: t_x[I] = (A[I]+1)\n"
            "S2: t_x[I] = (t_x[I]*B[I])\n"
            "S3: C[I] = (t_x[I]-3)\n");
}

TEST(Restructure, InductionSubstitutionWithInit) {
  const auto r = restructure(R"(
do I = 1, 100
  init k = 5
  k = k + 2
  B[I] = A[I] * k
end
)");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.notes.size(), 1u);
  EXPECT_EQ(r.notes[0].kind,
            RestructureNote::Kind::kInductionSubstitution);
  // Use after the update in iteration I sees 5 + 2*(I-1+1) = 5 + 2*I.
  EXPECT_EQ(loop_body(r), "S1: B[I] = (A[I]*(5+(2*(I+0))))\n");
  EXPECT_TRUE(analyze_dependences(r.loop).is_doall());
}

TEST(Restructure, InductionUseBeforeUpdate) {
  const auto r = restructure(R"(
do I = 1, 100
  init k = 0
  B[I] = A[I] + k
  k = k + 3
end
)");
  ASSERT_TRUE(r.ok);
  // Use before the update sees 0 + 3*(I-1).
  EXPECT_EQ(loop_body(r), "S1: B[I] = (A[I]+(0+(3*(I-1))))\n");
}

TEST(Restructure, InductionWithoutInitStaysSymbolic) {
  const auto r = restructure(R"(
do I = 1, 100
  k = k - 4
  B[I] = A[I] * k
end
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(loop_body(r), "S1: B[I] = (A[I]*(k+(-4*(I+0))))\n");
}

TEST(Restructure, CombinedTransformations) {
  const auto r = restructure(R"(
do I = 1, 100
  init k = 1
  k = k + 1
  sum = sum + A[I] * k
  t = B[I] - sum
  C[I] = t / 2
end
)");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.applied(RestructureNote::Kind::kInductionSubstitution));
  EXPECT_TRUE(r.applied(RestructureNote::Kind::kScalarExpansion));
  // `sum` is read by the `t` statement, so it expands rather than being
  // a pure reduction.
  const DepAnalysis deps = analyze_dependences(r.loop);
  EXPECT_FALSE(deps.is_doall());
  EXPECT_TRUE(deps.is_synchronizable());
}

TEST(Restructure, NoScalarsIsIdentity) {
  const auto r = restructure(R"(
do I = 1, 10
  A[I] = B[I] + 1
end
)");
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.notes.empty());
  EXPECT_EQ(loop_body(r), "S1: A[I] = (B[I]+1)\n");
}

TEST(Restructure, FreshNameAvoidsCollision) {
  const auto r = restructure(R"(
do I = 1, 10
  t = A[I] + 1
  t_x[I] = t * 2
end
)");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(loop_body(r),
            "S1: t_xx[I] = (A[I]+1)\n"
            "S2: t_x[I] = (t_xx[I]*2)\n");
}

TEST(Restructure, RestructuredLoopKeepsNotesAndCompiles) {
  const RestructureResult restructured =
      restructure_or_throw(parse_single_pre_loop_or_throw(R"(
do I = 1, 100
  sum = sum + A[I]
end
)"));
  ASSERT_TRUE(restructured.ok);
  ASSERT_EQ(restructured.notes.size(), 1u);
  EXPECT_TRUE(
      restructured.applied(RestructureNote::Kind::kReductionReplacement));
  PipelineOptions options;
  options.check_ordering = true;
  const LoopReport report = run_pipeline(restructured.loop, options);
  EXPECT_TRUE(report.valid());
  EXPECT_FALSE(report.doall);
  // The partial-sum recurrence serializes: roughly n * span cycles.
  EXPECT_GT(report.parallel_time(), 100);
}

TEST(Restructure, EndToEndSchedulersCorrectOnRestructuredLoops) {
  const char* sources[] = {
      "do I = 1, 60\n sum = sum + A[I] * B[I]\nend\n",
      "do I = 1, 60\n t = A[I] + 1\n B[I] = t * t\n C[I] = t - B[I]\nend\n",
      "do I = 1, 60\n B[I] = t + A[I]\n t = C[I] * 2\nend\n",
      "do I = 1, 60\n init k = 2\n k = k + 2\n sum = sum + A[I] * "
      "k\nend\n",
  };
  for (const char* src : sources) {
    const RestructureResult restructured =
        restructure_or_throw(parse_single_pre_loop_or_throw(src));
    ASSERT_TRUE(restructured.ok) << src;
    for (const auto kind : {SchedulerKind::kList, SchedulerKind::kSyncAware}) {
      PipelineOptions options;
      options.scheduler = kind;
      options.iterations = 60;
      options.check_ordering = true;
      const LoopReport report = run_pipeline(restructured.loop, options);
      EXPECT_TRUE(report.valid()) << src << scheduler_name(kind);
    }
  }
}

TEST(Classify, ReductionLoop) {
  const auto r = restructure("do I = 1, 50\n s = s + A[I]\nend\n");
  const auto types = classify_doacross(r, analyze_dependences(r.loop));
  EXPECT_TRUE(types.count(DoacrossType::kReduction));
  EXPECT_TRUE(types.count(DoacrossType::kSimpleSubscript));
}

TEST(Classify, InductionLoop) {
  const auto r = restructure(
      "do I = 1, 50\n init k = 0\n k = k + 1\n B[I] = A[I] * k\nend\n");
  const auto types = classify_doacross(r, analyze_dependences(r.loop));
  EXPECT_TRUE(types.count(DoacrossType::kInduction));
}

TEST(Classify, AntiOutputLoop) {
  const auto r = restructure(
      "do I = 1, 50\n B[I] = A[I+1]\n A[I] = C[I]\nend\n");
  const auto types = classify_doacross(r, analyze_dependences(r.loop));
  EXPECT_TRUE(types.count(DoacrossType::kAntiOutput));
}

TEST(Classify, DoallRendersEmpty) {
  const auto r = restructure("do I = 1, 50\n A[I] = B[I]\nend\n");
  const auto types = classify_doacross(r, analyze_dependences(r.loop));
  EXPECT_TRUE(types.empty());
  EXPECT_EQ(doacross_types_to_string(types), "doall");
}

TEST(Classify, NonUnitCoefficientIsOther) {
  const auto r = restructure("do I = 1, 50\n A[2*I] = A[2*I-4] + 1\nend\n");
  const auto types = classify_doacross(r, analyze_dependences(r.loop));
  EXPECT_TRUE(types.count(DoacrossType::kOther));
}

}  // namespace
}  // namespace sbmp
