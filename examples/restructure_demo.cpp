// Demonstrates the paper's restructuring front half (its Fig 5 model):
// DO loops with scalar recurrences are converted into synchronizable
// DOACROSS form with induction-variable substitution, reduction
// replacement and scalar expansion, then scheduled and simulated.
#include <cstdio>

#include "sbmp/core/pipeline.h"
#include "sbmp/restructure/classify.h"
#include "sbmp/restructure/restructure.h"

namespace {

const char* kSamples[] = {
    // Dot-product reduction.
    R"(loop dot_product
do I = 1, 100
  sum = sum + A[I] * B[I]
end)",
    // Temporary reused across iterations (expansion creates an LBD).
    R"(loop smoothing
do I = 1, 100
  B[I] = t * w1 + A[I]
  t = A[I] * w2 - B[I]
end)",
    // Induction variable driving a coefficient.
    R"(loop weighted
do I = 1, 100
  init k = 1
  k = k + 2
  C[I] = A[I] * k + B[I]
end)",
    // Everything at once.
    R"(loop mixed
do I = 1, 100
  init k = 0
  k = k + 1
  s = s + A[I] * k
  t = B[I] - s
  C[I] = t / 2
end)",
};

}  // namespace

int main() {
  using namespace sbmp;

  for (const char* source : kSamples) {
    const PreLoop pre = parse_single_pre_loop_or_throw(source);
    std::printf("=== %s ===\n%s", pre.name.c_str(),
                pre.to_string().c_str());

    const RestructureResult restructured = restructure_or_throw(pre);
    for (const auto& note : restructured.notes)
      std::printf("  pass: %s\n", note.to_string().c_str());
    std::printf("restructured:\n%s",
                restructured.loop.to_string().c_str());

    const DepAnalysis deps = analyze_dependences(restructured.loop);
    std::printf("classification: %s\n",
                doacross_types_to_string(
                    classify_doacross(restructured, deps))
                    .c_str());

    PipelineOptions options;
    options.machine = machines::paper(4, 1);
    options.iterations = 100;
    if (deps.is_doall()) {
      std::printf("loop is Doall after restructuring; runs in one "
                  "iteration time\n\n");
      continue;
    }
    const SchedulerComparison cmp =
        compare_schedulers(restructured.loop, options);
    std::printf("parallel time: list %lld, sync-aware %lld (%.1f%% "
                "improvement)\n\n",
                static_cast<long long>(cmp.baseline.parallel_time()),
                static_cast<long long>(cmp.improved.parallel_time()),
                cmp.improvement() * 100.0);
  }
  return 0;
}
