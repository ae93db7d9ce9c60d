// Differential suite for the never-degrade guard.
//
// The guard's definition: a sync-aware compile keeps its schedule
// unless the list schedule of the same code simulates strictly faster,
// in which case the list schedule (flagged used_list_fallback) is the
// artifact. The guard reaches that decision with two exact shortcuts —
// the list placement's analytic lower bound skips the list build and
// simulation when "strictly faster" is impossible, and the list
// simulation otherwise stops at a cutoff once it cannot win — so these
// tests hold it to the definition itself: reference_guarded() rebuilds
// the decision from two plain compile() calls that share no code with
// the guard, over the Perfect corpus and a seed-scaled random sweep on
// several machine shapes. They also pin the soundness properties the
// shortcuts rest on: the analytic lower bound never exceeds the
// simulated time, and schedule_list_slots reproduces schedule_list's
// placement without materializing it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz_seeds.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/sim/analytic.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/rng.h"
#include "sbmp/sync/sync.h"

namespace sbmp {
namespace {

/// The guarded compile of `loop` under `options`, by definition and
/// from the public compile() alone: the unguarded sync-aware report,
/// replaced by the list-scheduled report (with used_list_fallback set)
/// exactly when that one simulates strictly faster.
LoopReport reference_guarded(const Loop& loop,
                             const PipelineOptions& options) {
  PipelineOptions unguarded = options;
  unguarded.never_degrade = false;
  LoopReport sync_aware = compile(CompileRequest{loop, unguarded}).report;
  PipelineOptions list_options = options;
  list_options.scheduler = SchedulerKind::kList;
  LoopReport list = compile(CompileRequest{loop, list_options}).report;
  if (list.sim.parallel_time < sync_aware.sim.parallel_time) {
    list.used_list_fallback = true;
    return list;
  }
  return sync_aware;
}

/// Asserts the artifact-level equality the guard's definition demands.
/// The observational fallback_sim_skipped flag is deliberately NOT
/// compared: it describes which shortcut ran, not what was compiled.
void expect_identical(const LoopReport& guarded, const LoopReport& reference,
                      const std::string& what) {
  EXPECT_EQ(guarded.schedule.groups, reference.schedule.groups) << what;
  EXPECT_EQ(guarded.schedule.slot_of, reference.schedule.slot_of) << what;
  EXPECT_EQ(guarded.sim.parallel_time, reference.sim.parallel_time) << what;
  EXPECT_EQ(guarded.sim.iteration_time, reference.sim.iteration_time)
      << what;
  EXPECT_EQ(guarded.sim.stall_cycles, reference.sim.stall_cycles) << what;
  EXPECT_EQ(guarded.sim.schedule_length, reference.sim.schedule_length)
      << what;
  EXPECT_EQ(guarded.used_list_fallback, reference.used_list_fallback)
      << what;
  EXPECT_EQ(guarded.waits_eliminated, reference.waits_eliminated) << what;
  EXPECT_EQ(guarded.validation_violations, reference.validation_violations)
      << what;
  EXPECT_EQ(guarded.status.ok(), reference.status.ok()) << what;
}

TEST(NeverDegradeDifferential, PerfectCorpusIsIdenticalAtAnyJobsCount) {
  int skips = 0;
  int list_wins = 0;
  CompileBatchOptions serial;
  serial.jobs = 1;
  CompileBatchOptions fanned;
  fanned.jobs = 8;
  for (const bool eliminate : {false, true}) {
    PipelineOptions options;  // defaults: sync-aware, guard on
    options.eliminate_redundant_waits = eliminate;
    for (const auto& bench : perfect_suite()) {
      const Program program = bench.program();
      std::vector<CompileRequest> requests;
      for (const Loop& loop : program.loops)
        requests.push_back({loop, options});
      const ProgramReport r1 = compile(requests, serial);
      const ProgramReport r8 = compile(requests, fanned);
      ASSERT_EQ(r1.loops.size(), program.loops.size()) << bench.name;
      ASSERT_EQ(r8.loops.size(), program.loops.size()) << bench.name;
      for (std::size_t i = 0; i < program.loops.size(); ++i) {
        const std::string what = bench.name + " loop " + std::to_string(i) +
                                 (eliminate ? " +elim" : "");
        const LoopReport reference =
            reference_guarded(program.loops[i], options);
        expect_identical(r1.loops[i], reference, what + " jobs1");
        expect_identical(r8.loops[i], reference, what + " jobs8");
        if (r1.loops[i].fallback_sim_skipped) ++skips;
        if (r1.loops[i].used_list_fallback) ++list_wins;
      }
    }
  }
  // Both branches of the decision must be exercised, or equality with
  // the reference would hold vacuously.
  EXPECT_GT(skips, 0);
  EXPECT_GT(list_wins, 0);
}

TEST(NeverDegradeDifferential, RandomLoopsMatchTheReferenceOnEveryMachine) {
  const std::vector<std::string> shapes = {
      "issue=4 fu=1",
      "issue=2 fu=1 buf=2",
      "issue=4 fu=2 sig=3",
      "issue=8 fu=ls:2,mul:2 lat=load:2,muli:3,mul:3,div:6,*:1 buf=3",
  };
  const int seeds = fuzz_seed_count();
  LoopGenConfig config;
  for (const std::string& shape : shapes) {
    PipelineOptions options;
    ASSERT_TRUE(parse_machine_desc(shape, &options.machine).ok()) << shape;
    for (int seed = 0; seed < seeds; ++seed) {
      SplitMix64 rng(static_cast<std::uint64_t>(seed) *
                         0x9e3779b97f4a7c15ull +
                     0x2545f4914f6cdd1dull);
      const Loop loop = generate_random_loop(rng, config);
      // Both the plain pipeline and the redundancy-elimination variant
      // (which rewrites the TAC in place on the hot path) must match.
      for (const bool eliminate : {false, true}) {
        options.eliminate_redundant_waits = eliminate;
        const std::string what = shape + " seed " + std::to_string(seed) +
                                 (eliminate ? " +elim" : "");
        expect_identical(compile(CompileRequest{loop, options}).report,
                         reference_guarded(loop, options), what);
      }
    }
  }
}

TEST(AnalyticBounds, LowerBoundsNeverExceedTheSimulatedTime) {
  // Soundness of the skip predicate, on every scheduler: the scheduled
  // bound under-approximates the given schedule. An over-approximation
  // here would let the guard skip a fallback that actually wins —
  // silently degrading a compile.
  const int seeds = fuzz_seed_count();
  LoopGenConfig config;
  const MachineDesc machine = machines::paper(4, 1);
  const std::int64_t n = 100;
  for (int seed = 0; seed < seeds; ++seed) {
    SplitMix64 rng(0xda942042e4dd58b5ull ^
                   (static_cast<std::uint64_t>(seed) * 7919));
    const Loop loop = generate_random_loop(rng, config);
    const DepAnalysis deps = analyze_dependences(loop);
    if (!deps.is_synchronizable()) continue;
    const TacFunction tac = generate_tac(insert_synchronization(loop, deps));
    const Dfg dfg(tac, machine);
    for (const SchedulerKind kind :
         {SchedulerKind::kSyncAware, SchedulerKind::kList,
          SchedulerKind::kInOrder}) {
      const Schedule schedule = run_scheduler(kind, tac, dfg, machine, n);
      SimOptions options;
      options.iterations = n;
      const SimResult sim = simulate(tac, dfg, schedule, machine, options);
      EXPECT_LE(scheduled_lower_bound(tac, dfg, machine, schedule.slot_of,
                                      schedule.length(), n),
                sim.parallel_time)
          << "seed " << seed << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(ListScheduleSlots, SlotsOnlyBuildMatchesTheMaterializedSchedule) {
  // The guard evaluates the list schedule's bound from the slots-only
  // build; any placement divergence from schedule_list would make the
  // bound answer a question about the wrong schedule.
  const int seeds = fuzz_seed_count();
  LoopGenConfig config;
  const MachineDesc machine = machines::paper(4, 1);
  std::vector<int> slot_of;
  for (int seed = 0; seed < seeds; ++seed) {
    SplitMix64 rng(0xbf58476d1ce4e5b9ull ^
                   (static_cast<std::uint64_t>(seed) * 104729));
    const Loop loop = generate_random_loop(rng, config);
    const DepAnalysis deps = analyze_dependences(loop);
    if (!deps.is_synchronizable()) continue;
    const TacFunction tac = generate_tac(insert_synchronization(loop, deps));
    const Dfg dfg(tac, machine);
    const Schedule full = schedule_list(tac, dfg, machine);
    const int length = schedule_list_slots(tac, dfg, machine, slot_of);
    EXPECT_EQ(length, full.length()) << "seed " << seed;
    EXPECT_EQ(slot_of, full.slot_of) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sbmp
