// Batch compile() engine: byte-identical agreement with the serial
// batch (jobs = 1, no cache) across job counts, cache correctness under
// concurrent callers, and determinism of the aggregated ProgramReport.
// Labeled `parallel` in CTest so sanitizer builds
// (-DSBMP_SANITIZE=thread) can target exactly these tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/obs/trace.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp {
namespace {

/// Renders every field of a report that the paper's tables consume —
/// loop order, times, schedules, violation lists — so two reports are
/// equal iff their renderings are byte-identical.
std::string render(const ProgramReport& report) {
  std::string out;
  out += "total=" + std::to_string(report.total_parallel_time);
  out += " doacross=" + std::to_string(report.doacross_loops);
  out += " doall=" + std::to_string(report.doall_loops);
  out += "\n";
  for (const auto& loop : report.loops) {
    out += loop.name + ":";
    out += " doall=" + std::to_string(loop.doall ? 1 : 0);
    out += " parallel=" + std::to_string(loop.parallel_time());
    out += " iter=" + std::to_string(loop.sim.iteration_time);
    out += " stalls=" + std::to_string(loop.sim.stall_cycles);
    out += " fallback=" + std::to_string(loop.used_list_fallback ? 1 : 0);
    out += " waits_elim=" + std::to_string(loop.waits_eliminated);
    out += " groups=[";
    for (const auto& group : loop.schedule.groups) {
      for (const int id : group) out += std::to_string(id) + ",";
      out += ";";
    }
    out += "]";
    for (const auto& v : loop.schedule_violations) out += " SV:" + v;
    for (const auto& v : loop.ordering_violations) out += " OV:" + v;
    out += "\n";
  }
  return out;
}

/// One request per loop of `program`, all under `options`.
std::vector<CompileRequest> requests_of(const Program& program,
                                        const PipelineOptions& options) {
  std::vector<CompileRequest> requests;
  for (const Loop& loop : program.loops) requests.push_back({loop, options});
  return requests;
}

/// The batch compile() on `jobs` workers, memoizing through `cache`
/// (nullptr = a per-call cache).
ProgramReport compile_on(const std::vector<CompileRequest>& requests,
                         int jobs, ResultCache* cache = nullptr) {
  CompileBatchOptions batch;
  batch.jobs = jobs;
  return compile(requests, batch, cache);
}

/// The serial reference: inline in request order, every loop compiled
/// afresh.
ProgramReport compile_serial(const std::vector<CompileRequest>& requests) {
  CompileBatchOptions batch;
  batch.jobs = 1;
  batch.use_cache = false;
  return compile(requests, batch);
}

/// Asserts that the batch at jobs {2, 8}, with a per-call cache and with
/// an external one, renders exactly like the serial reference.
void expect_matches_serial(const std::vector<CompileRequest>& requests,
                           const std::string& label) {
  const std::string serial = render(compile_serial(requests));
  for (const int jobs : {2, 8}) {
    EXPECT_EQ(serial, render(compile_on(requests, jobs)))
        << label << " diverged at --jobs " << jobs;
    ResultCache cache;
    EXPECT_EQ(serial, render(compile_on(requests, jobs, &cache)))
        << label << " diverged at --jobs " << jobs << " (external cache)";
  }
}

TEST(ParallelEngine, MatchesSerialEngineByteForByte) {
  PipelineOptions options;
  options.machine = machines::paper(4, 1);
  options.iterations = 100;
  for (const auto& bench : perfect_suite())
    expect_matches_serial(requests_of(bench.program(), options), bench.name);
}

TEST(ParallelEngine, MatchesSerialUnderListSchedulerAndChecks) {
  // A second option set: list scheduling with the ordering check on,
  // so violation lists (usually empty) and a different scheduler path
  // go through the comparison too.
  PipelineOptions options;
  options.machine = machines::paper(2, 1);
  options.scheduler = SchedulerKind::kList;
  options.check_ordering = true;
  options.iterations = 50;
  const auto& bench = perfect_suite().front();
  expect_matches_serial(requests_of(bench.program(), options), bench.name);
}

TEST(ParallelEngine, CacheDeduplicatesRepeatedRuns) {
  const std::vector<CompileRequest> requests =
      requests_of(perfect_suite().front().program(), PipelineOptions{});
  ResultCache cache;
  const ProgramReport first = compile_on(requests, 2, &cache);
  const std::int64_t misses_after_first = cache.misses();
  EXPECT_GT(misses_after_first, 0);
  const ProgramReport second = compile_on(requests, 2, &cache);
  // The second pass is served entirely from the cache...
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GT(cache.hits(), 0);
  // ...and is indistinguishable from a fresh computation.
  EXPECT_EQ(render(first), render(second));
}

TEST(ParallelEngine, CacheKeyCoversOptionsThatChangeResults) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  A[I] = A[I-1] + B[I]
end
)");
  PipelineOptions options;
  const std::string base = ResultCache::key(loop, options);
  PipelineOptions other = options;
  other.scheduler = SchedulerKind::kList;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.machine = machines::paper(2, 2);
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.iterations = 7;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.processors = 3;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.eliminate_redundant_waits = true;
  EXPECT_NE(base, ResultCache::key(loop, other));
  other = options;
  other.sync_aware.contiguous_paths = false;
  EXPECT_NE(base, ResultCache::key(loop, other));
}

TEST(ParallelEngine, CachedCompareMatchesUncached) {
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 100
  U[I] = (U[I-1] + V[I]) * w1
  R[I] = V[I-2] * w3 + V[I+2]
end
)");
  PipelineOptions options;
  ResultCache cache;
  const SchedulerComparison plain = compare_schedulers(loop, options);
  const SchedulerComparison cached =
      compare_schedulers(loop, options, &cache);
  EXPECT_EQ(plain.baseline.parallel_time(), cached.baseline.parallel_time());
  EXPECT_EQ(plain.improved.parallel_time(), cached.improved.parallel_time());
  // A repeat comparison is a pure cache hit with identical results.
  const std::int64_t misses = cache.misses();
  const SchedulerComparison again =
      compare_schedulers(loop, options, &cache);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(again.improved.schedule.groups, cached.improved.schedule.groups);
}

TEST(ParallelEngine, CachedCompareThrowsOnIrregularLoopAndCachesNothing) {
  // The cache does not soften compare_schedulers' throwing contract: an
  // irregular dependence throws kInput exactly as the uncached call
  // does, and no stub report lands in the cache.
  const Loop loop = parse_single_loop_or_throw(R"(
doacross I = 1, 30
  C[2*I] = C[5*I+1] + 1
end
)");
  const PipelineOptions options;
  ResultCache cache;
  std::vector<std::string> thrown;
  for (ResultCache* through : {static_cast<ResultCache*>(nullptr), &cache}) {
    try {
      (void)compare_schedulers(loop, options, through);
      ADD_FAILURE() << "irregular loop compared without throwing";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kInput);
      thrown.push_back(e.status().to_string());
    }
  }
  ASSERT_EQ(thrown.size(), 2u);
  EXPECT_EQ(thrown[0], thrown[1]);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ParallelEngine, JobsOneBypassesThreading) {
  // jobs = 1 must run inline on the calling thread (the documented
  // serial escape hatch): every phase span the batch traces carries the
  // caller's thread id.
  Tracer tracer;
  { const Tracer::Span caller = Tracer::begin(&tracer, "caller"); }
  PipelineOptions options;
  options.tracer = &tracer;
  const std::vector<CompileRequest> requests =
      requests_of(perfect_suite().front().program(), options);
  compile_on(requests, 1);
  const std::vector<Tracer::Event> events = tracer.events();
  ASSERT_GT(events.size(), 1u);
  ASSERT_STREQ(events.front().name, "caller");
  for (const Tracer::Event& event : events)
    EXPECT_EQ(event.tid, events.front().tid) << event.name;
}

// A three-loop program whose middle loop carries an irregular (non-
// constant-distance) dependence: the pipeline refuses it with a kInput
// status while both neighbors compile normally.
constexpr const char* kMixedBatch = R"(
loop good_a
doacross I = 1, 50
  A[I] = A[I-1] + B[I]
end
loop broken
doacross I = 1, 30
  C[2*I] = C[5*I+1] + 1
end
loop good_b
doacross I = 1, 50
  D[I] = D[I-2] * c1
end
)";

std::string render_failures(const ProgramReport& report) {
  std::string out;
  for (const auto& f : report.failures)
    out += std::to_string(f.index) + ":" + f.message + "\n";
  for (const auto& loop : report.loops)
    out += loop.name + "=" + loop.status.to_string() + "\n";
  return out;
}

TEST(ParallelEngine, FailingBatchIsByteIdenticalAcrossJobCounts) {
  PipelineOptions options;
  options.iterations = 50;
  const std::vector<CompileRequest> requests =
      requests_of(parse_program_or_throw(kMixedBatch), options);
  const ProgramReport serial = compile_serial(requests);
  ASSERT_EQ(serial.failures.size(), 1u);
  EXPECT_EQ(serial.failures[0].index, 1);
  EXPECT_EQ(serial.loops[1].status.code, StatusCode::kInput);
  EXPECT_EQ(serial.worst_status(), StatusCode::kInput);
  ASSERT_EQ(serial.loops.size(), 3u);  // the stub is present, in order
  EXPECT_EQ(serial.loops[1].name, "broken");
  for (const int jobs : {1, 2, 8}) {
    const ProgramReport report = compile_on(requests, jobs);
    EXPECT_EQ(render(serial), render(report)) << "jobs=" << jobs;
    EXPECT_EQ(render_failures(serial), render_failures(report))
        << "jobs=" << jobs;
  }
}

// --- ResultCache under concurrent callers ---------------------------
// One mutex guards the table; these run under TSan with the rest of the
// `parallel` label. Every racer of a key must be handed the one entry
// that landed first.

constexpr const char* kChainLoop = R"(
doacross I = 1, 100
  A1[I] = A4[I-3] + 7
  A2[I] = X3[I+1] + c3
  A3[I] = A3[I-3] - X2[I-1]
  A4[I] = (A1[I+3] / X4[I+3] - X1[I+3]) + A4[I-1]
end
)";

/// An entry for `key` whose report is named `name`, inserted into
/// `cache`; returns the entry the cache kept.
std::shared_ptr<const ResultCache::Entry> insert_named(
    ResultCache& cache, const std::string& key, std::string name) {
  LoopReport report;
  report.name = std::move(name);
  return cache.insert_entry(key, std::move(report), {});
}

TEST(ResultCacheTest, InsertRaceKeepsTheFirstEntry) {
  // Two threads computing the same key race insert; both are the same
  // pure computation, so the loser adopts the winner's report and the
  // table never holds two entries for one key.
  const Loop loop = parse_single_loop_or_throw(kChainLoop);
  const PipelineOptions options;
  ResultCache cache;
  std::vector<std::thread> threads;
  std::vector<std::int64_t> times(4, -1);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      times[static_cast<std::size_t>(t)] =
          compile(CompileRequest{loop, options}, &cache).report.parallel_time();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), 1u);
  for (int t = 1; t < 4; ++t) EXPECT_EQ(times[0], times[t]);
  EXPECT_EQ(cache.hits() + cache.misses(), 4);
}

TEST(ResultCacheConcurrency, RacingInsertsKeepFirstWinner) {
  // 4096 racing inserts of one key through parallel_for on the shared
  // pool: exactly one entry may land, and every racer — whichever
  // thread it ran on — must be handed that winner.
  ResultCache cache;
  constexpr int kInserts = 4096;
  std::vector<std::shared_ptr<const ResultCache::Entry>> returned(kInserts);
  parallel_for(8, 0, kInserts, [&](std::int64_t i) {
    returned[static_cast<std::size_t>(i)] =
        insert_named(cache, "hot-key", "insert-" + std::to_string(i));
  });
  ASSERT_EQ(cache.size(), 1u);
  const auto winner = cache.lookup_entry("hot-key");
  ASSERT_NE(winner, nullptr);
  for (const auto& entry : returned) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), winner.get());
  }
}

TEST(ResultCacheConcurrency, RacingLookupsAcrossThreadsAgreeOnTheWinner) {
  // 8 workers hammering one hot key must all see the single resident
  // entry.
  const Loop loop = parse_single_loop_or_throw(kChainLoop);
  const PipelineOptions options;
  ResultCache cache;
  const std::string key = ResultCache::key(loop, options);
  (void)compile(CompileRequest{loop, options}, &cache);
  const auto winner = cache.lookup_entry(key);
  ASSERT_NE(winner, nullptr);
  parallel_for(8, 0, 512, [&](std::int64_t) {
    const auto got = cache.lookup_entry(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got.get(), winner.get());
  });
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheConcurrency, RacingInsertsOfOneKeyKeepFirstWinnerEverywhere) {
  ResultCache cache;
  const std::string key = "racing-key";
  constexpr int kInserts = 64;
  std::vector<std::shared_ptr<const ResultCache::Entry>> returned(kInserts);
  parallel_for(8, 0, kInserts, [&](std::int64_t i) {
    returned[static_cast<std::size_t>(i)] =
        insert_named(cache, key, "insert-" + std::to_string(i));
  });
  ASSERT_EQ(cache.size(), 1u);
  const auto winner = cache.lookup_entry(key);
  ASSERT_NE(winner, nullptr);
  for (const auto& entry : returned) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), winner.get())
        << "a racing insert saw a different entry than the cached winner";
  }
}

TEST(ResultCacheConcurrency, ConcurrentDistinctInsertsAllLand) {
  ResultCache cache;
  constexpr int kKeys = 256;
  parallel_for(8, 0, kKeys, [&](std::int64_t i) {
    (void)insert_named(cache, "key-" + std::to_string(i),
                       "loop-" + std::to_string(i));
    // Interleave lookups of earlier keys with the inserts.
    (void)cache.lookup_entry("key-" + std::to_string(i / 2));
  });
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const auto hit = cache.lookup_entry("key-" + std::to_string(i));
    ASSERT_NE(hit, nullptr) << "key-" << i;
    EXPECT_EQ(hit->report.name, "loop-" + std::to_string(i));
  }
  EXPECT_GT(cache.hits(), 0);
}

// --- parallel_for on the shared process-wide pool --------------------
// Every batch runs on one lazily-spawned shared pool, its runners
// claiming one index at a time. These stress cases pin the two
// contracts that work distribution must not bend: byte-identity with
// the serial loop, and whole-batch failure aggregation in index order.

std::uint64_t mix_index(std::uint64_t x) {
  // SplitMix64 finalizer: cheap enough that per-task overhead, not the
  // body, dominates — exactly the shape that exposed the old per-index
  // task granularity.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(ChunkedParallelFor, TenThousandTinyBodiesMatchSerialByteForByte) {
  constexpr std::int64_t kN = 20000;
  std::vector<std::uint64_t> serial(kN);
  for (std::int64_t i = 0; i < kN; ++i)
    serial[static_cast<std::size_t>(i)] =
        mix_index(static_cast<std::uint64_t>(i));
  for (const int jobs : {2, 8}) {
    std::vector<std::uint64_t> par(kN, 0);
    parallel_for(jobs, 0, kN, [&par](std::int64_t i) {
      par[static_cast<std::size_t>(i)] =
          mix_index(static_cast<std::uint64_t>(i));
    });
    EXPECT_EQ(serial, par) << "diverged at jobs=" << jobs;
  }
}

TEST(ChunkedParallelFor, RepeatedBatchesReuseOneSharedPool) {
  // Many small batches back to back: with a transient pool this was
  // 8 thread spawns per call; the shared pool spawns once per process.
  ThreadPool& pool = shared_thread_pool();
  EXPECT_EQ(&pool, &shared_thread_pool());
  EXPECT_GE(pool.size(), 1);
  std::atomic<std::int64_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    parallel_for(8, 0, 64,
                 [&total](std::int64_t i) { total.fetch_add(i + 1); });
  }
  EXPECT_EQ(total.load(), 200 * (64 * 65) / 2);
}

TEST(ChunkedParallelFor, FailuresAcrossChunksAggregateInIndexOrder) {
  // Throwing indices spread across the whole range run on different
  // threads; every body must still run and one ParallelForError must
  // list every failed index, sorted.
  const std::vector<std::int64_t> bad = {3, 4097, 9998, 15000, 19999};
  std::atomic<std::int64_t> ran{0};
  try {
    parallel_for(8, 0, 20000, [&](std::int64_t i) {
      ran.fetch_add(1);
      if (std::find(bad.begin(), bad.end(), i) != bad.end())
        throw std::runtime_error("bad index " + std::to_string(i));
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), bad.size());
    for (std::size_t k = 0; k < bad.size(); ++k) {
      EXPECT_EQ(e.failures()[k].index, bad[k]);
      EXPECT_EQ(e.failures()[k].message,
                "bad index " + std::to_string(bad[k]));
    }
  }
  EXPECT_EQ(ran.load(), 20000) << "a failure suppressed later bodies";
}

TEST(ChunkedParallelFor, ExplicitPoolOverloadStillAggregatesFailures) {
  // The explicit-pool form is the test seam the convenience form builds
  // on; its pooled path must keep the same contract.
  ThreadPool pool(4);
  try {
    parallel_for(pool, 0, 10000, [](std::int64_t i) {
      if (i % 2500 == 1) throw std::runtime_error("f" + std::to_string(i));
    });
    FAIL() << "expected ParallelForError";
  } catch (const ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 4u);
    EXPECT_EQ(e.failures()[0].index, 1);
    EXPECT_EQ(e.failures()[3].index, 7501);
  }
}

TEST(ParallelEngine, CacheKeyCoversValidateOptions) {
  const Loop loop = perfect_suite().front().program().loops.front();
  PipelineOptions a;
  PipelineOptions b = a;
  b.validate = false;
  PipelineOptions c = a;
  c.validate_tolerance = 7;
  EXPECT_NE(ResultCache::key(loop, a), ResultCache::key(loop, b));
  EXPECT_NE(ResultCache::key(loop, a), ResultCache::key(loop, c));
}

}  // namespace
}  // namespace sbmp
