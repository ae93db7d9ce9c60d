#include "sbmp/core/parallel.h"

#include <string_view>
#include <utility>
#include <vector>

#include "sbmp/support/overflow.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp {

namespace {

void append_int(std::string& out, std::int64_t value) {
  out += std::to_string(value);
  out += '|';
}

/// Separates the loop rendering from the option block. LoopLang text
/// and the option block never contain it, so the first one in a key
/// ends the rendering.
constexpr char kKeySeparator = '\x1f';

}  // namespace

std::string ResultCache::key(const Loop& loop,
                             const PipelineOptions& options) {
  // Loop fingerprint: the LoopLang rendering round-trips through the
  // parser, so it pins everything the pipeline reads from the loop.
  return key(loop.to_string(), options);
}

std::string_view ResultCache::rendering_of(std::string_view key) {
  return key.substr(0, key.find(kKeySeparator));
}

std::string ResultCache::key(std::string_view rendering,
                             const PipelineOptions& options) {
  std::string out;
  out.reserve(rendering.size() + 128);
  out += rendering;
  out += kKeySeparator;
  const MachineDesc& m = options.machine;
  append_int(out, m.issue_width);
  for (const int count : m.fu_counts) append_int(out, count);
  // The next three ints are the historical (mult, div, default) latency
  // triple, kept byte-for-byte so every pre-MachineDesc cache key (and
  // the fingerprints derived from them) survives unchanged whenever the
  // machine is expressible in the old model. Machines the old model
  // could not express get the canonical desc appended below — a block
  // no legacy key can collide with, since this position in a legacy key
  // always holds a digit.
  append_int(out, m.latency(Opcode::kMul));
  append_int(out, m.latency(Opcode::kDiv));
  append_int(out, m.latency(Opcode::kAddI));
  append_int(out, m.sync_consumes_slot ? 1 : 0);
  append_int(out, m.signal_latency);
  bool legacy_expressible =
      m.signal_buffer_depth == 0 &&
      m.latency(Opcode::kMulI) == m.latency(Opcode::kMul);
  for (int op = 0; op < kNumOpcodes && legacy_expressible; ++op) {
    const Opcode opcode = static_cast<Opcode>(op);
    if (opcode == Opcode::kMul || opcode == Opcode::kMulI ||
        opcode == Opcode::kDiv) {
      continue;
    }
    legacy_expressible = m.latency(opcode) == m.latency(Opcode::kAddI);
  }
  if (!legacy_expressible) {
    out += "m{";
    out += m.to_string();
    out += "}|";
  }
  append_int(out, static_cast<int>(options.scheduler));
  append_int(out, options.sync_aware.contiguous_paths ? 1 : 0);
  append_int(out, options.sync_aware.convert_lfd ? 1 : 0);
  append_int(out, options.sync.eliminate_redundant ? 1 : 0);
  append_int(out, options.iterations);
  append_int(out, options.processors);
  append_int(out, options.check_ordering ? 1 : 0);
  append_int(out, options.eliminate_redundant_waits ? 1 : 0);
  append_int(out, options.never_degrade ? 1 : 0);
  append_int(out, options.validate ? 1 : 0);
  append_int(out, options.validate_tolerance);
  return out;
}

ResultCache::ResultCache(MetricsRegistry* metrics)
    : hits_(metrics != nullptr
                ? metrics->counter("sbmp_result_cache_hits_total")
                : &own_hits_),
      misses_(metrics != nullptr
                  ? metrics->counter("sbmp_result_cache_misses_total")
                  : &own_misses_) {}

std::shared_ptr<const ResultCache::Entry> ResultCache::find(
    const std::string& key, bool count_miss) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    if (count_miss) misses_->inc();
    return nullptr;
  }
  hits_->inc();
  return it->second;
}

std::shared_ptr<const ResultCache::Entry> ResultCache::lookup_entry(
    const std::string& key) const {
  return find(key, /*count_miss=*/true);
}

std::shared_ptr<const ResultCache::Entry> ResultCache::probe_entry(
    const std::string& key) const {
  return find(key, /*count_miss=*/false);
}

std::shared_ptr<const ResultCache::Entry> ResultCache::insert_entry(
    const std::string& key, LoopReport report, std::string payload) {
  auto entry = std::make_shared<const Entry>(
      Entry{std::move(report), std::move(payload)});
  std::lock_guard<std::mutex> lock(mu_);
  return map_.try_emplace(key, std::move(entry)).first->second;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

namespace {

/// run_pipeline through `cache` (nullptr = uncached). Completed compiles
/// are cached even when validation failed (the report — numbers plus
/// violations — is still the deterministic answer for this key); a run
/// that throws caches nothing.
LoopReport run_cached(const Loop& loop, const PipelineOptions& options,
                      ResultCache* cache) {
  if (cache == nullptr) return run_pipeline(loop, options);
  const std::string key = ResultCache::key(loop, options);
  if (const auto hit = cache->lookup_entry(key)) return hit->report;
  return cache->insert_entry(key, run_pipeline(loop, options), {})->report;
}

/// Folds one loop's report into the program aggregate: records the
/// failure (if any), updates the doall/doacross totals for loops that
/// simulated, and appends the report.
void fold_loop_report(ProgramReport& out, std::size_t index,
                      LoopReport report) {
  if (!report.status.ok()) {
    out.failures.push_back({static_cast<std::int64_t>(index),
                            report.status.to_string()});
  }
  // A loop that simulated contributes to the totals even when it failed
  // validation (the numbers exist and are being reported alongside the
  // failure); a stub from a thrown stage has no DFG and no numbers.
  if (report.dfg.has_value()) {
    if (report.doall) {
      ++out.doall_loops;
    } else {
      ++out.doacross_loops;
      out.total_parallel_time =
          sat_add(out.total_parallel_time, report.parallel_time());
    }
  }
  out.loops.push_back(std::move(report));
}

}  // namespace

SchedulerComparison compare_schedulers(const Loop& loop,
                                       const PipelineOptions& base_options,
                                       ResultCache* cache) {
  SchedulerComparison out;
  PipelineOptions options = base_options;
  options.scheduler = SchedulerKind::kList;
  out.baseline = run_cached(loop, options, cache);
  options.scheduler = SchedulerKind::kSyncAware;
  out.improved = run_cached(loop, options, cache);
  return out;
}

CompileResult compile(const CompileRequest& request, ResultCache* cache) {
  return {report_or_stub(request.loop, [&] {
    return run_cached(request.loop, request.options, cache);
  })};
}

ProgramReport compile(const std::vector<CompileRequest>& requests,
                      const CompileBatchOptions& batch, ResultCache* cache) {
  ResultCache local;
  // use_cache == false disables memoization entirely, including any
  // external cache: the knob means "recompute everything".
  ResultCache* effective =
      batch.use_cache ? (cache != nullptr ? cache : &local) : nullptr;

  std::vector<LoopReport> reports(requests.size());
  parallel_for(batch.jobs, 0, static_cast<std::int64_t>(requests.size()),
               [&](std::int64_t i) {
                 reports[static_cast<std::size_t>(i)] =
                     compile(requests[static_cast<std::size_t>(i)], effective)
                         .report;
               });

  // Order-stable aggregation: request order, whatever the job count.
  ProgramReport out;
  out.loops.reserve(reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i)
    fold_loop_report(out, i, std::move(reports[i]));
  return out;
}

}  // namespace sbmp
