// rerun-disk: an sbmpc --cache-dir re-run of an unchanged program. Each
// request recompiles one whole program (a Perfect source or a seeded
// multi-loop program) on one grid machine through a fresh
// CachingCompiler — a new ResultCache over a new DiskCache handle on a
// directory warmed during set-up. DiskCache::load and the codec's
// re-derive and re-validate path do the work; the scheduler and the
// simulator do none.

#include <filesystem>

#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/serve/codec.h"
#include "sbmp/serve/disk_cache.h"
#include "sbmp/serve/server.h"
#include "sbmp/support/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sbmp;

/// Seeded programs added to the five Perfect sources: one per (loop
/// count, machine) pair, with 1..kMaxLoopsPerProgram loops. Many small
/// programs keep the per-program latency distribution dense and average
/// the seed's loop contents, so the median neither sits in a gap between
/// two size clusters nor follows a few seed-chosen programs.
constexpr int kMaxLoopsPerProgram = 8;
constexpr std::int64_t kCacheMaxBytes = 256ll << 20;

struct SourceProgram {
  std::string label;
  std::string source;
  bool perfect = false;
};

/// One request: a program re-run on one grid machine.
struct Request {
  std::size_t program = 0;
  std::size_t machine = 0;
};

/// What a cold compile of one loop of one request produced.
struct Expected {
  Fingerprint fp;
  std::string bytes;  ///< encoded report; the status text when not ok
};

std::string expected_bytes(const CompileResult& result,
                           const Fingerprint& fp) {
  return result.ok() ? encode_loop_report(result.report, fp)
                     : result.report.status.to_string();
}

struct Inputs {
  std::vector<SourceProgram> programs;
  std::vector<Request> requests;
};

/// The Perfect sources run on every grid machine; seeded program p has
/// 1 + p mod kMaxLoopsPerProgram loops and runs on machine
/// p / kMaxLoopsPerProgram.
Inputs make_inputs(std::uint64_t seed, std::size_t machines) {
  Inputs in;
  for (const auto& bench : perfect_suite()) {
    for (std::size_t m = 0; m < machines; ++m)
      in.requests.push_back({in.programs.size(), m});
    in.programs.push_back({bench.name, bench.source, true});
  }
  SplitMix64 seeds(seed ^ 0x70726f67ull);
  const auto random_programs =
      static_cast<int>(machines) * kMaxLoopsPerProgram;
  for (int p = 0; p < random_programs; ++p) {
    std::string source;
    for (const PoolLoop& loop :
         random_loops(seeds.next(), 1 + p % kMaxLoopsPerProgram,
                      "p" + std::to_string(p) + "_"))
      source += loop.source;
    in.requests.push_back({in.programs.size(),
                           static_cast<std::size_t>(p / kMaxLoopsPerProgram)});
    in.programs.push_back({"program" + std::to_string(p), source, false});
  }
  return in;
}

class RerunDisk final : public Workload {
 public:
  RerunDisk(const Config& config, Outcome& outcome)
      : dir_(config.workdir + "/disk-cache"),
        options_(grid_options()),
        inputs_(make_inputs(config.seed, options_.size())),
        order_(requests(), config.seed ^ 0x6469736bull) {
    std::vector<std::string> texts;
    for (const PipelineOptions& options : options_)
      texts.push_back(options.machine.to_string());
    for (const SourceProgram& program : inputs_.programs)
      texts.push_back(program.source);
    fingerprint_ = fingerprint_texts(texts);

    // Cold compile of every request into an empty cache directory.
    std::filesystem::remove_all(dir_);
    DiskCache disk(dir_, kCacheMaxBytes);
    if (!disk.init_status().ok()) throw StatusError(disk.init_status());
    CachingCompiler cold(nullptr, &disk);
    expected_.resize(requests());
    for (std::size_t q = 0; q < requests(); ++q) {
      const PipelineOptions& options = options_of(q);
      for (const Loop& loop : parse_program_or_throw(program_of(q).source).loops) {
        const Fingerprint fp = schedule_fingerprint(loop, options);
        const CompileResult result = cold.compile(CompileRequest{loop, options});
        if (!result.ok())
          outcome.gate_failed(program_of(q).label + "/" + loop.name + ": " +
                                  result.report.status.to_string(),
                              false);
        expected_[q].push_back({fp, expected_bytes(result, fp)});
      }
    }
  }

  ~RerunDisk() override {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  RerunDisk(const RerunDisk&) = delete;
  RerunDisk& operator=(const RerunDisk&) = delete;

  double op(bool traced, Layers& layers, std::string* error) override {
    const std::size_t q = order_.next();
    const PipelineOptions& options = options_of(q);

    const auto t0 = Clock::now();
    std::vector<CompileResult> results;
    Program program;
    ResultCache memory;
    DiskCache disk(dir_, kCacheMaxBytes);
    CachingCompiler compiler(&memory, &disk);
    try {
      program = parse_program_or_throw(program_of(q).source);
      for (const Loop& loop : program.loops)
        results.push_back(compiler.compile(CompileRequest{loop, options}));
    } catch (const std::exception& e) {
      *error = std::string("parse failed: ") + e.what();
      return us_since(t0);
    }
    const double latency = us_since(t0);

    check(q, results, error);
    const DiskCache::Stats stats = disk.stats();
    disk_hits_ += stats.hits;
    disk_lookups_ += stats.hits + stats.misses;
    memory_hits_ += memory.hits();
    memory_lookups_ += memory.hits() + memory.misses();
    corrupt_entries_ += compiler.corrupt_entries();
    if (traced) trace_layers(q, layers);
    return latency;
  }

  void finish(bool traced, Layers& layers, Outcome& outcome) override {
    // One untimed re-run of every request gives the deterministic counts.
    facts_.assign(requests(), {});
    for (std::size_t q = 0; q < requests(); ++q) {
      ResultCache memory;
      DiskCache disk(dir_, kCacheMaxBytes);
      CachingCompiler compiler(&memory, &disk);
      std::vector<CompileResult> results;
      for (const Loop& loop : parse_program_or_throw(program_of(q).source).loops)
        results.push_back(compiler.compile(CompileRequest{loop, options_of(q)}));
      std::string error;
      check(q, results, &error);
      if (!error.empty()) outcome.gate_failed(error);
      for (const CompileResult& result : results)
        facts_[q].push_back(facts_of(result.report, options_of(q)));
    }
    if (!traced) return;
    std::vector<ReportFacts> flat;
    for (const auto& program : facts_)
      flat.insert(flat.end(), program.begin(), program.end());
    set_pass_counts(flat, layers);
    layers.set("disk.hit_ratio", disk_lookups_ > 0
                                     ? static_cast<double>(disk_hits_) /
                                           static_cast<double>(disk_lookups_)
                                     : 0.0);
    layers.set("disk.corrupt_entries", static_cast<double>(corrupt_entries_));
    layers.set("core.cache_hit_ratio",
               memory_lookups_ > 0 ? static_cast<double>(memory_hits_) /
                                         static_cast<double>(memory_lookups_)
                                   : 0.0);
  }

  double generated_cycles() override {
    double sum = 0.0;
    for (std::size_t q = 0; q < facts_.size(); ++q)
      if (program_of(q).perfect)
        for (const ReportFacts& f : facts_[q])
          sum += static_cast<double>(f.parallel_time);
    return sum;
  }

  [[nodiscard]] std::string inputs_fingerprint() const override {
    return fingerprint_;
  }

 private:
  [[nodiscard]] std::size_t requests() const {
    return inputs_.requests.size();
  }
  [[nodiscard]] const SourceProgram& program_of(std::size_t q) const {
    return inputs_.programs[inputs_.requests[q].program];
  }
  [[nodiscard]] const PipelineOptions& options_of(std::size_t q) const {
    return options_[inputs_.requests[q].machine];
  }

  /// Every loop's report must be byte-identical to the cold compile.
  void check(std::size_t q, const std::vector<CompileResult>& results,
             std::string* error) const {
    const std::vector<Expected>& expected = expected_[q];
    if (results.size() != expected.size()) {
      *error = program_of(q).label + ": loop count changed on re-run";
      return;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (expected_bytes(results[i], expected[i].fp) != expected[i].bytes) {
        *error = program_of(q).label + "/" + results[i].report.name +
                 ": re-run report differs from the cold compile";
        return;
      }
    }
  }

  /// Replays the op's program outside the timed region, one public call
  /// per layer: parse, cache key, disk load, decode (which re-derives
  /// the front half and re-runs verify and validate — timed on their
  /// own too).
  void trace_layers(std::size_t q, Layers& layers) {
    const PipelineOptions& options = options_of(q);
    const Program program = timed(layers, "frontend.parse_us", [&] {
      return parse_program_or_throw(program_of(q).source);
    });
    DiskCache disk(dir_, kCacheMaxBytes);
    for (const Loop& loop : program.loops) {
      const Fingerprint fp = timed(layers, "core.cache_key_us", [&] {
        (void)ResultCache::key(loop, options);
        return schedule_fingerprint(loop, options);
      });
      const auto payload =
          timed(layers, "disk.load_us", [&] { return disk.load(fp); });
      if (!payload) continue;
      LoopReport report;
      const bool decoded = timed(layers, "serve.decode_us", [&] {
        return decode_loop_report(*payload, options, fp, &report).ok();
      });
      time_front_half(loop, options, layers);
      if (!decoded || !report.dfg.has_value()) continue;
      timed(layers, "sched.verify_us", [&] {
        return verify_schedule(report.tac, *report.dfg, options.machine,
                               report.schedule);
      });
      timed(layers, "core.validate_us",
            [&] { return validate_pipeline(report, options); });
    }
  }

  std::string dir_;
  std::vector<PipelineOptions> options_;
  Inputs inputs_;
  ShuffledCycle order_;  ///< over requests(); declared after what it counts
  std::string fingerprint_;
  std::vector<std::vector<Expected>> expected_;
  std::vector<std::vector<ReportFacts>> facts_;
  std::int64_t disk_hits_ = 0;
  std::int64_t disk_lookups_ = 0;
  std::int64_t memory_hits_ = 0;
  std::int64_t memory_lookups_ = 0;
  std::int64_t corrupt_entries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rerun_disk(const Config& config,
                                          Outcome& outcome) {
  return std::make_unique<RerunDisk>(config, outcome);
}

}  // namespace perfbench
