// compile-cold: what an sbmpc user pays per loop. Each request is one
// pool loop's LoopLang source plus one grid machine, parsed and run
// through compile() with no cache, so every request is a miss and the
// frontend and pipeline layers do all of the work. Set-up compiles the
// whole pool once; every measured compile must reproduce it.

#include "sbmp/codegen/codegen.h"
#include "sbmp/dep/dependence.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/sync/sync.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sbmp;

class CompileCold final : public Workload {
 public:
  CompileCold(const Config& config, Outcome& outcome)
      : pool_(make_request_pool(config.seed)),
        facts_(pool_.size()),
        requests_(pool_.size(), config.seed ^ 0x636f6c64ull) {
    const std::string fingerprint = corpus_fingerprint(
        {pool_.loops.begin(),
         pool_.loops.begin() + static_cast<std::ptrdiff_t>(pool_.corpus_size)});
    if (fingerprint != kPinnedCorpusFingerprint)
      outcome.gate_failed("corpus schedule fingerprint " + fingerprint +
                              " != pinned " + kPinnedCorpusFingerprint,
                          false);
    outcome.info.push_back("\"corpus_fingerprint\": \"" + fingerprint + "\"");
    for (std::size_t r = 0; r < pool_.size(); ++r) {
      const CompileResult result =
          compile({pool_.loop_of(r).loop, pool_.options_of(r)});
      if (!result.ok())
        outcome.gate_failed(pool_.loop_of(r).label + ": " +
                                result.report.status.to_string(),
                            false);
      facts_[r] = facts_of(result.report, pool_.options_of(r));
    }
  }

  double op(bool traced, Layers& layers, std::string* error) override {
    const std::size_t r = requests_.next();
    const PipelineOptions& options = pool_.options_of(r);
    const std::string& source = pool_.loop_of(r).source;

    const auto t0 = Clock::now();
    CompileResult result;
    double parse_us = 0.0;
    try {
      Loop loop = parse_single_loop_or_throw(source);
      parse_us = us_since(t0);
      result = compile({std::move(loop), options});
    } catch (const std::exception& e) {
      *error = std::string("parse failed: ") + e.what();
      return us_since(t0);
    }
    const double latency = us_since(t0);

    const ReportFacts facts = facts_of(result.report, options);
    if (!result.ok()) {
      *error = result.report.status.to_string();
    } else if (facts.parallel_time != facts_[r].parallel_time ||
               facts.groups != facts_[r].groups) {
      *error = pool_.loop_of(r).label + " compiled differently than in set-up";
    }
    if (traced) trace_stages(result.report, options, parse_us,
                             latency - parse_us, layers);
    return latency;
  }

  void finish(bool traced, Layers& layers, Outcome&) override {
    if (traced) set_pass_counts(facts_, layers);
  }

  double generated_cycles() override {
    double sum = 0.0;
    for (std::size_t r = 0; r < facts_.size(); ++r)
      if (pool_.is_corpus(r)) sum += static_cast<double>(facts_[r].parallel_time);
    return sum;
  }

  [[nodiscard]] std::string inputs_fingerprint() const override {
    return pool_.fingerprint;
  }

 private:
  /// Re-runs every pipeline stage on the op's loop, one public call at a
  /// time; what compile() spent beyond them is core.residual_us (the
  /// never-degrade guard and the facade).
  static void trace_stages(const LoopReport& report,
                           const PipelineOptions& options, double parse_us,
                           double compile_us, Layers& layers) {
    layers.add("frontend.parse_us", parse_us);
    if (!report.dfg.has_value()) return;
    double staged = 0.0;
    const auto stage = [&](const char* layer, auto&& call) {
      const auto t0 = Clock::now();
      auto result = call();
      const double us = us_since(t0);
      layers.add(layer, us);
      staged += us;
      return result;
    };
    const Loop& loop = report.loop;
    const DepAnalysis deps =
        stage("dep.analyze_us", [&] { return analyze_dependences(loop); });
    const SyncedLoop synced = stage("sync.insert_us", [&] {
      return insert_synchronization(loop, deps, options.sync);
    });
    const TacFunction tac =
        stage("codegen.tac_us", [&] { return generate_tac(synced); });
    const Dfg dfg =
        stage("dfg.build_us", [&] { return Dfg(tac, options.machine); });
    const std::int64_t iterations = options.resolved_iterations(loop);
    const Schedule schedule = stage("sched.schedule_us", [&] {
      return schedule_sync_aware(tac, dfg, options.machine, iterations,
                                 options.sync_aware);
    });
    stage("sched.verify_us", [&] {
      return verify_schedule(tac, dfg, options.machine, schedule);
    });
    SimOptions sim_options;
    sim_options.iterations = iterations;
    sim_options.processors = options.processors;
    stage("sim.simulate_us", [&] {
      return simulate(tac, dfg, schedule, options.machine, sim_options);
    });
    stage("core.validate_us",
          [&] { return validate_pipeline(report, options); });
    layers.add("core.residual_us", compile_us - staged);
  }

  RequestPool pool_;
  std::vector<ReportFacts> facts_;
  ShuffledCycle requests_;
};

}  // namespace

std::unique_ptr<Workload> make_compile_cold(const Config& config,
                                            Outcome& outcome) {
  return std::make_unique<CompileCold>(config, outcome);
}

}  // namespace perfbench
