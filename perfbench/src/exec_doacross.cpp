// exec-doacross: running compiled DOACROSS schedules on live threads.
// Set-up compiles the corpus on the paper's 4-issue(#FU=2) machine,
// builds one LoopExecutor per schedule and records each schedule's
// serial reference result. Each request runs one schedule at 2 workers
// (timed from outside, so thread start is included), interleaved with a
// 1-worker run of the same schedule; both are verified against the
// reference. Compute spin is off: the executor's spin is wall-clock and
// elapses for free while a worker is descheduled. Like every workload
// this runs pinned to one CPU (main.cpp), so the 2 workers share it and
// the run measures synchronization cost, not parallel speedup.

#include <cmath>

#include "sbmp/exec/executor.h"
#include "sbmp/sim/simulator.h"
#include "sbmp/support/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sbmp;

constexpr std::int64_t kIterations = 2000;

struct Target {
  std::string label;
  LoopReport report;
  std::unique_ptr<LoopExecutor> executor;
  ExecResult reference;
  std::int64_t predicted_p1 = 0;  ///< simulated cycles at 1 processor
  std::int64_t predicted_p2 = 0;  ///< simulated cycles at 2 processors
};

ExecOptions exec_options(std::uint64_t seed) {
  ExecOptions options;
  options.iterations = kIterations;
  options.memory_seed = SplitMix64(seed).next();
  options.spin_ns_per_group = 0;
  return options;
}

/// Compiles the corpus on 4-issue(#FU=2) (refused loops skipped) and
/// prepares one executor, reference result and prediction per schedule.
std::vector<Target> make_targets(const ExecOptions& base, Outcome& outcome) {
  const std::vector<PoolLoop> corpus = corpus_loops();
  const std::string fingerprint = corpus_fingerprint(corpus);
  if (fingerprint != kPinnedCorpusFingerprint)
    outcome.gate_failed("corpus schedule fingerprint " + fingerprint +
                            " != pinned " + kPinnedCorpusFingerprint,
                        false);
  outcome.info.push_back("\"corpus_fingerprint\": \"" + fingerprint + "\"");

  const PipelineOptions options = options_for(machines::paper(4, 2));
  std::vector<Target> targets;
  for (const PoolLoop& loop : corpus) {
    CompileResult result = compile({loop.loop, options});
    if (!result.report.dfg.has_value()) continue;
    Target target;
    target.label = loop.label;
    target.report = std::move(result.report);
    target.executor = std::make_unique<LoopExecutor>(target.report);
    if (!target.executor->setup_status().ok())
      outcome.gate_failed(loop.label + ": " +
                              target.executor->setup_status().to_string(),
                          false);
    target.reference = target.executor->run_reference(base);
    if (!target.reference.ok())
      outcome.gate_failed(loop.label + ": reference run failed: " +
                              target.reference.status.to_string(),
                          false);
    SimOptions sim;
    sim.iterations = kIterations;
    sim.processors = 1;
    target.predicted_p1 = simulate(target.report.tac, *target.report.dfg,
                                   target.report.schedule, options.machine, sim)
                              .parallel_time;
    sim.processors = 2;
    target.predicted_p2 = simulate(target.report.tac, *target.report.dfg,
                                   target.report.schedule, options.machine, sim)
                              .parallel_time;
    targets.push_back(std::move(target));
  }
  return targets;
}

class ExecDoacross final : public Workload {
 public:
  ExecDoacross(const Config& config, Outcome& outcome)
      : base_(exec_options(config.seed)),
        targets_(make_targets(base_, outcome)),
        order_(targets_.size(), config.seed ^ 0x65786563ull) {
    std::vector<std::string> texts{
        options_for(machines::paper(4, 2)).machine.to_string(),
        std::to_string(base_.memory_seed)};
    for (const Target& target : targets_)
      texts.push_back(target.report.loop.to_string());
    fingerprint_ = fingerprint_texts(texts);
  }

  double op(bool traced, Layers& layers, std::string* error) override {
    const Target& target = targets_[order_.next()];
    ExecOptions two = base_;
    two.threads = 2;
    ExecOptions one = base_;
    one.threads = 1;

    const auto t0 = Clock::now();
    const ExecResult run2 = target.executor->run(two);
    const double latency = us_since(t0);
    const auto t_verify = Clock::now();
    const Status verdict2 = run2.ok() ? LoopExecutor::verify(run2, target.reference)
                                      : run2.status;
    const double verify_us = us_since(t_verify);

    const auto t1 = Clock::now();
    const ExecResult run1 = target.executor->run(one);
    one_worker_us_.push_back(us_since(t1));
    const Status verdict1 = run1.ok() ? LoopExecutor::verify(run1, target.reference)
                                      : run1.status;

    two_worker_us_.push_back(latency);
    waits_ += run2.stats.waits;
    blocked_waits_ += run2.stats.blocked_waits;
    gate_blocks_ += run2.stats.gate_blocks;
    if (!verdict2.ok()) {
      *error = target.label + " at 2 workers: " + verdict2.to_string();
    } else if (!verdict1.ok()) {
      *error = target.label + " at 1 worker: " + verdict1.to_string();
    }
    if (traced) {
      const double wall_us = static_cast<double>(run2.wall_ns) / 1000.0;
      layers.add("exec.run_us", wall_us);
      layers.add("exec.thread_overhead_us", latency - wall_us);
      layers.add("exec.verify_us", verify_us);
    }
    return latency;
  }

  void finish(bool traced, Layers& layers, Outcome&) override {
    if (!traced) return;
    const double measured = summarize(one_worker_us_).median /
                            summarize(two_worker_us_).median;
    double p1 = 0.0;
    double p2 = 0.0;
    std::vector<ReportFacts> facts;
    for (const Target& target : targets_) {
      p1 += static_cast<double>(target.predicted_p1);
      p2 += static_cast<double>(target.predicted_p2);
      facts.push_back(
          facts_of(target.report, options_for(machines::paper(4, 2))));
    }
    const double predicted = p2 > 0 ? p1 / p2 : 0.0;
    set_pass_counts(facts, layers);
    layers.set("exec.speedup_2w", measured);
    layers.set("exec.predicted_speedup_2w", predicted);
    layers.set("exec.model_gap",
               predicted > 0 ? std::abs(measured / predicted - 1.0) : 0.0);
    layers.set("exec.park_ratio",
               waits_ > 0 ? static_cast<double>(blocked_waits_) /
                                static_cast<double>(waits_)
                          : 0.0);
    layers.set("exec.gate_blocks",
               two_worker_us_.empty()
                   ? 0.0
                   : static_cast<double>(gate_blocks_) /
                         static_cast<double>(two_worker_us_.size()));
  }

  /// Simulated cycles of the executed schedules at 2 processors.
  double generated_cycles() override {
    double sum = 0.0;
    for (const Target& target : targets_)
      sum += static_cast<double>(target.predicted_p2);
    return sum;
  }

  [[nodiscard]] std::string inputs_fingerprint() const override {
    return fingerprint_;
  }

 private:
  ExecOptions base_;
  std::vector<Target> targets_;
  ShuffledCycle order_;  ///< over targets_
  std::string fingerprint_;
  std::vector<double> one_worker_us_;
  std::vector<double> two_worker_us_;
  std::int64_t waits_ = 0;
  std::int64_t blocked_waits_ = 0;
  std::int64_t gate_blocks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_exec_doacross(const Config& config,
                                             Outcome& outcome) {
  return std::make_unique<ExecDoacross>(config, outcome);
}

}  // namespace perfbench
