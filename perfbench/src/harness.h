#pragma once

// Shared machinery of the four workloads: the run configuration, the
// seeded request pool (compile corpus + random loops x machine grid),
// the per-layer accumulator, host facts and the result record main.cpp
// prints. Every timing here wraps a call into a public sbmp function;
// nothing inside src/ is instrumented.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sbmp/core/pipeline.h"
#include "sbmp/machine/machine.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/support/rng.h"
#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's temporary files (socket, disk cache).
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics every traced run reports, in order;
/// BENCHMARK.json lists the same names (run.py checks).
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kPerLayer;

/// What one workload run produced. `metrics` holds the end-to-end set
/// for an untraced run and the per-layer set for a traced one; `info`
/// holds extra JSON members (already rendered as `"key": value`).
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> info;

  /// Records a failed correctness gate (counts into failed ops when
  /// `op` is true) and explains it on stderr.
  void gate_failed(const std::string& why, bool op = true);
};

/// Per-layer accumulator of a traced run. add() charges time to a layer
/// within the current op; end_op() turns the op's per-layer sums into
/// one sample each, so a layer's metric is the median time it took per
/// op.
class Layers {
 public:
  void add(const std::string& name, double us) { current_[name] += us; }
  void end_op();
  /// A value that is not a per-op time: a count or a ratio.
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Every per-layer metric of kPerLayer, in order; layers this
  /// workload never touched read 0.
  [[nodiscard]] std::vector<Metric> emit() const;

 private:
  [[nodiscard]] double median(const std::string& name) const;

  std::map<std::string, double> current_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
};

/// Times one call, charges it to `layer` and returns its result.
template <class F>
auto timed(Layers& layers, const char* layer, F&& f) {
  const auto t0 = Clock::now();
  auto result = f();
  layers.add(layer, us_since(t0));
  return result;
}

// ---------------------------------------------------------------------
// Inputs.

/// Cycles through 0..n-1 in a seeded order, reshuffled every pass, so
/// each request is drawn equally often whatever the run length: the
/// latency percentiles then move with the program, not with the draw.
class ShuffledCycle {
 public:
  ShuffledCycle(std::size_t n, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
  sbmp::SplitMix64 rng_;
};

/// One loop of the request pool, kept both as LoopLang source (what the
/// program receives) and parsed (for the benchmark's own checks).
struct PoolLoop {
  std::string label;
  std::string source;
  sbmp::Loop loop;
};

/// The compile corpus: the paper example, the stencil and every
/// DOACROSS loop of the Perfect suite, labelled and ordered exactly as
/// the repository's corpus fingerprint expects.
std::vector<PoolLoop> corpus_loops();

/// Statement counts of the random loops. Loop i of a sequence has
/// kMinStatements + i mod 15 statements, so every size is equally
/// represented whatever the seed and only the loop contents vary with
/// it — the seed moves the pool's total work as little as possible.
inline constexpr int kMinStatements = 2;
inline constexpr int kMaxStatements = 16;
sbmp::LoopGenConfig random_loop_config(int index);

/// `count` seeded random DOACROSS loops, sized by random_loop_config.
std::vector<PoolLoop> random_loops(std::uint64_t seed, int count,
                                   const std::string& prefix);

/// The machine grid issue={2,4} x fu={1,2} x buf={0,2}.
std::vector<sbmp::MachineDesc> machine_grid();

/// Pipeline defaults (validate, never_degrade, verify) on `machine`,
/// 100 iterations.
sbmp::PipelineOptions options_for(const sbmp::MachineDesc& machine);

/// options_for every machine_grid() machine, in grid order.
std::vector<sbmp::PipelineOptions> grid_options();

/// The request pool compile-cold and serve-warm share: every pool loop
/// paired with every grid machine. Request r is loop r / machines and
/// machine r % machines; the corpus loops come first.
struct RequestPool {
  std::vector<PoolLoop> loops;
  std::size_t corpus_size = 0;
  std::vector<sbmp::PipelineOptions> options;  ///< one per grid machine
  std::string fingerprint;                     ///< of sources + machines

  [[nodiscard]] std::size_t size() const {
    return loops.size() * options.size();
  }
  [[nodiscard]] const PoolLoop& loop_of(std::size_t r) const {
    return loops[r / options.size()];
  }
  [[nodiscard]] const sbmp::PipelineOptions& options_of(std::size_t r) const {
    return options[r % options.size()];
  }
  [[nodiscard]] bool is_corpus(std::size_t r) const {
    return r / options.size() < corpus_size;
  }
};

/// Random loops added to the corpus in the request pool.
inline constexpr int kRandomPoolLoops = 120;

RequestPool make_request_pool(std::uint64_t seed);

/// Fingerprint of a list of input texts.
std::string fingerprint_texts(const std::vector<std::string>& texts);

/// Schedule fingerprint of the corpus on the paper's 4-issue(#FU=2)
/// machine: label, group count, group sizes and instruction ids of
/// every schedule, refused loops skipped — the repository's drift pin.
std::string corpus_fingerprint(const std::vector<PoolLoop>& corpus);
inline constexpr const char* kPinnedCorpusFingerprint = "3c390871903d0914";

/// 16 lowercase hex digits.
std::string hex64(std::uint64_t value);

/// The deterministic facts of one compiled report the per-layer counts
/// and generated_cycles are summed from.
struct ReportFacts {
  std::int64_t parallel_time = 0;
  std::int64_t instrs = 0;
  std::int64_t edges = 0;
  std::int64_t groups = 0;
  /// Sync pairs whose send lands late enough to stall a later iteration
  /// (lexically backward after scheduling).
  std::int64_t lbd_pairs = 0;
  std::int64_t list_fallbacks = 0;
};
ReportFacts facts_of(const sbmp::LoopReport& report,
                     const sbmp::PipelineOptions& options);

/// Sets codegen.instrs, dfg.edges and the sched.* counts from one pass
/// over distinct requests.
void set_pass_counts(const std::vector<ReportFacts>& facts, Layers& layers);

/// Re-runs the pipeline front half (dep -> sync -> codegen -> dfg) on
/// `loop` one public call at a time, charging each stage to its layer.
void time_front_half(const sbmp::Loop& loop,
                     const sbmp::PipelineOptions& options, Layers& layers);

// ---------------------------------------------------------------------
// Host facts.

struct HostFacts {
  unsigned nproc = 0;
  int affinity_cpus = 0;
  double probe_ms[3] = {0, 0, 0};  ///< wall time at 1, 2, 4 threads
  double capacity[3] = {0, 0, 0};  ///< n * t1 / tn
};

/// nproc plus a parallel-capacity probe: fixed CPU-bound work on 1, 2
/// and 4 threads at once. A host that really has n free cores finishes
/// n threads in the single-thread time (capacity n).
HostFacts probe_host();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Restricts this process (and every thread it starts later) to the
/// last CPU of its affinity mask; returns that CPU, or -1 when the mask
/// cannot be read or set.
int pin_to_one_cpu();

/// Runs `op` back to back until `seconds` have elapsed; returns the
/// elapsed wall time in seconds.
template <class F>
double run_for(double seconds, F&& op) {
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  do {
    op();
  } while (Clock::now() < end);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Builds the untraced end-to-end metrics every workload reports from
/// its per-op latencies (us), the set-up times (s), the peak resident
/// set through set-up (MiB) and the cycle sum.
std::vector<Metric> end_to_end(const Summary& latency_us,
                               const std::vector<double>& setup_s,
                               double setup_rss_mb, double generated_cycles,
                               const Outcome& outcome);

/// Renders a Summary as a JSON member value {"n":..,"p50":..,...}.
std::string summary_json(const Summary& s);

}  // namespace perfbench
