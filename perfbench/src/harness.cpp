#include "harness.h"

#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "sbmp/codegen/codegen.h"
#include "sbmp/dep/dependence.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/support/hash.h"
#include "sbmp/sync/sync.h"

namespace perfbench {

using namespace sbmp;

const std::vector<MetricDef> kPerLayer = {
    {"frontend.parse_us", "us"},
    {"dep.analyze_us", "us"},
    {"sync.insert_us", "us"},
    {"codegen.tac_us", "us"},
    {"codegen.instrs", "count"},
    {"dfg.build_us", "us"},
    {"dfg.edges", "count"},
    {"sched.schedule_us", "us"},
    {"sched.verify_us", "us"},
    {"sched.groups", "count"},
    {"sched.lbd_pairs", "count"},
    {"sched.list_fallbacks", "count"},
    {"sim.simulate_us", "us"},
    {"core.validate_us", "us"},
    {"core.residual_us", "us"},
    {"core.cache_key_us", "us"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.l1_hit_ratio", "ratio"},
    {"serve.encode_us", "us"},
    {"serve.server_handle_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.compiles", "count"},
    {"disk.load_us", "us"},
    {"disk.hit_ratio", "ratio"},
    {"disk.corrupt_entries", "count"},
    {"exec.run_us", "us"},
    {"exec.thread_overhead_us", "us"},
    {"exec.verify_us", "us"},
    {"exec.park_ratio", "ratio"},
    {"exec.gate_blocks", "count"},
    {"exec.predicted_speedup_2w", "x"},
    {"exec.speedup_2w", "x"},
    {"exec.model_gap", "ratio"},
    {"trace.overhead_us", "us"},
};

void Outcome::gate_failed(const std::string& why, bool op) {
  correct = false;
  if (op) ++failed;
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               why.c_str());
}

void Layers::end_op() {
  for (auto& [name, samples] : samples_) {
    const auto it = current_.find(name);
    samples.push_back(it == current_.end() ? 0.0 : it->second);
  }
  for (const auto& [name, us] : current_)
    if (!samples_.count(name)) samples_[name].push_back(us);
  current_.clear();
}

double Layers::median(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : summarize(it->second).median;
}

std::vector<Metric> Layers::emit() const {
  std::vector<Metric> out;
  for (const MetricDef& def : kPerLayer) {
    double value = 0.0;
    if (const auto it = values_.find(def.name); it != values_.end()) {
      value = it->second;
    } else {
      value = median(def.name);
    }
    out.push_back({def.name, value, def.unit});
  }
  return out;
}

// ---------------------------------------------------------------------
// Inputs.

namespace {

constexpr const char* kStencil = R"(
doacross I = 1, 100
  U[I] = (U[I-1] + V[I]) * w1 + V[I+1] * w2
  R[I] = V[I-2] * w3 + V[I+2]
  Q[I] = R[I] + V[I] / w4
end
)";

constexpr const char* kPaperExample = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

PoolLoop pool_loop(std::string label, Loop loop) {
  std::string source = loop.to_string();
  return {std::move(label), std::move(source), std::move(loop)};
}

}  // namespace

std::vector<PoolLoop> corpus_loops() {
  std::vector<PoolLoop> out;
  out.push_back(
      pool_loop("paper-example", parse_single_loop_or_throw(kPaperExample)));
  out.push_back(pool_loop("stencil", parse_single_loop_or_throw(kStencil)));
  for (const auto& bench : perfect_suite()) {
    for (const auto& loop : bench.program().loops) {
      if (analyze_dependences(loop).is_doall()) continue;
      out.push_back(pool_loop(bench.name + "/" + loop.name, loop));
    }
  }
  return out;
}

ShuffledCycle::ShuffledCycle(std::size_t n, std::uint64_t seed)
    : order_(n), rng_(seed) {
  for (std::size_t i = 0; i < n; ++i) order_[i] = i;
}

std::size_t ShuffledCycle::next() {
  if (cursor_ == 0) {
    for (std::size_t i = order_.size() - 1; i > 0; --i)
      std::swap(order_[i], order_[static_cast<std::size_t>(
                               rng_.range(0, static_cast<std::int64_t>(i)))]);
  }
  const std::size_t i = order_[cursor_];
  cursor_ = (cursor_ + 1) % order_.size();
  return i;
}

LoopGenConfig random_loop_config(int index) {
  LoopGenConfig config;
  config.min_stmts = kMinStatements + index % (kMaxStatements - kMinStatements + 1);
  config.max_stmts = config.min_stmts;
  return config;
}

std::vector<PoolLoop> random_loops(std::uint64_t seed, int count,
                                   const std::string& prefix) {
  SplitMix64 rng(seed);
  std::vector<PoolLoop> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Loop loop = generate_random_loop(rng, random_loop_config(i));
    loop.name = prefix + std::to_string(i);
    out.push_back(pool_loop(loop.name, std::move(loop)));
  }
  return out;
}

std::vector<MachineDesc> machine_grid() {
  std::vector<MachineDesc> out;
  for (const int issue : {2, 4})
    for (const int fu : {1, 2})
      for (const int buf : {0, 2}) {
        MachineDesc machine = machines::default_machine();
        machine.issue_width = issue;
        machine.fu_counts.fill(fu);
        machine.signal_buffer_depth = buf;
        out.push_back(machine);
      }
  return out;
}

PipelineOptions options_for(const MachineDesc& machine) {
  PipelineOptions options;
  options.machine = machine;
  options.iterations = 100;
  return options;
}

std::vector<PipelineOptions> grid_options() {
  std::vector<PipelineOptions> out;
  for (const MachineDesc& machine : machine_grid())
    out.push_back(options_for(machine));
  return out;
}

RequestPool make_request_pool(std::uint64_t seed) {
  RequestPool pool;
  pool.loops = corpus_loops();
  pool.corpus_size = pool.loops.size();
  for (PoolLoop& loop : random_loops(seed, kRandomPoolLoops, "rand"))
    pool.loops.push_back(std::move(loop));
  pool.options = grid_options();
  std::vector<std::string> texts;
  for (const PipelineOptions& options : pool.options)
    texts.push_back(options.machine.to_string());
  for (const PoolLoop& loop : pool.loops) texts.push_back(loop.source);
  pool.fingerprint = fingerprint_texts(texts);
  return pool;
}

std::string fingerprint_texts(const std::vector<std::string>& texts) {
  Hasher64 fp;
  for (const std::string& text : texts) {
    fp.update_i64(static_cast<std::int64_t>(text.size()));
    fp.update(text);
  }
  return hex64(fp.digest());
}

std::string hex64(std::uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(value));
  return hex;
}

std::string corpus_fingerprint(const std::vector<PoolLoop>& corpus) {
  const PipelineOptions options = options_for(machines::paper(4, 2));
  Hasher64 fp;
  for (const PoolLoop& target : corpus) {
    const CompileResult result = compile({target.loop, options});
    if (!result.report.dfg.has_value()) continue;
    fp.update(target.label);
    fp.update_i64(
        static_cast<std::int64_t>(result.report.schedule.groups.size()));
    for (const auto& group : result.report.schedule.groups) {
      fp.update_i64(static_cast<std::int64_t>(group.size()));
      for (const int id : group) fp.update_i64(id);
    }
  }
  return hex64(fp.digest());
}

ReportFacts facts_of(const LoopReport& report,
                     const PipelineOptions& options) {
  ReportFacts facts;
  facts.parallel_time = report.parallel_time();
  facts.instrs = report.tac.size();
  facts.groups = static_cast<std::int64_t>(report.schedule.groups.size());
  facts.list_fallbacks = report.used_list_fallback ? 1 : 0;
  if (!report.dfg.has_value()) return facts;
  facts.edges = static_cast<std::int64_t>(report.dfg->edges().size());
  for (const auto& pair : report.dfg->pairs()) {
    const std::int64_t shift =
        static_cast<std::int64_t>(report.schedule.slot(pair.send_instr)) +
        options.machine.signal_latency -
        report.schedule.slot(pair.wait_instr);
    if (shift > 0) ++facts.lbd_pairs;
  }
  return facts;
}

void set_pass_counts(const std::vector<ReportFacts>& facts, Layers& layers) {
  ReportFacts sum;
  for (const ReportFacts& f : facts) {
    sum.instrs += f.instrs;
    sum.edges += f.edges;
    sum.groups += f.groups;
    sum.lbd_pairs += f.lbd_pairs;
    sum.list_fallbacks += f.list_fallbacks;
  }
  layers.set("codegen.instrs", static_cast<double>(sum.instrs));
  layers.set("dfg.edges", static_cast<double>(sum.edges));
  layers.set("sched.groups", static_cast<double>(sum.groups));
  layers.set("sched.lbd_pairs", static_cast<double>(sum.lbd_pairs));
  layers.set("sched.list_fallbacks", static_cast<double>(sum.list_fallbacks));
}

void time_front_half(const Loop& loop, const PipelineOptions& options,
                     Layers& layers) {
  const DepAnalysis deps =
      timed(layers, "dep.analyze_us", [&] { return analyze_dependences(loop); });
  const SyncedLoop synced = timed(layers, "sync.insert_us", [&] {
    return insert_synchronization(loop, deps, options.sync);
  });
  const TacFunction tac =
      timed(layers, "codegen.tac_us", [&] { return generate_tac(synced); });
  timed(layers, "dfg.build_us", [&] { return Dfg(tac, options.machine); });
}

// ---------------------------------------------------------------------
// Host facts.

namespace {

/// Fixed CPU-bound work (an LCG chain the compiler cannot fold).
std::uint64_t spin_work(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < 30'000'000; ++i) x = x * 6364136223846793005ull + 1;
  return x;
}

double probe_threads(int n) {
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i)
    threads.emplace_back([&sink, i] {
      sink.fetch_add(spin_work(static_cast<std::uint64_t>(i) + 1),
                     std::memory_order_relaxed);
    });
  for (auto& t : threads) t.join();
  const double ms = us_since(t0) / 1000.0;
  if (sink.load() == 42) std::fprintf(stderr, " ");  // keep the work live
  return ms;
}

}  // namespace

HostFacts probe_host() {
  HostFacts facts;
  facts.nproc = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    facts.affinity_cpus = CPU_COUNT(&set);
  const int counts[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) facts.probe_ms[i] = probe_threads(counts[i]);
  for (int i = 0; i < 3; ++i)
    facts.capacity[i] =
        facts.probe_ms[i] > 0 ? counts[i] * facts.probe_ms[0] / facts.probe_ms[i]
                              : 0.0;
  return facts;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so
  // under a launcher it reports the launcher's peak when that is larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpu = c;
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::vector<Metric> end_to_end(const Summary& latency_us,
                               const std::vector<double>& setup_s,
                               double setup_rss_mb, double generated_cycles,
                               const Outcome& outcome) {
  const double ok =
      outcome.attempted > 0
          ? static_cast<double>(outcome.attempted - outcome.failed) /
                static_cast<double>(outcome.attempted)
          : 0.0;
  return {
      {"p50_us", latency_us.median, "us"},
      {"p99_us", latency_us.at(99.0), "us"},
      {"ops_per_s", latency_us.mean > 0 ? 1e6 / latency_us.mean : 0.0, "1/s"},
      {"generated_cycles", generated_cycles, "cycles"},
      {"setup_s", summarize(setup_s).median, "s"},
      {"peak_rss_mb", setup_rss_mb, "MiB"},
      {"ok_ratio", ok, "ratio"},
  };
}

std::string summary_json(const Summary& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"n\": %zu, \"p25\": %.6g, \"p50\": %.6g, \"p75\": %.6g, "
                "\"tail_pct\": %.4g, \"tail\": %.6g, \"p99\": %.6g}",
                s.n, s.q1, s.median, s.q3, s.tail_pct, s.tail, s.at(99.0));
  return buf;
}

}  // namespace perfbench
