// perfbench — the repository benchmark program. See ../README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR]
//
// Runs one workload as a closed loop (one client, each request waited
// for before the next) for S seconds and prints two JSON lines: the
// run's context (inputs fingerprint, host facts, sample counts), then
// the result {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// spends half its time untraced and half traced and reports the
// per-layer set, including the tracing overhead. Exits 1 when any
// correctness gate fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "harness.h"
#include "workload.h"

namespace {

using namespace perfbench;

/// Set-ups per run: at least kMinSetups, and more (up to kMaxSetups)
/// until kSetupSeconds have gone by, so a cheap set-up is still timed
/// often enough for a steady median. setup_s is their median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 30;
constexpr double kSetupSeconds = 1.0;

using Factory = std::unique_ptr<Workload> (*)(const Config&, Outcome&);

const std::map<std::string, Factory>& workloads() {
  static const std::map<std::string, Factory> table = {
      {"compile-cold", &make_compile_cold},
      {"serve-warm", &make_serve_warm},
      {"rerun-disk", &make_rerun_disk},
      {"exec-doacross", &make_exec_doacross},
  };
  return table;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\nworkloads:");
  for (const auto& [name, factory] : workloads())
    std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// Runs ops for `seconds`, recording each latency; a failed op counts
/// into outcome.failed.
std::vector<double> measure(Workload& workload, double seconds, bool traced,
                            Layers& layers, Outcome& outcome) {
  std::vector<double> latency_us;
  run_for(seconds, [&] {
    std::string error;
    latency_us.push_back(workload.op(traced, layers, &error));
    if (traced) layers.end_op();
    ++outcome.attempted;
    if (!error.empty()) outcome.gate_failed(error);
  });
  return latency_us;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

Outcome run(const Config& config, Factory factory,
            std::vector<std::string>* context) {
  Outcome outcome;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  std::unique_ptr<Workload> workload;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total < kSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    workload.reset();
    outcome = Outcome{};  // the gates of the set-up that is kept count
    const auto t0 = Clock::now();
    workload = factory(config, outcome);
    setup_s.push_back(us_since(t0) / 1e6);
    setup_total += setup_s.back();
  }
  const double setup_rss_mb = peak_rss_mb();
  context->push_back("\"inputs_fingerprint\": \"" +
                     workload->inputs_fingerprint() + "\"");

  Layers layers;
  if (!config.trace) {
    const Summary latency = summarize(
        measure(*workload, config.seconds, false, layers, outcome));
    workload->finish(false, layers, outcome);
    outcome.metrics = end_to_end(latency, setup_s, setup_rss_mb,
                                 workload->generated_cycles(), outcome);
    context->push_back("\"latency_us\": " + summary_json(latency));
    context->push_back("\"setup_s\": " + summary_json(summarize(setup_s)));
  } else {
    const Summary plain = summarize(
        measure(*workload, config.seconds / 2, false, layers, outcome));
    const Summary traced = summarize(
        measure(*workload, config.seconds / 2, true, layers, outcome));
    layers.set("trace.overhead_us", traced.median - plain.median);
    workload->finish(true, layers, outcome);
    outcome.metrics = layers.emit();
    context->push_back("\"latency_us\": " + summary_json(plain));
    context->push_back("\"traced_latency_us\": " + summary_json(traced));
  }
  context->push_back("\"peak_rss_end_mb\": " + std::to_string(peak_rss_mb()));
  for (std::string& item : outcome.info) context->push_back(std::move(item));
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_trace = false;
  double seconds = -1;
  long long seed = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value, &end, 10);
      if (*end != '\0' || seed < 0) return usage();
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage();
      config.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else {
      return usage();
    }
  }
  const auto it = workloads().find(config.workload);
  if (it == workloads().end() || seed < 0 || seconds <= 0 || !have_trace)
    return usage();
  config.seed = static_cast<std::uint64_t>(seed);
  config.seconds = seconds;

  // Probe the host's capacity first, then run on one CPU: the workloads
  // that start threads hand work back and forth in a closed loop, and on
  // the 4-vCPU VM used to size this benchmark the free capacity behind
  // several CPUs swung between one and two cores from minute to minute,
  // moving cross-CPU wake-ups (and the 2-worker run time) by a third.
  // One CPU keeps runs comparable; see README.md.
  const HostFacts host = probe_host();
  const int cpu = pin_to_one_cpu();
  std::vector<std::string> context;
  Outcome outcome;
  try {
    outcome = run(config, it->second, &context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string line = "{\"perfbench\": {\"workload\": \"" +
                     json_escape(config.workload) +
                     "\", \"seed\": " + std::to_string(config.seed) +
                     ", \"seconds\": " + json_number(config.seconds) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  char host_json[512];
  std::snprintf(host_json, sizeof host_json,
                ", \"host\": {\"nproc\": %u, \"affinity_cpus\": %d, "
                "\"pinned_cpu\": %d, "
                "\"probe_ms\": {\"t1\": %.2f, \"t2\": %.2f, \"t4\": %.2f}, "
                "\"capacity\": {\"t1\": %.3f, \"t2\": %.3f, \"t4\": %.3f}}",
                host.nproc, host.affinity_cpus, cpu, host.probe_ms[0],
                host.probe_ms[1], host.probe_ms[2], host.capacity[0],
                host.capacity[1], host.capacity[2]);
  line += host_json;
  for (const std::string& item : context) line += ", " + item;
  line += "}}";
  std::printf("%s\n", line.c_str());

  std::string result = std::string("{\"correct\": ") +
                       (outcome.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) +
                       ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    result += (i == 0 ? "" : ", ") + std::string("\"") + m.name +
              "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
              m.unit + "\"}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
