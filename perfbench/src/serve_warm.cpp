// serve-warm: the sbmpc --remote client (RemoteCompiler, with its
// decode and local re-validation) against serve_session on a Unix
// socket, backed by an in-process ScheduleServer with jobs=1 and a
// memory cache only. The whole request pool is warmed into the server
// during set-up and requests are drawn from it with a seeded Zipf skew,
// so most are memory hits; about one in ten is a loop the server has
// never seen, which forces a compile and a cache insert.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/serve/client.h"
#include "sbmp/serve/codec.h"
#include "sbmp/serve/protocol.h"
#include "sbmp/serve/session.h"
#include "sbmp/support/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace sbmp;

/// Share of requests that carry a loop the server has never seen.
constexpr int kFreshPercent = 10;
/// Zipf exponent of the draw over the warm pool. Mild, so the hot set
/// is wide: with a steep skew a handful of seed-chosen loops would set
/// the median.
constexpr double kZipfExponent = 0.5;

/// A fresh request's output, checked against a local compile after the
/// measured window.
struct Deferred {
  Loop loop;
  std::size_t machine = 0;
  std::string bytes;
};

ServerOptions server_options() {
  ServerOptions options;
  options.jobs = 1;
  return options;
}

/// Fills `server`'s memory cache with every pool request.
void warm(ScheduleServer& server, const RequestPool& pool) {
  for (std::size_t r = 0; r < pool.size(); ++r)
    (void)server.compile(CompileRequest{pool.loop_of(r).loop, pool.options_of(r)});
}

class ServeWarm final : public Workload {
 public:
  ServeWarm(const Config& config, Outcome& outcome)
      : pool_(make_request_pool(config.seed)),
        server_(server_options()),
        socket_path_(config.workdir + "/serve.sock"),
        draw_rng_(config.seed ^ 0x7761726dull),
        fresh_rng_(config.seed ^ 0x66726573ull) {
    // The bytes a local compile produces: every response must match.
    expected_.reserve(pool_.size());
    fingerprints_.reserve(pool_.size());
    for (std::size_t r = 0; r < pool_.size(); ++r) {
      const Loop& loop = pool_.loop_of(r).loop;
      const PipelineOptions& options = pool_.options_of(r);
      const CompileResult local = compile({loop, options});
      if (!local.ok())
        outcome.gate_failed(pool_.loop_of(r).label + ": " +
                                local.report.status.to_string(),
                            false);
      fingerprints_.push_back(schedule_fingerprint(loop, options));
      expected_.push_back(
          encode_loop_report(local.report, fingerprints_.back()));
    }
    warm(server_, pool_);
    if (config.trace) {
      shadow_ = std::make_unique<ScheduleServer>(server_options());
      warm(*shadow_, pool_);
    }
    // Zipf CDF over a seeded permutation of the pool.
    ShuffledCycle permutation(pool_.size(), config.seed ^ 0x72616e6bull);
    for (std::size_t k = 0; k < pool_.size(); ++k)
      rank_.push_back(permutation.next());
    double total = 0.0;
    for (std::size_t k = 0; k < rank_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;

    RemoteOptions remote;  // connects on first use
    remote.socket_path = socket_path_;
    remote.jitter_seed = config.seed + 1;
    remote_ = std::make_unique<RemoteCompiler>(remote);
    before_ = counters();
    ::unlink(socket_path_.c_str());
    if (Status s = listen_unix(socket_path_, &listen_fd_); !s.ok())
      throw StatusError(s);
    server_thread_ = std::thread([this] { serve_connections(); });
  }

  ~ServeWarm() override {
    remote_.reset();  // hangs up: the session ends, the thread accepts
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept()
    server_thread_.join();
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
  }
  ServeWarm(const ServeWarm&) = delete;
  ServeWarm& operator=(const ServeWarm&) = delete;

  double op(bool traced, Layers& layers, std::string* error) override {
    // Draw the request outside the timed region.
    std::size_t r = 0;
    const bool fresh = draw_rng_.chance(kFreshPercent);
    std::size_t machine = 0;
    if (fresh) {
      Loop loop = generate_random_loop(
          fresh_rng_, random_loop_config(static_cast<int>(deferred_.size())));
      loop.name = "fresh" + std::to_string(deferred_.size());
      machine = static_cast<std::size_t>(fresh_rng_.range(
          0, static_cast<std::int64_t>(pool_.options.size()) - 1));
      deferred_.push_back({std::move(loop), machine, {}});
    } else {
      r = draw_warm();
      machine = r % pool_.options.size();
    }
    const Loop& loop = fresh ? deferred_.back().loop : pool_.loop_of(r).loop;
    const PipelineOptions& options = pool_.options[machine];

    const auto t0 = Clock::now();
    LoopReport report;
    try {
      report = remote_->compile(loop, options);
    } catch (const std::exception& e) {
      *error = std::string("remote compile failed: ") + e.what();
      return us_since(t0);
    }
    const double latency = us_since(t0);

    const Fingerprint fp =
        fresh ? schedule_fingerprint(loop, options) : fingerprints_[r];
    std::string bytes = encode_loop_report(report, fp);
    if (fresh) {
      deferred_.back().bytes = std::move(bytes);
    } else if (bytes != expected_[r]) {
      *error = "response bytes differ from the local compile for " +
               pool_.loop_of(r).label;
    }
    if (traced) trace_layers(loop, options, fp, latency, layers);
    return latency;
  }

  void finish(bool traced, Layers& layers, Outcome& outcome) override {
    const Counters after = counters();
    for (const Deferred& d : deferred_) {
      const PipelineOptions& options = pool_.options[d.machine];
      const CompileResult local = compile({d.loop, options});
      if (!local.ok() ||
          encode_loop_report(local.report,
                             schedule_fingerprint(d.loop, options)) != d.bytes)
        outcome.gate_failed("fresh response bytes differ from the local "
                            "compile for " + d.loop.name);
    }
    // One pass over the warm pool through the remote path gives the
    // deterministic counts (the corpus part alone in untraced runs).
    const std::size_t pass =
        traced ? pool_.size() : pool_.corpus_size * pool_.options.size();
    facts_.clear();
    for (std::size_t r = 0; r < pass; ++r) {
      try {
        facts_.push_back(facts_of(
            remote_->compile(pool_.loop_of(r).loop, pool_.options_of(r)),
            pool_.options_of(r)));
      } catch (const std::exception& e) {
        outcome.gate_failed(pool_.loop_of(r).label + ": " + e.what());
      }
    }
    if (!traced) return;
    set_pass_counts(facts_, layers);
    const double requests = static_cast<double>(after.requests - before_.requests);
    const double hits = static_cast<double>(after.hits - before_.hits);
    layers.set("core.cache_hit_ratio", requests > 0 ? hits / requests : 0.0);
    layers.set("core.l1_hit_ratio",
               hits > 0 ? static_cast<double>(after.l1_hits - before_.l1_hits) /
                              hits
                        : 0.0);
    layers.set("serve.compiles",
               static_cast<double>(after.compiles - before_.compiles));
  }

  double generated_cycles() override {
    double sum = 0.0;
    const std::size_t corpus = pool_.corpus_size * pool_.options.size();
    for (std::size_t r = 0; r < corpus && r < facts_.size(); ++r)
      sum += static_cast<double>(facts_[r].parallel_time);
    return sum;
  }

  [[nodiscard]] std::string inputs_fingerprint() const override {
    return pool_.fingerprint;
  }

 private:
  struct Counters {
    std::int64_t requests = 0;
    std::int64_t hits = 0;
    std::int64_t l1_hits = 0;
    std::int64_t compiles = 0;
  };

  Counters counters() {
    const ServerStats stats = server_.stats();
    return {stats.requests, stats.memory_hits,
            server_.metrics().counter("sbmp_result_cache_l1_hits_total")->value(),
            stats.compiles};
  }

  std::size_t draw_warm() {
    const double u = static_cast<double>(draw_rng_.next() >> 11) * 0x1.0p-53;
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto k = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), rank_.size() - 1);
    return rank_[k];
  }

  void serve_connections() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      FdTransport transport(fd);
      (void)serve_session(server_, nullptr, transport, SessionLimits{});
      ::close(fd);
    }
  }

  /// Replays the op's request outside the timed region, one public
  /// call per layer: the client's encode, the server's handling on an
  /// identically warmed shadow server, the client's decode. What the
  /// round trip spent beyond those is transport. The nested layers the
  /// decode re-derives (front half, verify, validate) and the server's
  /// parse and cache key are timed on their own too.
  void trace_layers(const Loop& loop, const PipelineOptions& options,
                    const Fingerprint& fp, double rtt_us, Layers& layers) {
    const auto t_enc = Clock::now();
    const std::string request = encode_compile_request(
        encode_pipeline_options(options), loop.to_string());
    const double encode_us = us_since(t_enc);

    const auto t_handle = Clock::now();
    const std::string response =
        handle_compile_request(*shadow_, nullptr, request);
    const double handle_us = us_since(t_handle);

    const auto t_dec = Clock::now();
    Status remote_status;
    std::string payload;
    LoopReport report;
    const bool decoded =
        decode_compile_response(response, &remote_status, &payload).ok() &&
        remote_status.ok() &&
        decode_loop_report(payload, options, fp, &report).ok();
    const double decode_us = us_since(t_dec);

    layers.add("serve.encode_us", encode_us);
    layers.add("serve.server_handle_us", handle_us);
    layers.add("serve.decode_us", decode_us);
    layers.add("serve.transport_us", rtt_us - encode_us - handle_us - decode_us);

    const std::string source = loop.to_string();
    timed(layers, "frontend.parse_us",
          [&] { return parse_single_loop_or_throw(source); });
    timed(layers, "core.cache_key_us",
          [&] { return ResultCache::key(loop, options); });
    time_front_half(loop, options, layers);
    if (!decoded || !report.dfg.has_value()) return;
    timed(layers, "sched.verify_us", [&] {
      return verify_schedule(report.tac, *report.dfg, options.machine,
                             report.schedule);
    });
    timed(layers, "core.validate_us",
          [&] { return validate_pipeline(report, options); });
  }

  RequestPool pool_;
  ScheduleServer server_;
  std::unique_ptr<ScheduleServer> shadow_;  ///< traced runs only
  std::string socket_path_;
  SplitMix64 draw_rng_;
  SplitMix64 fresh_rng_;
  std::vector<std::string> expected_;
  std::vector<Fingerprint> fingerprints_;
  std::vector<std::size_t> rank_;
  std::vector<double> cdf_;
  std::vector<Deferred> deferred_;
  std::vector<ReportFacts> facts_;
  Counters before_;
  int listen_fd_ = -1;
  std::unique_ptr<RemoteCompiler> remote_;
  std::thread server_thread_;  ///< last: uses every member above
};

}  // namespace

std::unique_ptr<Workload> make_serve_warm(const Config& config,
                                          Outcome& outcome) {
  return std::make_unique<ServeWarm>(config, outcome);
}

}  // namespace perfbench
