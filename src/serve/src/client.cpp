#include "sbmp/serve/client.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "sbmp/core/parallel.h"
#include "sbmp/serve/codec.h"
#include "sbmp/serve/protocol.h"
#include "sbmp/serve/transport.h"

namespace sbmp {

namespace {

[[noreturn]] void throw_status(Status status) {
  throw StatusError(std::move(status));
}

std::uint64_t default_jitter_seed(const void* self) {
  // Distinct per client instance and per process run, so concurrent
  // clients never share a jitter sequence (the convoy the jitter
  // exists to break). Tests that need determinism set options.jitter_seed.
  return static_cast<std::uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count()) ^
         reinterpret_cast<std::uintptr_t>(self);
}

}  // namespace

bool retryable_failure(const Status& status) {
  switch (status.code) {
    case StatusCode::kTimeout:
    case StatusCode::kUnavailable:
    case StatusCode::kOverloaded:
      return true;
    default:
      return false;
  }
}

std::int64_t backoff_delay_ms(const RetryPolicy& policy, int attempt,
                              SplitMix64& rng) {
  if (attempt < 1) attempt = 1;
  // Exponential ceiling with full jitter: uniform(0, min(initial <<
  // (attempt-1), max)). Shift guarded against overflow.
  std::int64_t ceiling = policy.initial_backoff_ms > 0
                             ? policy.initial_backoff_ms
                             : 1;
  for (int i = 1; i < attempt && ceiling < policy.max_backoff_ms; ++i)
    ceiling *= 2;
  ceiling = std::min(ceiling, std::max<std::int64_t>(policy.max_backoff_ms, 1));
  return rng.range(0, ceiling);
}

RemoteCompiler::RemoteCompiler(RemoteOptions options)
    : options_(std::move(options)),
      jitter_(options_.jitter_seed != 0 ? options_.jitter_seed
                                        : default_jitter_seed(this)) {}

RemoteCompiler::RemoteCompiler(std::string socket_path)
    : RemoteCompiler([&] {
        RemoteOptions o;
        o.socket_path = std::move(socket_path);
        return o;
      }()) {}

RemoteCompiler::~RemoteCompiler() {
  if (fd_ >= 0) ::close(fd_);
}

Status RemoteCompiler::ensure_connected() {
  if (fd_ >= 0) return Status::okay();
  return connect_unix(options_.socket_path, &fd_);
}

void RemoteCompiler::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RemoteCompiler::roundtrip(FrameType request_type,
                                 const std::string& payload,
                                 FrameType expected_type, Frame* out,
                                 const Deadline& deadline) {
  if (Status s = ensure_connected(); !s.ok()) return s;
  FdTransport transport(fd_);
  if (Status s = write_frame(transport, request_type, payload, deadline);
      !s.ok())
    return s;
  if (Status s = read_frame(transport, out, deadline); !s.ok()) {
    // A clean EOF where a response was due is a truncated conversation
    // (daemon died / reaped us) — kUnavailable either way; normalize
    // the stage for the caller's diagnostics.
    if (s.stage == "eof")
      return Status::error(StatusCode::kUnavailable, "protocol",
                           "daemon hung up before responding");
    return s;
  }
  if (out->type != expected_type)
    return Status::error(
        StatusCode::kInternal, "protocol",
        "daemon answered frame type " +
            std::to_string(static_cast<int>(request_type)) + " with type " +
            std::to_string(static_cast<int>(out->type)));
  return Status::okay();
}

void RemoteCompiler::ping() {
  std::lock_guard<std::mutex> lock(mu_);
  const Deadline deadline = Deadline::after_ms_opt(options_.io_timeout_ms);
  Frame frame;
  if (Status s = roundtrip(FrameType::kPing, "", FrameType::kPong, &frame,
                           deadline);
      !s.ok()) {
    disconnect();
    throw_status(s);
  }
}

StatSnapshot RemoteCompiler::stat() {
  Frame frame;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Deadline deadline = Deadline::after_ms_opt(options_.io_timeout_ms);
    if (Status s = roundtrip(FrameType::kStatRequest, "",
                             FrameType::kStatResponse, &frame, deadline);
        !s.ok()) {
      disconnect();
      throw_status(s);
    }
  }
  StatSnapshot snapshot;
  if (Status s = decode_stat_snapshot(frame.payload, &snapshot); !s.ok())
    throw_status(s);
  return snapshot;
}

LoopReport RemoteCompiler::compile(const Loop& loop,
                                   const PipelineOptions& options) {
  // One deadline covers the whole request: every attempt, every backoff
  // sleep. Each attempt tells the daemon how much budget is left so
  // server-side work is bounded by the same clock.
  const Deadline request_deadline = Deadline::after_ms_opt(options_.deadline_ms);
  const std::string options_payload = encode_pipeline_options(options);
  const std::string loop_source = loop.to_string();

  Status failure;
  for (int attempt = 1;; ++attempt) {
    if (request_deadline.expired()) {
      // Out of budget before the attempt even starts (possible on the
      // very first one): fail fast rather than ship a doomed request.
      failure = Status::error(StatusCode::kTimeout, "client",
                              "request deadline expired before the request "
                              "could be sent");
      break;
    }
    // On the wire, deadline_ms=0 means "no limit" — so a nearly-expired
    // budget must clamp UP to 1ms, never down to 0, or the daemon would
    // read "take all the time you like" from a client that is almost
    // out of time.
    const std::int64_t budget_ms =
        request_deadline.is_infinite()
            ? 0
            : std::max<std::int64_t>(1, request_deadline.remaining_ms());
    const std::string request =
        encode_compile_request(options_payload, loop_source, budget_ms);
    const Deadline io_deadline =
        request_deadline.earlier(Deadline::after_ms_opt(options_.io_timeout_ms));

    Frame frame;
    Status s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      s = roundtrip(FrameType::kCompileRequest, request,
                    FrameType::kCompileResponse, &frame, io_deadline);
      if (!s.ok()) disconnect();
    }
    std::string report_payload;
    if (s.ok()) {
      Status remote_status;
      s = decode_compile_response(frame.payload, &remote_status,
                                  &report_payload);
      // The daemon reports loops the pipeline refuses — and its own
      // sheds/timeouts — through the response status; transient classes
      // re-enter the retry loop, the rest surface as the StatusError a
      // local run_pipeline would have thrown.
      if (s.ok() && !remote_status.ok()) s = remote_status;
    }
    if (s.ok()) {
      // Trust-but-verify: decode re-runs the pipeline front half from
      // `loop` and the verification gates locally against the options
      // we asked for. The request's rendering keys the fingerprint and
      // is what the stored loop text must equal, so the loop is
      // rendered once. NEVER retried — a daemon handing back artifacts
      // that fail local re-validation will do it again.
      LoopReport report;
      const Fingerprint fp =
          schedule_fingerprint(ResultCache::key(loop_source, options));
      if (Status ds = decode_loop_report(report_payload, options, fp, loop,
                                         loop_source, &report);
          !ds.ok())
        throw_status(Status::error(
            StatusCode::kInternal, "remote",
            "daemon returned an artifact the local re-validation rejects: " +
                ds.message));
      return report;
    }

    if (!retryable_failure(s) || attempt >= options_.retry.max_attempts ||
        request_deadline.expired()) {
      failure = std::move(s);
      break;
    }
    std::int64_t delay = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++tallies_.retries;
      ++tallies_.reconnects;
      delay = backoff_delay_ms(options_.retry, attempt, jitter_);
    }
    if (!request_deadline.is_infinite())
      delay = std::min(delay, request_deadline.remaining_ms());
    if (delay > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
  throw_status(std::move(failure));
}

RemoteCompiler::Tallies RemoteCompiler::tallies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tallies_;
}

FallbackCompiler::FallbackCompiler(LoopCompiler& primary,
                                   LoopCompiler& fallback)
    : primary_(primary), fallback_(fallback) {}

LoopReport FallbackCompiler::compile(const Loop& loop,
                                     const PipelineOptions& options) {
  bool degraded = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (consecutive_failures_ >= kBreakerThreshold) {
      // Breaker open: the primary has proven unreachable; stop paying
      // its timeout tax for the rest of this run.
      ++fallbacks_;
      degraded = true;
    }
  }
  if (!degraded) {
    try {
      LoopReport report = primary_.compile(loop, options);
      std::lock_guard<std::mutex> lock(mu_);
      consecutive_failures_ = 0;
      return report;
    } catch (const StatusError& e) {
      if (!retryable_failure(e.status())) throw;
      std::lock_guard<std::mutex> lock(mu_);
      ++consecutive_failures_;
      ++fallbacks_;
    }
  }
  return fallback_.compile(loop, options);
}

std::int64_t FallbackCompiler::fallbacks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fallbacks_;
}

bool FallbackCompiler::breaker_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return consecutive_failures_ >= kBreakerThreshold;
}

}  // namespace sbmp
