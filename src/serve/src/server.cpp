#include "sbmp/serve/server.h"

#include <optional>
#include <utility>

#include "sbmp/obs/trace.h"
#include "sbmp/serve/codec.h"
#include "sbmp/support/thread_pool.h"

namespace sbmp {

CompileResult LoopCompiler::compile(const CompileRequest& request) {
  return {report_or_stub(request.loop, [&] {
    return compile(request.loop, request.options);
  })};
}

LoopReport DirectCompiler::compile(const Loop& loop,
                                   const PipelineOptions& options) {
  return run_pipeline(loop, options);
}

LoopReport CachingCompiler::compile(const Loop& loop,
                                    const PipelineOptions& options) {
  return compile_entry(ResultCache::key(loop, options), loop, options)->report;
}

std::shared_ptr<const ResultCache::Entry> CachingCompiler::compile_entry(
    const std::string& key, const Loop& loop,
    const PipelineOptions& options) {
  if (memory_ != nullptr) {
    if (auto hit = memory_->lookup_entry(key)) return hit;
  }
  // Back-fills the memory tier, or hands the entry back alone without one.
  const auto keep = [&](LoopReport report, std::string payload) {
    if (memory_ != nullptr)
      return memory_->insert_entry(key, std::move(report), std::move(payload));
    return std::make_shared<const ResultCache::Entry>(
        ResultCache::Entry{std::move(report), std::move(payload)});
  };
  const Fingerprint fp = schedule_fingerprint(key);
  if (disk_ != nullptr) {
    std::optional<std::string> payload;
    {
      Tracer::Span span = Tracer::begin(options.tracer, "cache.disk_load");
      payload = disk_->load(fp);
      if (span) span.arg("hit", payload.has_value() ? 1 : 0);
    }
    if (payload) {
      LoopReport report;
      Status s;
      {
        // The key's head is the loop's rendering, so the decode checks
        // the stored text against it and re-derives from `loop`: no
        // parse.
        Tracer::Span span = Tracer::begin(options.tracer, "codec.decode");
        s = decode_loop_report(*payload, options, fp, loop,
                               ResultCache::rendering_of(key), &report);
        if (span) span.arg("ok", s.ok() ? 1 : 0);
      }
      if (s.ok()) {
        return keep(std::move(report), std::move(*payload));
      } else {
        // Stale, corrupt or tampered entry: drop it and recompile. The
        // rejection is a diagnostic, never a failure of the compile.
        disk_->invalidate(fp);
        corrupt_entries_->inc();
        std::lock_guard<std::mutex> lock(mu_);
        last_decode_error_ = std::move(s);
      }
    }
  }
  compiles_->inc();
  LoopReport report = run_pipeline(loop, options);
  std::string payload = encode_loop_report(report, fp);
  if (disk_ != nullptr) disk_->store(fp, payload);
  return keep(std::move(report), std::move(payload));
}

ScheduleServer::ScheduleServer(ServerOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics : &own_metrics_),
      disk_(options_.cache_dir.empty()
                ? nullptr
                : std::make_unique<DiskCache>(options_.cache_dir,
                                              options_.cache_max_bytes,
                                              metrics_)),
      memory_(metrics_),
      compiler_(&memory_, disk_.get(), metrics_),
      requests_(metrics_->counter("sbmp_server_requests_total")),
      singleflight_joins_(
          metrics_->counter("sbmp_server_singleflight_joins_total")) {}

LoopReport ScheduleServer::compile(const Loop& loop,
                                   const PipelineOptions& options) {
  return compile_entry(loop, options)->report;
}

std::shared_ptr<const ResultCache::Entry> ScheduleServer::compile_entry(
    std::string_view source, const PipelineOptions& options) {
  // Every stored key heads with a loop's canonical rendering, and
  // rendering is a fixed point of parse (parse(R).to_string() == R), so
  // source text that hits is that rendering and parses to a loop with
  // the stored entry's key. Any other text misses here and is parsed.
  if (auto hit = memory_.probe_entry(ResultCache::key(source, options))) {
    requests_->inc();
    return hit;
  }
  return compile_entry(parse_single_loop_or_throw(source), options);
}

std::shared_ptr<const ResultCache::Entry> ScheduleServer::compile_entry(
    const Loop& loop, const PipelineOptions& options) {
  const std::string key = ResultCache::key(loop, options);
  requests_->inc();
  // Warm hit: the stored entry is the answer, so there is no flight to
  // join. A miss is not counted here: the leader below looks the key up
  // again and counts that lookup, exactly once per request.
  if (auto hit = memory_.probe_entry(key)) return hit;
  std::shared_ptr<Inflight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
      singleflight_joins_->inc();
    } else {
      flight = std::make_shared<Inflight>();
      inflight_.emplace(key, flight);
      leader = true;
    }
  }
  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (!flight->failure.ok()) throw StatusError(flight->failure);
    return flight->entry;
  }
  // Leader: run the (cached) compile, publish the outcome, and retire
  // the flight so later identical requests take the cache path.
  const auto publish = [&](std::shared_ptr<const ResultCache::Entry> entry,
                           Status failure) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->entry = std::move(entry);
    flight->failure = std::move(failure);
    flight->done = true;
    flight->cv.notify_all();
  };
  try {
    auto entry = compiler_.compile_entry(key, loop, options);
    publish(entry, Status::okay());
    return entry;
  } catch (const StatusError& e) {
    publish(nullptr, e.status());
    throw;
  } catch (const SbmpError& e) {
    const Status failure =
        Status::error(StatusCode::kInternal, "pipeline", e.what());
    publish(nullptr, failure);
    throw StatusError(failure);
  }
}

std::vector<LoopReport> ScheduleServer::compile_batch(
    const std::vector<CompileRequest>& requests) {
  std::vector<LoopReport> reports(requests.size());
  parallel_for(options_.jobs, 0, static_cast<std::int64_t>(requests.size()),
               [&](std::int64_t i) {
                 const auto at = static_cast<std::size_t>(i);
                 reports[at] = compile(requests[at]).report;
               });
  return reports;
}

CompileResult ScheduleServer::compile(const CompileRequest& request) {
  return {report_or_stub(request.loop, [&] {
    return compile(request.loop, request.options);
  })};
}

ServerStats ScheduleServer::stats() const {
  ServerStats out;
  out.requests = requests_->value();
  out.singleflight_joins = singleflight_joins_->value();
  out.memory_hits = memory_.hits();
  out.compiles = compiler_.compiles();
  out.corrupt_entries = compiler_.corrupt_entries();
  if (disk_ != nullptr) out.disk_hits = disk_->stats().hits;
  return out;
}

StatSnapshot ScheduleServer::stat_snapshot() const {
  StatSnapshot out;
  out.server = stats();
  out.metrics = metrics_->snapshot();
  return out;
}

}  // namespace sbmp
