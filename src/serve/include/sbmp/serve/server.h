#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sbmp/core/parallel.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/serve/disk_cache.h"
#include "sbmp/serve/protocol.h"

namespace sbmp {

/// The one seam between "wants a loop compiled" and "how it gets
/// compiled". sbmpc renders reports against this interface, so local
/// runs, cached runs and --remote runs through sbmpd produce
/// byte-identical output by construction — only the compile transport
/// differs. Requests and results are the core facade types
/// (CompileRequest/CompileResult in sbmp/core/pipeline.h): the serving
/// layer adds transports and caches, never its own request shape.
class LoopCompiler {
 public:
  virtual ~LoopCompiler() = default;
  /// Same contract as run_pipeline(Loop, PipelineOptions): returns the
  /// full report, throws StatusError for loops the pipeline refuses.
  [[nodiscard]] virtual LoopReport compile(const Loop& loop,
                                           const PipelineOptions& options) = 0;

  /// Facade form: never throws pipeline errors; a refused compile
  /// yields a stub report carrying the structured Status, exactly like
  /// the core compile() facade. Implemented on top of the virtual
  /// overload, so every transport inherits it.
  [[nodiscard]] CompileResult compile(const CompileRequest& request);
};

/// Uncached pass-through to run_pipeline.
class DirectCompiler final : public LoopCompiler {
 public:
  using LoopCompiler::compile;
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options) override;
};

/// Two-level caching compiler: in-memory ResultCache in front of the
/// persistent DiskCache (either may be null). Lookup order is memory,
/// disk, compile; a compile back-fills both levels, a disk hit
/// back-fills memory. Disk entries are decoded through the codec's
/// integrity and re-validation gates, so a corrupt or stale entry is
/// invalidated and recompiled — the warm path can only ever return the
/// bytes the cold path would have produced. Each memory entry keeps the
/// encoded report beside the decoded one: the bytes a compile encoded
/// once for the disk tier, or the bytes a disk hit loaded.
class CachingCompiler final : public LoopCompiler {
 public:
  /// `metrics` (optional) publishes the compile/corrupt counters on a
  /// shared registry; without one the compiler keeps private
  /// instruments. The accessors below read whichever is active.
  CachingCompiler(ResultCache* memory, DiskCache* disk,
                  MetricsRegistry* metrics = nullptr)
      : memory_(memory),
        disk_(disk),
        corrupt_entries_(
            metrics != nullptr
                ? metrics->counter("sbmp_codec_corrupt_entries_total")
                : &own_corrupt_entries_),
        compiles_(metrics != nullptr
                      ? metrics->counter("sbmp_compiles_total")
                      : &own_compiles_) {}

  using LoopCompiler::compile;
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options) override;

  /// The cache entry for (loop, options), whose ResultCache::key the
  /// caller has already built as `key`. Its payload is
  /// encode_loop_report(report, schedule_fingerprint(key)), byte for
  /// byte what the disk tier stores. Throws StatusError like compile().
  [[nodiscard]] std::shared_ptr<const ResultCache::Entry> compile_entry(
      const std::string& key, const Loop& loop,
      const PipelineOptions& options);

  /// Disk entries rejected by the codec since construction.
  [[nodiscard]] std::int64_t corrupt_entries() const {
    return corrupt_entries_->value();
  }
  /// Actual run_pipeline executions (misses at both cache levels).
  [[nodiscard]] std::int64_t compiles() const { return compiles_->value(); }
  /// Most recent decode rejection; ok() when none occurred.
  [[nodiscard]] Status last_decode_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_decode_error_;
  }

 private:
  ResultCache* memory_;
  DiskCache* disk_;
  mutable std::mutex mu_;
  Counter own_corrupt_entries_;
  Counter own_compiles_;
  Counter* corrupt_entries_;
  Counter* compiles_;
  Status last_decode_error_;
};

struct ServerOptions {
  /// Worker threads for compile_batch; 0 = one per hardware thread.
  int jobs = 0;
  /// Directory of the persistent schedule cache; empty = memory only.
  std::string cache_dir;
  std::int64_t cache_max_bytes = 256ll << 20;
  /// Shared metrics registry; nullptr makes the server own one (see
  /// ScheduleServer::metrics()). Either way every component — memory
  /// cache, disk cache, codec, single-flight — publishes on the same
  /// registry, which is what the STAT frame and the Prometheus dump
  /// snapshot.
  MetricsRegistry* metrics = nullptr;
};

/// Long-lived serving core: accepts single requests or batches,
/// deduplicates identical in-flight requests (single-flight: concurrent
/// callers of the same (loop, options) share one pipeline run instead of
/// burning a worker each), consults the two-level cache before
/// compiling, and fans batches out over the shared ThreadPool.
/// The daemon wraps this over a socket; in-process callers (benches,
/// tests) use it directly.
class ScheduleServer {
 public:
  explicit ScheduleServer(ServerOptions options);

  /// Single-flight cached compile. Throws StatusError exactly like
  /// run_pipeline for loops the pipeline refuses.
  [[nodiscard]] LoopReport compile(const Loop& loop,
                                   const PipelineOptions& options);

  /// Facade form of the single compile: never throws pipeline errors.
  [[nodiscard]] CompileResult compile(const CompileRequest& request);

  /// The memory entry behind compile(): the report and its encoded
  /// payload (see CachingCompiler::compile_entry), shared, not copied —
  /// what the remote serving path frames. A warm hit returns the stored
  /// entry without entering single-flight; a miss takes the same
  /// single-flight compile as compile(). Throws StatusError like
  /// compile().
  [[nodiscard]] std::shared_ptr<const ResultCache::Entry> compile_entry(
      const Loop& loop, const PipelineOptions& options);
  /// compile_entry() for a loop given as LoopLang `source`, as a wire
  /// request carries it. Source that is a cached loop's canonical
  /// rendering is served by a memory probe without parsing; any other
  /// source is parsed (throwing SbmpError when it does not hold exactly
  /// one loop) and compiled as above. Either way the request is counted
  /// once.
  [[nodiscard]] std::shared_ptr<const ResultCache::Entry> compile_entry(
      std::string_view source, const PipelineOptions& options);

  /// Compiles every request on the pool. Order-stable: result i belongs
  /// to request i, and a failed request yields a stub report carrying
  /// the error status (batches never abort on one bad loop).
  [[nodiscard]] std::vector<LoopReport> compile_batch(
      const std::vector<CompileRequest>& requests);

  /// Compatibility shim assembling the classic tallies from the metrics
  /// registry (the pre-registry API; serve_test runs against it
  /// unmodified).
  [[nodiscard]] ServerStats stats() const;
  /// Typed introspection snapshot — the exact payload of a kStatResponse
  /// frame and the source of the Prometheus dump.
  [[nodiscard]] StatSnapshot stat_snapshot() const;
  /// The registry every component of this server publishes on (the
  /// injected one, or the server-owned registry when none was).
  [[nodiscard]] MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] DiskCache* disk_cache() { return disk_.get(); }

 private:
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const ResultCache::Entry> entry;  ///< set on success
    Status failure;  ///< set when the run threw
  };

  ServerOptions options_;
  MetricsRegistry own_metrics_;
  MetricsRegistry* metrics_;  ///< injected registry or &own_metrics_
  std::unique_ptr<DiskCache> disk_;
  ResultCache memory_;
  CachingCompiler compiler_;
  Counter* requests_;
  Counter* singleflight_joins_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
};

}  // namespace sbmp
