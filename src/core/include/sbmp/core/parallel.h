#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sbmp/core/pipeline.h"
#include "sbmp/obs/metrics.h"

namespace sbmp {

/// Thread-safe memo table for pipeline runs: the optional `cache` of
/// compile() and compare_schedulers (sbmp/core/pipeline.h).
///
/// The key is the exact input of `run_pipeline(Loop, PipelineOptions)`:
/// the loop fingerprint (its round-trippable LoopLang rendering, which
/// pins name, bounds, body, and element types) plus every option that
/// can change the report — machine configuration, scheduler kind,
/// sync-aware and sync-insertion switches, iteration and processor
/// counts, and the verification/elimination flags. Two calls with equal
/// keys are the same pure computation, so a hit returns a shared
/// immutable entry.
///
/// One mutex guards one map, held for one hash and one probe. That is
/// enough: a probe sits beside a compile of tens of microseconds or a
/// remote round trip of ~150 µs, and the traffic that reaches a cache
/// is mostly one thread at a time (a daemon session thread, a
/// single-threaded program re-run). Entries are insert-only and a
/// racing insert keeps the first entry, so every caller of a key sees
/// one shared entry.
class ResultCache {
 public:
  /// `metrics` (optional) publishes the hit/miss counters on a shared
  /// registry (`sbmp_result_cache_{hits,misses}_total`); without one the
  /// cache keeps private Counter instruments, and `hits()`/`misses()`
  /// read whichever is active — callers never see the difference.
  explicit ResultCache(MetricsRegistry* metrics = nullptr);

  /// One memoized run: the report, plus opaque bytes the inserter
  /// derived from it once (the serving layer keeps the encoded report
  /// here, so a hit is answered without re-encoding). Empty when the
  /// inserter stored none.
  struct Entry {
    LoopReport report;
    std::string payload;
  };

  /// Builds the canonical cache key for (loop, options): the loop's
  /// canonical rendering, `loop.to_string()`, then the option block.
  [[nodiscard]] static std::string key(const Loop& loop,
                                       const PipelineOptions& options);
  /// The same key from a rendering the caller already holds. Text that
  /// is not some loop's canonical rendering builds a key no key(loop, …)
  /// equals, so probing with it can only miss.
  [[nodiscard]] static std::string key(std::string_view rendering,
                                       const PipelineOptions& options);
  /// The loop rendering at the head of `key`.
  [[nodiscard]] static std::string_view rendering_of(std::string_view key);

  /// Returns the cached entry for `key`, or nullptr.
  [[nodiscard]] std::shared_ptr<const Entry> lookup_entry(
      const std::string& key) const;
  /// lookup_entry() that counts a hit but not a miss: for a fast path
  /// whose miss falls through to a path that looks the key up again, so
  /// every request is counted exactly once.
  [[nodiscard]] std::shared_ptr<const Entry> probe_entry(
      const std::string& key) const;

  /// Inserts (`report`, `payload`) under `key`; if another thread raced
  /// the same key in first, the existing entry wins (both are the same
  /// computation) and is returned.
  std::shared_ptr<const Entry> insert_entry(const std::string& key,
                                            LoopReport report,
                                            std::string payload);

  [[nodiscard]] std::size_t size() const;
  /// Compatibility shims over the Counter instruments (the pre-registry
  /// API; cheap enough to keep forever).
  [[nodiscard]] std::int64_t hits() const { return hits_->value(); }
  [[nodiscard]] std::int64_t misses() const { return misses_->value(); }

 private:
  [[nodiscard]] std::shared_ptr<const Entry> find(const std::string& key,
                                                  bool count_miss) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Entry>> map_;
  // Hit/miss instruments: registry-owned when one was injected,
  // otherwise the private pair below (same relaxed-atomic cost either
  // way). The pointers are set once in the constructor and never change.
  Counter own_hits_;
  Counter own_misses_;
  Counter* hits_;
  Counter* misses_;
};

}  // namespace sbmp
