#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace sbmp {

/// The IterationSync primitive and the executor's only blocking
/// primitive. One wait rule: a waiter needs a monotone atomic word to
/// reach a value, and parks on that word (`std::atomic::wait`); every
/// store to a word is seq_cst and followed by `notify_all()` on it, and
/// that store/load pair is the happens-before edge that makes the
/// guarded plain-memory accesses race-free. Two sets of words:
///
/// * Signal slots: `Send_Signal`/`Wait_Signal` on a ring of sequence
///   counters per signal statement, the live-thread analogue of the
///   simulator's signal buffer (both sized by `signal_window_rows`).
///   Slot `(k mod rows, stmt)` holds `k + 1` once iteration k sent
///   `stmt` (0 = never). A waiter for iteration s passes at `s + 1` or
///   at any newer value left by a later iteration reusing the slot: the
///   ring-reuse gate lets that iteration start only after s completed.
/// * Completion counters, one per worker: iteration k runs on worker
///   `k mod workers`, whose counter holds how many of its iterations
///   have completed.
///
/// `halt()` sets the halt flag before bumping every word to INT64_MAX,
/// so a parked waiter always sees a changed value, and a waiter that
/// reads the bumped value also sees the flag.
class SignalBoard {
 public:
  struct Outcome {
    bool satisfied = false;  ///< false only when the run was halted
    bool blocked = false;    ///< found the word short and parked on it
  };

  /// `rows` is a minimum history depth; rounded up to a power of two so
  /// ring indexing is a mask. `workers` is the cyclic assignment's width.
  SignalBoard(int signal_width, std::int64_t rows, int workers)
      : width_(std::max(signal_width, 1)),
        workers_(std::max(workers, 1)),
        rows_(static_cast<std::int64_t>(std::bit_ceil(
            static_cast<std::uint64_t>(std::max<std::int64_t>(rows, 1))))),
        slots_(static_cast<std::size_t>(rows_ * width_)),
        completed_(static_cast<std::size_t>(workers_)) {}

  [[nodiscard]] std::int64_t rows() const { return rows_; }

  /// Send_Signal(stmt) from iteration k.
  void post(int stmt, std::int64_t k) { publish(slot(stmt, k), k + 1); }

  /// Wait_Signal(stmt, src_iter): blocks until iteration `src_iter` has
  /// posted (or a later iteration reused its slot — see class comment).
  [[nodiscard]] Outcome await_signal(int stmt, std::int64_t src_iter) {
    return await(slot(stmt, src_iter), src_iter + 1);
  }

  /// Iteration k has completed; called by its worker, in iteration order.
  void complete(std::int64_t k) {
    publish(completed_[static_cast<std::size_t>(k % workers_)],
            k / workers_ + 1);
  }

  /// Blocks until every iteration <= `last` has completed: worker w must
  /// have completed its iterations w, w + workers, ... up to `last`.
  [[nodiscard]] Outcome await_completed(std::int64_t last) {
    bool blocked = false;
    for (int w = 0; w < workers_ && w <= last; ++w) {
      const Outcome one = await(completed_[static_cast<std::size_t>(w)],
                                (last - w) / workers_ + 1);
      blocked = blocked || one.blocked;
      if (!one.satisfied) return {false, blocked};
    }
    return {true, blocked};
  }

  /// Aborts the run: every current and future await returns
  /// unsatisfied. Used on runtime faults so no worker deadlocks waiting
  /// for a signal its failed peer will never send.
  void halt() {
    halted_.store(true, std::memory_order_seq_cst);
    for (auto& word : slots_) publish(word, kHalted);
    for (auto& word : completed_) publish(word, kHalted);
  }

 private:
  static constexpr std::int64_t kHalted =
      std::numeric_limits<std::int64_t>::max();

  static void publish(std::atomic<std::int64_t>& word, std::int64_t value) {
    word.store(value, std::memory_order_seq_cst);
    word.notify_all();
  }

  [[nodiscard]] Outcome await(const std::atomic<std::int64_t>& word,
                              std::int64_t needed) const {
    bool blocked = false;
    for (;;) {
      const std::int64_t seen = word.load(std::memory_order_seq_cst);
      if (halted_.load(std::memory_order_seq_cst)) return {false, blocked};
      if (seen >= needed) return {true, blocked};
      blocked = true;
      word.wait(seen, std::memory_order_seq_cst);
    }
  }

  [[nodiscard]] std::atomic<std::int64_t>& slot(int stmt, std::int64_t k) {
    return slots_[static_cast<std::size_t>(k & (rows_ - 1)) *
                      static_cast<std::size_t>(width_) +
                  static_cast<std::size_t>(stmt)];
  }

  int width_;
  int workers_;
  std::int64_t rows_;
  std::vector<std::atomic<std::int64_t>> slots_;
  std::vector<std::atomic<std::int64_t>> completed_;
  std::atomic<bool> halted_{false};
};

}  // namespace sbmp
