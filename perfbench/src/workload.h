#pragma once

// The interface the four workloads implement and main.cpp drives: a
// constructor that does the whole set-up (timed as setup_s), one
// closed-loop op at a time, and the checks and counts that follow the
// measured window.

#include <memory>
#include <string>

#include "harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// One request, waited for before the next is sent. Returns the
  /// latency the user sees in microseconds; sets *error (and the op
  /// counts as failed) when an output is wrong. With `traced`, the op
  /// also times the calls into each layer (outside the returned
  /// latency) and charges them to `layers`.
  virtual double op(bool traced, Layers& layers, std::string* error) = 0;

  /// After the measured window: checks deferred outputs (each failure
  /// goes through outcome.gate_failed) and, when traced, sets the
  /// per-layer counts and ratios.
  virtual void finish(bool traced, Layers& layers, Outcome& outcome) = 0;

  /// Sum of simulated parallel times of the seed-independent inputs, as
  /// produced through this workload's own path.
  virtual double generated_cycles() = 0;

  /// Fingerprint of every generated input (sources, programs, machines).
  [[nodiscard]] virtual std::string inputs_fingerprint() const = 0;
};

std::unique_ptr<Workload> make_compile_cold(const Config& config,
                                            Outcome& outcome);
std::unique_ptr<Workload> make_serve_warm(const Config& config,
                                          Outcome& outcome);
std::unique_ptr<Workload> make_rerun_disk(const Config& config,
                                          Outcome& outcome);
std::unique_ptr<Workload> make_exec_doacross(const Config& config,
                                             Outcome& outcome);

}  // namespace perfbench
