// Self-test of the benchmark's statistics helper (src/stats.h). Built
// as perfbench_selftest next to the benchmark; run.py runs it before
// every benchmark run and refuses to report numbers when it fails.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::summarize;
  using perfbench::tail_percentile_for;

  // Empty input: zeros, no tail.
  {
    const auto s = summarize({});
    expect_near("empty n", static_cast<double>(s.n), 0);
    expect_near("empty median", s.median, 0);
    expect_near("empty tail_pct", s.tail_pct, 0);
  }
  // Quartiles use linear interpolation, the definition Python's
  // statistics.quantiles(method="inclusive") uses.
  {
    const auto s = summarize({4, 1, 3, 2, 5});
    expect_near("odd median", s.median, 3);
    expect_near("odd q1", s.q1, 2);
    expect_near("odd q3", s.q3, 4);
    expect_near("odd mean", s.mean, 3);
  }
  {
    const auto s = summarize({1, 2, 3, 4});
    expect_near("even median", s.median, 2.5);
    expect_near("even q1", s.q1, 1.75);
    expect_near("even q3", s.q3, 3.25);
  }
  // The tail percentile is the highest one with >= 10 samples beyond.
  expect_near("tail n=19", tail_percentile_for(19), 0);
  expect_near("tail n=20", tail_percentile_for(20), 50);
  expect_near("tail n=40", tail_percentile_for(40), 75);
  expect_near("tail n=100", tail_percentile_for(100), 90);
  expect_near("tail n=200", tail_percentile_for(200), 95);
  expect_near("tail n=999", tail_percentile_for(999), 95);
  expect_near("tail n=1000", tail_percentile_for(1000), 99);
  expect_near("tail n=10000", tail_percentile_for(10000), 99.9);
  {
    std::vector<double> v;
    for (int i = 1; i <= 1001; ++i) v.push_back(i);
    const auto s = summarize(v);
    expect_near("1001 n", static_cast<double>(s.n), 1001);
    expect_near("1001 median", s.median, 501);
    expect_near("1001 tail_pct", s.tail_pct, 99);
    expect_near("1001 tail", s.tail, 991);
    expect_near("1001 at(90)", s.at(90), 901);
  }
  if (failures == 0) std::printf("perfbench stats self-test: ok\n");
  return failures == 0 ? 0 : 1;
}
