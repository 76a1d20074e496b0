/// \file harness.hpp
/// What every workload shares: run options, the result it reports (metrics
/// plus the books of attempted/failed operations and correctness checks),
/// and a few clock and process helpers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measurement budget of the run
  bool trace = false;   ///< traced pass: per-layer metrics + spans file
  std::string out_dir;  ///< where traces and spans go, inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Result {
 public:
  /// Record a correctness check; a failed one fails the run and counts as
  /// one failed operation.
  void check(bool ok, const std::string& what);

  /// Count operations (events fired, sessions run) and their failures
  /// (lost events, unbalanced books, quarantines) outside of checks.
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// lat_us_p50 and tail.lat_us_p99 (us) from per-unit latency samples
  /// (ns): each unit's p50 and p99, then their interquartile mean across
  /// units. The tail rule holds per unit: a unit with fewer than 10
  /// samples beyond its p99 is a failed check, not a number. The p99 is a
  /// per-layer metric: on a shared host it moves by up to half between
  /// runs (wake-ups, stalls), too much for an end-to-end bound.
  void latency(const std::vector<std::vector<double>>& units);

  bool correct() const noexcept { return failures_.empty(); }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  /// Print the notes and then, as the last line, the result object:
  /// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
  void print(const std::vector<std::string>& keep) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// CLOCK_MONOTONIC in ns (std::chrono::steady_clock on Linux): the clock
/// shm records carry, so it compares across processes.
std::uint64_t now_ns() noexcept;

inline double seconds_between(std::uint64_t a, std::uint64_t b) {
  return b > a ? static_cast<double>(b - a) * 1e-9 : 0.0;
}

/// Peak resident set of this process and of its largest reaped child, MB.
double peak_rss_mb(bool include_children);

/// Pin the calling thread — and the threads it creates from now on — to
/// CPUs [first, first + count). A no-op returning false on hosts with
/// fewer than four CPUs, where the workloads' layouts do not fit.
bool pin_self(int first, int count);

/// Run one region on the current runtime in which thread t pins itself to
/// CPU t: the OpenMP threads stay put (as with OMP_PROC_BIND), instead of
/// the scheduler moving them between units of a run.
void pin_team(int threads);

/// A line of human-readable output ahead of the result line.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Workloads. Each fills `out` with every end-to-end metric (trace off) or
// every per-layer metric (trace on) and runs its correctness checks.
void run_npb_tool(const RunOptions& opts, Result& out);
void run_epcc_async_trace(const RunOptions& opts, Result& out);
void run_fleet(const RunOptions& opts, double offered_mev_s, Result& out);

/// Per-layer metrics a workload does not exercise are reported as 0 so
/// every traced run prints the same names; this fills the missing ones.
void fill_missing_layers(Result& out);

}  // namespace perfbench
