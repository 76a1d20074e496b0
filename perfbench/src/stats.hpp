/// \file stats.hpp
/// The benchmark's own statistics: the tail-percentile rule, medians and
/// quartiles, span self time, and open-loop latency measured from the time
/// each batch was due. Nothing here knows about ORCA; tests/stats_test.cpp
/// covers it directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `v`. Copies and sorts; 0 for
/// an empty input.
double percentile(std::vector<double> v, double q);

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Mean of the middle half of `v` (the values between its quartiles; all
/// of them when there are fewer than four): how a run summarizes its
/// repeated units. Like the median it ignores a stalled unit, and unlike
/// the median it does not jump between modes when units split into two
/// clusters (as fresh runtimes do on a shared host: ~175 vs ~270 ns per
/// event, depending on where the instance's memory lands).
double interquartile_mean(std::vector<double> v);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The tail rule: a percentile may be reported only when at least ten
/// samples lie beyond it (p99 therefore needs n >= 1000).
inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// One timed interval. Ids are unique within a SpanLog; parent 0 is the
/// root. `event` ties the span to a per-event id (a region number, a batch
/// number) when it has one, 0 otherwise.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t event = 0;
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration() const noexcept {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

/// In-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  /// Record a finished span and return its id.
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t event = 0, int tid = 0);

  /// Reserve an id for a span whose children are recorded before it.
  std::uint64_t reserve_id() noexcept { return ++last_id_; }
  void add_with_id(Span s) { spans_.push_back(std::move(s)); }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t size() const noexcept { return spans_.size(); }

  /// Chrome trace-event JSON ("X" events, ts in us, args carry id,
  /// parent, event). At most `max_spans` spans are written; the file's
  /// metadata records how many were kept. False on I/O failure.
  bool write_json(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

/// A half-open interval [begin, end) in nanoseconds.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Self time of a span covering `parent`: its duration minus the part of
/// it that the union of `children` covers (children are clipped to the
/// parent and may overlap each other, e.g. callbacks on several threads).
std::uint64_t self_time_ns(Interval parent, std::vector<Interval> children);

/// One batch of an open-loop generator.
struct Batch {
  std::uint64_t due_ns = 0;    ///< when the schedule said to send it
  std::uint64_t start_ns = 0;  ///< when the generator actually began it
  std::uint64_t end_ns = 0;    ///< when its last event had been fired
  std::uint64_t events = 0;
};

/// One observation of the consumer: by time `ns`, `count` events (counted
/// from the same origin as the batches) had become visible.
struct Visibility {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
};

/// Result of matching batches to visibility samples.
struct OpenLoopLatency {
  std::vector<double> latency_ns;  ///< one per batch seen, from due time
  std::vector<double> late_ns;     ///< generator lateness (start - due)
  std::size_t unseen = 0;          ///< batches never fully visible
};

/// Order `batches` by due time, give each the cumulative event count
/// `base + events up to and including it`, and take its latency as the
/// time of the first visibility sample whose count reaches that total,
/// minus the batch's due time. Timing from the due time (not the actual
/// send) charges a stalled generator's delay to every batch behind it.
/// `samples` must be in time order with non-decreasing counts.
OpenLoopLatency open_loop_latency(std::vector<Batch> batches,
                                  std::uint64_t base,
                                  const std::vector<Visibility>& samples);

}  // namespace perfbench
