/// \file samples.hpp
/// Sample storage for the collector tool — the "measurement/storage phase"
/// whose cost dominates the paper's overhead breakdown (Sec. V-B: 81-99% of
/// the observed overhead is measurement/storage, not callbacks).
///
/// Event samples go into preallocated per-thread ring-less buffers (drop +
/// count on overflow, never block on a full buffer; a writer sharing a slot
/// waits only for the other writer's short critical section); join-time
/// callstack records go into a per-thread growable store, since their cost
/// is exactly what experiment E6 measures.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cacheline.hpp"
#include "common/spinlock.hpp"
#include "testing/fault_injection.hpp"

namespace orca::perf {

/// One event notification sample.
struct EventSample {
  std::uint64_t ticks = 0;      ///< hardware time-counter value
  std::uint64_t region_id = 0;  ///< current parallel region (0 = none)
  std::int32_t event = 0;       ///< OMP_COLLECTORAPI_EVENT value
  std::int32_t tid = 0;         ///< sampling thread's gtid
};

/// One join-time callstack record (implementation model, reconstructed to
/// the user model offline).
struct CallstackRecord {
  std::uint64_t ticks = 0;
  std::uint64_t region_id = 0;
  const void* region_fn = nullptr;        ///< outlined procedure
  std::vector<const void*> frames;        ///< innermost first
};

/// Bounded append-only event buffer for one thread slot. Growth is
/// amortized (the paper's "storage" cost the breakdown experiment
/// measures); beyond the hard cap samples are dropped and counted, never
/// blocking the application.
///
/// Slots are normally single-writer (indexed by gtid), but slot *sharing*
/// is legal — several MiniMPI rank masters all carry gtid 0, and unknown
/// threads clamp to slot 0 — so the write side takes a per-buffer lock
/// (uncontended in the common single-writer case).
class SampleBuffer {
 public:
  /// Set the hard cap and pre-reserve a modest initial block.
  void reserve(std::size_t capacity) {
    std::scoped_lock lk(mu_);
    capacity_ = capacity;
    samples_.reserve(std::min<std::size_t>(capacity, 4096));
  }

  /// Append `s`, or drop and count it. Drops happen only at the hard cap
  /// and on an injected allocation failure, never because another writer
  /// shares the slot: that writer's critical section is one push_back, so
  /// waiting for it is cheaper than losing the sample. Not
  /// async-signal-safe (it locks and may allocate); signal-context sampling
  /// records into SignalSampleLane instead.
  void record(const EventSample& s) {
    // Injected allocation failure behaves exactly like hitting the hard
    // cap: drop and count, never throw into the event path.
    if (testing::FaultInjector::alloc_fails(
            testing::FaultPoint::kSampleRecord)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::scoped_lock lk(mu_);
    if (samples_.size() < capacity_) {
      samples_.push_back(s);
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Quiescent-side accessor: callers read after the producing threads
  /// have joined (merge/report paths), so no snapshot copy is taken.
  const std::vector<EventSample>& samples() const noexcept { return samples_; }

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  void clear() noexcept {
    std::scoped_lock lk(mu_);
    samples_.clear();
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  mutable SpinLock mu_;
  std::size_t capacity_ = 0;
  std::vector<EventSample> samples_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Fixed-capacity, truly async-signal-safe sample lane: one writer (the
/// thread whose signal handler records into it), any number of quiescent
/// readers. The array is preallocated up front — record() performs no
/// allocation, locking, or syscalls, so it is the storage path a SIGPROF
/// handler uses (SampleBuffer, in contrast, takes a lock and may grow its
/// vector, so it is not signal-safe). The crash postmortem
/// flusher reads count() with acquire ordering from an arbitrary thread,
/// which is why the counter publishes each slot with release semantics.
class SignalSampleLane {
 public:
  explicit SignalSampleLane(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)),
        slots_(std::make_unique<EventSample[]>(capacity_)) {}

  /// Single-writer append; drop-and-count when full. Safe from a signal
  /// handler running on the owning thread.
  void record(const EventSample& s) noexcept {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[n] = s;
    count_.store(n + 1, std::memory_order_release);
  }

  /// Samples published so far (acquire: the slots below the count are
  /// fully written, even when read from another thread or a crash handler).
  std::size_t count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  const EventSample* data() const noexcept { return slots_.get(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  void clear() noexcept {
    count_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<EventSample[]> slots_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Per-thread sample storage for one tool session.
class SampleStore {
 public:
  /// `threads` buffer slots (indexed by gtid), each preallocated to
  /// `capacity` samples.
  SampleStore(std::size_t threads, std::size_t capacity);

  /// Buffer of thread slot `tid` (clamped to the last slot).
  SampleBuffer& buffer(int tid) noexcept;

  /// Append a callstack record for thread slot `tid`.
  void record_callstack(int tid, CallstackRecord record);

  /// All event samples, merged across threads, ordered by tick.
  std::vector<EventSample> merged_samples() const;

  /// All callstack records, merged, ordered by tick.
  std::vector<CallstackRecord> merged_callstacks() const;

  std::uint64_t total_samples() const noexcept;
  std::uint64_t total_dropped() const noexcept;
  std::size_t slots() const noexcept { return event_buffers_.size(); }

  void clear();

 private:
  struct CallstackSlot {
    mutable SpinLock mu;
    std::vector<CallstackRecord> records;
  };

  std::vector<CachePadded<SampleBuffer>> event_buffers_;
  std::vector<CachePadded<CallstackSlot>> callstack_slots_;
};

}  // namespace orca::perf
