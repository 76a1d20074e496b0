/// Measurement-substrate tests: time counters, sample stores, the binary
/// trace format, and the libpsx-style C API.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perf/counter.hpp"
#include "perf/psx.h"
#include "perf/samples.hpp"
#include "perf/trace.hpp"
#include "translate/region_registry.hpp"

namespace {

using namespace orca::perf;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(HwTimeCounter, MonotonicAndCalibrated) {
  for (const auto source : {CounterSource::kTsc, CounterSource::kSteady}) {
    HwTimeCounter counter(source);
    const std::uint64_t a = counter.read();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t b = counter.read();
    EXPECT_GT(b, a);
    const double seconds = counter.to_seconds(b - a);
    EXPECT_GT(seconds, 0.001);
    EXPECT_LT(seconds, 1.0);
  }
  // Calibrated TSC frequency should be in a plausible CPU range.
  EXPECT_GT(HwTimeCounter::tsc_hz(), 1e8);
  EXPECT_LT(HwTimeCounter::tsc_hz(), 1e11);
}

TEST(SampleBuffer, RecordsUntilCapThenDrops) {
  SampleBuffer buf;
  buf.reserve(10);
  for (int i = 0; i < 15; ++i) {
    buf.record({static_cast<std::uint64_t>(i), 0, 1, 0});
  }
  EXPECT_EQ(buf.samples().size(), 10u);
  EXPECT_EQ(buf.dropped(), 5u);
  buf.clear();
  EXPECT_TRUE(buf.samples().empty());
  EXPECT_EQ(buf.dropped(), 0u);
}

// Slot sharing (several MiniMPI rank masters on gtid 0) must not cost
// samples: below the hard cap, concurrent writers to one buffer wait for
// each other instead of dropping.
TEST(SampleBuffer, SharedSlotKeepsEverySampleUnderContention) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  SampleBuffer buf;
  buf.reserve(kWriters * kPerWriter);
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&buf, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerWriter; ++i) {
        buf.record({static_cast<std::uint64_t>(i), 0, 1, t});
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();

  EXPECT_EQ(buf.samples().size(),
            static_cast<std::size_t>(kWriters * kPerWriter));
  EXPECT_EQ(buf.dropped(), 0u);
  std::vector<int> per_writer(kWriters, 0);
  for (const EventSample& s : buf.samples()) ++per_writer[s.tid];
  for (int t = 0; t < kWriters; ++t) EXPECT_EQ(per_writer[t], kPerWriter);
}

TEST(SampleStore, MergesAcrossThreadsSortedByTicks) {
  SampleStore store(4, 100);
  store.buffer(0).record({30, 0, 1, 0});
  store.buffer(2).record({10, 0, 1, 2});
  store.buffer(1).record({20, 0, 2, 1});
  const auto merged = store.merged_samples();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].ticks, 10u);
  EXPECT_EQ(merged[1].ticks, 20u);
  EXPECT_EQ(merged[2].ticks, 30u);
  EXPECT_EQ(store.total_samples(), 3u);
  EXPECT_EQ(store.total_dropped(), 0u);
}

TEST(SampleStore, TidClampingAndCallstacks) {
  SampleStore store(2, 10);
  store.buffer(99).record({1, 0, 1, 99});  // clamps to last slot
  store.buffer(-3).record({2, 0, 1, -3});  // clamps to slot 0
  EXPECT_EQ(store.total_samples(), 2u);

  CallstackRecord rec;
  rec.ticks = 5;
  rec.region_id = 7;
  rec.frames = {reinterpret_cast<const void*>(0x10),
                reinterpret_cast<const void*>(0x20)};
  store.record_callstack(1, rec);
  store.record_callstack(0, {3, 1, nullptr, {}});
  const auto stacks = store.merged_callstacks();
  ASSERT_EQ(stacks.size(), 2u);
  EXPECT_EQ(stacks[0].ticks, 3u);  // sorted by ticks
  EXPECT_EQ(stacks[1].region_id, 7u);
  EXPECT_EQ(stacks[1].frames.size(), 2u);

  store.clear();
  EXPECT_EQ(store.total_samples(), 0u);
  EXPECT_TRUE(store.merged_callstacks().empty());
}

TEST(Trace, BinaryRoundTrip) {
  TraceData data;
  for (int i = 0; i < 100; ++i) {
    data.samples.push_back({static_cast<std::uint64_t>(i * 10),
                            static_cast<std::uint64_t>(i % 7),
                            i % 5, i % 3});
  }
  data.callstacks.push_back(
      {42, 3, reinterpret_cast<const void*>(0xABC),
       {reinterpret_cast<const void*>(0x1), reinterpret_cast<const void*>(0x2)}});

  const std::string path = temp_path("roundtrip.orcatrc");
  ASSERT_TRUE(write_trace(path, data));

  TraceData loaded;
  ASSERT_TRUE(read_trace(path, &loaded));
  ASSERT_EQ(loaded.samples.size(), data.samples.size());
  EXPECT_EQ(loaded.samples[50].ticks, data.samples[50].ticks);
  EXPECT_EQ(loaded.samples[50].event, data.samples[50].event);
  ASSERT_EQ(loaded.callstacks.size(), 1u);
  EXPECT_EQ(loaded.callstacks[0].region_fn,
            reinterpret_cast<const void*>(0xABC));
  ASSERT_EQ(loaded.callstacks[0].frames.size(), 2u);
  EXPECT_EQ(loaded.callstacks[0].frames[1],
            reinterpret_cast<const void*>(0x2));
  std::remove(path.c_str());
}

TEST(Trace, RejectsMissingAndMalformedFiles) {
  TraceData out;
  EXPECT_FALSE(read_trace("/nonexistent/file.orcatrc", &out));
  EXPECT_FALSE(read_trace("/dev/null", &out));

  const std::string path = temp_path("badmagic.orcatrc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTATRACE-GARBAGE", f);
  std::fclose(f);
  EXPECT_FALSE(read_trace(path, &out));
  EXPECT_FALSE(read_trace(path, nullptr));
  std::remove(path.c_str());
}

TEST(Trace, CsvExport) {
  const std::string path = temp_path("samples.csv");
  ASSERT_TRUE(write_csv(path, {{100, 5, 1, 2}, {200, 6, 2, 3}}));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[128];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "ticks,event,tid,region_id\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_STREQ(line, "100,1,2,5\n");
  std::fclose(f);
  std::remove(path.c_str());
}

// --- libpsx-style C API ----------------------------------------------------------

TEST(Psx, CallstackGet) {
  const void* frames[16] = {};
  const int n = psx_callstack_get(frames, 16, 0);
  ASSERT_GT(n, 0);
  for (int i = 0; i < n; ++i) EXPECT_NE(frames[i], nullptr);
  EXPECT_EQ(psx_callstack_get(nullptr, 16, 0), 0);
  EXPECT_EQ(psx_callstack_get(frames, 0, 0), 0);
}

TEST(Psx, IpToSourceThroughRegionRegistry) {
  const int anchor = 0;
  orca::translate::RegionRegistry::instance().add(
      &anchor, {"kernel", "kernel.cpp", 17, "parallel"});
  psx_source_info info{};
  ASSERT_EQ(psx_ip_to_source(&anchor, &info), 0);
  EXPECT_EQ(info.exact, 1);
  EXPECT_STREQ(info.file, "kernel.cpp");
  EXPECT_EQ(info.line, 17u);

  EXPECT_EQ(psx_ip_to_source(nullptr, &info), -1);
  EXPECT_EQ(psx_ip_to_source(&anchor, nullptr), -1);
}

TEST(Psx, TimerReadsAndConverts) {
  const unsigned long long a = psx_timer_read();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const unsigned long long b = psx_timer_read();
  EXPECT_GT(b, a);
  EXPECT_GT(psx_timer_seconds(b - a), 0.001);
}

}  // namespace
