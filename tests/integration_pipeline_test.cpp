/// End-to-end integration: the full paper pipeline on real workloads.
/// NPB kernels run under the prototype collector; the collector's event
/// stream must agree exactly with the kernel's calibrated region schedule
/// (Table I), and the spill → offline-reconstruction path must produce a
/// profile whose sample count matches.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>

#include "npb/kernels.hpp"
#include "npb/multizone.hpp"
#include "perf/trace.hpp"
#include "runtime/ompc_api.h"
#include "runtime/runtime.hpp"
#include "tool/client2.hpp"
#include "tool/collector_tool.hpp"
#include "unwind/user_model.hpp"

namespace {

using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::tool::PrototypeCollector;
using orca::tool::ToolOptions;

TEST(Pipeline, CollectorSeesExactlyTable1ForkEvents) {
  // BT at full scale makes exactly 1014 region calls (Table I); the
  // collector must observe exactly 1014 FORK and 1014 JOIN events.
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.record_callstacks = true;
  opts.use_region_fn_extension = true;
  ASSERT_TRUE(tool.attach(opts));

  orca::npb::NpbOptions bench;
  bench.num_threads = 2;
  bench.scale = 1.0;
  const auto result = orca::npb::run_bt(bench);
  rt.quiesce();
  tool.detach();

  EXPECT_EQ(result.region_calls, 1014u);
  const auto report = tool.finalize();
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_FORK), 1014u);
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_JOIN), 1014u);
  // Each BT region contains two implicit barriers (the worksharing loop's
  // and the region-end barrier), both observed by 2 threads.
  EXPECT_EQ(report.event_counts.at(OMP_EVENT_THR_BEGIN_IBAR),
            2u * 2u * 1014u);
  EXPECT_EQ(report.dropped_samples, 0u);

  // Every join produced a callstack. The profile groups by *calling
  // context*: BT has 11 distinct regions, and the calibration region
  // (error_norm) is reached through two call paths (direct + top-up), so
  // 12 contexts is the exact expected answer.
  std::uint64_t profiled = 0;
  for (const auto& entry : report.callstack_profile) {
    profiled += entry.samples;
  }
  EXPECT_EQ(profiled, 1014u);
  EXPECT_EQ(report.callstack_profile.size(), 12u);
  Runtime::make_current(nullptr);
}

TEST(Pipeline, SpillAndOfflineReconstructionRoundTrip) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  Runtime rt(cfg);
  Runtime::make_current(&rt);

  auto& tool = PrototypeCollector::instance();
  tool.reset();
  ToolOptions opts;
  opts.use_region_fn_extension = true;
  ASSERT_TRUE(tool.attach(opts));
  orca::npb::NpbOptions bench;
  bench.num_threads = 2;
  bench.scale = 1.0;
  (void)orca::npb::run_ft(bench);  // 112 region calls
  rt.quiesce();
  tool.detach();

  // Per-process name: concurrent copies of this suite (ctest under load,
  // repeat lanes) must not overwrite or remove each other's trace.
  const std::string path = std::string(::testing::TempDir()) +
                           "pipeline_ft." + std::to_string(::getpid()) +
                           ".orcatrc";
  ASSERT_TRUE(orca::perf::write_trace(path, tool.trace_data()));

  orca::perf::TraceData loaded;
  ASSERT_TRUE(orca::perf::read_trace(path, &loaded));
  EXPECT_EQ(loaded.callstacks.size(), 112u);

  // Offline pass: every reconstructed stack resolves its region frame
  // (the extension tagged each record with the outlined procedure).
  std::size_t with_region_frame = 0;
  for (const auto& rec : loaded.callstacks) {
    const auto user = orca::unwind::reconstruct(rec.frames, rec.region_fn);
    ASSERT_FALSE(user.frames.empty());
    if (user.frames[0].resolution == orca::unwind::Resolution::kRegion) {
      ++with_region_frame;
      EXPECT_NE(user.frames[0].file.find("ft.cpp"), std::string::npos);
    }
  }
  EXPECT_EQ(with_region_frame, 112u);
  std::remove(path.c_str());
  Runtime::make_current(nullptr);
}

TEST(Pipeline, MzPerRankCollectorsObserveAllRegions) {
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  tool.configure(ToolOptions{});

  orca::npb::MzOptions opts;
  opts.procs = 2;
  opts.threads_per_proc = 1;
  opts.scale = 0.05;
  opts.rank_begin = [](int) {
    orca::collector::Client client(&__omp_collector_api);
    client.start();
    client.register_event(OMP_EVENT_FORK, PrototypeCollector::raw_callback());
    client.register_event(OMP_EVENT_JOIN, PrototypeCollector::raw_callback());
  };
  opts.rank_end = [](int) {
    orca::collector::Client client(&__omp_collector_api);
    client.stop();
  };
  const auto result = orca::npb::run_lu_mz(opts);

  // Every region on every rank fired one FORK + one JOIN into the shared
  // tool store.
  const auto data = tool.trace_data();
  std::map<int, std::uint64_t> counts;
  for (const auto& s : data.samples) ++counts[s.event];
  EXPECT_EQ(counts[OMP_EVENT_FORK], result.total_calls);
  EXPECT_EQ(counts[OMP_EVENT_JOIN], result.total_calls);
}

}  // namespace
