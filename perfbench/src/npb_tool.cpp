// npb_tool: the paper's worst case. LU-HP (scale 0.1, 29,895 region calls)
// at 4 threads under the prototype collector with its default options,
// then finalize(); the same kernel bare. The traced pass wraps the tool's
// callback in a timing shim to split time between runtime and tool.
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "collector/api.h"
#include "common/rng.hpp"
#include "harness.hpp"
#include "npb/kernels.hpp"
#include "perf/trace.hpp"
#include "runtime/ompc_api.h"
#include "runtime/runtime.hpp"
#include "tool/client2.hpp"
#include "tool/collector_tool.hpp"
#include "translate/omp.hpp"

namespace perfbench {
namespace {

constexpr const char* kKernel = "LU-HP";
constexpr double kScale = 0.1;
constexpr int kThreads = 4;
constexpr int kProbeChildren = 8;
constexpr int kProbesPerChild = 5;
constexpr int kSetupTrials = 30;
constexpr int kFinalizeCalls = 3;
constexpr int kProbeBatches = 10;
constexpr std::size_t kProbeBatchEvents = 1800;  // 100 regions' events

using orca::tool::PrototypeCollector;

// --- timing shim (traced pass) ----------------------------------------------

struct CallbackSpan {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t region;  ///< region number current when the callback ran
  int event;
  int tid;
};

/// One lane per OS thread that ever ran the shim. Lanes are never freed
/// (the master's thread_local pointer outlives every Runtime), only
/// cleared; they are read after the runtime has quiesced.
struct ShimLane {
  std::vector<CallbackSpan> spans;
};
std::mutex g_lanes_mu;
std::vector<std::unique_ptr<ShimLane>> g_lanes;
thread_local ShimLane* t_lane = nullptr;
std::atomic<std::uint64_t> g_region{0};

void timing_shim(OMP_COLLECTORAPI_EVENT event) {
  const std::uint64_t start = now_ns();
  // FORK fires on the master before the team starts, so the new number is
  // visible to every callback of the region.
  if (event == OMP_EVENT_FORK) {
    g_region.fetch_add(1, std::memory_order_relaxed);
  }
  PrototypeCollector::raw_callback()(event);
  const std::uint64_t end = now_ns();
  if (t_lane == nullptr) {
    std::scoped_lock lk(g_lanes_mu);
    g_lanes.push_back(std::make_unique<ShimLane>());
    t_lane = g_lanes.back().get();
  }
  t_lane->spans.push_back({start, end,
                           g_region.load(std::memory_order_relaxed),
                           static_cast<int>(event),
                           __ompc_get_global_thread_num()});
}

std::vector<CallbackSpan> take_shim_spans() {
  std::vector<CallbackSpan> all;
  std::scoped_lock lk(g_lanes_mu);
  for (auto& lane : g_lanes) {
    all.insert(all.end(), lane->spans.begin(), lane->spans.end());
    lane->spans.clear();
  }
  return all;
}

// --- one repetition -------------------------------------------------------------

struct Rep {
  double setup_s = 0;
  double app_s = 0;
  std::vector<double> results_s;  ///< one per finalize() call
  double trace_write_s = 0;
  orca::tool::Report report;
  std::uint64_t region_calls = 0;
  std::uint64_t callbacks = 0;
  std::vector<CallbackSpan> shim;  ///< traced mode only
};

orca::rt::RuntimeConfig runtime_config() {
  orca::rt::RuntimeConfig cfg;
  cfg.num_threads = kThreads;
  cfg.shm_export = false;
  return cfg;
}

orca::npb::BenchResult run_kernel(double scale) {
  orca::npb::NpbOptions o;
  o.num_threads = kThreads;
  o.scale = scale;
  return orca::npb::run_by_name(kKernel, o);
}

/// Setup through finalize() under the tool: attached normally, or (traced)
/// configured and registered through the timing shim.
Rep tool_rep(bool shimmed, const RunOptions& opts, SpanLog* spans,
             std::uint64_t parent) {
  Rep rep;
  auto& tool = PrototypeCollector::instance();
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
  orca::rt::Runtime::make_current(rt.get());
  const std::uint64_t t_rt = now_ns();
  tool.reset();
  std::optional<orca::collector::Client> client;
  if (shimmed) {
    tool.configure(orca::tool::ToolOptions{});
    client = orca::collector::Client::discover();
    if (client && client->start() == OMP_ERRCODE_OK) {
      for (const auto e : orca::tool::ToolOptions{}.events) {
        client->register_event(e, &timing_shim);
      }
    }
  } else {
    tool.attach(orca::tool::ToolOptions{});
  }
  const std::uint64_t t_attach = now_ns();
  // Setup ends when the first event is visible to the tool.
  pin_team(kThreads);
  const std::uint64_t t1 = now_ns();
  rep.setup_s = seconds_between(t0, t1);

  const orca::npb::BenchResult r = run_kernel(kScale);
  const std::uint64_t t2 = now_ns();
  rep.app_s = seconds_between(t1, t2);
  rep.region_calls = r.region_calls;
  rt->quiesce();

  if (shimmed) {
    if (client) client->stop();
  } else {
    tool.detach();
  }
  // finalize() is const, and on a shared host one call varies by +-25%
  // around the next: time it kFinalizeCalls times.
  const std::uint64_t t3 = now_ns();
  rep.report = tool.finalize();
  const std::uint64_t t4 = now_ns();
  rep.results_s.push_back(seconds_between(t3, t4));
  for (int i = 1; i < kFinalizeCalls; ++i) {
    const std::uint64_t f0 = now_ns();
    tool.finalize();
    rep.results_s.push_back(seconds_between(f0, now_ns()));
  }
  rep.callbacks = tool.callback_invocations();
  if (shimmed) {
    const std::uint64_t w0 = now_ns();
    const std::string path = opts.out_dir + "/tool_trace.bin";
    orca::perf::write_trace(path, tool.trace_data());
    rep.trace_write_s = seconds_between(w0, now_ns());
    std::remove(path.c_str());
    rep.shim = take_shim_spans();
  }
  tool.reset();
  orca::rt::Runtime::make_current(nullptr);
  rt.reset();

  if (spans != nullptr) {
    const char* mode = shimmed ? "traced" : "untraced";
    const std::uint64_t id = spans->add(std::string("tool_rep.") + mode,
                                        parent, t0, now_ns());
    spans->add("runtime.construct", id, t0, t_rt);
    spans->add("tool.attach", id, t_rt, t_attach);
    spans->add("runtime.first_region", id, t_attach, t1);
    spans->add("npb.lu_hp", id, t1, t2);
    spans->add("tool.finalize", id, t3, t4);
  }
  return rep;
}

/// Setup alone, repeated for a steadier median: runtime construction,
/// tool attach, and the first event visible to the tool.
double setup_trial() {
  auto& tool = PrototypeCollector::instance();
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
  orca::rt::Runtime::make_current(rt.get());
  tool.reset();
  tool.attach(orca::tool::ToolOptions{});
  pin_team(kThreads);
  const double s = seconds_between(t0, now_ns());
  tool.detach();
  tool.reset();
  orca::rt::Runtime::make_current(nullptr);
  return s;
}

double bare_rep() {
  auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
  orca::rt::Runtime::make_current(rt.get());
  pin_team(kThreads);
  const std::uint64_t t0 = now_ns();
  run_kernel(kScale);
  const double s = seconds_between(t0, now_ns());
  orca::rt::Runtime::make_current(nullptr);
  return s;
}

void check_rep(const Rep& rep, std::uint64_t target, Result& out) {
  out.check(rep.region_calls == target,
            "LU-HP region calls " + std::to_string(rep.region_calls) +
                " == Table I target " + std::to_string(target));
  std::uint64_t region_total = 0;
  for (const auto& r : rep.report.regions) region_total += r.invocations;
  const auto fork_it = rep.report.event_counts.find(OMP_EVENT_FORK);
  const std::uint64_t forks =
      fork_it == rep.report.event_counts.end() ? 0 : fork_it->second;
  // The first (setup) region is profiled too.
  out.check(region_total == forks && forks == rep.region_calls + 1,
            "Report regions " + std::to_string(region_total) +
                " == FORKs seen " + std::to_string(forks) +
                " == region calls + 1");
  out.check(rep.report.dropped_samples == 0,
            "tool dropped " + std::to_string(rep.report.dropped_samples) +
                " samples");
  out.attempt(rep.callbacks);
  out.fail(rep.report.dropped_samples);
}

// --- event-path probe ---------------------------------------------------------

struct Probe {
  std::vector<double> ns_per_event;  ///< one per batch
  std::vector<double> latency_ns;    ///< one per event
  std::uint64_t fired = 0;
};

/// Fire the LU-HP event mix — per region FORK, JOIN and 16 implicit-
/// barrier edges, in a seeded order — from the master through the
/// runtime's event path with the tool attached. Sync delivery: an event is
/// in the profile when the call returns.
Probe probe(std::uint64_t seed) {
  Probe p;
  auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
  orca::rt::Runtime::make_current(rt.get());
  auto& tool = PrototypeCollector::instance();
  tool.reset();
  tool.attach(orca::tool::ToolOptions{});
  pin_team(kThreads);
  std::vector<OMP_COLLECTORAPI_EVENT> mix;
  while (mix.size() < kProbeBatchEvents) {
    mix.push_back(OMP_EVENT_FORK);
    mix.push_back(OMP_EVENT_JOIN);
    for (int i = 0; i < 8; ++i) {
      mix.push_back(OMP_EVENT_THR_BEGIN_IBAR);
      mix.push_back(OMP_EVENT_THR_END_IBAR);
    }
  }
  orca::SplitMix64 rng(seed);
  for (std::size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[rng.next() % (i + 1)]);
  }
  for (int b = 0; b < kProbeBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (const auto e : mix) rt->event(e);
    p.ns_per_event.push_back(static_cast<double>(now_ns() - t0) /
                             static_cast<double>(mix.size()));
    tool.reset();  // keep the sample store small
  }
  for (const auto e : mix) {
    const std::uint64_t t0 = now_ns();
    rt->event(e);
    p.latency_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  p.fired = (kProbeBatches + 1) * mix.size();
  tool.detach();
  tool.reset();
  orca::rt::Runtime::make_current(nullptr);
  return p;
}

/// One probe's results, written by a forked child into shared memory.
struct ProbeSlot {
  int done;
  std::uint64_t fired;
  double ns_per_event[kProbeBatches];
  double latency_ns[kProbeBatchEvents];
};

/// Run the probes in forked children, one after another, kProbesPerChild
/// each. The event path's cost differs by up to 1.5x between processes
/// (with where each one's memory lands), so a run averages over
/// kProbeChildren processes instead of trusting its own. Call only while
/// this process has a single thread.
void run_probes(std::uint64_t seed, std::vector<double>& ns_per_event,
                std::vector<std::vector<double>>& latency, Result& out) {
  constexpr std::size_t kSlots = kProbeChildren * kProbesPerChild;
  const std::size_t bytes = sizeof(ProbeSlot) * kSlots;
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    out.check(false, "mmap for the probe children");
    return;
  }
  auto* slots = static_cast<ProbeSlot*>(mem);
  for (int c = 0; c < kProbeChildren; ++c) {
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (int i = 0; i < kProbesPerChild; ++i) {
        ProbeSlot& slot = slots[c * kProbesPerChild + i];
        const Probe p = probe(seed * 1000 + c * kProbesPerChild + i);
        if (p.ns_per_event.size() != kProbeBatches ||
            p.latency_ns.size() != kProbeBatchEvents) {
          ::_exit(1);
        }
        std::copy(p.ns_per_event.begin(), p.ns_per_event.end(),
                  slot.ns_per_event);
        std::copy(p.latency_ns.begin(), p.latency_ns.end(), slot.latency_ns);
        slot.fired = p.fired;
        slot.done = 1;
      }
      ::_exit(0);
    }
    int status = 0;
    out.check(pid > 0 && ::waitpid(pid, &status, 0) == pid &&
                  WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "probe child " + std::to_string(c) + " finished");
  }
  for (std::size_t i = 0; i < kSlots; ++i) {
    const ProbeSlot& slot = slots[i];
    if (slot.done != 1) continue;
    out.attempt(slot.fired);
    ns_per_event.insert(ns_per_event.end(), slot.ns_per_event,
                        slot.ns_per_event + kProbeBatches);
    latency.emplace_back(slot.latency_ns,
                         slot.latency_ns + kProbeBatchEvents);
  }
  ::munmap(mem, bytes);
}

// --- traced-pass analysis ---------------------------------------------------------

void layer_metrics(const std::vector<Rep>& traced, SpanLog& spans,
                   Result& out) {
  const Rep& rep = traced.back();
  std::map<int, std::vector<double>> by_event;
  std::map<std::uint64_t, std::vector<Interval>> children;
  std::map<std::uint64_t, Interval> regions;  // region -> [FORK, JOIN]
  for (const CallbackSpan& s : rep.shim) {
    by_event[s.event].push_back(static_cast<double>(s.end_ns - s.start_ns));
    children[s.region].push_back({s.start_ns, s.end_ns});
    if (s.tid != 0) continue;
    if (s.event == OMP_EVENT_FORK) regions[s.region].begin = s.start_ns;
    if (s.event == OMP_EVENT_JOIN) regions[s.region].end = s.end_ns;
  }
  std::vector<double> region_ns, self_ns;
  for (const auto& [id, iv] : regions) {
    if (iv.end <= iv.begin) continue;
    region_ns.push_back(static_cast<double>(iv.end - iv.begin));
    self_ns.push_back(static_cast<double>(self_time_ns(iv, children[id])));
  }
  out.metric("runtime.regions", static_cast<double>(region_ns.size()),
             "count");
  out.metric("runtime.region_us_p50", percentile(region_ns, 0.5) / 1e3, "us");
  out.metric("runtime.region_us_p99", percentile(region_ns, 0.99) / 1e3,
             "us");
  out.metric("runtime.region_self_us_p50", percentile(self_ns, 0.5) / 1e3,
             "us");
  const std::pair<int, const char*> kinds[] = {
      {OMP_EVENT_FORK, "fork"},
      {OMP_EVENT_JOIN, "join"},
      {OMP_EVENT_THR_BEGIN_IBAR, "ibar_begin"},
      {OMP_EVENT_THR_END_IBAR, "ibar_end"}};
  for (const auto& [event, name] : kinds) {
    const std::vector<double>& v = by_event[event];
    out.check(tail_supported(v.size(), 0.99),
              std::string("enough ") + name + " callbacks for p99");
    out.metric(std::string("tool.callback_ns_p50.") + name,
               percentile(v, 0.5), "ns");
    out.metric(std::string("tool.callback_ns_p99.") + name,
               percentile(v, 0.99), "ns");
  }
  // Callback self time: the shim spans have no children, so the join's
  // extra work (callstack capture + region-id query) is the difference.
  out.metric("unwind.join_extra_ns_p50",
             percentile(by_event[OMP_EVENT_JOIN], 0.5) -
                 percentile(by_event[OMP_EVENT_FORK], 0.5),
             "ns");

  std::vector<double> finalize_s, write_s;
  for (const Rep& r : traced) {
    finalize_s.insert(finalize_s.end(), r.results_s.begin(),
                      r.results_s.end());
    write_s.push_back(r.trace_write_s);
  }
  out.metric("tool.finalize_s", median(finalize_s), "s");
  out.metric("tool.trace_write_s", median(write_s), "s");
  out.metric("tool.kept_ratio",
             rep.callbacks == 0 ? 0.0
                                : static_cast<double>(rep.report.total_events) /
                                      static_cast<double>(rep.callbacks),
             "ratio");
  out.metric("collector.events", static_cast<double>(rep.callbacks), "count");
  out.metric("perf.samples", static_cast<double>(rep.report.total_events),
             "count");
  out.metric("perf.dropped", static_cast<double>(rep.report.dropped_samples),
             "count");

  // Callback spans of the last repetition (region number as event id).
  for (const CallbackSpan& s : rep.shim) {
    spans.add("tool.callback", 0, s.start_ns, s.end_ns, s.region, s.tid);
  }
}

}  // namespace

void run_npb_tool(const RunOptions& opts, Result& out) {
  std::uint64_t target = 0;
  for (const auto& row : orca::npb::table1_targets()) {
    if (std::string(row.name) == kKernel) {
      target = orca::npb::scaled_target(row.calls, kScale);
    }
  }
  SpanLog spans;
  std::vector<Rep> plain, traced;
  std::vector<double> bare_s, probe_ns;
  std::vector<std::vector<double>> probe_latency;
  // The event-path probes fork, so they run first, while this process
  // has no other thread, and before any finalize() has churned the heap.
  run_probes(opts.seed, probe_ns, probe_latency, out);

  // Warm code, caches and the allocator; not measured.
  {
    auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
    orca::rt::Runtime::make_current(rt.get());
    pin_team(kThreads);
    run_kernel(0.02);
    orca::rt::Runtime::make_current(nullptr);
  }

  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(opts.seconds * 1e9);
  do {
    const std::uint64_t rep_id = spans.reserve_id();
    const std::uint64_t r0 = now_ns();
    plain.push_back(tool_rep(false, opts, opts.trace ? &spans : nullptr,
                             rep_id));
    check_rep(plain.back(), target, out);
    if (opts.trace) {
      traced.push_back(tool_rep(true, opts, &spans, rep_id));
      check_rep(traced.back(), target, out);
    }
    const std::uint64_t b0 = now_ns();
    bare_s.push_back(bare_rep());
    if (opts.trace) {
      spans.add("npb.lu_hp.bare", rep_id, b0, now_ns());
      spans.add_with_id({"rep", rep_id, 0, plain.size(), 0, r0, now_ns()});
    }
  } while (now_ns() - start < budget || plain.size() < 2);

  std::vector<double> setup, app, results, ratio, intake;
  for (int i = 0; i < kSetupTrials; ++i) setup.push_back(setup_trial());
  for (const Rep& r : plain) {
    setup.push_back(r.setup_s);
    app.push_back(r.app_s);
    results.insert(results.end(), r.results_s.begin(), r.results_s.end());
    ratio.push_back(r.callbacks == 0
                        ? 0.0
                        : static_cast<double>(r.report.total_events) /
                              static_cast<double>(r.callbacks));
    intake.push_back(static_cast<double>(r.report.total_events) / r.app_s /
                     1e6);
  }
  note("npb_tool: %zu reps, app %.3f s, bare %.3f s, finalize %.3f s",
       plain.size(), median(app), median(bare_s), median(results));

  out.latency(probe_latency);
  out.metric("path.app_ns_per_event", interquartile_mean(probe_ns), "ns");
  if (!opts.trace) {
    out.metric("setup_s", interquartile_mean(setup), "s");
    out.metric("app_s", interquartile_mean(app), "s");
    out.metric("bare_app_s", interquartile_mean(bare_s), "s");
    out.metric("results_s", interquartile_mean(results), "s");
    out.metric("delivered_ratio", interquartile_mean(ratio), "ratio");
    out.metric("drain_mev_s", interquartile_mean(intake), "Mev/s");
    out.metric("peak_rss_mb", peak_rss_mb(false), "MB");
    return;
  }

  std::vector<double> traced_app;
  for (const Rep& r : traced) traced_app.push_back(r.app_s);
  const double overhead = (median(traced_app) / median(app) - 1.0) * 100.0;
  note("npb_tool: tracing overhead on app_s %.1f%% (traced %.3f s vs "
       "untraced %.3f s)",
       overhead, median(traced_app), median(app));
  out.metric("trace.app_overhead_pct", overhead, "%");
  layer_metrics(traced, spans, out);
  const std::string path = opts.out_dir + "/spans.json";
  out.check(spans.write_json(path, 200000), "spans written to " + path);
  note("spans: %s (%zu recorded)", path.c_str(), spans.size());
}

}  // namespace perfbench
