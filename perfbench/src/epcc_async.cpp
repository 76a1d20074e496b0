// epcc_async_trace: the EPCC syncbench directive sweep at 3 threads plus
// the async drainer, with the tracing collector attached for every event;
// then flush, detach and write_chrome_trace(). The same sweep bare.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "collector/api.h"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "epcc/syncbench.hpp"
#include "harness.hpp"
#include "json_check.hpp"
#include "runtime/runtime.hpp"
#include "tool/client2.hpp"
#include "tool/tracer.hpp"
#include "translate/omp.hpp"

namespace perfbench {
namespace {

constexpr int kThreads = 3;
constexpr int kProbeBatches = 4;
constexpr int kSetupTrials = 30;
constexpr std::size_t kProbeBatchEvents = 1 << 14;

using orca::tool::TracingCollector;

orca::rt::RuntimeConfig runtime_config() {
  orca::rt::RuntimeConfig cfg;
  cfg.num_threads = kThreads;
  cfg.event_delivery = orca::rt::EventDelivery::kAsync;
  cfg.shm_export = false;
  return cfg;
}

orca::epcc::Options epcc_options() {
  orca::epcc::Options o;
  o.num_threads = kThreads;
  return o;
}

/// Attach the tracer with the drainer (created by the attach) on the CPU
/// after the team's, then pin the team: the drainer wakes onto its own
/// idle CPU instead of queueing behind a spinning app thread.
void attach_pinned(TracingCollector& tracer) {
  pin_self(kThreads, 1);
  tracer.attach();
  pin_self(0, 1);
  pin_team(kThreads);
}

/// Maps TSC ticks (the async ring's enqueue stamp) onto the steady clock
/// by a line through two paired readings taken around the sweep.
struct TscToNs {
  std::uint64_t tsc0 = 0, ns0 = 0, tsc1 = 0, ns1 = 0;
  void mark(bool first) {
    (first ? tsc0 : tsc1) = orca::TscClock::now();
    (first ? ns0 : ns1) = now_ns();
  }
  double operator()(std::uint64_t tsc) const {
    const double slope = static_cast<double>(ns1 - ns0) /
                         static_cast<double>(tsc1 - tsc0);
    return static_cast<double>(ns0) +
           (static_cast<double>(tsc) - static_cast<double>(tsc0)) * slope;
  }
};

struct Rep {
  double setup_s = 0;
  double app_s = 0;
  double bare_s = 0;
  double flush_s = 0;
  double results_s = 0;
  orca_event_stats stats{};
  std::uint64_t in_profile = 0;  ///< events the log stage retained
  std::uint64_t regions = 0;
  std::vector<orca::pipeline::StageStats> stages;
  std::vector<double> latency_ns;  ///< enqueue -> decode, per event
  std::vector<orca::epcc::Result> directives;
  bool trace_ok = true;
};

std::uint64_t stage_count(const std::vector<orca::pipeline::StageStats>& s,
                          const char* name) {
  for (const auto& st : s) {
    if (st.name == name) return st.emitted;
  }
  return 0;
}

/// One repetition. `traced` measures directive by directive and records a
/// span around each SyncBench::measure call.
Rep run_rep(bool traced, bool validate_trace, const RunOptions& opts,
            SpanLog* spans, std::uint64_t parent) {
  Rep rep;
  auto& tracer = TracingCollector::instance();
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
  orca::rt::Runtime::make_current(rt.get());
  const std::uint64_t t_rt = now_ns();
  attach_pinned(tracer);
  const std::uint64_t t_attach = now_ns();
  // Setup ends when the first event (the pinning region's) has come
  // through the ring and drainer into the tracer's pipeline.
  while (stage_count(tracer.pipeline_stats(), "log") == 0 &&
         now_ns() - t0 < 5'000'000'000ull) {
    std::this_thread::yield();
  }
  const std::uint64_t t1 = now_ns();
  rep.setup_s = seconds_between(t0, t1);

  const std::uint64_t regions0 = rt->regions_executed();
  TscToNs clock;
  clock.mark(true);
  orca::epcc::SyncBench bench(epcc_options());
  if (traced) {
    const std::uint64_t app_id = spans->reserve_id();
    for (const auto d : orca::epcc::all_directives()) {
      const std::uint64_t d0 = now_ns();
      rep.directives.push_back(bench.measure(d));
      spans->add(std::string("epcc.") + orca::epcc::name(d), app_id, d0,
                 now_ns());
    }
    spans->add_with_id({"epcc.sweep", app_id, parent, 0, 0, t1, now_ns()});
  } else {
    rep.directives = bench.measure_all();
  }
  // Workers may still be firing their last region's trailing events.
  rt->quiesce();
  const std::uint64_t t2 = now_ns();
  rep.app_s = seconds_between(t1, t2);
  rep.regions = rt->regions_executed() - regions0;

  // Results: drain what is still queued, detach, write the trace.
  rt->async_dispatcher()->flush();
  const std::uint64_t t_flush = now_ns();
  clock.mark(false);
  if (auto client = orca::collector::Client::discover()) {
    if (auto s = client->event_stats()) rep.stats = *s;
  }
  const std::uint64_t t_detach0 = now_ns();
  tracer.detach();
  const std::uint64_t t_detach1 = now_ns();
  const std::string path = opts.out_dir + "/epcc_trace.json";
  const bool wrote = tracer.write_chrome_trace(path);
  const std::uint64_t t3 = now_ns();
  rep.flush_s = seconds_between(t2, t_flush);
  rep.results_s = seconds_between(t2, t_flush) +
                  seconds_between(t_detach0, t3);  // stats query excluded
  rep.stages = tracer.pipeline_stats();
  rep.in_profile = stage_count(rep.stages, "log");
  rep.trace_ok = wrote;
  if (validate_trace) {
    const TraceCheck tc = check_json_file(path);
    rep.trace_ok = wrote && tc.valid;
  }
  for (const auto& e : tracer.log()) {
    const double enq = clock(e.ticks);
    rep.latency_ns.push_back(static_cast<double>(e.ns) > enq
                                 ? static_cast<double>(e.ns) - enq
                                 : 0.0);
  }
  tracer.clear();
  std::remove(path.c_str());

  // The same sweep with no tool on the same runtime.
  const std::uint64_t b0 = now_ns();
  orca::epcc::SyncBench(epcc_options()).measure_all();
  const std::uint64_t b1 = now_ns();
  rep.bare_s = seconds_between(b0, b1);
  orca::rt::Runtime::make_current(nullptr);
  rt.reset();

  if (spans != nullptr) {
    spans->add("runtime.construct", parent, t0, t_rt);
    spans->add("tracer.attach", parent, t_rt, t_attach);
    spans->add("first_event_visible", parent, t_attach, t1);
    spans->add("async.flush", parent, t2, t_flush);
    spans->add("tracer.detach", parent, t_detach0, t_detach1);
    spans->add("tracer.write_chrome_trace", parent, t_detach1, t3);
    spans->add("epcc.sweep.bare", parent, b0, b1);
  }
  return rep;
}

/// Setup alone, repeated for a steadier median: async runtime
/// construction, tracer attach, and the first event through the drainer
/// into the tracer's pipeline.
double setup_trial() {
  auto& tracer = TracingCollector::instance();
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
  orca::rt::Runtime::make_current(rt.get());
  attach_pinned(tracer);
  while (stage_count(tracer.pipeline_stats(), "log") == 0 &&
         now_ns() - t0 < 5'000'000'000ull) {
    std::this_thread::yield();
  }
  const double s = seconds_between(t0, now_ns());
  tracer.detach();
  tracer.clear();
  orca::rt::Runtime::make_current(nullptr);
  return s;
}

void check_rep(const Rep& rep, Result& out) {
  const orca_event_stats& s = rep.stats;
  out.check(s.submitted > 0 &&
                s.delivered + s.dropped + s.overwritten == s.submitted,
            "async books: delivered " + std::to_string(s.delivered) +
                " + dropped " + std::to_string(s.dropped) +
                " + overwritten " + std::to_string(s.overwritten) +
                " == submitted " + std::to_string(s.submitted));
  out.check(rep.trace_ok, "chrome trace written (and parses as JSON)");
  out.attempt(s.submitted);
  const std::uint64_t lost =
      s.submitted > rep.in_profile ? s.submitted - rep.in_profile : 0;
  out.fail(lost);
  if (lost != 0) {
    out.check(false, std::to_string(lost) + " async events lost");
  }
}

struct Probe {
  std::vector<double> ns_per_event;
  std::uint64_t fired = 0;
};

/// App-side cost of an async event: the workload's event kinds (seeded
/// order) fired from the master in batches of 16k, each batch flushed
/// before the next. The probe's ring holds a whole batch, so the cost is
/// the enqueue while the drainer works alongside, never a wait for room;
/// and a batch is long enough that waking the drainer is amortized.
Probe probe(std::uint64_t seed) {
  Probe p;
  orca::rt::RuntimeConfig cfg = runtime_config();
  cfg.event_ring_capacity = kProbeBatchEvents;
  auto rt = std::make_unique<orca::rt::Runtime>(cfg);
  orca::rt::Runtime::make_current(rt.get());
  auto& tracer = TracingCollector::instance();
  attach_pinned(tracer);
  static const OMP_COLLECTORAPI_EVENT kinds[] = {
      OMP_EVENT_THR_BEGIN_IBAR, OMP_EVENT_THR_END_IBAR,
      OMP_EVENT_THR_BEGIN_EBAR, OMP_EVENT_THR_END_EBAR,
      OMP_EVENT_THR_BEGIN_LKWT, OMP_EVENT_THR_END_LKWT,
      OMP_EVENT_THR_BEGIN_CTWT, OMP_EVENT_THR_END_CTWT};
  std::vector<OMP_COLLECTORAPI_EVENT> mix(kProbeBatchEvents);
  for (std::size_t i = 0; i < mix.size(); ++i) mix[i] = kinds[i % 8];
  orca::SplitMix64 rng(seed);
  for (std::size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[rng.next() % (i + 1)]);
  }
  for (int b = 0; b < kProbeBatches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (const auto e : mix) rt->event(e);
    p.ns_per_event.push_back(static_cast<double>(now_ns() - t0) /
                             static_cast<double>(mix.size()));
    rt->async_dispatcher()->flush();
    tracer.clear();
  }
  p.fired = kProbeBatches * mix.size();
  tracer.detach();
  tracer.clear();
  orca::rt::Runtime::make_current(nullptr);
  return p;
}

void stage_metrics(const std::vector<orca::pipeline::StageStats>& stages,
                   Result& out) {
  for (const auto& s : stages) {
    const std::string base = "pipeline.tracer." + s.name;
    out.metric(base + ".accepted", static_cast<double>(s.accepted), "count");
    out.metric(base + ".emitted", static_cast<double>(s.emitted), "count");
    out.metric(base + ".filtered", static_cast<double>(s.filtered), "count");
    out.metric(base + ".dropped", static_cast<double>(s.dropped), "count");
    out.metric(base + ".held", static_cast<double>(s.held), "count");
  }
}

}  // namespace

void run_epcc_async_trace(const RunOptions& opts, Result& out) {
  // The first sweep in a process runs about 2x slower: warm up first.
  {
    auto rt = std::make_unique<orca::rt::Runtime>(runtime_config());
    orca::rt::Runtime::make_current(rt.get());
    attach_pinned(TracingCollector::instance());
    orca::epcc::SyncBench(epcc_options()).measure_all();
    TracingCollector::instance().detach();
    TracingCollector::instance().clear();
    orca::epcc::SyncBench(epcc_options()).measure_all();
    orca::rt::Runtime::make_current(nullptr);
  }

  SpanLog spans;
  std::vector<Rep> plain, traced;
  std::vector<double> probe_ns;
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(opts.seconds * 1e9);
  do {
    const std::uint64_t r0 = now_ns();
    const std::uint64_t id = spans.reserve_id();
    plain.push_back(run_rep(false, plain.empty(), opts, nullptr, 0));
    check_rep(plain.back(), out);
    const Probe p = probe(opts.seed * 1000 + plain.size());
    out.attempt(p.fired);
    probe_ns.insert(probe_ns.end(), p.ns_per_event.begin(),
                    p.ns_per_event.end());
    if (opts.trace) {
      traced.push_back(run_rep(true, false, opts, &spans, id));
      check_rep(traced.back(), out);
      spans.add_with_id({"rep", id, 0, traced.size(), 0, r0, now_ns()});
    }
  } while (now_ns() - start < budget || plain.size() < 3);

  std::vector<double> setup, app, bare, results, ratio, intake;
  std::vector<std::vector<double>> latency;
  for (int i = 0; i < kSetupTrials; ++i) setup.push_back(setup_trial());
  for (Rep& r : plain) {
    setup.push_back(r.setup_s);
    app.push_back(r.app_s);
    bare.push_back(r.bare_s);
    results.push_back(r.results_s);
    ratio.push_back(r.stats.submitted == 0
                        ? 0.0
                        : static_cast<double>(r.in_profile) /
                              static_cast<double>(r.stats.submitted));
    intake.push_back(static_cast<double>(r.stats.delivered) / r.app_s / 1e6);
    latency.push_back(std::move(r.latency_ns));
  }
  note("epcc_async_trace: %zu reps, app %.3f s, bare %.3f s, results %.3f s, "
       "%llu events/sweep",
       plain.size(), median(app), median(bare), median(results),
       static_cast<unsigned long long>(plain.back().stats.submitted));

  out.latency(latency);
  out.metric("path.app_ns_per_event", interquartile_mean(probe_ns), "ns");
  if (!opts.trace) {
    out.metric("setup_s", interquartile_mean(setup), "s");
    out.metric("app_s", interquartile_mean(app), "s");
    out.metric("bare_app_s", interquartile_mean(bare), "s");
    out.metric("results_s", interquartile_mean(results), "s");
    out.metric("delivered_ratio", interquartile_mean(ratio), "ratio");
    out.metric("drain_mev_s", interquartile_mean(intake), "Mev/s");
    out.metric("peak_rss_mb", peak_rss_mb(false), "MB");
    return;
  }

  std::vector<double> traced_app, flush_ms;
  std::map<std::string, std::vector<double>> directive_us;
  for (const Rep& r : traced) {
    traced_app.push_back(r.app_s);
    flush_ms.push_back(r.flush_s * 1e3);
    for (const auto& d : r.directives) {
      directive_us[orca::epcc::name(d.directive)].push_back(d.overhead_us);
    }
  }
  const double overhead = (median(traced_app) / median(app) - 1.0) * 100.0;
  note("epcc_async_trace: tracing overhead on app_s %.1f%% (traced %.3f s vs "
       "untraced %.3f s)",
       overhead, median(traced_app), median(app));
  out.metric("trace.app_overhead_pct", overhead, "%");
  const std::pair<const char*, const char*> names[] = {
      {"PARALLEL", "parallel"}, {"FOR", "for"},
      {"BARRIER", "barrier"},   {"CRITICAL", "critical"},
      {"LOCK/UNLOCK", "lock"},  {"REDUCTION", "reduction"}};
  for (const auto& [epcc_name, metric_name] : names) {
    out.metric(std::string("runtime.epcc.") + metric_name + "_us",
               median(directive_us[epcc_name]), "us");
  }
  const Rep& last = traced.back();
  out.metric("runtime.regions", static_cast<double>(last.regions), "count");
  out.metric("collector.events", static_cast<double>(last.stats.submitted),
             "count");
  out.metric("collector.async.delivered",
             static_cast<double>(last.stats.delivered), "count");
  out.metric("collector.async.dropped", static_cast<double>(last.stats.dropped),
             "count");
  out.metric("collector.async.overwritten",
             static_cast<double>(last.stats.overwritten), "count");
  out.metric("collector.async.flush_ms", median(flush_ms), "ms");
  stage_metrics(last.stages, out);
  const std::string path = opts.out_dir + "/spans.json";
  out.check(spans.write_json(path, 200000), "spans written to " + path);
  note("spans: %s (%zu recorded)", path.c_str(), spans.size());
}

}  // namespace perfbench
