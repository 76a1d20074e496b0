// orca_perfbench: one end-to-end profiling benchmark over ORCA's whole
// event path. See perfbench/README.md for the workloads and metrics.
//
//   orca_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <dir>] [--source-id <id>]
//
// The last line of stdout is the result object; the exit code is 0 only
// when every correctness check passed.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "translate/omp.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  std::string name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order; run.py checks
// that the two lists agree.
const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"app_s", "s"},
      {"bare_app_s", "s"},
      {"results_s", "s"},
      {"delivered_ratio", "ratio"},
      {"lat_us_p50", "us"},
      {"drain_mev_s", "Mev/s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

std::vector<MetricSpec> build_per_layer() {
  std::vector<MetricSpec> s = {
      {"runtime.regions", "count"},
      {"runtime.region_us_p50", "us"},
      {"runtime.region_us_p99", "us"},
      {"runtime.region_self_us_p50", "us"},
      {"runtime.epcc.parallel_us", "us"},
      {"runtime.epcc.for_us", "us"},
      {"runtime.epcc.barrier_us", "us"},
      {"runtime.epcc.critical_us", "us"},
      {"runtime.epcc.lock_us", "us"},
      {"runtime.epcc.reduction_us", "us"},
      {"collector.events", "count"},
      {"collector.async.delivered", "count"},
      {"collector.async.dropped", "count"},
      {"collector.async.overwritten", "count"},
      {"collector.async.flush_ms", "ms"},
      {"tool.callback_ns_p50.fork", "ns"},
      {"tool.callback_ns_p50.join", "ns"},
      {"tool.callback_ns_p50.ibar_begin", "ns"},
      {"tool.callback_ns_p50.ibar_end", "ns"},
      {"tool.callback_ns_p99.fork", "ns"},
      {"tool.callback_ns_p99.join", "ns"},
      {"tool.callback_ns_p99.ibar_begin", "ns"},
      {"tool.callback_ns_p99.ibar_end", "ns"},
      {"tool.finalize_s", "s"},
      {"tool.trace_write_s", "s"},
      {"tool.kept_ratio", "ratio"},
      {"perf.samples", "count"},
      {"perf.dropped", "count"},
      {"unwind.join_extra_ns_p50", "ns"},
  };
  static const char* kFields[] = {"accepted", "emitted", "filtered", "dropped",
                                  "held"};
  static const std::vector<std::string> kStages = {
      "pipeline.tracer.killswitch", "pipeline.tracer.fanout",
      "pipeline.tracer.log",        "pipeline.tracer.interval",
      "pipeline.tracer.by-event",   "pipeline.orcamon.fleet",
      "pipeline.orcamon.join-spans", "pipeline.orcamon.region-durations",
      "pipeline.orcamon.trace",     "pipeline.orcamon.fleet-count",
  };
  for (const std::string& stage : kStages) {
    for (const char* field : kFields) s.push_back({stage + "." + field, "count"});
  }
  const std::vector<MetricSpec> tail = {
      {"shm.push_ns_p50", "ns"},
      {"shm.push_ns_p99", "ns"},
      {"shm.produced", "count"},
      {"shm.read", "count"},
      {"shm.lost", "count"},
      {"orcamon.attach_ms", "ms"},
      {"orcamon.backlog_max", "count"},
      {"orcamon.events_seen", "count"},
      {"orcamon.run_s", "s"},
      {"orcamon.write_trace_s", "s"},
      {"orcamon.render_report_s", "s"},
      {"orcamon.quarantines", "count"},
      {"orcamon.watchdog_restarts", "count"},
      {"gen.late_us_p99", "us"},
      {"tail.lat_us_p99", "us"},
      {"path.app_ns_per_event", "ns"},
      {"trace.app_overhead_pct", "%"},
  };
  s.insert(s.end(), tail.begin(), tail.end());
  return s;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = build_per_layer();
  return specs;
}

const char* arg_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool make_dirs(const std::string& path) {
  for (std::size_t at = 1; at <= path.size(); ++at) {
    if (at != path.size() && path[at] != '/') continue;
    const std::string part = path.substr(0, at);
    if (::mkdir(part.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: orca_perfbench --workload npb_tool|epcc_async_trace|"
               "fleet_paced|fleet_overload --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--source-id ID]\n");
  return 2;
}

}  // namespace

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
}

void Result::latency(const std::vector<std::vector<double>>& units) {
  std::vector<double> p50, p99;
  std::size_t fewest = units.empty() ? 0 : SIZE_MAX;
  for (const std::vector<double>& ns : units) {
    fewest = std::min(fewest, ns.size());
    p50.push_back(percentile(ns, 0.5));
    p99.push_back(percentile(ns, 0.99));
  }
  check(tail_supported(fewest, 0.99),
        "latency: a unit with " + std::to_string(fewest) +
            " samples leaves fewer than 10 beyond p99");
  note("latency: %zu units, %zu+ samples each", units.size(), fewest);
  metric("lat_us_p50", interquartile_mean(p50) / 1e3, "us");
  metric("tail.lat_us_p99", interquartile_mean(p99) / 1e3, "us");
}

void Result::print(const std::vector<std::string>& keep) const {
  for (const std::string& f : failures_) note("CHECK FAILED: %s", f.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : keep) {
    for (const Metric& m : metrics_) {
      if (m.name != name) continue;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      json += first ? "" : ", ";
      json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
              m.unit + "\"}";
      first = false;
      break;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double peak_rss_mb(bool include_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (include_children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

bool pin_self(int first, int count) {
  if (std::thread::hardware_concurrency() < 4) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c < first + count; ++c) CPU_SET(c, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

void pin_team(int threads) {
  orca::omp::parallel([](int gtid) { pin_self(gtid, 1); }, threads);
}

void note(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vprintf(fmt, ap);
  std::fputc('\n', stdout);
  va_end(ap);
  std::fflush(stdout);
}

void fill_missing_layers(Result& out) {
  for (const MetricSpec& spec : per_layer_metrics()) {
    bool present = false;
    for (const Metric& m : out.metrics()) present |= m.name == spec.name;
    if (!present) out.metric(spec.name, 0.0, spec.unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const char* workload = arg_value(argc, argv, "--workload");
  const char* seed = arg_value(argc, argv, "--seed");
  const char* seconds = arg_value(argc, argv, "--seconds");
  const char* trace = arg_value(argc, argv, "--trace");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr) {
    return usage();
  }
  RunOptions opts;
  opts.seed = std::strtoull(seed, nullptr, 10);
  opts.seconds = std::atof(seconds);
  opts.trace = std::strcmp(trace, "1") == 0;
  const char* out = arg_value(argc, argv, "--out");
  opts.out_dir = out != nullptr
                     ? out
                     : ".bench_build/runs/" + std::string(workload) + "-" +
                           std::to_string(::getpid());
  if (opts.seconds <= 0 || !make_dirs(opts.out_dir)) return usage();

  const char* source = arg_value(argc, argv, "--source-id");
  note("fingerprint {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
       "\"build_type\": \"%s\", \"source\": \"%s\", \"seed\": %llu, "
       "\"workload\": \"%s\", \"trace\": %d}",
       std::thread::hardware_concurrency(), cpu_model().c_str(), __VERSION__,
       ORCA_BUILD_TYPE, source != nullptr ? source : "unknown",
       static_cast<unsigned long long>(opts.seed), workload,
       opts.trace ? 1 : 0);

  Result result;
  const std::string name = workload;
  if (name == "npb_tool") {
    run_npb_tool(opts, result);
  } else if (name == "epcc_async_trace") {
    run_epcc_async_trace(opts, result);
  } else if (name == "fleet_paced") {
    run_fleet(opts, 0.2, result);
  } else if (name == "fleet_overload") {
    run_fleet(opts, 8.0, result);
  } else {
    return usage();
  }

  std::vector<std::string> keep;
  if (opts.trace) {
    fill_missing_layers(result);
    for (const MetricSpec& s : per_layer_metrics()) keep.push_back(s.name);
  } else {
    for (const MetricSpec& s : end_to_end_metrics()) {
      keep.push_back(s.name);
      bool present = false;
      for (const Metric& m : result.metrics()) present |= m.name == s.name;
      result.check(present, "metric " + s.name + " measured");
    }
  }
  result.print(keep);
  return result.correct() ? 0 : 1;
}
