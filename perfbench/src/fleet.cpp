// fleet_paced / fleet_overload: one producer process (this one) with two
// threads firing a seeded region mix through Runtime::event with shm export
// armed, open-loop at a fixed offered rate, while an in-benchmark
// FleetMonitor (orcamon's engine, default 2 shards) drains it from a forked
// child process. FleetMonitor skips segments of its own pid, hence the
// child.
//
// Hygiene, so back-to-back runs cannot see each other: every session has
// its own shm prefix; all monitor children are forked at start-up, before
// any runtime thread exists, and wait on a pipe; a session that fails or
// times out kills and reaps its child and unlinks the prefix's segments.
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collector/api.h"
#include "common/rng.hpp"
#include "harness.hpp"
#include "json_check.hpp"
#include "runtime/runtime.hpp"
#include "shm/exporter.hpp"
#include "shm/reader.hpp"
#include "tool/orcamon/fleet_monitor.hpp"

namespace perfbench {
namespace {

constexpr int kProducerThreads = 2;
constexpr std::uint64_t kBatchPeriodNs = 500'000;   // per producer thread
constexpr std::uint64_t kSamplePeriodNs = 50'000;   // monitor visibility
constexpr std::uint64_t kBooksEvery = 20;         // loss books every 1 ms
// Records per producer ring (ORCA_SHM_RING_CAPACITY; the default is 4096).
// At 0.2 Mev/s a default ring rides out a 41 ms drain stall; on a shared
// VM about one paced session in 130 lost ~1.8k events to a longer one.
// 16k rides out 160 ms, so loss below the knee means the path, not the
// host, fell behind.
constexpr std::size_t kRingCapacity = 1 << 14;
constexpr std::size_t kMaxSessions = 16;
constexpr std::size_t kMaxSamples = 1 << 17;        // 6.5 s at 50 us
constexpr std::uint64_t kChildDeadlineNs = 60'000'000'000ull;
constexpr std::uint64_t kFirstEventDeadlineNs = 10'000'000'000ull;

constexpr const char* kStageNames[] = {"fleet", "join-spans",
                                       "region-durations", "trace",
                                       "fleet-count"};
constexpr int kStages = 5;

struct Sample {
  std::uint64_t ns;
  std::uint64_t seen;  ///< FleetMonitor::events_seen()
  std::uint64_t lost;  ///< summed producer loss books
};

/// Monitor child -> producer, one block per session in a shared anonymous
/// mapping made before the children are forked.
struct SessionShm {
  std::atomic<std::uint64_t> seen;  ///< live events_seen, for setup polling
  std::atomic<int> done;            ///< 1 once every field below is final
  std::uint64_t monitor_start_ns;
  std::uint64_t attach_ns;
  std::uint64_t run_return_ns;
  std::uint64_t trace_done_ns;
  std::uint64_t report_done_ns;
  std::uint64_t events_seen;
  std::uint64_t produced, read, lost;
  std::uint64_t producers;
  std::uint64_t quarantines;
  std::uint64_t watchdog_restarts;
  std::uint64_t trace_pids;
  int books_balanced;
  int trace_valid;
  std::uint64_t stages[kStages][5];
  char error[256];
  std::uint64_t nsamples;
  Sample samples[kMaxSamples];
};

std::string session_prefix(pid_t parent, std::size_t session) {
  return "orcapb" + std::to_string(parent) + "s" + std::to_string(session);
}

/// Unlink every segment left under `prefix` (failure path).
void unlink_segments(const std::string& prefix) {
  for (const auto& seg : orca::shm::discover_segments(prefix)) {
    ::shm_unlink(("/" + seg.name).c_str());
  }
}

void sleep_until(std::uint64_t ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000ull);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// --- monitor child ------------------------------------------------------------

void parse_stage_table(const std::string& report, SessionShm& s) {
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string name;
    std::uint64_t v[5] = {};
    if (!(row >> name >> v[0] >> v[1] >> v[2] >> v[3] >> v[4])) continue;
    for (int i = 0; i < kStages; ++i) {
      if (name == kStageNames[i]) std::memcpy(s.stages[i], v, sizeof(v));
    }
  }
}

void run_monitor(SessionShm& s, const std::string& prefix,
                 const std::string& out_dir) {
  s.monitor_start_ns = now_ns();
  orca::tool::orcamon::MonitorOptions mo;
  mo.prefix = prefix;
  mo.exit_when_idle = true;
  mo.discover_ms = 10;        // teardown is noticed within 10 ms
  mo.report_interval_s = 0;   // final report only
  mo.report_out = out_dir + "/" + prefix + ".report.txt";
  mo.duration_s = 120;        // never outlive a vanished producer for long
  orca::tool::orcamon::FleetMonitor mon(mo);

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    std::uint64_t next = now_ns();
    std::uint64_t lost = 0;
    for (std::uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
      Sample smp{};
      smp.ns = now_ns();
      smp.seen = mon.events_seen();
      // producers() takes the monitor's lock that the shards also take:
      // read the loss books at a slower cadence.
      if (k % kBooksEvery == 0) {
        lost = 0;
        for (const auto& p : mon.producers()) lost += p.lost;
      }
      smp.lost = lost;
      if (s.attach_ns == 0 && mon.attached_count() > 0) s.attach_ns = smp.ns;
      s.seen.store(smp.seen, std::memory_order_release);
      if (s.nsamples < kMaxSamples) s.samples[s.nsamples++] = smp;
      next += kSamplePeriodNs;
      const std::uint64_t now = now_ns();
      if (next < now) next = now;  // fell behind: do not burst
      sleep_until(next);
    }
  });
  mon.run();
  s.run_return_ns = now_ns();
  stop.store(true, std::memory_order_release);
  sampler.join();

  const std::string trace = out_dir + "/" + prefix + ".trace.json";
  const bool wrote = mon.write_trace(trace);
  s.trace_done_ns = now_ns();
  const std::string report = mon.render_report();
  s.report_done_ns = now_ns();

  const TraceCheck tc = check_json_file(trace);
  std::remove(trace.c_str());
  s.trace_valid = wrote && tc.valid;
  s.trace_pids = tc.process_pids.size();
  if (!tc.valid) {
    std::snprintf(s.error, sizeof(s.error), "trace: %s", tc.error.c_str());
  }
  s.events_seen = mon.events_seen();
  s.books_balanced = 1;
  for (const auto& p : mon.producers()) {
    ++s.producers;
    s.produced += p.produced;
    s.read += p.read;
    s.lost += p.lost;
    if (p.produced != p.read + p.lost) s.books_balanced = 0;
  }
  s.quarantines = mon.quarantines().size();
  s.watchdog_restarts = mon.watchdog_restarts();
  parse_stage_table(report, s);
  s.done.store(1, std::memory_order_release);
}

/// A pre-forked monitor child waiting for its session.
struct Child {
  pid_t pid = -1;
  int go_fd = -1;  ///< write end: one byte starts the session, EOF ends it
};

// --- producer -------------------------------------------------------------------

struct Generator {
  orca::rt::Runtime* rt = nullptr;
  orca::shm::SegmentReader* books = nullptr;  ///< producer-side tail reader
  std::uint64_t base = 0;  ///< events in the segment before the schedule
  std::atomic<int> arrived{0};
  std::atomic<bool> go{false};
  std::uint64_t seed = 0;
  double events_per_ns = 0;  ///< per producer thread
  std::uint64_t batch_events = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<Batch> batches[kProducerThreads];
};

/// Sleep until shortly before `due`, then spin: the producer threads stay
/// idle between batches, which leaves CPU for the exporter's heartbeat
/// thread instead of having it preempt a batch.
void wait_until(std::uint64_t due) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= due) return;
    if (due - now > 150'000) sleep_until(due - 100'000);
  }
}

/// Each thread fires regions — FORK, 1-8 implicit-barrier begin/end
/// pairs, JOIN — in batches due every kBatchPeriodNs, open loop: a late
/// batch is fired at once and later batches keep their due times.
void generate(int gtid, void* frame) {
  auto& g = *static_cast<Generator*>(frame);
  if (gtid < 0 || gtid >= kProducerThreads) return;
  orca::rt::Runtime& rt = *g.rt;
  orca::rt::ThreadDescriptor& td = *rt.self();
  orca::SplitMix64 rng(g.seed * 0x9E3779B97F4A7C15ull + gtid);
  std::vector<Batch>& out = g.batches[gtid];
  std::uint64_t fired = 0;
  // Handshake: once both threads are in, the region's own start events
  // are all published and no batch is out yet, so the tail sum is exact.
  g.arrived.fetch_add(1, std::memory_order_acq_rel);
  if (gtid == 0) {
    while (g.arrived.load(std::memory_order_acquire) < kProducerThreads) {
    }
    if (g.books != nullptr) g.base = g.books->total_produced();
    g.go.store(true, std::memory_order_release);
  }
  while (!g.go.load(std::memory_order_acquire)) {
  }
  for (;;) {
    const auto due = g.start_ns + static_cast<std::uint64_t>(
                                      static_cast<double>(fired) /
                                      g.events_per_ns);
    if (due >= g.end_ns) break;
    wait_until(due);
    Batch b;
    b.due_ns = due;
    b.start_ns = now_ns();
    while (b.events < g.batch_events) {
      const std::uint64_t pairs = 1 + rng.next() % 8;
      rt.event(td, OMP_EVENT_FORK);
      for (std::uint64_t k = 0; k < pairs; ++k) {
        rt.event(td, OMP_EVENT_THR_BEGIN_IBAR);
        rt.event(td, OMP_EVENT_THR_END_IBAR);
      }
      rt.event(td, OMP_EVENT_JOIN);
      b.events += 2 + 2 * pairs;
    }
    b.end_ns = now_ns();
    fired += b.events;
    out.push_back(b);
  }
}

struct Session {
  bool ok = false;
  double setup_s = 0, app_s = 0, results_s = 0, drain_mev_s = 0;
  double run_s = 0, write_trace_s = 0, render_s = 0, attach_ms = 0;
  std::uint64_t fired = 0;
  std::vector<double> latency_ns, late_ns, push_ns;
  std::uint64_t unseen = 0;
  std::uint64_t backlog_max = 0;
};

orca::rt::RuntimeConfig producer_config(bool armed, const std::string& prefix) {
  orca::rt::RuntimeConfig cfg;
  cfg.num_threads = kProducerThreads;
  cfg.shm_export = armed;
  cfg.shm_prefix = prefix;
  cfg.shm_ring_capacity = kRingCapacity;
  return cfg;
}

void init_generator(Generator& g, const RunOptions& opts,
                    double offered_mev_s, double seconds,
                    std::size_t session) {
  g.seed = opts.seed * 131 + session;
  g.events_per_ns = offered_mev_s * 1e6 / kProducerThreads / 1e9;
  g.batch_events = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(g.events_per_ns * kBatchPeriodNs));
  g.start_ns = now_ns() + 1'000'000;  // both threads start on one schedule
  g.end_ns = g.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
}

/// The same schedule with export disarmed: the path every unprofiled user
/// pays. Returns the app's wall time.
double bare_session(const RunOptions& opts, double offered_mev_s,
                    double seconds) {
  auto rt = std::make_unique<orca::rt::Runtime>(producer_config(false, ""));
  orca::rt::Runtime::make_current(rt.get());
  Generator g;
  init_generator(g, opts, offered_mev_s, seconds, kMaxSessions);
  g.rt = rt.get();
  const std::uint64_t t0 = g.start_ns;
  rt->fork(&generate, &g, kProducerThreads);
  const double s = seconds_between(t0, now_ns());
  orca::rt::Runtime::make_current(nullptr);
  return s;
}

bool reap(pid_t pid, std::uint64_t deadline_ns, int* status) {
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return false;
    if (now_ns() > deadline_ns) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, status, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Session run_session(const RunOptions& opts, double offered_mev_s,
                    double seconds, std::size_t index, Child& child,
                    SessionShm& shm, SpanLog* spans, Result& out) {
  Session ses;
  const std::string prefix = session_prefix(::getpid(), index);
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<orca::rt::Runtime>(producer_config(true, prefix));
  orca::rt::Runtime::make_current(rt.get());
  const std::uint64_t t_arm = now_ns();
  const char go = 'g';
  bool ok = ::write(child.go_fd, &go, 1) == 1;
  ::close(child.go_fd);
  child.go_fd = -1;

  // An empty region starts the pool; setup ends when its first event is
  // visible in the monitor.
  rt->fork([](int, void*) {}, nullptr, kProducerThreads);
  while (ok && shm.seen.load(std::memory_order_acquire) == 0) {
    if (now_ns() - t0 > kFirstEventDeadlineNs) ok = false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const std::uint64_t t1 = now_ns();
  ses.setup_s = seconds_between(t0, t1);
  out.check(ok, "session " + std::to_string(index) +
                    ": first event visible in the monitor");

  // The producer reads its own ring tails to learn how many events precede
  // the schedule (the runtime mirrors its regions' events too).
  auto books = orca::shm::SegmentReader::attach(
      orca::shm::armed_segment_name(), static_cast<std::string*>(nullptr));
  ok = ok && books != nullptr;
  Generator g;
  init_generator(g, opts, offered_mev_s, seconds, index);
  g.rt = rt.get();
  g.books = books.get();
  if (ok) rt->fork(&generate, &g, kProducerThreads);
  const std::uint64_t t_gen_end = now_ns();
  const std::uint64_t seen_at_end = shm.seen.load(std::memory_order_acquire);
  const std::uint64_t seen_at_start = std::min(seen_at_end, g.base);
  books.reset();
  ses.app_s = seconds_between(g.start_ns, t_gen_end);
  ses.drain_mev_s = static_cast<double>(seen_at_end - seen_at_start) /
                    static_cast<double>(t_gen_end - g.start_ns) * 1e3;

  // Results: producer teardown -> run() returns -> trace + report written.
  const std::uint64_t t_teardown = now_ns();
  orca::rt::Runtime::make_current(nullptr);
  rt.reset();
  const std::uint64_t t_disarmed = now_ns();
  int status = 0;
  const bool reaped =
      reap(child.pid, now_ns() + kChildDeadlineNs, &status);
  child.pid = -1;
  const bool child_ok = reaped && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0 &&
                        shm.done.load(std::memory_order_acquire) == 1;
  out.check(child_ok, "session " + std::to_string(index) +
                          ": monitor child finished in time");
  if (!child_ok) {
    unlink_segments(prefix);
    return ses;
  }
  ses.results_s = seconds_between(t_teardown, shm.report_done_ns);
  ses.run_s = seconds_between(t_teardown, shm.run_return_ns);
  ses.write_trace_s = seconds_between(shm.run_return_ns, shm.trace_done_ns);
  ses.render_s = seconds_between(shm.trace_done_ns, shm.report_done_ns);
  ses.attach_ms = seconds_between(shm.monitor_start_ns, shm.attach_ns) * 1e3;

  std::vector<Batch> all;
  for (const auto& v : g.batches) all.insert(all.end(), v.begin(), v.end());
  for (const Batch& b : all) {
    ses.fired += b.events;
    ses.push_ns.push_back(static_cast<double>(b.end_ns - b.start_ns) /
                          static_cast<double>(b.events));
  }
  ses.fired += g.base;
  // Visible = shown in orcamon, or booked as lost by it.
  std::vector<Visibility> vis;
  vis.reserve(shm.nsamples);
  for (std::uint64_t i = 0; i < shm.nsamples; ++i) {
    vis.push_back({shm.samples[i].ns, shm.samples[i].seen + shm.samples[i].lost});
  }
  OpenLoopLatency lat = open_loop_latency(all, g.base, vis);
  ses.latency_ns = std::move(lat.latency_ns);
  ses.late_ns = std::move(lat.late_ns);
  ses.unseen = lat.unseen;
  // Backlog: fired by the producer but neither shown nor booked lost yet.
  std::sort(all.begin(), all.end(),
            [](const Batch& a, const Batch& b) { return a.end_ns < b.end_ns; });
  std::uint64_t fired_by = g.base;
  std::size_t bi = 0;
  for (const Visibility& v : vis) {
    while (bi < all.size() && all[bi].end_ns <= v.ns) fired_by += all[bi++].events;
    if (fired_by > v.count) {
      ses.backlog_max = std::max(ses.backlog_max, fired_by - v.count);
    }
  }

  const std::string tag = "session " + std::to_string(index) + ": ";
  out.check(shm.producers == 1,
            tag + std::to_string(shm.producers) + " producer(s) attached");
  out.check(shm.books_balanced == 1,
            tag + "books balance (produced == read + lost)");
  // The runtime mirrors the generator region's own FORK/JOIN/barrier
  // events too, so produced exceeds what the generator fired by those.
  out.check(shm.produced >= ses.fired && shm.events_seen == shm.read,
            tag + "produced " + std::to_string(shm.produced) +
                " >= fired " + std::to_string(ses.fired) + ", seen " +
                std::to_string(shm.events_seen) + " == read " +
                std::to_string(shm.read));
  out.check(shm.trace_valid == 1 && shm.trace_pids == 1,
            tag + "merged trace parses and has one pid track (" +
                std::to_string(shm.trace_pids) + ") " + shm.error);
  out.check(shm.quarantines == 0 && shm.watchdog_restarts == 0,
            tag + "no quarantines or watchdog restarts");
  out.attempt(ses.fired);
  out.fail(shm.quarantines + shm.watchdog_restarts);
  ses.ok = true;

  if (spans != nullptr) {
    const std::uint64_t id = spans->reserve_id();
    spans->add("runtime.construct+shm.arm", id, t0, t_arm);
    spans->add("first_event_visible", id, t_arm, t1);
    spans->add("orcamon.attach", id, shm.monitor_start_ns, shm.attach_ns);
    std::uint64_t n = 0;
    for (int t = 0; t < kProducerThreads; ++t) {
      for (const Batch& b : g.batches[t]) {
        spans->add("shm.push.batch", id, b.start_ns, b.end_ns, ++n, t);
      }
    }
    spans->add("producer.teardown", id, t_teardown, t_disarmed);
    spans->add("orcamon.run.return", id, t_teardown, shm.run_return_ns);
    spans->add("orcamon.write_trace", id, shm.run_return_ns,
               shm.trace_done_ns);
    spans->add("orcamon.render_report", id, shm.trace_done_ns,
               shm.report_done_ns);
    spans->add_with_id({"session", id, 0, index, 0, t0, shm.report_done_ns});
  }
  return ses;
}

}  // namespace

void run_fleet(const RunOptions& opts, double offered_mev_s, Result& out) {
  const bool overload = offered_mev_s > 1.0;
  // Sessions are short enough that the monitor's trace buffer (1M events)
  // holds what it reads.
  const double session_s = overload ? 0.5 : 1.5;
  const double bare_s = session_s;

  // A child that died early must fail its session, not kill us on write.
  ::signal(SIGPIPE, SIG_IGN);
  // Shared blocks and children first: no runtime thread exists yet.
  const std::size_t bytes = sizeof(SessionShm) * kMaxSessions;
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    out.check(false, "mmap of the session blocks");
    return;
  }
  auto* shm = static_cast<SessionShm*>(mem);
  int read_fds[kMaxSessions];
  std::vector<Child> children(kMaxSessions);
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      out.check(false, "pipe for monitor child");
      return;
    }
    read_fds[i] = fds[0];
    children[i].go_fd = fds[1];
  }
  const pid_t parent = ::getpid();
  std::fflush(stdout);
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      for (std::size_t j = 0; j < kMaxSessions; ++j) {
        ::close(children[j].go_fd);
        if (j != i) ::close(read_fds[j]);
      }
      char c = 0;
      if (::read(read_fds[i], &c, 1) == 1 && c == 'g') {
        // The monitor's threads on CPUs 2-3, away from the producer's.
        pin_self(kProducerThreads, kProducerThreads);
        run_monitor(shm[i], session_prefix(parent, i), opts.out_dir);
      }
      std::fflush(stdout);
      ::_exit(0);
    }
    children[i].pid = pid;
  }
  for (std::size_t i = 0; i < kMaxSessions; ++i) ::close(read_fds[i]);
  // Producer on CPUs 0-1, monitor on 2-3: unpinned, the load balancer
  // now and then stacks a spinning producer and a spinning shard on one
  // CPU for tens of milliseconds, which reads as generator lateness.
  const bool pinned = pin_self(0, kProducerThreads);
  note("producer threads %s", pinned ? "on CPUs 0-1, monitor on CPUs 2-3"
                                     : "not pinned (fewer than 4 CPUs)");

  SpanLog spans;
  std::vector<Session> sessions, traced_sessions;
  std::vector<double> bare;
  const std::uint64_t start = now_ns();
  const std::uint64_t budget = static_cast<std::uint64_t>(opts.seconds * 1e9);
  std::size_t next = 0;
  // One bare run, then sessions until the budget is spent (at least 3).
  bare.push_back(bare_session(opts, offered_mev_s, bare_s));
  while (next < kMaxSessions &&
         (now_ns() - start < budget || sessions.size() < 3)) {
    // The traced pass alternates untraced and traced sessions, so the
    // difference is the tracing overhead.
    const bool traced = opts.trace && next % 2 == 1;
    Session s = run_session(opts, offered_mev_s, session_s, next,
                            children[next], shm[next],
                            traced ? &spans : nullptr, out);
    ++next;
    if (!s.ok) break;
    (traced ? traced_sessions : sessions).push_back(std::move(s));
  }
  // Release the unused children (EOF) and reap them.
  for (Child& c : children) {
    if (c.go_fd >= 0) ::close(c.go_fd);
    c.go_fd = -1;
    if (c.pid > 0) {
      int status = 0;
      reap(c.pid, now_ns() + kChildDeadlineNs, &status);
      c.pid = -1;
    }
  }
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    unlink_segments(session_prefix(parent, i));
  }

  if (sessions.empty()) {
    ::munmap(mem, bytes);
    out.check(false, "at least one fleet session completed");
    return;
  }
  std::vector<Session> all = sessions;
  all.insert(all.end(), traced_sessions.begin(), traced_sessions.end());
  std::vector<double> setup, app, results, drain, late, push;
  std::vector<std::vector<double>> latency;
  std::vector<double> run_s, write_s, render_s, attach_ms;
  std::uint64_t unseen = 0, backlog_max = 0;
  for (const Session& s : sessions) {
    setup.push_back(s.setup_s);
    app.push_back(s.app_s);
    results.push_back(s.results_s);
    drain.push_back(s.drain_mev_s);
    latency.push_back(s.latency_ns);
    push.insert(push.end(), s.push_ns.begin(), s.push_ns.end());
  }
  for (const Session& s : all) {
    late.insert(late.end(), s.late_ns.begin(), s.late_ns.end());
    run_s.push_back(s.run_s);
    write_s.push_back(s.write_trace_s);
    render_s.push_back(s.render_s);
    attach_ms.push_back(s.attach_ms);
    unseen += s.unseen;
    backlog_max = std::max(backlog_max, s.backlog_max);
  }
  std::uint64_t produced = 0, read = 0, lost = 0, seen = 0, quarantines = 0,
                restarts = 0;
  for (std::size_t i = 0; i < next; ++i) {
    produced += shm[i].produced;
    read += shm[i].read;
    lost += shm[i].lost;
    seen += shm[i].events_seen;
    quarantines += shm[i].quarantines;
    restarts += shm[i].watchdog_restarts;
  }
  const double delivered =
      produced == 0 ? 0.0
                    : static_cast<double>(seen) / static_cast<double>(produced);
  if (!overload) {
    // Below the knee any loss is a failure.
    out.check(lost == 0 && unseen == 0,
              "paced: no events lost (" + std::to_string(lost) +
                  ") and every batch seen (" + std::to_string(unseen) +
                  " unseen)");
    out.fail(lost);
  }
  note("%s: %zu sessions of %.1f s at %.1f Mev/s offered: delivered %.4f, "
       "drain %.3f Mev/s, generator late p99 %.0f us",
       overload ? "fleet_overload" : "fleet_paced", all.size(), session_s,
       offered_mev_s, delivered, median(drain),
       percentile(late, 0.99) / 1e3);

  out.latency(latency);
  out.metric("path.app_ns_per_event", interquartile_mean(push), "ns");
  if (!opts.trace) {
    out.metric("setup_s", interquartile_mean(setup), "s");
    out.metric("app_s", interquartile_mean(app), "s");
    out.metric("bare_app_s", interquartile_mean(bare), "s");
    out.metric("results_s", interquartile_mean(results), "s");
    out.metric("delivered_ratio", delivered, "ratio");
    out.metric("drain_mev_s", interquartile_mean(drain), "Mev/s");
    out.metric("peak_rss_mb", peak_rss_mb(true), "MB");
  } else {
    std::vector<double> traced_app;
    for (const Session& s : traced_sessions) traced_app.push_back(s.app_s);
    const double overhead =
        traced_app.empty() ? 0.0
                           : (median(traced_app) / median(app) - 1.0) * 100.0;
    note("%s: tracing overhead on app_s %.2f%%",
         overload ? "fleet_overload" : "fleet_paced", overhead);
    out.metric("trace.app_overhead_pct", overhead, "%");
    out.metric("shm.push_ns_p50", percentile(push, 0.5), "ns");
    out.metric("shm.push_ns_p99", percentile(push, 0.99), "ns");
    out.metric("shm.produced", static_cast<double>(produced), "count");
    out.metric("shm.read", static_cast<double>(read), "count");
    out.metric("shm.lost", static_cast<double>(lost), "count");
    out.metric("orcamon.attach_ms", median(attach_ms), "ms");
    out.metric("orcamon.backlog_max", static_cast<double>(backlog_max),
               "count");
    out.metric("orcamon.events_seen", static_cast<double>(seen), "count");
    out.metric("orcamon.run_s", median(run_s), "s");
    out.metric("orcamon.write_trace_s", median(write_s), "s");
    out.metric("orcamon.render_report_s", median(render_s), "s");
    out.metric("orcamon.quarantines", static_cast<double>(quarantines),
               "count");
    out.metric("orcamon.watchdog_restarts", static_cast<double>(restarts),
               "count");
    out.check(tail_supported(late.size(), 0.99), "enough batches for p99");
    out.metric("gen.late_us_p99", percentile(late, 0.99) / 1e3, "us");
    const SessionShm& last = shm[next - 1];
    for (int i = 0; i < kStages; ++i) {
      static const char* kFields[] = {"accepted", "emitted", "filtered",
                                      "dropped", "held"};
      for (int f = 0; f < 5; ++f) {
        out.metric(std::string("pipeline.orcamon.") + kStageNames[i] + "." +
                       kFields[f],
                   static_cast<double>(last.stages[i][f]), "count");
      }
    }
    const std::string path = opts.out_dir + "/spans.json";
    out.check(spans.write_json(path, 200000), "spans written to " + path);
    note("spans: %s (%zu recorded)", path.c_str(), spans.size());
  }
  ::munmap(mem, bytes);
}

}  // namespace perfbench
