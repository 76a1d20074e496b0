// Unit tests of the benchmark's statistics code. Plain asserts-that-stay
// (no test framework), so the benchmark builds from a bare checkout:
//
//   .bench_build/perfbench/perfbench_stats_test    (or run.py --selftest)
#include <cmath>
#include <cstdio>
#include <vector>

#include "json_check.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void tail_rule() {
  // p99 of n samples leaves n - ceil(0.99 n) beyond it: 10 needs n = 1000.
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(tail_supported(1000, 0.99));
  CHECK(!tail_supported(999, 0.99));
  CHECK(!tail_supported(100, 0.99));
  CHECK(tail_supported(20, 0.5));
  CHECK(!tail_supported(19, 0.5));

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(percentile(v, 0.5) == 500);
  CHECK(percentile(v, 0.99) == 990);
  CHECK(median({3, 1, 2}) == 2);
  // Middle half of 8 values: 3..6; a far outlier does not move it.
  CHECK(interquartile_mean({8, 1, 7, 2, 6, 3, 5, 4}) == 4.5);
  CHECK(interquartile_mean({1000, 1, 7, 2, 6, 3, 5, 4}) == 4.5);
  // Two clusters of equal size: the mean of the middle, not one cluster.
  CHECK(interquartile_mean({1, 1, 1, 1, 3, 3, 3, 3}) == 2);
  CHECK(interquartile_mean({2, 4}) == 3);
  CHECK(interquartile_mean({}) == 0);
  CHECK(percentile({}, 0.5) == 0);
}

void self_time() {
  // 100 ns parent, two overlapping children covering [10, 40) and one
  // child sticking out past the end: covered = 30 + 10 = 40.
  CHECK(self_time_ns({0, 100}, {{10, 30}, {20, 40}, {90, 150}}) == 60);
  // Nested children (one inside another) count once.
  CHECK(self_time_ns({0, 100}, {{10, 60}, {20, 30}}) == 50);
  // Children entirely outside, and empty ones, change nothing.
  CHECK(self_time_ns({100, 200}, {{0, 50}, {250, 300}, {150, 150}}) == 100);
  // Fully covered parent has no self time.
  CHECK(self_time_ns({0, 100}, {{0, 60}, {50, 100}}) == 0);
  CHECK(self_time_ns({0, 100}, {}) == 100);

  SpanLog log;
  const std::uint64_t root = log.add("root", 0, 0, 10);
  const std::uint64_t child = log.add("child", root, 2, 5, 7, 3);
  CHECK(root == 1 && child == 2);
  CHECK(log.spans()[1].parent == root && log.spans()[1].event == 7);
  CHECK(log.spans()[1].duration() == 3);
}

void open_loop() {
  // Two batches of 10 events due at t=100 and t=200. The consumer shows
  // 10 events at t=150 and 20 at t=260: latencies 50 and 60.
  std::vector<Visibility> seen = {{120, 5}, {150, 10}, {230, 15}, {260, 20}};
  OpenLoopLatency r =
      open_loop_latency({{200, 200, 210, 10}, {100, 100, 110, 10}}, 0, seen);
  CHECK(r.latency_ns.size() == 2 && r.unseen == 0);
  CHECK(r.latency_ns[0] == 50 && r.latency_ns[1] == 60);
  CHECK(r.late_ns[0] == 0 && r.late_ns[1] == 0);

  // The generator stalls: batch two, due at 200, is only sent at 400 and
  // seen at 420. Its latency counts from the due time (220, not 20), and
  // the stall shows as 200 ns of lateness.
  seen = {{150, 10}, {420, 20}};
  r = open_loop_latency({{100, 100, 110, 10}, {200, 400, 410, 10}}, 0, seen);
  CHECK(r.latency_ns.size() == 2);
  CHECK(r.latency_ns[1] == 220);
  CHECK(r.late_ns[1] == 200);

  // A base offset (events fired before the schedule) shifts the totals;
  // a batch whose total is never reached is unseen, not given a latency.
  seen = {{150, 12}, {300, 15}};
  r = open_loop_latency({{100, 100, 110, 10}, {200, 200, 210, 10}}, 2, seen);
  CHECK(r.latency_ns.size() == 1 && r.latency_ns[0] == 50);
  CHECK(r.unseen == 1);
}

void json() {
  CHECK(check_json_text("{\"a\":[1,-2.5e3,true,null,\"x\\u00e9\"]}").valid);
  CHECK(!check_json_text("{\"a\":[1,]}").valid);
  CHECK(!check_json_text("{\"a\":01}").valid);
  CHECK(!check_json_text("[1] x").valid);
  CHECK(!check_json_text("{\"a\":\"unterminated}").valid);
  const TraceCheck t = check_json_text(
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":42,\"tid\":0},\n"
      "{\"name\":\"x\",\"ph\":\"i\",\"pid\":42,\"tid\":1}\n]}\n");
  CHECK(t.valid);
  CHECK(t.process_pids.size() == 1 && *t.process_pids.begin() == 42);
}

}  // namespace

int main() {
  tail_rule();
  self_time();
  open_loop();
  json();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_stats_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::puts("perfbench_stats_test: all checks passed");
  return 0;
}
