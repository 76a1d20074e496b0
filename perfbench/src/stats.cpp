#include "stats.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

/// 1-based nearest rank of the q-percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(ch) >= 0x20) std::fputc(ch, f);
  }
  std::fputc('"', f);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = nearest_rank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           std::uint64_t event, int tid) {
  Span s;
  s.name = std::move(name);
  s.id = reserve_id();
  s.parent = parent;
  s.event = event;
  s.tid = tid;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool SpanLog::write_json(const std::string& path,
                         std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t base = UINT64_MAX;
  for (const Span& s : spans_) base = std::min(base, s.start_ns);
  const std::size_t kept = std::min(max_spans, spans_.size());
  std::fprintf(f,
               "{\"otherData\":{\"spans_total\":%zu,\"spans_written\":%zu},"
               "\"traceEvents\":[\n",
               spans_.size(), kept);
  for (std::size_t i = 0; i < kept; ++i) {
    const Span& s = spans_[i];
    std::fputs(i == 0 ? "{\"name\":" : ",\n{\"name\":", f);
    json_string(f, s.name);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                 ",\"parent\":%" PRIu64 ",\"event\":%" PRIu64 "}}",
                 s.tid, static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.duration()) / 1e3, s.id, s.parent,
                 s.event);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::uint64_t self_time_ns(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.begin) return 0;
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.begin;  // end of the union so far
  for (const Interval& c : children) {
    if (c.end <= c.begin) continue;
    const std::uint64_t from = std::max(c.begin, reach);
    if (c.end > from) {
      covered += c.end - from;
      reach = c.end;
    }
  }
  return (parent.end - parent.begin) - covered;
}

OpenLoopLatency open_loop_latency(std::vector<Batch> batches,
                                  std::uint64_t base,
                                  const std::vector<Visibility>& samples) {
  std::sort(batches.begin(), batches.end(),
            [](const Batch& a, const Batch& b) { return a.due_ns < b.due_ns; });
  OpenLoopLatency out;
  out.latency_ns.reserve(batches.size());
  out.late_ns.reserve(batches.size());
  std::uint64_t total = base;
  std::size_t cursor = 0;  // counts only grow, so the search only moves on
  for (const Batch& b : batches) {
    total += b.events;
    out.late_ns.push_back(
        b.start_ns > b.due_ns ? static_cast<double>(b.start_ns - b.due_ns)
                              : 0.0);
    while (cursor < samples.size() && samples[cursor].count < total) {
      ++cursor;
    }
    if (cursor == samples.size()) {
      ++out.unseen;
      continue;
    }
    const std::uint64_t seen = samples[cursor].ns;
    out.latency_ns.push_back(
        seen > b.due_ns ? static_cast<double>(seen - b.due_ns) : 0.0);
  }
  return out;
}

}  // namespace perfbench
