// Span storage, process accounting and the result printer.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench.hpp"

#ifndef GATESBENCH_BUILD_TYPE
#define GATESBENCH_BUILD_TYPE "unknown"
#endif

namespace gatesbench {

// -- spans -------------------------------------------------------------------

namespace {

/// Spans one thread may hold (32 MiB at 48 bytes a span); more are counted
/// as dropped rather than grown without bound.
constexpr std::size_t kSpansPerThread = std::size_t{1} << 19;

struct ThreadSpans {
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
};

std::mutex g_span_mu;
/// Owned here for the life of the process: a buffer must outlive the engine
/// thread that filled it, since spans are collected after the run.
std::vector<std::unique_ptr<ThreadSpans>> g_span_buffers;
thread_local ThreadSpans* t_spans = nullptr;

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGenerate: return "generate";
    case SpanKind::kProcess: return "process";
    case SpanKind::kEmit: return "emit";
    case SpanKind::kSetup: return "setup";
    case SpanKind::kProbe: return "probe";
  }
  return "?";
}

SpanLog& SpanLog::global() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::record(const Span& span) {
  if (t_spans == nullptr) {
    auto buffer = std::make_unique<ThreadSpans>();
    buffer->spans.reserve(4096);
    t_spans = buffer.get();
    std::lock_guard<std::mutex> lock(g_span_mu);
    g_span_buffers.push_back(std::move(buffer));
  }
  if (t_spans->spans.size() >= kSpansPerThread) {
    ++t_spans->dropped;
    return;
  }
  t_spans->spans.push_back(span);
}

std::uint32_t SpanLog::label(const std::string& text) {
  std::lock_guard<std::mutex> lock(g_span_mu);
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == text) return static_cast<std::uint32_t>(i);
  }
  labels_.push_back(text);
  return static_cast<std::uint32_t>(labels_.size() - 1);
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(g_span_mu);
  std::vector<Span> all;
  for (const auto& b : g_span_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(g_span_mu);
  std::uint64_t n = 0;
  for (const auto& b : g_span_buffers) n += b->dropped;
  return n;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : collect()) {
    std::fprintf(f,
                 "{\"kind\":\"%s\",\"stage\":%d,\"key\":%llu,\"run\":%u,"
                 "\"label\":\"%s\",\"start_ns\":%lld,\"dur_ns\":%lld,"
                 "\"child_ns\":%lld}\n",
                 span_kind_name(s.kind), s.stage,
                 static_cast<unsigned long long>(s.key), s.run,
                 s.label < labels_.size() ? labels_[s.label].c_str() : "",
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns - s.start_ns),
                 static_cast<long long>(s.child_ns));
  }
  return std::fclose(f) == 0;
}

// -- process accounting --------------------------------------------------------

namespace {
double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double cpu_seconds(bool children) {
  rusage ru{};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}

double peak_rss_mb(bool children) {
  rusage ru{};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::conf(const std::string& key, double value) {
  std::ostringstream out;
  out << value;
  config.push_back({key, out.str()});
}

namespace {
/// "0-3" style list of the CPUs this process may run on.
std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return "?";
  std::string out;
  int run_start = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool in = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &set);
    if (in && run_start < 0) run_start = cpu;
    if (!in && run_start >= 0) {
      if (!out.empty()) out += ",";
      out += std::to_string(run_start);
      if (cpu - 1 > run_start) out += "-" + std::to_string(cpu - 1);
      run_start = -1;
    }
  }
  return out;
}
}  // namespace

CpuTicks host_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += static_cast<double>(x);
    t.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return t;
}

void describe_host(Result& r) {
  r.conf("host_cpus_online", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  r.conf("affinity", affinity_list());
  r.conf("build_type", GATESBENCH_BUILD_TYPE);
  r.conf("compiler", __VERSION__);
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

void print_result(const Result& r) {
  std::printf("config:");
  for (const auto& [k, v] : r.config) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  for (const auto& [name, m] : r.extras) {
    std::printf("extra   %-40s %16.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, m] : r.metrics) {
    std::printf("metric  %-40s %16.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& e : r.errors) std::printf("error   %s\n", e.c_str());
  const double failed_frac =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("extra   %-40s %16.6g %s\n", "failed_frac", failed_frac, "ratio");

  bool finite = true;
  for (const auto& entry : r.metrics) finite &= std::isfinite(entry.second.value);
  if (!finite) std::printf("error   a metric was not a finite number\n");
  const bool correct =
      r.failed == 0 && r.errors.empty() && r.attempted > 0 && finite;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    json << (first ? "" : ", ") << "\"" << json_escape(name)
         << "\": {\"value\": " << (std::isfinite(m.value) ? m.value : 0.0)
         << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

}  // namespace gatesbench
