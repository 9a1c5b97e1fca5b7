// Shared pieces of the GATES benchmark: run options, the clock, the span
// recorder the traced run uses, and the result a workload hands back.
//
// The benchmark measures the middleware only from outside: it times its own
// calls into the public API and the callbacks (generators, processors,
// emitters) the engine makes into benchmark code. Nothing here reaches into
// gates internals, and obs::Profiler stays off, because enabling it moves a
// stage off the engine's fast loop and so changes the path being measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gatesbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (inside the checkout).
  std::string out_dir = ".bench_out";
  /// The wire-tcp daemon binary (built next to the benchmark binary).
  std::string node_bin;
};

/// Monotonic nanoseconds. CLOCK_MONOTONIC is shared by every process on
/// the host, so stamps taken in a daemon compare with the coordinator's.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// -- spans -------------------------------------------------------------------

enum class SpanKind : std::uint16_t {
  kGenerate,  // generator callback
  kProcess,   // process() entry to exit; `child_ns` = time inside emit()
  kEmit,      // emit() call made by a benchmark processor
  kSetup,     // one set-up phase (parse, deploy, engine, first generation)
  kProbe,     // one batch of an isolated layer call
};

const char* span_kind_name(SpanKind kind);

/// One span. Stages are numbered by pipeline index; sources by -1 - index.
/// `key` identifies the packet (stream << 48 | sequence) so the handoff
/// from one stage's emit() to the next stage's process() can be joined.
struct Span {
  SpanKind kind = SpanKind::kProcess;
  std::int32_t stage = 0;
  std::uint64_t key = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;
  /// Which sub-run the span belongs to, and a label for set-up and probe
  /// spans (from SpanLog::label()).
  std::uint32_t run = 0;
  std::uint32_t label = 0;
};

inline std::uint64_t packet_key(std::uint64_t stream, std::uint64_t seq) {
  return (stream << 48) | (seq & ((1ull << 48) - 1));
}

/// In-memory span store: one buffer per recording thread, so recording
/// takes no lock after a thread's first span. Spans are written out only
/// when the benchmark ends.
class SpanLog {
 public:
  static SpanLog& global();

  /// Recording is off unless the run is traced; callers test this first.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Sub-run the spans recorded from now on belong to.
  void set_run(std::uint32_t run) { run_ = run; }

  void record(const Span& span);
  void record(SpanKind kind, std::int32_t stage, std::uint64_t key,
              std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t child_ns = 0, std::uint32_t label = 0) {
    record(Span{kind, stage, key, start_ns, end_ns, child_ns, run_, label});
  }
  std::uint32_t label(const std::string& text);

  /// Every span recorded so far, in no particular order. Call only while
  /// no thread records.
  std::vector<Span> collect() const;
  std::uint64_t dropped() const;

  /// Writes one JSON object per span to `path`.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::vector<std::string> labels_ = {""};
};

/// Spans are kept for one packet in `sample_every` (by sequence number), so
/// a traced multi-million-packet run stays within memory. The periods are
/// primes: a power of two would line up with the engine's 32-packet batches
/// and arena refills and always sample the same position within them.
inline constexpr std::uint64_t kSampleSaturated = 509;
/// Paced sub-runs move far fewer packets, so they keep more of them.
inline constexpr std::uint64_t kSamplePaced = 31;
inline std::uint64_t g_sample_every = kSampleSaturated;
/// Set only between sub-runs: engine threads start after the store.
inline void set_sample_every(std::uint64_t n) { g_sample_every = n; }
inline bool sampled(std::uint64_t seq) { return seq % g_sample_every == 0; }

// -- results -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload invocation reports.
struct Result {
  /// The metrics of the final JSON line (end-to-end or per-layer set).
  std::map<std::string, Metric> metrics;
  /// Further labelled figures printed above the JSON line only.
  std::vector<std::pair<std::string, Metric>> extras;
  /// The configuration the numbers were measured under.
  std::vector<std::pair<std::string, std::string>> config;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable oracle failures.
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void extra(const std::string& name, double value, const std::string& unit) {
    extras.push_back({name, Metric{value, unit}});
  }
  void conf(const std::string& key, const std::string& value) {
    config.push_back({key, value});
  }
  void conf(const std::string& key, double value);
  void fail(std::uint64_t packets, const std::string& why) {
    failed += packets;
    errors.push_back(why);
  }
};

// -- process accounting (report.cpp) -----------------------------------------

/// User + system CPU seconds of this process (and, with `children`, of its
/// waited-for children).
double cpu_seconds(bool children);
/// Peak resident set in MiB of this process, or of its largest waited-for
/// child.
double peak_rss_mb(bool children);
/// Host facts every result row carries: CPUs, affinity mask, build type.
void describe_host(Result& r);

/// Host-wide CPU time from /proc/stat, in clock ticks (zeros when
/// unreadable): the share of it stolen by the hypervisor says how contended
/// the host was while a result was measured.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};
CpuTicks host_cpu_ticks();
/// Prints config, extras and metrics as labelled rows, then the JSON line.
void print_result(const Result& r);

}  // namespace gatesbench
